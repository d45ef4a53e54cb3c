//! Global leader election and BFS tree — the backbone every Steiner-based
//! operation rides on, and the O(D)-round control-pulse charge.

use congest_sim::{CongestError, Network};

/// A BFS spanning tree of the (connected) communication graph.
#[derive(Clone, Debug)]
pub struct GlobalTree {
    /// The elected root.
    pub root: u32,
    /// Parent per node (root points to itself).
    pub parent: Vec<u32>,
    /// Hop depth per node.
    pub depth: Vec<u32>,
    /// Maximum depth (≤ diameter).
    pub height: u32,
}

impl GlobalTree {
    /// Children lists derived from the parent pointers.
    pub fn children(&self) -> Vec<Vec<u32>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for v in 0..self.parent.len() as u32 {
            let p = self.parent[v as usize];
            if p != v {
                ch[p as usize].push(v);
            }
        }
        ch
    }

    /// Charge one global control pulse: a constant-size convergecast up the
    /// tree plus a broadcast down (the cost of the orchestrator learning one
    /// O(1)-word global predicate and announcing the next phase — DESIGN.md
    /// §4.4 keeps this explicit so control flow is never free).
    pub fn charge_control_pulse(&self, net: &mut Network) {
        net.charge_rounds(2 * (self.height as u64 + 1));
    }
}

#[derive(Clone)]
struct ElectState {
    best: u64,
    fresh: bool,
}

/// Distributed leader election by max-UID flooding. Every node learns the
/// maximum UID in its component; rounds ≈ diameter (measured). Returns the
/// winning node index (resolved from the winning UID).
pub fn elect_global_leader(net: &mut Network) -> Result<u32, CongestError> {
    let n = net.n();
    let g = net.graph_handle();
    let mut states: Vec<ElectState> = (0..n as u32)
        .map(|v| ElectState {
            best: net.uid(v),
            fresh: true,
        })
        .collect();
    net.run_until_quiet(
        &mut states,
        |u, s, out| {
            if s.fresh {
                out.extend(g.neighbors(u).iter().map(|&v| (v, s.best)));
                s.fresh = false;
            }
            false
        },
        |_v, s, inbox| {
            for (_src, uid) in inbox {
                if uid > s.best {
                    s.best = uid;
                    s.fresh = true;
                }
            }
            s.fresh
        },
        4 * n as u64 + 16,
    )?;
    let winner_uid = states[0].best;
    Ok((0..n as u32)
        .find(|&v| net.uid(v) == winner_uid)
        .expect("winning uid must belong to some node"))
}

#[derive(Clone)]
struct BfsState {
    dist: u32,
    parent: u32,
    fresh: bool,
}

/// Distributed BFS tree from `root` over the whole communication graph.
/// Rounds ≈ eccentricity(root) + 1, measured.
pub fn build_bfs_tree(net: &mut Network, root: u32) -> Result<GlobalTree, CongestError> {
    let n = net.n();
    let g = net.graph_handle();
    let mut states = vec![
        BfsState {
            dist: u32::MAX,
            parent: u32::MAX,
            fresh: false,
        };
        n
    ];
    states[root as usize] = BfsState {
        dist: 0,
        parent: root,
        fresh: true,
    };
    net.run_until_quiet(
        &mut states,
        |u, s, out| {
            if s.fresh {
                out.extend(g.neighbors(u).iter().map(|&v| (v, s.dist)));
                s.fresh = false;
            }
            false
        },
        |_v, s, inbox| {
            for (src, d) in inbox {
                if d + 1 < s.dist {
                    s.dist = d + 1;
                    s.parent = src; // inbox sorted by src → deterministic
                    s.fresh = true;
                }
            }
            s.fresh
        },
        4 * n as u64 + 16,
    )?;
    assert!(
        states.iter().all(|s| s.dist != u32::MAX),
        "communication graph must be connected"
    );
    let height = states.iter().map(|s| s.dist).max().unwrap_or(0);
    Ok(GlobalTree {
        root,
        parent: states.iter().map(|s| s.parent).collect(),
        depth: states.iter().map(|s| s.dist).collect(),
        height,
    })
}

/// Elect a leader and build the global BFS tree in one go.
pub fn build_global_tree(net: &mut Network) -> Result<GlobalTree, CongestError> {
    let leader = elect_global_leader(net)?;
    let tree = build_bfs_tree(net, leader)?;
    net.snapshot("primitives/backbone");
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{Network, NetworkConfig};
    use twgraph::gen::{cycle, grid, path};

    #[test]
    fn bfs_tree_depths_match_centralized() {
        let g = grid(4, 5);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let t = build_bfs_tree(&mut net, 0).unwrap();
        let d = twgraph::alg::bfs_dist(&g, 0);
        assert_eq!(t.depth, d);
        assert_eq!(t.root, 0);
        assert_eq!(t.parent[0], 0);
        for v in 1..g.n() as u32 {
            assert!(g.has_edge(v, t.parent[v as usize]));
            assert_eq!(
                t.depth[v as usize],
                t.depth[t.parent[v as usize] as usize] + 1
            );
        }
    }

    #[test]
    fn leader_election_converges_to_max_uid() {
        let g = cycle(17);
        let mut net = Network::new(g, NetworkConfig::default());
        let leader = elect_global_leader(&mut net).unwrap();
        let max_uid = (0..17).map(|v| net.uid(v)).max().unwrap();
        assert_eq!(net.uid(leader), max_uid);
    }

    #[test]
    fn election_cost_near_diameter() {
        let g = path(64);
        let mut net = Network::new(g, NetworkConfig::default());
        let before = net.metrics().rounds;
        let _ = elect_global_leader(&mut net).unwrap();
        let rounds = net.metrics().rounds - before;
        // Max-flood on a path finishes within ~2×diameter supersteps.
        assert!(rounds <= 2 * 64 + 4, "rounds = {rounds}");
        assert!(rounds >= 32, "suspiciously cheap: {rounds}");
    }

    #[test]
    fn control_pulse_charges() {
        let g = path(10);
        let mut net = Network::new(g, NetworkConfig::default());
        let t = build_bfs_tree(&mut net, 0).unwrap();
        let before = net.metrics().rounds;
        t.charge_control_pulse(&mut net);
        assert_eq!(net.metrics().rounds - before, 2 * (9 + 1));
    }

    #[test]
    fn children_consistent() {
        let g = grid(3, 3);
        let mut net = Network::new(g, NetworkConfig::default());
        let t = build_bfs_tree(&mut net, 4).unwrap();
        let ch = t.children();
        let total: usize = ch.iter().map(Vec::len).sum();
        assert_eq!(total, 8); // n−1 tree edges
        for (p, list) in ch.iter().enumerate() {
            for &c in list {
                assert_eq!(t.parent[c as usize], p as u32);
            }
        }
    }
}
