//! RST — rooted spanning trees per part, by parallel BFS flooding
//! (paper Lemma 8's RST task).
//!
//! All parts flood simultaneously in shared supersteps, so the measured
//! cost is `O(max part diameter + interference)`, the scheduling-theorem
//! envelope. A one-superstep membership exchange lets senders target only
//! neighbours in the same part; a final notification superstep gives every
//! parent its child list.

use crate::parts::Parts;
use crate::roles::TreeRoles;
use crate::snc;
use congest_sim::{CongestError, Network};

#[derive(Clone)]
struct PBfsState {
    /// Aligned with the node's membership list: (dist, parent), or MAX.
    dist: Vec<u32>,
    parent: Vec<u32>,
    fresh: Vec<bool>,
    /// Neighbours known to share each membership (filled by the preamble).
    nbrs: Vec<Vec<u32>>,
}

/// Build one BFS tree per part, rooted at the given `(part, root)` pairs.
/// Every part must be connected within the communication graph restricted
/// to its members; the root must be a member.
///
/// The membership-exchange preamble and the child-notification round are
/// full-network SNCs (every node advertises, members notify); the flood in
/// between runs on the frontier loop scoped to the member nodes, so a
/// superstep costs O(senders + receivers + messages) at identical charged
/// metrics.
pub fn part_bfs_trees(
    net: &mut Network,
    parts: &Parts,
    roots: &[(u32, u32)],
) -> Result<TreeRoles, CongestError> {
    let n = net.n();
    assert_eq!(parts.members.len(), n);
    let memberships = &parts.members;

    // The nodes that belong to any part, sorted — the flood's active set.
    let active: Vec<u32> = (0..n as u32)
        .filter(|&v| !memberships[v as usize].is_empty())
        .collect();

    // Preamble SNC: learn which neighbours share which parts.
    let shared = snc::share_with_neighbors(net, |v| memberships[v as usize].clone())?;
    let mut states: Vec<PBfsState> = active
        .iter()
        .map(|&v| {
            let mine = &memberships[v as usize];
            let nbrs: Vec<Vec<u32>> = mine
                .iter()
                .map(|&p| {
                    shared[v as usize]
                        .iter()
                        .filter(|(_, their)| their.binary_search(&p).is_ok())
                        .map(|&(w, _)| w)
                        .collect()
                })
                .collect();
            PBfsState {
                dist: vec![u32::MAX; mine.len()],
                parent: vec![u32::MAX; mine.len()],
                fresh: vec![false; mine.len()],
                nbrs,
            }
        })
        .collect();
    let pos_of = |v: u32| -> usize {
        active
            .binary_search(&v)
            .unwrap_or_else(|_| panic!("node {v} belongs to no part"))
    };
    for &(p, r) in roots {
        let idx = memberships[r as usize]
            .binary_search(&p)
            .unwrap_or_else(|_| panic!("root {r} is not a member of part {p}"));
        let rp = pos_of(r);
        states[rp].dist[idx] = 0;
        states[rp].parent[idx] = r;
        states[rp].fresh[idx] = true;
    }

    net.run_until_quiet_on(
        &active,
        &mut states,
        |u, s, out| {
            for (i, &p) in memberships[u as usize].iter().enumerate() {
                if std::mem::take(&mut s.fresh[i]) {
                    out.extend(s.nbrs[i].iter().map(|&w| (w, (p, s.dist[i]))));
                }
            }
            false
        },
        |v, s, inbox| {
            let mut armed = false;
            for (src, (p, d)) in inbox {
                if let Ok(i) = memberships[v as usize].binary_search(&p) {
                    if d + 1 < s.dist[i] {
                        s.dist[i] = d + 1;
                        s.parent[i] = src;
                        s.fresh[i] = true;
                        armed = true;
                    }
                }
            }
            armed
        },
        8 * n as u64 + 64,
    )?;

    // Notification SNC: tell parents about children (the cost of producing
    // the RST output format of Lemma 8). Parents are members, so this round
    // is scoped too.
    let mut children: Vec<Vec<(u32, Vec<u32>)>> = active
        .iter()
        .map(|&v| {
            memberships[v as usize]
                .iter()
                .map(|&p| (p, Vec::new()))
                .collect()
        })
        .collect();
    let states_ref = &states;
    let pos_ref = &pos_of;
    net.superstep_on(
        &active,
        &mut children,
        |u, _c| {
            let mut out = Vec::new();
            let su = &states_ref[pos_ref(u)];
            for (i, &p) in memberships[u as usize].iter().enumerate() {
                let par = su.parent[i];
                if par != u32::MAX && par != u {
                    out.push((par, p));
                }
            }
            out
        },
        |v, c, inbox| {
            for (src, p) in inbox {
                let i = memberships[v as usize].binary_search(&p).unwrap();
                c[i].1.push(src);
            }
        },
    )?;

    // Assemble the roles (each node's local knowledge, gathered by the
    // orchestrator as output).
    let mut maps: std::collections::HashMap<u32, Vec<(u32, u32, bool)>> =
        std::collections::HashMap::new();
    for (pos, &v) in active.iter().enumerate() {
        for (i, &p) in memberships[v as usize].iter().enumerate() {
            let par = states[pos].parent[i];
            assert!(
                par != u32::MAX,
                "part {p} is disconnected: node {v} unreached"
            );
            maps.entry(p).or_default().push((v, par, false));
        }
    }
    let mut maps: Vec<_> = maps.into_iter().collect();
    maps.sort_by_key(|&(p, _)| p);
    Ok(TreeRoles::from_parent_maps(n, maps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{Network, NetworkConfig};
    use twgraph::gen::{banded_path, grid};

    #[test]
    fn trees_span_parts() {
        // Grid rows as parts.
        let g = grid(3, 5);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let labels: Vec<Option<u32>> = (0..15).map(|v| Some(v / 5)).collect();
        let parts = Parts::from_labels(&labels);
        let roots = [(0u32, 0u32), (1, 5), (2, 10)];
        let tr = part_bfs_trees(&mut net, &parts, &roots).unwrap();
        tr.validate().unwrap();
        assert_eq!(tr.roots(), vec![(0, 0), (1, 5), (2, 10)]);
        // Tree edges are graph edges within the part.
        for v in 0..15u32 {
            for r in &tr.roles[v as usize] {
                if r.parent != v {
                    assert!(g.has_edge(v, r.parent));
                    assert_eq!(labels[v as usize], labels[r.parent as usize]);
                }
            }
        }
    }

    #[test]
    fn bfs_tree_depth_is_part_distance() {
        let g = banded_path(30, 3);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        // One part = whole graph.
        let parts = Parts::from_labels(&vec![Some(0); 30]);
        let tr = part_bfs_trees(&mut net, &parts, &[(0, 0)]).unwrap();
        // Parent distance decreases by one hop along the tree.
        let d = twgraph::alg::bfs_dist(&g, 0);
        for v in 1..30u32 {
            let r = tr.role_of(v, 0).unwrap();
            assert_eq!(d[v as usize], d[r.parent as usize] + 1);
        }
    }

    #[test]
    fn near_disjoint_shared_root() {
        // Path 0-1-2-3-4; parts {0,1,2} and {2,3,4} share node 2.
        let g = twgraph::gen::path(5);
        let mut net = Network::new(g, NetworkConfig::default());
        let parts =
            Parts::from_lists(2, vec![vec![0], vec![0], vec![0, 1], vec![1], vec![1]]).unwrap();
        let tr = part_bfs_trees(&mut net, &parts, &[(0, 2), (1, 2)]).unwrap();
        tr.validate().unwrap();
        assert_eq!(tr.roots(), vec![(0, 2), (1, 2)]);
        assert_eq!(tr.role_of(0, 0).unwrap().parent, 1);
        assert_eq!(tr.role_of(4, 1).unwrap().parent, 3);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_part_detected() {
        let g = twgraph::gen::path(5);
        let mut net = Network::new(g, NetworkConfig::default());
        // Part 0 = {0, 4}: not connected through members only.
        let parts = Parts::from_lists(1, vec![vec![0], vec![], vec![], vec![], vec![0]]).unwrap();
        let _ = part_bfs_trees(&mut net, &parts, &[(0, 0)]).unwrap();
    }
}
