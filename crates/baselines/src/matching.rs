//! Bipartite matching baselines: centralized Hopcroft–Karp (the oracle)
//! and a distributed augmenting-path algorithm in the Õ(s_max)-round
//! spirit of \[AKO18\].

use congest_sim::{CongestError, Network};
use std::collections::VecDeque;
use twgraph::UGraph;

/// Maximum bipartite matching (Hopcroft–Karp). Returns `mate[v]`.
pub fn hopcroft_karp(g: &UGraph, side: &[bool]) -> Vec<Option<u32>> {
    let n = g.n();
    let mut mate: Vec<Option<u32>> = vec![None; n];
    let lefts: Vec<u32> = (0..n as u32).filter(|&v| side[v as usize]).collect();
    loop {
        // BFS layering from free left vertices.
        let mut layer = vec![u32::MAX; n];
        let mut q = VecDeque::new();
        for &l in &lefts {
            if mate[l as usize].is_none() {
                layer[l as usize] = 0;
                q.push_back(l);
            }
        }
        let mut found_free_right = false;
        while let Some(u) = q.pop_front() {
            for &r in g.neighbors(u) {
                match mate[r as usize] {
                    None => found_free_right = true,
                    Some(next_l) => {
                        if layer[next_l as usize] == u32::MAX {
                            layer[next_l as usize] = layer[u as usize] + 1;
                            q.push_back(next_l);
                        }
                    }
                }
            }
        }
        if !found_free_right {
            break;
        }
        // DFS phase: vertex-disjoint shortest augmenting paths.
        fn try_augment(g: &UGraph, u: u32, mate: &mut [Option<u32>], layer: &mut [u32]) -> bool {
            for i in 0..g.neighbors(u).len() {
                let r = g.neighbors(u)[i];
                match mate[r as usize] {
                    None => {
                        mate[r as usize] = Some(u);
                        mate[u as usize] = Some(r);
                        return true;
                    }
                    Some(next_l) => {
                        if layer[next_l as usize] == layer[u as usize] + 1
                            && try_augment(g, next_l, mate, layer)
                        {
                            mate[r as usize] = Some(u);
                            mate[u as usize] = Some(r);
                            return true;
                        }
                    }
                }
            }
            layer[u as usize] = u32::MAX; // dead end
            false
        }
        let mut progressed = false;
        for &l in &lefts {
            if mate[l as usize].is_none() && layer[l as usize] == 0 {
                progressed |= try_augment(g, l, &mut mate, &mut layer);
            }
        }
        if !progressed {
            break;
        }
    }
    mate
}

/// Cardinality of a matching given as `mate[]`.
pub fn matching_size(mate: &[Option<u32>]) -> usize {
    mate.iter().flatten().count() / 2
}

#[derive(Clone)]
struct MState {
    mate: Option<u32>,
    /// Alternating-BFS parent (the right vertex that reached this left
    /// vertex through a matched edge), per phase.
    parent: Option<u32>,
    layered: bool,
    fresh: bool,
    /// Free-right hit discovered this phase (right side only).
    reached_free: bool,
}

/// Distributed augmenting-path matching: phases of alternating BFS from
/// all free left vertices; one vertex-disjoint augmenting path set is
/// flipped per phase (greedy, id-priority). O(s_max) phases, each costing
/// O(path length) supersteps — the Õ(s_max)-round flavour of \[AKO18\],
/// measured honestly. Returns `(mate, rounds)`.
pub fn matching_distributed_baseline(
    net: &mut Network,
    g: &UGraph,
    side: &[bool],
) -> Result<(Vec<Option<u32>>, u64), CongestError> {
    let n = g.n();
    assert_eq!(net.n(), n);
    let start = net.metrics().rounds;
    let mut states: Vec<MState> = (0..n)
        .map(|_| MState {
            mate: None,
            parent: None,
            layered: false,
            fresh: false,
            reached_free: false,
        })
        .collect();

    // Each phase: (1) alternating BFS flood; (2) back-trace flips along a
    // greedily chosen disjoint set of augmenting paths. The orchestrator
    // only advances phases; all matching state lives at the nodes.
    let max_phases = n + 2;
    for _phase in 0..max_phases {
        // Reset BFS state (local).
        for (v, s) in states.iter_mut().enumerate() {
            s.parent = None;
            s.reached_free = false;
            s.layered = side[v] && s.mate.is_none();
            s.fresh = s.layered;
        }
        // Alternating BFS: left→right over unmatched edges (messages),
        // right→left over the matched edge (message to mate).
        let side_ref = side;
        net.run_until_quiet(
            &mut states,
            |u, s, out| {
                if !std::mem::take(&mut s.fresh) {
                    return false;
                }
                if side_ref[u as usize] {
                    // Left: probe all neighbours except the mate.
                    let mate = s.mate;
                    out.extend(
                        g.neighbors(u)
                            .iter()
                            .copied()
                            .filter(|&r| mate != Some(r))
                            .map(|r| (r, 0u32)),
                    );
                } else if let Some(l) = s.mate {
                    // Right: matched rights forward to their mate.
                    out.send(l, 1u32);
                }
                false
            },
            |v, s, inbox| {
                for (src, _tag) in inbox {
                    if side_ref[v as usize] {
                        // Left reached through its matched right neighbour.
                        if !s.layered && s.mate.is_some() {
                            s.layered = true;
                            s.parent = Some(src);
                            s.fresh = true;
                        }
                    } else {
                        // Right reached by a left probe.
                        if !s.layered {
                            s.layered = true;
                            s.parent = Some(src);
                            if s.mate.is_none() {
                                s.reached_free = true;
                            } else {
                                s.fresh = true;
                            }
                        }
                    }
                }
                s.fresh
            },
            4 * n as u64 + 16,
        )?;
        // Collect free rights that were reached; flip greedily disjoint
        // paths (the back-walk is node-local chasing of parent pointers —
        // charge one round per hop by replaying it as messages).
        let mut hit: Vec<u32> = (0..n as u32)
            .filter(|&v| states[v as usize].reached_free)
            .collect();
        if hit.is_empty() {
            break;
        }
        hit.sort_unstable();
        let mut used = vec![false; n];
        let mut flips = 0u64;
        for &r0 in &hit {
            // Trace r0 ← left ← right ← … ← free left; skip if any vertex
            // already used this phase (vertex-disjointness).
            let mut path = vec![r0];
            let mut cur = r0;
            let mut ok = true;
            loop {
                let Some(p) = states[cur as usize].parent else {
                    ok = false;
                    break;
                };
                path.push(p);
                if side[p as usize] && states[p as usize].mate.is_none() {
                    break; // reached a free left vertex
                }
                let Some(p2) = states[p as usize].parent else {
                    ok = false;
                    break;
                };
                // p is a matched left; p2 is the right that reached it
                // through the matched edge... parent of left = the right
                // mate it was reached through; continue from that right's
                // probe parent.
                path.push(p2);
                cur = p2;
            }
            if !ok || path.iter().any(|&v| used[v as usize]) {
                continue;
            }
            for &v in &path {
                used[v as usize] = true;
            }
            // Flip: pair consecutive (right, left) along the path.
            let mut i = 0;
            while i + 1 < path.len() {
                let r = path[i];
                let l = path[i + 1];
                states[r as usize].mate = Some(l);
                states[l as usize].mate = Some(r);
                i += 2;
            }
            flips += path.len() as u64;
        }
        // Charge the back-walk traffic: one word per hop flipped.
        net.charge_rounds(flips.max(1));
    }

    Ok((
        states.into_iter().map(|s| s.mate).collect(),
        net.metrics().rounds - start,
    ))
}

/// Validity check: `mate` is a matching on `g` respecting bipartiteness.
pub fn is_valid_matching(g: &UGraph, side: &[bool], mate: &[Option<u32>]) -> bool {
    for v in 0..g.n() as u32 {
        if let Some(m) = mate[v as usize] {
            if mate[m as usize] != Some(v) {
                return false;
            }
            if !g.has_edge(v, m) {
                return false;
            }
            if side[v as usize] == side[m as usize] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::NetworkConfig;
    use twgraph::gen::bipartite_banded;

    #[test]
    fn hk_on_perfect_matchable() {
        // Complete bipartite K_{3,3}.
        let g = UGraph::from_edges(6, (0..3u32).flat_map(|l| (3..6u32).map(move |r| (l, r))));
        let side = vec![true, true, true, false, false, false];
        let mate = hopcroft_karp(&g, &side);
        assert_eq!(matching_size(&mate), 3);
        assert!(is_valid_matching(&g, &side, &mate));
    }

    #[test]
    fn hk_path_graph() {
        // Path l0-r0-l1-r1: maximum matching 2.
        let g = UGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let side = vec![true, false, true, false];
        let mate = hopcroft_karp(&g, &side);
        assert_eq!(matching_size(&mate), 2);
    }

    #[test]
    fn distributed_baseline_matches_hk_size() {
        for seed in 0..5 {
            let (g, side) = bipartite_banded(20, 20, 2, 0.6, seed);
            let truth = matching_size(&hopcroft_karp(&g, &side));
            let mut net = Network::new(g.clone(), NetworkConfig::default());
            let (mate, rounds) = matching_distributed_baseline(&mut net, &g, &side).unwrap();
            assert!(is_valid_matching(&g, &side, &mate), "seed {seed}");
            assert_eq!(matching_size(&mate), truth, "seed {seed}");
            assert!(rounds > 0);
        }
    }

    #[test]
    fn empty_graph() {
        let g = UGraph::empty(4);
        let side = vec![true, true, false, false];
        assert_eq!(matching_size(&hopcroft_karp(&g, &side)), 0);
    }

    #[test]
    fn star_takes_one() {
        let g = UGraph::from_edges(5, (1..5u32).map(|r| (0, r)));
        let side = vec![true, false, false, false, false];
        assert_eq!(matching_size(&hopcroft_karp(&g, &side)), 1);
    }
}
