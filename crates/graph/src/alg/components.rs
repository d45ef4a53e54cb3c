//! Connected components of undirected graphs.

use crate::ugraph::UGraph;
use std::collections::{HashMap, VecDeque};

/// Component id per vertex, numbered 0.. in order of discovery, plus the
/// number of components.
pub fn components(g: &UGraph) -> (Vec<u32>, usize) {
    let mut comp = vec![u32::MAX; g.n()];
    let mut next = 0u32;
    let mut q = VecDeque::new();
    for s in g.vertices() {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        comp[s as usize] = next;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = next;
                    q.push_back(v);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Whether the graph is connected (vacuously true for n ≤ 1).
pub fn is_connected(g: &UGraph) -> bool {
    g.n() <= 1 || components(g).1 == 1
}

/// Whether `u` and `v` lie in one component of `g`. Two breadth-first
/// searches, one from each end, take one vertex each in turn and stop
/// when they meet or when either runs out, so the cost is bounded by
/// about twice the smaller side's work rather than by `n`.
pub fn connected(g: &UGraph, u: u32, v: u32) -> bool {
    if u == v {
        return true;
    }
    // Vertex → which search reached it first (false: from `u`).
    let mut side: HashMap<u32, bool> = HashMap::from([(u, false), (v, true)]);
    let mut queues = [VecDeque::from([u]), VecDeque::from([v])];
    loop {
        for (from_v, q) in [false, true].into_iter().zip(queues.iter_mut()) {
            let Some(x) = q.pop_front() else {
                return false;
            };
            for &y in g.neighbors(x) {
                match side.get(&y) {
                    Some(&s) if s != from_v => return true,
                    Some(_) => {}
                    None => {
                        side.insert(y, from_v);
                        q.push_back(y);
                    }
                }
            }
        }
    }
}

/// Index of the largest component by a vertex measure `mu` (ties broken by
/// lower component id), together with per-component measure totals.
///
/// `mu[v]` is the weight each vertex contributes — the paper's µ_X measure
/// (§3.1) uses `mu[v] = 1` iff `v ∈ X`.
pub fn largest_component(comp: &[u32], n_comp: usize, mu: &[u64]) -> (usize, Vec<u64>) {
    let mut totals = vec![0u64; n_comp];
    for (v, &c) in comp.iter().enumerate() {
        totals[c as usize] += mu[v];
    }
    let best = (0..n_comp)
        .max_by_key(|&c| (totals[c], usize::MAX - c))
        .unwrap_or(0);
    (best, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UGraph;

    #[test]
    fn two_components() {
        let g = UGraph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        let (comp, k) = components(&g);
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connected_cycle() {
        let g = UGraph::from_edges(4, (0..4u32).map(|i| (i, (i + 1) % 4)));
        assert!(is_connected(&g));
    }

    #[test]
    fn connected_pairs_agree_with_components() {
        let g = UGraph::from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (7, 7)]);
        let (comp, _) = components(&g);
        for u in 0..9 {
            for v in 0..9 {
                assert_eq!(
                    connected(&g, u, v),
                    comp[u as usize] == comp[v as usize],
                    "({u},{v})"
                );
            }
        }
    }

    #[test]
    fn largest_by_measure() {
        let g = UGraph::from_edges(5, [(0, 1), (2, 3)]);
        let (comp, k) = components(&g);
        // Uniform measure: component {0,1} and {2,3} tie at 2, isolated 4 has 1.
        let (big, totals) = largest_component(&comp, k, &[1; 5]);
        assert_eq!(totals.iter().sum::<u64>(), 5);
        assert_eq!(totals[big], 2);
        // Skewed measure puts all the mass on vertex 4.
        let (big2, _) = largest_component(&comp, k, &[0, 0, 0, 0, 10]);
        assert_eq!(big2 as u32, comp[4]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(is_connected(&UGraph::empty(0)));
        assert!(is_connected(&UGraph::empty(1)));
        assert!(!is_connected(&UGraph::empty(2)));
    }
}
