//! Connected components of undirected graphs.

use crate::ugraph::UGraph;
use crate::{Arc, MultiDigraph, UGraphBuilder};
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

/// One connected component cut out of a graph and its instance, in
/// component-local ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Component {
    /// The component's communication graph.
    pub graph: UGraph,
    /// The instance induced on the component: arc order, weights, labels
    /// and undirected ids kept.
    pub inst: MultiDigraph,
    /// `old_of[local] = original` vertex id, ascending.
    pub old_of: Vec<u32>,
}

impl Component {
    /// Local id of original vertex `v`, if it lies in this component.
    pub fn local_of(&self, v: u32) -> Option<u32> {
        self.old_of.binary_search(&v).ok().map(|i| i as u32)
    }
}

/// The components of `g` (numbered as [`components`] numbers them, so
/// ordered by smallest vertex) and, per component, `g` and `inst` cut out
/// on it — in one O(n + m) pass. Component `c` equals `g.induced(&keep)`
/// and `inst.induced(&keep)` for the mask `keep` of its vertices; like
/// there, arcs of `inst` between two components are dropped.
pub fn split_components(g: &UGraph, inst: &MultiDigraph) -> (Vec<u32>, Vec<Component>) {
    assert_eq!(g.n(), inst.n(), "graph and instance share the vertex set");
    let (comp, n_comp) = components(g);
    let mut old_of: Vec<Vec<u32>> = vec![Vec::new(); n_comp];
    let mut local = vec![0u32; g.n()];
    for v in g.vertices() {
        let verts = &mut old_of[comp[v as usize] as usize];
        local[v as usize] = verts.len() as u32;
        verts.push(v);
    }
    let mut graphs: Vec<UGraphBuilder> = old_of
        .iter()
        .map(|verts| UGraphBuilder::new(verts.len()))
        .collect();
    for (u, v) in g.edges() {
        graphs[comp[u as usize] as usize].add_edge(local[u as usize], local[v as usize]);
    }
    let mut arcs: Vec<Vec<Arc>> = vec![Vec::new(); n_comp];
    for a in inst.arcs() {
        let c = comp[a.src as usize];
        if comp[a.dst as usize] == c {
            arcs[c as usize].push(Arc {
                src: local[a.src as usize],
                dst: local[a.dst as usize],
                ..*a
            });
        }
    }
    let parts = old_of
        .into_iter()
        .zip(graphs)
        .zip(arcs)
        .map(|((old_of, graph), arcs)| Component {
            graph: graph.build(),
            inst: MultiDigraph::from_arcs(old_of.len(), arcs),
            old_of,
        })
        .collect();
    (comp, parts)
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

    /// Every component equals inducing the graph and the instance on its
    /// vertex mask.
    fn assert_split_matches_induced(g: &UGraph, inst: &MultiDigraph) {
        let (comp, parts) = split_components(g, inst);
        let (want_comp, n_comp) = components(g);
        assert_eq!(comp, want_comp);
        assert_eq!(parts.len(), n_comp);
        for (c, part) in parts.iter().enumerate() {
            let keep: Vec<bool> = comp.iter().map(|&x| x as usize == c).collect();
            let (graph, old_of) = g.induced(&keep);
            assert_eq!(part.graph, graph, "component {c}: graph");
            assert_eq!(part.inst, inst.induced(&keep).0, "component {c}: instance");
            assert_eq!(part.old_of, old_of, "component {c}: vertex map");
        }
        let firsts: Vec<u32> = parts.iter().map(|p| p.old_of[0]).collect();
        assert!(
            firsts.windows(2).all(|w| w[0] < w[1]),
            "ordered by smallest vertex"
        );
    }

    #[test]
    fn split_components_equals_induced() {
        let g = crate::gen::multi_component(48, 3);
        assert_split_matches_induced(&g, &crate::gen::with_random_weights(&g, 9, 3));
        assert_split_matches_induced(&g, &crate::gen::random_orientation(&g, 9, 0.3, 4));
        // Isolated vertices around and between two paths, with labeled
        // parallel arcs and undirected ids.
        let g = UGraph::from_edges(9, [(1, 2), (2, 3), (5, 6), (6, 8)]);
        let mut arcs = Vec::new();
        for (u, v) in g.edges() {
            arcs.push(Arc::new(u, v, 3));
            arcs.push(Arc {
                label: 1,
                ..Arc::new(v, u, (u + v) as u64)
            });
            arcs.push(Arc::new(u, v, 1));
        }
        let inst = MultiDigraph::from_arcs(9, arcs);
        assert_split_matches_induced(&g, &inst);
        assert_split_matches_induced(
            &g,
            &MultiDigraph::from_undirected(9, g.edges().map(|(u, v)| (u, v, u as u64 + 1))),
        );
        let (_, parts) = split_components(&g, &inst);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().filter(|p| p.graph.n() == 1).count(), 3);
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
