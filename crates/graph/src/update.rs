//! Edge-update batches over problem instances.
//!
//! Dynamic-graph maintenance (incremental relabeling in `distlabel`,
//! epoch-versioned serving in `labelserve`) consumes graph changes as
//! [`EdgeBatch`]es: a set of undirected edge deletions plus weighted edge
//! insertions applied atomically to a [`MultiDigraph`]. The batch works on
//! the *undirected* view — a deletion removes every arc (in both
//! directions, parallel arcs included) between the pair, an insertion adds
//! a twin arc pair sharing a fresh [`UEdgeId`] — so the communication
//! graph and the instance stay each other's projections.

use crate::{Arc, Dist, MultiDigraph, UEdgeId, UGraph};
use std::collections::BTreeSet;

/// What [`EdgeBatch::apply_in_place`] changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AppliedEdits {
    /// Sorted endpoints of removed or inserted arcs — the touched set of
    /// [`EdgeBatch::apply`].
    pub touched: Vec<u32>,
    /// Pairs `(u, v)`, `u < v`, that lost their arcs, sorted.
    pub deleted: Vec<(u32, u32)>,
    /// Inserted edges `(u, v, weight, id)` in batch order, each with the
    /// fresh undirected id its twin arcs share.
    pub inserted: Vec<(u32, u32, Dist, UEdgeId)>,
}

/// A batch of undirected edge updates, applied deletions-first.
///
/// Self-loops are ignored on both sides (the communication graph is
/// simple). Deleting a pair with no present edge is a no-op; inserting an
/// already-present pair adds a parallel edge (instances are multigraphs).
#[derive(Clone, Debug, Default)]
pub struct EdgeBatch {
    /// Undirected insertions `(u, v, weight)` — one twin arc pair each.
    pub inserts: Vec<(u32, u32, Dist)>,
    /// Undirected deletions `(u, v)` — all arcs between the pair go.
    pub deletes: Vec<(u32, u32)>,
}

impl EdgeBatch {
    /// The empty batch.
    pub fn new() -> Self {
        EdgeBatch::default()
    }

    /// Queue an undirected insertion of `{u, v}` with the given weight.
    pub fn insert(mut self, u: u32, v: u32, w: Dist) -> Self {
        self.inserts.push((u, v, w));
        self
    }

    /// Queue an undirected deletion of `{u, v}`.
    pub fn delete(mut self, u: u32, v: u32) -> Self {
        self.deletes.push((u, v));
        self
    }

    /// True when the batch queues no updates at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Apply to an instance, returning the updated instance and the sorted
    /// set of *effectively touched* endpoints — vertices incident to an arc
    /// that was actually removed or inserted. No-op deletions (absent
    /// pairs) and self-loops touch nothing, so an empty touched set means
    /// the instance is unchanged.
    pub fn apply(&self, inst: &MultiDigraph) -> (MultiDigraph, Vec<u32>) {
        let n = inst.n();
        let norm = |u: u32, v: u32| if u < v { (u, v) } else { (v, u) };
        let del: BTreeSet<(u32, u32)> = self
            .deletes
            .iter()
            .filter(|&&(u, v)| u != v && (u as usize) < n && (v as usize) < n)
            .map(|&(u, v)| norm(u, v))
            .collect();
        let mut touched = BTreeSet::new();
        let mut arcs: Vec<Arc> = Vec::with_capacity(inst.n_arcs() + 2 * self.inserts.len());
        let mut next_uedge = 0u32;
        for a in inst.arcs() {
            if a.uedge.is_some() {
                next_uedge = next_uedge.max(a.uedge.0 + 1);
            }
            if del.contains(&norm(a.src, a.dst)) {
                touched.insert(a.src);
                touched.insert(a.dst);
            } else {
                arcs.push(*a);
            }
        }
        for &(u, v, w) in &self.inserts {
            if u == v || u as usize >= n || v as usize >= n {
                continue;
            }
            let ue = UEdgeId(next_uedge);
            next_uedge += 1;
            arcs.push(Arc {
                src: u,
                dst: v,
                weight: w,
                label: 0,
                uedge: ue,
            });
            arcs.push(Arc {
                src: v,
                dst: u,
                weight: w,
                label: 0,
                uedge: ue,
            });
            touched.insert(u);
            touched.insert(v);
        }
        (
            MultiDigraph::from_arcs(n, arcs),
            touched.into_iter().collect(),
        )
    }
}

impl EdgeBatch {
    /// Apply in place to `inst` and its communication graph `graph`
    /// (`inst.comm_graph()`): the same arc order, undirected ids and
    /// touched set as [`apply`](Self::apply), and the same graph as
    /// `comm_graph` of the result, at the cost of the edited adjacency
    /// lists rather than a rebuild of both structures.
    pub fn apply_in_place(&self, inst: &mut MultiDigraph, graph: &mut UGraph) -> AppliedEdits {
        let n = inst.n();
        // Fresh ids continue past every id the instance held before the
        // deletions, exactly as `apply` numbers them.
        let mut next_uedge = inst.n_uedges() as u32;
        let mut deleted: Vec<(u32, u32)> = inst
            .remove_edges(&self.deletes)
            .iter()
            .map(|a| (a.src.min(a.dst), a.src.max(a.dst)))
            .collect();
        deleted.sort_unstable();
        deleted.dedup();
        for &(u, v) in &deleted {
            graph.remove_edge(u, v);
        }
        let mut inserted = Vec::new();
        for &(u, v, w) in &self.inserts {
            if u == v || u as usize >= n || v as usize >= n {
                continue;
            }
            let ue = UEdgeId(next_uedge);
            next_uedge += 1;
            inst.push_edge(u, v, w, ue);
            graph.insert_edge(u, v);
            inserted.push((u, v, w, ue));
        }
        let mut touched: Vec<u32> = deleted
            .iter()
            .map(|&(u, v)| [u, v])
            .chain(inserted.iter().map(|&(u, v, ..)| [u, v]))
            .flatten()
            .collect();
        touched.sort_unstable();
        touched.dedup();
        AppliedEdits {
            touched,
            deleted,
            inserted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn insert_and_delete_round_trip() {
        let g = gen::grid(3, 3);
        let inst = gen::with_random_weights(&g, 9, 1);
        let m0 = inst.n_arcs();
        let (with_edge, touched) = EdgeBatch::new().insert(0, 8, 5).apply(&inst);
        assert_eq!(touched, vec![0, 8]);
        assert_eq!(with_edge.n_arcs(), m0 + 2);
        assert!(with_edge.comm_graph().has_edge(0, 8));
        let (back, touched) = EdgeBatch::new().delete(0, 8).apply(&with_edge);
        assert_eq!(touched, vec![0, 8]);
        assert_eq!(back.n_arcs(), m0);
        assert!(!back.comm_graph().has_edge(0, 8));
    }

    #[test]
    fn delete_removes_parallel_arcs_both_directions() {
        let arcs = vec![
            Arc::new(0, 1, 2),
            Arc::new(0, 1, 7),
            Arc::new(1, 0, 3),
            Arc::new(1, 2, 1),
        ];
        let inst = MultiDigraph::from_arcs(3, arcs);
        let (out, touched) = EdgeBatch::new().delete(1, 0).apply(&inst);
        assert_eq!(out.n_arcs(), 1);
        assert_eq!(touched, vec![0, 1]);
    }

    #[test]
    fn noop_deletes_and_self_loops_touch_nothing() {
        let g = gen::cycle(5);
        let inst = gen::with_unit_weights(&g);
        let batch = EdgeBatch::new().delete(0, 2).delete(3, 3).insert(4, 4, 1);
        let (out, touched) = batch.apply(&inst);
        assert!(touched.is_empty());
        assert_eq!(out.n_arcs(), inst.n_arcs());
    }

    /// The in-place apply equals `apply` + `comm_graph` on a sequence
    /// that deletes fresh edges (the largest ids), parallel edges and
    /// absent pairs, and inserts self-loops and duplicates.
    #[test]
    fn in_place_apply_matches_apply() {
        let g = gen::grid(4, 4);
        let mut inst = gen::with_random_weights(&g, 9, 2);
        let mut graph = inst.comm_graph();
        let mut reference = inst.clone();
        let batches = [
            EdgeBatch::new()
                .insert(0, 15, 4)
                .insert(3, 3, 1)
                .insert(0, 1, 2),
            EdgeBatch::new().delete(15, 0).delete(0, 5).insert(5, 10, 1),
            EdgeBatch::new().delete(1, 0).delete(1, 0).insert(0, 1, 7),
            EdgeBatch::new().delete(5, 10).delete(20, 1),
            EdgeBatch::new(),
        ];
        for batch in &batches {
            let (next, touched) = batch.apply(&reference);
            let edits = batch.apply_in_place(&mut inst, &mut graph);
            assert_eq!(edits.touched, touched);
            assert_eq!(inst, next);
            assert_eq!(graph, next.comm_graph());
            reference = next;
        }
    }

    #[test]
    fn inserts_get_fresh_shared_uedges() {
        let inst = MultiDigraph::from_undirected(4, [(0, 1, 1)]);
        let (out, _) = EdgeBatch::new().insert(2, 3, 4).apply(&inst);
        let new: Vec<&Arc> = out.arcs().iter().filter(|a| a.weight == 4).collect();
        assert_eq!(new.len(), 2);
        assert_eq!(new[0].uedge, new[1].uedge);
        assert!(new[0].uedge.is_some());
        assert_ne!(new[0].uedge, out.arcs()[0].uedge);
    }
}
