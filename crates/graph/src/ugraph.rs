//! Simple undirected unweighted graphs in CSR form.
//!
//! [`UGraph`] models the communication network ⟦G⟧ of the CONGEST model
//! (paper §2.1): self-loops removed, parallel edges merged, orientation
//! dropped. It is immutable after construction; build via [`UGraphBuilder`]
//! or [`UGraph::from_edges`].

use crate::NodeId;

/// An immutable simple undirected graph stored in compressed sparse row form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UGraph {
    n: u32,
    /// `offsets[v]..offsets[v+1]` indexes `targets` for the neighbours of `v`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbour lists.
    targets: Vec<u32>,
}

impl UGraph {
    /// Build a simple graph on `n` vertices from an edge list. Self-loops are
    /// dropped and parallel edges merged, matching the paper's ⟦G⟧ operator.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut b = UGraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        UGraph {
            n: n as u32,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Whether `{u, v}` is an edge (binary search on the sorted list).
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate over all vertices as raw `u32` indices.
    pub fn vertices(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.n
    }

    /// Iterate over all vertices as [`NodeId`]s.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    /// Iterate over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The isomorphic graph with vertex `v` renamed to `perm[v]`.
    /// `perm` must be a permutation of `0..n`.
    pub fn relabeled(&self, perm: &[u32]) -> UGraph {
        assert_eq!(perm.len(), self.n());
        debug_assert!({
            let mut seen = vec![false; self.n()];
            perm.iter().all(|&p| {
                let fresh = !seen[p as usize];
                seen[p as usize] = true;
                fresh
            })
        });
        UGraph::from_edges(
            self.n(),
            self.edges()
                .map(|(u, v)| (perm[u as usize], perm[v as usize])),
        )
    }

    /// The subgraph induced by `keep` (vertices with `keep[v] == true`),
    /// together with the mapping from new indices to original ones.
    ///
    /// Returned mapping: `old_of[new] = old`. Vertices not kept are absent.
    pub fn induced(&self, keep: &[bool]) -> (UGraph, Vec<u32>) {
        assert_eq!(keep.len(), self.n());
        let mut new_of = vec![u32::MAX; self.n()];
        let mut old_of = Vec::new();
        for v in self.vertices() {
            if keep[v as usize] {
                new_of[v as usize] = old_of.len() as u32;
                old_of.push(v);
            }
        }
        let mut b = UGraphBuilder::new(old_of.len());
        for (u, v) in self.edges() {
            if keep[u as usize] && keep[v as usize] {
                b.add_edge(new_of[u as usize], new_of[v as usize]);
            }
        }
        (b.build(), old_of)
    }

    /// Add the edge `{u, v}` in place, keeping the neighbour lists sorted;
    /// the result equals rebuilding with the edge added. Self-loops and
    /// present edges change nothing. Returns whether the graph changed.
    pub fn insert_edge(&mut self, u: u32, v: u32) -> bool {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        u != v && self.edit_side(u, v, true) && self.edit_side(v, u, true)
    }

    /// Remove the edge `{u, v}` in place; the result equals rebuilding
    /// without it. Returns whether the edge was present.
    pub fn remove_edge(&mut self, u: u32, v: u32) -> bool {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        u != v && self.edit_side(u, v, false) && self.edit_side(v, u, false)
    }

    /// Insert `v` into (or remove it from) `u`'s sorted list: one shift of
    /// the later CSR entries and one pass over the later offsets.
    fn edit_side(&mut self, u: u32, v: u32, insert: bool) -> bool {
        let lo = self.offsets[u as usize] as usize;
        let at = self.neighbors(u).binary_search(&v);
        let later = &mut self.offsets[u as usize + 1..];
        match (at, insert) {
            (Err(i), true) => {
                self.targets.insert(lo + i, v);
                later.iter_mut().for_each(|o| *o += 1);
            }
            (Ok(i), false) => {
                self.targets.remove(lo + i);
                later.iter_mut().for_each(|o| *o -= 1);
            }
            _ => return false,
        }
        true
    }
}

/// Incremental builder for [`UGraph`].
#[derive(Clone, Debug, Default)]
pub struct UGraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl UGraphBuilder {
    /// Builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex count exceeds u32 range");
        UGraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Record an undirected edge. Self-loops are silently dropped; duplicates
    /// are merged at [`build`](Self::build) time.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
    }

    /// Number of vertices the builder was created with.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Finalize into CSR form: sort, dedupe, count, fill.
    pub fn build(mut self) -> UGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.n;
        let mut deg = vec![0u32; n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; self.edges.len() * 2];
        for &(u, v) in &self.edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Neighbour lists must be sorted for `has_edge`'s binary search.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            targets[lo..hi].sort_unstable();
        }
        UGraph {
            n: n as u32,
            offsets,
            targets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> UGraph {
        UGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn self_loops_dropped_and_duplicates_merged() {
        let g = UGraph::from_edges(3, [(0, 0), (0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn neighbors_sorted() {
        let g = UGraph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn edges_iterate_once() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn induced_subgraph() {
        let g = UGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (h, old_of) = g.induced(&[true, true, true, false]);
        assert_eq!(h.n(), 3);
        assert_eq!(h.m(), 2); // the cycle minus vertex 3 is a path
        assert_eq!(old_of, vec![0, 1, 2]);
        assert!(h.has_edge(0, 1) && h.has_edge(1, 2) && !h.has_edge(0, 2));
    }

    #[test]
    fn edge_edits_match_a_rebuild() {
        let mut g = UGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(g.insert_edge(4, 0));
        assert!(!g.insert_edge(0, 4), "present edge");
        assert!(!g.insert_edge(2, 2), "self-loop");
        assert!(g.remove_edge(2, 1));
        assert!(!g.remove_edge(1, 2), "absent edge");
        assert!(g.insert_edge(1, 3));
        let want = UGraph::from_edges(5, [(0, 1), (2, 3), (3, 4), (0, 4), (1, 3)]);
        assert_eq!(g, want);
    }

    #[test]
    fn empty_graph() {
        let g = UGraph::empty(4);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = UGraphBuilder::new(2);
        b.add_edge(0, 5);
    }
}
