//! Directed, weighted, labeled multigraphs — the problem instances.
//!
//! The paper (§2.1, §5.1) works with multigraphs `G = (V, E, γ)` where `γ`
//! maps each edge to an ordered pair of endpoints. [`MultiDigraph`] stores
//! arcs explicitly in a table (so parallel arcs and the γ map are first
//! class), with CSR-style out/in adjacency over *arc ids*.
//!
//! Arcs carry a weight (`u64`, see [`crate::Dist`]) and a small integer
//! `label` used by the stateful-walk constraints (edge colors for
//! [`Ccol`](https://example.invalid) walks, 0/1 marks for count walks, …).
//! Arcs derived from an undirected input edge share a [`UEdgeId`].

use crate::ugraph::{UGraph, UGraphBuilder};
use crate::{ArcId, Dist, UEdgeId};

/// One directed arc of a [`MultiDigraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arc {
    /// Tail vertex (γ(e)\[0\]).
    pub src: u32,
    /// Head vertex (γ(e)\[1\]).
    pub dst: u32,
    /// Non-negative weight.
    pub weight: Dist,
    /// Small label consumed by walk constraints (color, 0/1 mark, …).
    pub label: u32,
    /// Undirected-edge identity shared by a twin arc, or [`UEdgeId::NONE`].
    pub uedge: UEdgeId,
}

impl Arc {
    /// A plain arc with label 0 and no undirected identity.
    pub fn new(src: u32, dst: u32, weight: Dist) -> Self {
        Arc {
            src,
            dst,
            weight,
            label: 0,
            uedge: UEdgeId::NONE,
        }
    }
}

/// A directed weighted labeled multigraph with explicit arc identities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiDigraph {
    n: u32,
    arcs: Vec<Arc>,
    out_off: Vec<u32>,
    out_arcs: Vec<u32>,
    in_off: Vec<u32>,
    in_arcs: Vec<u32>,
    /// Number of distinct undirected edges referenced by `uedge` fields.
    n_uedges: u32,
}

impl MultiDigraph {
    /// Build from an arc table.
    pub fn from_arcs(n: usize, arcs: Vec<Arc>) -> Self {
        let mut n_uedges = 0u32;
        for a in &arcs {
            assert!(
                (a.src as usize) < n && (a.dst as usize) < n,
                "arc ({},{}) out of range for n={n}",
                a.src,
                a.dst
            );
            if a.uedge.is_some() {
                n_uedges = n_uedges.max(a.uedge.0 + 1);
            }
        }
        let mut out_deg = vec![0u32; n];
        let mut in_deg = vec![0u32; n];
        for a in &arcs {
            out_deg[a.src as usize] += 1;
            in_deg[a.dst as usize] += 1;
        }
        let prefix = |deg: &[u32]| {
            let mut off = vec![0u32; n + 1];
            for v in 0..n {
                off[v + 1] = off[v] + deg[v];
            }
            off
        };
        let out_off = prefix(&out_deg);
        let in_off = prefix(&in_deg);
        let mut out_cursor = out_off.clone();
        let mut in_cursor = in_off.clone();
        let mut out_arcs = vec![0u32; arcs.len()];
        let mut in_arcs = vec![0u32; arcs.len()];
        for (i, a) in arcs.iter().enumerate() {
            out_arcs[out_cursor[a.src as usize] as usize] = i as u32;
            out_cursor[a.src as usize] += 1;
            in_arcs[in_cursor[a.dst as usize] as usize] = i as u32;
            in_cursor[a.dst as usize] += 1;
        }
        MultiDigraph {
            n: n as u32,
            arcs,
            out_off,
            out_arcs,
            in_off,
            in_arcs,
            n_uedges,
        }
    }

    /// Interpret an undirected weighted edge list: every edge `{u, v}` becomes
    /// a twin pair of arcs sharing a fresh [`UEdgeId`] and the given label.
    pub fn from_undirected(n: usize, edges: impl IntoIterator<Item = (u32, u32, Dist)>) -> Self {
        Self::from_undirected_labeled(n, edges.into_iter().map(|(u, v, w)| (u, v, w, 0)))
    }

    /// Like [`from_undirected`](Self::from_undirected) with per-edge labels.
    pub fn from_undirected_labeled(
        n: usize,
        edges: impl IntoIterator<Item = (u32, u32, Dist, u32)>,
    ) -> Self {
        let mut arcs = Vec::new();
        for (i, (u, v, w, label)) in edges.into_iter().enumerate() {
            let ue = UEdgeId(i as u32);
            arcs.push(Arc {
                src: u,
                dst: v,
                weight: w,
                label,
                uedge: ue,
            });
            arcs.push(Arc {
                src: v,
                dst: u,
                weight: w,
                label,
                uedge: ue,
            });
        }
        Self::from_arcs(n, arcs)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Number of arcs (directed count; an undirected edge contributes two).
    #[inline]
    pub fn n_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Number of distinct undirected edge identities.
    #[inline]
    pub fn n_uedges(&self) -> usize {
        self.n_uedges as usize
    }

    /// The arc table entry.
    #[inline]
    pub fn arc(&self, a: ArcId) -> &Arc {
        &self.arcs[a.idx()]
    }

    /// All arcs, in id order.
    #[inline]
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Mutable access to all arcs — used by algorithms that re-label edges
    /// (e.g. the girth algorithm's probabilistic 0/1 labels, or matching
    /// flips). The topology (src/dst) must not be altered.
    #[inline]
    pub fn arcs_mut(&mut self) -> &mut [Arc] {
        &mut self.arcs
    }

    /// Arc ids leaving `v` (the paper's `E_out(v)`).
    #[inline]
    pub fn out_arcs(&self, v: u32) -> &[u32] {
        let lo = self.out_off[v as usize] as usize;
        let hi = self.out_off[v as usize + 1] as usize;
        &self.out_arcs[lo..hi]
    }

    /// Arc ids entering `v`.
    #[inline]
    pub fn in_arcs(&self, v: u32) -> &[u32] {
        let lo = self.in_off[v as usize] as usize;
        let hi = self.in_off[v as usize + 1] as usize;
        &self.in_arcs[lo..hi]
    }

    /// Maximum multiplicity `p_max`: the largest number of parallel arcs
    /// between one ordered pair of endpoints (paper §5.2 uses this in the
    /// simulation overhead).
    pub fn max_multiplicity(&self) -> usize {
        let mut pairs: Vec<(u32, u32)> = self.arcs.iter().map(|a| (a.src, a.dst)).collect();
        pairs.sort_unstable();
        let mut best = 0usize;
        let mut run = 0usize;
        let mut prev = None;
        for p in pairs {
            if Some(p) == prev {
                run += 1;
            } else {
                run = 1;
                prev = Some(p);
            }
            best = best.max(run);
        }
        best
    }

    /// The communication network ⟦G⟧ (paper §2.1): drop orientation, weights,
    /// multiplicity and self-loops.
    pub fn comm_graph(&self) -> UGraph {
        let mut b = UGraphBuilder::new(self.n());
        for a in &self.arcs {
            b.add_edge(a.src, a.dst);
        }
        b.build()
    }

    /// The reverse multigraph (every arc flipped). Useful for computing
    /// "distance *to* a target" with forward algorithms.
    pub fn reversed(&self) -> MultiDigraph {
        let arcs = self
            .arcs
            .iter()
            .map(|a| Arc {
                src: a.dst,
                dst: a.src,
                ..*a
            })
            .collect();
        Self::from_arcs(self.n(), arcs)
    }

    /// The isomorphic instance with vertex `v` renamed to `perm[v]` (a
    /// permutation of `0..n`). Arc order, weights, labels and uedge ids are
    /// preserved, so the relabeled instance is the π-image in every respect.
    pub fn relabeled(&self, perm: &[u32]) -> MultiDigraph {
        assert_eq!(perm.len(), self.n());
        let arcs = self
            .arcs
            .iter()
            .map(|a| Arc {
                src: perm[a.src as usize],
                dst: perm[a.dst as usize],
                ..*a
            })
            .collect();
        Self::from_arcs(self.n(), arcs)
    }

    /// The subgraph induced by `keep`, with old-vertex mapping
    /// (`old_of[new] = old`). Arc labels/weights/uedge ids are preserved.
    pub fn induced(&self, keep: &[bool]) -> (MultiDigraph, Vec<u32>) {
        assert_eq!(keep.len(), self.n());
        let mut new_of = vec![u32::MAX; self.n()];
        let mut old_of = Vec::new();
        for v in 0..self.n() {
            if keep[v] {
                new_of[v] = old_of.len() as u32;
                old_of.push(v as u32);
            }
        }
        let arcs = self
            .arcs
            .iter()
            .filter(|a| keep[a.src as usize] && keep[a.dst as usize])
            .map(|a| Arc {
                src: new_of[a.src as usize],
                dst: new_of[a.dst as usize],
                ..*a
            })
            .collect();
        (MultiDigraph::from_arcs(old_of.len(), arcs), old_of)
    }

    /// Remove every arc between each unordered pair of `pairs` in place:
    /// both directions, parallel arcs included; self-loops and
    /// out-of-range pairs are skipped. The survivors keep their order and
    /// close the gaps, so the result equals [`from_arcs`](Self::from_arcs)
    /// over the filtered arc table. Costs the pairs' adjacency plus one
    /// shift of the later arcs and one pass over the CSR arrays. Returns
    /// the removed arcs in id order.
    pub fn remove_edges(&mut self, pairs: &[(u32, u32)]) -> Vec<Arc> {
        let mut dead: Vec<u32> = Vec::new();
        for &(u, v) in pairs {
            if u == v || u >= self.n || v >= self.n {
                continue;
            }
            for (a, b) in [(u, v), (v, u)] {
                let arcs = &self.arcs;
                dead.extend(
                    self.out_arcs(a)
                        .iter()
                        .filter(|&&i| arcs[i as usize].dst == b),
                );
            }
        }
        dead.sort_unstable();
        dead.dedup();
        let removed: Vec<Arc> = dead.iter().map(|&i| self.arcs[i as usize]).collect();
        if removed.is_empty() {
            return removed;
        }
        let at: Vec<usize> = dead.iter().map(|&i| i as usize).collect();
        remove_at(&mut self.arcs, &at);
        let (tails, heads) = (removed.iter().map(|a| a.src), removed.iter().map(|a| a.dst));
        drop_from_csr(&mut self.out_off, &mut self.out_arcs, &dead, tails);
        drop_from_csr(&mut self.in_off, &mut self.in_arcs, &dead, heads);
        if removed
            .iter()
            .any(|a| a.uedge.is_some() && a.uedge.0 + 1 == self.n_uedges)
        {
            self.n_uedges = self
                .arcs
                .iter()
                .filter(|a| a.uedge.is_some())
                .map(|a| a.uedge.0 + 1)
                .max()
                .unwrap_or(0);
        }
        removed
    }

    /// Append the twin arcs `u → v` and `v → u` (weight `w`, label 0,
    /// undirected id `uedge`) in place; the result equals
    /// [`from_arcs`](Self::from_arcs) over the extended arc table.
    pub fn push_edge(&mut self, u: u32, v: u32, w: Dist, uedge: UEdgeId) {
        assert!(u < self.n && v < self.n, "arc ({u},{v}) out of range");
        for (src, dst) in [(u, v), (v, u)] {
            let id = self.arcs.len() as u32;
            self.arcs.push(Arc {
                src,
                dst,
                weight: w,
                label: 0,
                uedge,
            });
            // The new id is the largest, so it closes each ascending list.
            for (off, ids, x) in [
                (&mut self.out_off, &mut self.out_arcs, src),
                (&mut self.in_off, &mut self.in_arcs, dst),
            ] {
                ids.insert(off[x as usize + 1] as usize, id);
                off[x as usize + 1..].iter_mut().for_each(|o| *o += 1);
            }
        }
        if uedge.is_some() {
            self.n_uedges = self.n_uedges.max(uedge.0 + 1);
        }
    }
}

/// Remove the elements at the sorted, distinct positions `at`, shifting
/// each run of survivors down once.
fn remove_at<T: Copy>(v: &mut Vec<T>, at: &[usize]) {
    let Some(&first) = at.first() else {
        return;
    };
    let mut w = first;
    for (k, &p) in at.iter().enumerate() {
        let end = at.get(k + 1).copied().unwrap_or(v.len());
        v.copy_within(p + 1..end, w);
        w += end - p - 1;
    }
    v.truncate(w);
}

/// Drop the arcs `dead` (sorted ids, each listed under the matching
/// vertex of `owners`) from one CSR adjacency, then renumber the surviving
/// ids as the arc table's gaps close.
fn drop_from_csr(
    off: &mut [u32],
    ids: &mut Vec<u32>,
    dead: &[u32],
    owners: impl Iterator<Item = u32>,
) {
    let mut at: Vec<usize> = dead
        .iter()
        .zip(owners)
        .map(|(&id, x)| {
            let (lo, hi) = (off[x as usize] as usize, off[x as usize + 1] as usize);
            let i = ids[lo..hi].binary_search(&id);
            lo + i.expect("an arc is listed under its endpoint")
        })
        .collect();
    at.sort_unstable();
    remove_at(ids, &at);
    // A vertex's list starts lower by the removed slots before it.
    let mut k = 0;
    for o in off.iter_mut() {
        while k < at.len() && at[k] < *o as usize {
            k += 1;
        }
        *o -= k as u32;
    }
    for id in ids.iter_mut().filter(|id| **id > dead[0]) {
        *id -= dead.partition_point(|&d| d < *id) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> MultiDigraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, plus a parallel arc 0 -> 1.
        MultiDigraph::from_arcs(
            4,
            vec![
                Arc::new(0, 1, 1),
                Arc::new(0, 1, 5),
                Arc::new(1, 3, 2),
                Arc::new(0, 2, 2),
                Arc::new(2, 3, 2),
            ],
        )
    }

    #[test]
    fn adjacency() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.n_arcs(), 5);
        assert_eq!(g.out_arcs(0).len(), 3);
        assert_eq!(g.in_arcs(3).len(), 2);
        assert_eq!(g.max_multiplicity(), 2);
    }

    #[test]
    fn comm_graph_merges_and_undirects() {
        let g = diamond();
        let c = g.comm_graph();
        assert_eq!(c.n(), 4);
        assert_eq!(c.m(), 4); // {0,1},{1,3},{0,2},{2,3}
        assert!(c.has_edge(1, 0)); // orientation dropped
    }

    #[test]
    fn from_undirected_creates_twins() {
        let g = MultiDigraph::from_undirected(3, [(0, 1, 7), (1, 2, 9)]);
        assert_eq!(g.n_arcs(), 4);
        assert_eq!(g.n_uedges(), 2);
        // Twin arcs share the uedge id and weight.
        let a01: Vec<_> = g.arcs().iter().filter(|a| a.uedge == UEdgeId(0)).collect();
        assert_eq!(a01.len(), 2);
        assert_eq!(a01[0].weight, 7);
        assert_eq!(a01[0].uedge, a01[1].uedge);
    }

    #[test]
    fn reversed_flips() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.out_arcs(3).len(), 2);
        assert_eq!(r.in_arcs(0).len(), 3);
    }

    #[test]
    fn induced_keeps_metadata() {
        let g =
            MultiDigraph::from_undirected_labeled(4, [(0, 1, 3, 9), (1, 2, 4, 8), (2, 3, 5, 7)]);
        let (h, old_of) = g.induced(&[true, true, true, false]);
        assert_eq!(h.n(), 3);
        assert_eq!(h.n_arcs(), 4);
        assert_eq!(old_of, vec![0, 1, 2]);
        assert!(h.arcs().iter().any(|a| a.label == 9 && a.weight == 3));
    }

    /// In-place removals and twin pushes must equal `from_arcs` over the
    /// edited arc table: arc order, CSR lists and `n_uedges` alike.
    #[test]
    fn in_place_edits_match_from_arcs() {
        let mut g = MultiDigraph::from_undirected(
            5,
            [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 0, 7)],
        );
        let mut extra = g.arcs()[0];
        extra.weight = 9; // a parallel arc with the same uedge
        let mut arcs = g.arcs().to_vec();
        arcs.push(extra);
        g = MultiDigraph::from_arcs(5, arcs);

        let removed = g.remove_edges(&[(1, 0), (3, 3), (9, 1), (2, 4)]);
        assert_eq!(removed.len(), 3, "both twins and the parallel arc");
        let kept: Vec<Arc> = MultiDigraph::from_undirected(
            5,
            [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 0, 7)],
        )
        .arcs()
        .iter()
        .copied()
        .filter(|a| a.uedge != UEdgeId(0))
        .collect();
        assert_eq!(g, MultiDigraph::from_arcs(5, kept.clone()));

        g.push_edge(0, 2, 8, UEdgeId(5));
        let mut want = kept;
        want.push(Arc {
            src: 0,
            dst: 2,
            weight: 8,
            label: 0,
            uedge: UEdgeId(5),
        });
        want.push(Arc {
            src: 2,
            dst: 0,
            weight: 8,
            label: 0,
            uedge: UEdgeId(5),
        });
        assert_eq!(g, MultiDigraph::from_arcs(5, want.clone()));

        // Removing the largest undirected id lowers the count exactly.
        g.remove_edges(&[(2, 0)]);
        want.truncate(want.len() - 2);
        let rebuilt = MultiDigraph::from_arcs(5, want);
        assert_eq!(g.n_uedges(), rebuilt.n_uedges());
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn self_loop_excluded_from_comm_graph() {
        let g = MultiDigraph::from_arcs(2, vec![Arc::new(0, 0, 1), Arc::new(0, 1, 1)]);
        assert_eq!(g.comm_graph().m(), 1);
    }
}
