//! Part collections: which nodes belong to which subgraphs.
//!
//! A [`Parts`] value describes a collection `H = {H_0, …, H_{N−1}}` of
//! connected subgraphs by per-node membership lists. Vertex-disjoint
//! collections have singleton lists; *near-disjoint* collections
//! (paper Appendix A.1) allow shared boundary vertices.

use std::fmt;

/// Membership structure of a subgraph collection.
#[derive(Clone, Debug, Default)]
pub struct Parts {
    /// Number of parts `N`.
    pub n_parts: u32,
    /// Sorted part-id list per node (empty = belongs to no part).
    pub members: Vec<Vec<u32>>,
}

impl Parts {
    /// Build from per-node optional labels (the vertex-disjoint case).
    pub fn from_labels(labels: &[Option<u32>]) -> Self {
        let n_parts = labels.iter().flatten().copied().max().map_or(0, |m| m + 1);
        Parts {
            n_parts,
            members: labels.iter().map(|l| l.iter().copied().collect()).collect(),
        }
    }

    /// Build from per-node membership lists (near-disjoint case). Returns
    /// [`PartOutOfRange`] for the first node naming a part id
    /// `>= n_parts`.
    pub fn from_lists(n_parts: u32, mut members: Vec<Vec<u32>>) -> Result<Self, PartOutOfRange> {
        for (node, list) in members.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            if let Some(&part) = list.last().filter(|&&p| p >= n_parts) {
                return Err(PartOutOfRange {
                    node: node as u32,
                    part,
                    n_parts,
                });
            }
        }
        Ok(Parts { n_parts, members })
    }

    /// Number of nodes the structure covers.
    pub fn n_nodes(&self) -> usize {
        self.members.len()
    }

    /// Whether `v` belongs to part `p`.
    #[inline]
    pub fn contains(&self, v: u32, p: u32) -> bool {
        self.members[v as usize].binary_search(&p).is_ok()
    }

    /// Reverse index: the node list of every part.
    pub fn nodes_of_parts(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.n_parts as usize];
        for (v, list) in self.members.iter().enumerate() {
            for &p in list {
                out[p as usize].push(v as u32);
            }
        }
        out
    }

    /// Whether the collection is vertex-disjoint (every node in ≤ 1 part).
    pub fn is_disjoint(&self) -> bool {
        self.members.iter().all(|l| l.len() <= 1)
    }

    /// The maximum number of parts any single node belongs to — the overlap
    /// factor that multiplies congestion for near-disjoint collections.
    pub fn max_overlap(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// A membership list named a part id outside `0..n_parts`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartOutOfRange {
    /// The node whose list holds the id.
    pub node: u32,
    /// The largest id in that list.
    pub part: u32,
    /// The declared number of parts.
    pub n_parts: u32,
}

impl fmt::Display for PartOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} names part {} of only {}",
            self.node, self.part, self.n_parts
        )
    }
}

impl std::error::Error for PartOutOfRange {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_roundtrip() {
        let p = Parts::from_labels(&[Some(0), Some(1), None, Some(0)]);
        assert_eq!(p.n_parts, 2);
        assert!(p.contains(0, 0));
        assert!(!p.contains(2, 0));
        assert!(p.is_disjoint());
        let nodes = p.nodes_of_parts();
        assert_eq!(nodes[0], vec![0, 3]);
        assert_eq!(nodes[1], vec![1]);
    }

    #[test]
    fn near_disjoint_overlap() {
        let p = Parts::from_lists(3, vec![vec![0, 1], vec![1], vec![2, 0, 1]]).unwrap();
        assert!(!p.is_disjoint());
        assert_eq!(p.max_overlap(), 3);
        assert!(p.contains(2, 2));
        assert!(p.contains(2, 0));
    }

    #[test]
    fn out_of_range_part_is_a_typed_error() {
        let err = Parts::from_lists(2, vec![vec![0], vec![1, 2, 0], vec![5]]).unwrap_err();
        assert_eq!(
            err,
            PartOutOfRange {
                node: 1,
                part: 2,
                n_parts: 2
            }
        );
        assert_eq!(err.to_string(), "node 1 names part 2 of only 2");
        assert!(Parts::from_lists(0, vec![vec![], vec![]]).is_ok());
    }

    #[test]
    fn empty() {
        let p = Parts::from_labels(&[None, None]);
        assert_eq!(p.n_parts, 0);
        assert_eq!(p.max_overlap(), 0);
    }
}
