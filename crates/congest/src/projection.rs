//! Virtual-edge → physical-edge projection for simulated product graphs.

use crate::error::CongestError;
use twgraph::UGraph;

/// Sentinel directed-slot index for free (node-local) virtual edges, used
/// in the tables returned by [`EdgeProjection::slot_tables`].
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Maps each undirected edge of a *virtual* communication graph onto the
/// physical edge carrying it (paper §5.2: node `u` simulates all of
/// `U_Q(u)`, and a virtual edge between copies of `u` and `v` rides the
/// physical edge `{u, v}`; edges between two copies of the *same* node are
/// node-local, i.e. free).
#[derive(Clone, Debug)]
pub(crate) struct EdgeProjection {
    /// For each virtual edge id: `(physical_edge_id, flipped)`, where
    /// `flipped` records whether the virtual edge's (lo, hi) endpoint order
    /// maps to the physical edge's (hi, lo). `LOCAL` marks free edges.
    map: Vec<(u32, bool)>,
    /// Number of physical directed-edge slots (2 × physical edge count).
    n_physical_edges: usize,
}

impl EdgeProjection {
    /// Sentinel physical id for node-local (free) virtual edges.
    pub const LOCAL: u32 = u32::MAX;

    /// Build a projection from the virtual graph onto the physical one using
    /// `host(virtual_vertex) -> physical_vertex`. Virtual edges whose
    /// endpoints share a host become free; all others must map onto a
    /// physical edge ([`CongestError::UnsimulatableEdge`] otherwise — such a
    /// virtual link has no physical channel to ride).
    pub fn from_hosts(
        virtual_g: &UGraph,
        physical_g: &UGraph,
        host: impl Fn(u32) -> u32,
    ) -> Result<Self, CongestError> {
        // Index physical edges: sorted (lo, hi) list parallel to ids.
        let phys_edges: Vec<(u32, u32)> = physical_g.edges().collect();
        let find = |a: u32, b: u32| -> Result<u32, CongestError> {
            let key = if a < b { (a, b) } else { (b, a) };
            phys_edges
                .binary_search(&key)
                .map(|i| i as u32)
                .map_err(|_| CongestError::UnsimulatableEdge { u: key.0, v: key.1 })
        };
        let mut map = Vec::with_capacity(virtual_g.m());
        for (u, v) in virtual_g.edges() {
            let hu = host(u);
            let hv = host(v);
            if hu == hv {
                map.push((Self::LOCAL, false));
            } else {
                let pid = find(hu, hv)?;
                let (plo, _phi) = phys_edges[pid as usize];
                map.push((pid, plo != hu)); // flipped iff virtual-lo maps to physical-hi
            }
        }
        Ok(EdgeProjection {
            map,
            n_physical_edges: phys_edges.len(),
        })
    }

    /// Identity projection (virtual == physical).
    pub fn identity(g: &UGraph) -> Self {
        EdgeProjection {
            map: (0..g.m() as u32).map(|e| (e, false)).collect(),
            n_physical_edges: g.m(),
        }
    }

    /// Number of physical (undirected) edges.
    #[inline]
    pub fn n_physical_edges(&self) -> usize {
        self.n_physical_edges
    }

    /// Resolve a virtual edge id and direction (`forward` = from the lower
    /// endpoint) into a physical directed-slot index, or `None` if free.
    #[inline]
    pub fn slot(&self, virtual_edge: u32, forward: bool) -> Option<usize> {
        let (pid, flip) = self.map[virtual_edge as usize];
        if pid == Self::LOCAL {
            None
        } else {
            let dir = forward ^ flip;
            Some(pid as usize * 2 + usize::from(dir))
        }
    }

    /// Resolve every virtual edge's two directed slots up front, for the
    /// engine's arena hot path: returns `(forward, reverse)` tables indexed
    /// by virtual edge id, with [`NO_SLOT`] marking free local edges. The
    /// flip logic is paid once here instead of per message.
    pub fn slot_tables(&self) -> (Vec<u32>, Vec<u32>) {
        let resolve = |forward: bool| -> Vec<u32> {
            (0..self.map.len() as u32)
                .map(|e| self.slot(e, forward).map_or(NO_SLOT, |s| s as u32))
                .collect()
        };
        (resolve(true), resolve(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twgraph::UGraph;

    #[test]
    fn identity_projection() {
        let g = UGraph::from_edges(3, [(0, 1), (1, 2)]);
        let p = EdgeProjection::identity(&g);
        assert_eq!(p.n_physical_edges(), 2);
        assert_eq!(p.slot(0, true), Some(1));
        assert_eq!(p.slot(0, false), Some(0));
    }

    #[test]
    fn product_projection() {
        // Physical: 0 - 1. Virtual: two copies per node; host(v) = v / 2.
        let phys = UGraph::from_edges(2, [(0, 1)]);
        let virt = UGraph::from_edges(
            4,
            [
                (0, 1), // copies of node 0: local
                (2, 3), // copies of node 1: local
                (0, 2), // cross edges ride the physical edge
                (1, 3),
                (0, 3),
            ],
        );
        let p = EdgeProjection::from_hosts(&virt, &phys, |v| v / 2).unwrap();
        // Virtual edges sorted: (0,1)=local, (0,2), (0,3), (1,3), (2,3)=local.
        assert_eq!(p.slot(0, true), None);
        assert!(p.slot(1, true).is_some());
        assert!(p.slot(2, true).is_some());
        assert!(p.slot(3, true).is_some());
        assert_eq!(p.slot(4, true), None);
        // All cross edges share the one physical edge: same slot pair.
        let s1 = p.slot(1, true).unwrap();
        let s2 = p.slot(2, true).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn slot_tables_match_pointwise_resolution() {
        let phys = UGraph::from_edges(2, [(0, 1)]);
        let virt = UGraph::from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3)]);
        let p = EdgeProjection::from_hosts(&virt, &phys, |v| v / 2).unwrap();
        let (fwd, rev) = p.slot_tables();
        for e in 0..5u32 {
            assert_eq!(
                p.slot(e, true).map_or(NO_SLOT, |s| s as u32),
                fwd[e as usize]
            );
            assert_eq!(
                p.slot(e, false).map_or(NO_SLOT, |s| s as u32),
                rev[e as usize]
            );
        }
    }

    #[test]
    fn rejects_unsimulatable_edges() {
        let phys = UGraph::from_edges(3, [(0, 1)]);
        let virt = UGraph::from_edges(3, [(0, 2)]);
        let err = EdgeProjection::from_hosts(&virt, &phys, |v| v).unwrap_err();
        assert_eq!(err, CongestError::UnsimulatableEdge { u: 0, v: 2 });
    }
}
