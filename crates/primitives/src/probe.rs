//! Per-vertex structure probes: closed-walk diagonals and bounded hop
//! distances, gathered by shared-superstep message passing.
//!
//! Both probes are batched single-source relays in the PA/SNC spirit:
//! every active vertex is simultaneously the origin of its own relay, the
//! per-superstep payload is the node's accumulated origin table, and the
//! cost is measured honestly by the simulator (words = table entries that
//! actually move). They feed the counting and FO scenario pipelines:
//!
//! * [`closed_walk_spectrum`] — `k` relay supersteps compute the diagonal
//!   walk counts `(Aᵏ)_vv` of the active subgraph's adjacency matrix, the
//!   raw material for trace-based cycle counting (tr A³, tr A⁴, tr A⁵
//!   with inclusion–exclusion over the shorter degenerate walks).
//! * [`bounded_hop_distances`] — a radius-gated multi-origin BFS flood
//!   giving every vertex its ≤ r hop-distance table, the data behind the
//!   `dist(x, y) ≤ k` atoms of the FO pipeline.

use congest_sim::{CongestError, Network, WireMsg};
use std::collections::BTreeMap;

/// One vertex's walk diagnostics from [`closed_walk_spectrum`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkSpectrum {
    /// The vertex (original network id).
    pub v: u32,
    /// Degree within the active subgraph.
    pub degree: u64,
    /// `diag[k-1] = (Aᵏ)_vv` — closed walks of length `k` at `v`,
    /// for `k = 1..=kmax` over the active subgraph's adjacency matrix.
    pub diag: Vec<u64>,
}

#[derive(Clone, Debug)]
struct CountMsg(Vec<(u32, u64)>);

impl WireMsg for CountMsg {
    fn words(&self) -> u64 {
        2 * self.0.len() as u64
    }
}

#[derive(Clone, Debug)]
struct WalkState {
    /// `counts[origin]` = walks of the current length from `origin` here.
    counts: BTreeMap<u32, u64>,
    diag: Vec<u64>,
}

/// Closed-walk diagonals of the subgraph induced by `active` (sorted,
/// unique): after `kmax` relay supersteps, vertex `v` knows
/// `(A¹)_vv … (A^kmax)_vv`. Each superstep every vertex forwards its full
/// origin table to every active neighbor and replaces it by the sum of
/// the received tables — the textbook matrix-power recurrence, executed
/// and charged as messages.
pub fn closed_walk_spectrum(
    net: &mut Network,
    active: &[u32],
    kmax: usize,
) -> Result<Vec<WalkSpectrum>, CongestError> {
    let g = net.graph_handle();
    let in_active = |v: u32| active.binary_search(&v).is_ok();
    let mut states: Vec<WalkState> = active
        .iter()
        .map(|&v| WalkState {
            counts: BTreeMap::from([(v, 1u64)]),
            diag: Vec::new(),
        })
        .collect();
    for _ in 0..kmax {
        let g_ref = &g;
        net.superstep_on(
            active,
            &mut states,
            |u, s: &WalkState| {
                let table: Vec<(u32, u64)> = s.counts.iter().map(|(&o, &c)| (o, c)).collect();
                if table.is_empty() {
                    return Vec::new();
                }
                g_ref
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| in_active(w))
                    .map(|&w| (w, CountMsg(table.clone())))
                    .collect()
            },
            |v, s, inbox| {
                let mut acc: BTreeMap<u32, u64> = BTreeMap::new();
                for (_, CountMsg(table)) in inbox {
                    for (o, c) in table {
                        *acc.entry(o).or_insert(0) += c;
                    }
                }
                s.diag.push(acc.get(&v).copied().unwrap_or(0));
                s.counts = acc;
            },
        )?;
    }
    Ok(active
        .iter()
        .zip(&states)
        .map(|(&v, s)| WalkSpectrum {
            v,
            degree: g.neighbors(v).iter().filter(|&&w| in_active(w)).count() as u64,
            diag: s.diag.clone(),
        })
        .collect())
}

#[derive(Clone, Debug)]
struct HopMsg(Vec<(u32, u32)>);

impl WireMsg for HopMsg {
    fn words(&self) -> u64 {
        2 * self.0.len() as u64
    }
}

#[derive(Clone, Debug)]
struct HopState {
    /// `known[origin]` = hop distance (≤ radius) from `origin` here.
    known: BTreeMap<u32, u32>,
    /// Entries discovered in the last superstep, pending propagation.
    fresh: Vec<(u32, u32)>,
}

/// Bounded multi-origin BFS on the subgraph induced by `active` (sorted,
/// unique): every active vertex floods its id outward for `radius` hops;
/// the result, positionally aligned with `active`, holds each vertex's
/// sorted `(origin, hop_distance)` table with every distance ≤ `radius`
/// (the self entry `(v, 0)` included). Frontier entries at the radius are
/// not forwarded, so the flood quiesces in `radius` supersteps.
pub fn bounded_hop_distances(
    net: &mut Network,
    active: &[u32],
    radius: u32,
) -> Result<Vec<Vec<(u32, u32)>>, CongestError> {
    let g = net.graph_handle();
    let in_active = |v: u32| active.binary_search(&v).is_ok();
    let mut states: Vec<HopState> = active
        .iter()
        .map(|&v| HopState {
            known: BTreeMap::from([(v, 0u32)]),
            fresh: vec![(v, 0)],
        })
        .collect();
    let g_ref = &g;
    net.run_until_quiet_on(
        active,
        &mut states,
        |u, s, out| {
            let payload: Vec<(u32, u32)> = s.fresh.drain(..).filter(|&(_, d)| d < radius).collect();
            if !payload.is_empty() {
                out.extend(
                    g_ref
                        .neighbors(u)
                        .iter()
                        .filter(|&&w| in_active(w))
                        .map(|&w| (w, HopMsg(payload.clone()))),
                );
            }
            false
        },
        |_v, s, inbox| {
            for (_, HopMsg(entries)) in inbox {
                for (o, d) in entries {
                    let nd = d + 1;
                    if let std::collections::btree_map::Entry::Vacant(slot) = s.known.entry(o) {
                        slot.insert(nd);
                        s.fresh.push((o, nd));
                    }
                }
            }
            s.fresh.sort_unstable();
            s.fresh.dedup();
            !s.fresh.is_empty()
        },
        u64::from(radius) + 2,
    )?;
    Ok(states
        .into_iter()
        .map(|s| s.known.into_iter().collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::NetworkConfig;
    use twgraph::alg::bfs_dist;
    use twgraph::gen::{cycle, grid, path};
    use twgraph::UGraph;

    /// Centralized reference: diag of A^k by repeated matrix-vector
    /// products on the induced subgraph.
    fn diag_ref(g: &UGraph, active: &[u32], kmax: usize) -> Vec<Vec<u64>> {
        let pos = |v: u32| active.binary_search(&v).ok();
        let k_n = active.len();
        let mut out = vec![Vec::new(); k_n];
        for (i, &src) in active.iter().enumerate() {
            let mut vec_cur = vec![0u64; k_n];
            vec_cur[i] = 1;
            for _ in 0..kmax {
                let mut next = vec![0u64; k_n];
                for (j, &v) in active.iter().enumerate() {
                    if vec_cur[j] == 0 {
                        continue;
                    }
                    for &w in g.neighbors(v) {
                        if let Some(p) = pos(w) {
                            next[p] += vec_cur[j];
                        }
                    }
                }
                vec_cur = next;
                out[i].push(vec_cur[i]);
            }
            let _ = src;
        }
        out
    }

    #[test]
    fn spectrum_matches_matrix_powers() {
        for g in [cycle(7), grid(3, 4), path(6)] {
            let active: Vec<u32> = (0..g.n() as u32).collect();
            let mut net = Network::new(g.clone(), NetworkConfig::default());
            let got = closed_walk_spectrum(&mut net, &active, 5).unwrap();
            let want = diag_ref(&g, &active, 5);
            for (i, spec) in got.iter().enumerate() {
                assert_eq!(spec.diag, want[i], "vertex {}", active[i]);
                assert_eq!(spec.diag[0], 0, "no self loops: (A¹)_vv = 0");
                assert_eq!(spec.diag[1], spec.degree, "(A²)_vv = degree");
            }
            assert!(net.metrics().messages > 0, "the relay must be charged");
        }
    }

    #[test]
    fn spectrum_respects_the_active_restriction() {
        // Cycle of 6 restricted to half: the induced path 0-1-2-3 has no
        // closed odd walks and path-like even diagonals.
        let g = cycle(6);
        let active = [0u32, 1, 2, 3];
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let got = closed_walk_spectrum(&mut net, &active, 4).unwrap();
        let want = diag_ref(&g, &active, 4);
        for (i, spec) in got.iter().enumerate() {
            assert_eq!(spec.diag, want[i]);
            assert_eq!(spec.diag[0], 0);
            assert_eq!(spec.diag[2], 0, "paths have no closed 3-walks");
        }
        assert_eq!(got[0].degree, 1, "vertex 0 keeps only neighbor 1");
    }

    #[test]
    fn hop_distances_match_truncated_bfs() {
        let g = grid(3, 5);
        let active: Vec<u32> = (0..g.n() as u32).collect();
        let radius = 3;
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let got = bounded_hop_distances(&mut net, &active, radius).unwrap();
        for (i, table) in got.iter().enumerate() {
            let v = active[i];
            for &(o, d) in table {
                assert_eq!(d, bfs_dist(&g, o)[v as usize], "{o} → {v}");
                assert!(d <= radius);
            }
            // Completeness: every vertex within the radius appears.
            for o in 0..g.n() as u32 {
                let true_d = bfs_dist(&g, o)[v as usize];
                assert_eq!(
                    table.iter().any(|&(x, _)| x == o),
                    true_d <= radius,
                    "{o} → {v}: table membership must mirror d ≤ {radius}"
                );
            }
        }
    }

    #[test]
    fn hop_distances_radius_zero_is_self_only() {
        let g = path(4);
        let active: Vec<u32> = (0..4).collect();
        let mut net = Network::new(g, NetworkConfig::default());
        let got = bounded_hop_distances(&mut net, &active, 0).unwrap();
        for (i, table) in got.iter().enumerate() {
            assert_eq!(table, &vec![(active[i], 0)]);
        }
    }

    #[test]
    fn hop_flood_stays_inside_the_active_set() {
        // Path 0-1-2-3-4-5 with only {0, 1, 4, 5} active: the gap at
        // {2, 3} splits the flood, so 0 never learns about 4.
        let g = path(6);
        let active = [0u32, 1, 4, 5];
        let mut net = Network::new(g, NetworkConfig::default());
        let got = bounded_hop_distances(&mut net, &active, 5).unwrap();
        assert_eq!(got[0], vec![(0, 0), (1, 1)]);
        assert_eq!(got[2], vec![(4, 0), (5, 1)]);
    }
}
