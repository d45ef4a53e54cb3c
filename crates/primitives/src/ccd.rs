//! CCD — connected component detection (paper Lemma 8).
//!
//! Min-UID label flooding restricted to *active* nodes and an *allowed*
//! edge predicate (evaluated symmetrically at both endpoints, from purely
//! local data). Every active node ends up knowing the minimum UID in its
//! component of the allowed subgraph — a globally unique component id.
//! Rounds ≈ the largest component diameter (measured; see DESIGN.md §4 on
//! why flooding is the honest substitute here).
//!
//! The flood itself runs on the frontier loop scoped to the active set
//! ([`Network::run_until_quiet_on`]): the charged metrics are identical to
//! a full-network execution (inactive nodes never send), but a superstep
//! costs O(senders + receivers + messages) rather than O(n).

use congest_sim::{CongestError, Network};

#[derive(Clone)]
struct CcdState {
    label: u64,
    fresh: bool,
}

/// [`detect_on`] with a caller-supplied O(1) membership predicate
/// (`is_active(v)` must hold exactly for the vertices of `active`) —
/// callers that already track membership (e.g. a recursion's stamp sets)
/// avoid the dense per-call mask a standalone invocation would build.
pub fn detect_on_with(
    net: &mut Network,
    active: &[u32],
    is_active: impl Fn(u32) -> bool,
    allowed: impl Fn(u32, u32) -> bool,
) -> Result<Vec<u64>, CongestError> {
    let n = net.n();
    let g = net.graph_handle();
    let mut states: Vec<CcdState> = active
        .iter()
        .map(|&v| CcdState {
            label: net.uid(v),
            fresh: true,
        })
        .collect();
    net.run_until_quiet_on(
        active,
        &mut states,
        |u, s, out| {
            if s.fresh {
                out.extend(
                    g.neighbors(u)
                        .iter()
                        .copied()
                        .filter(|&v| is_active(v) && allowed(u, v))
                        .map(|v| (v, s.label)),
                );
                s.fresh = false;
            }
            false
        },
        |_v, s, inbox| {
            for (_src, label) in inbox {
                if label < s.label {
                    s.label = label;
                    s.fresh = true;
                }
            }
            s.fresh
        },
        8 * n as u64 + 64,
    )?;
    Ok(states.into_iter().map(|s| s.label).collect())
}

/// Detect components among the sorted active-node list `active` across
/// edges `{u, v}` with both endpoints active and `allowed(u, v)` true.
/// Returns, aligned with `active`, the component label of each active node
/// (the minimum UID in its component).
pub fn detect_on(
    net: &mut Network,
    active: &[u32],
    allowed: impl Fn(u32, u32) -> bool,
) -> Result<Vec<u64>, CongestError> {
    // Membership mask for O(1) "is my neighbour active" checks.
    let mut is_active = vec![false; net.n()];
    for &v in active {
        is_active[v as usize] = true;
    }
    detect_on_with(net, active, |v| is_active[v as usize], allowed)
}

/// Detect components among `active` nodes across edges `{u, v}` with both
/// endpoints active and `allowed(u, v)` true. Returns per node the
/// component label (min UID in the component), `None` for inactive nodes.
pub fn detect(
    net: &mut Network,
    active: &[bool],
    allowed: impl Fn(u32, u32) -> bool,
) -> Result<Vec<Option<u64>>, CongestError> {
    let n = net.n();
    assert_eq!(active.len(), n);
    let list: Vec<u32> = (0..n as u32).filter(|&v| active[v as usize]).collect();
    let labels = detect_on(net, &list, allowed)?;
    let mut out = vec![None; n];
    for (i, &v) in list.iter().enumerate() {
        out[v as usize] = Some(labels[i]);
    }
    Ok(out)
}

/// Compact the labels of [`detect`] into dense part ids `0..N` (ordered by
/// label) — a free local relabeling given a globally known label list, which
/// in a real execution is one aggregation the caller has typically already
/// paid for. Returns `(per-node part id, part count)`.
pub fn compact_labels(labels: &[Option<u64>]) -> (Vec<Option<u32>>, usize) {
    let mut distinct: Vec<u64> = labels.iter().flatten().copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let ids = labels
        .iter()
        .map(|l| l.map(|x| distinct.binary_search(&x).unwrap() as u32))
        .collect();
    (ids, distinct.len())
}

/// Compact the aligned labels of [`detect_on`] into dense part ids `0..N`
/// (ordered by label). Returns `(per-active-position part id, part count)`.
pub fn compact_labels_on(labels: &[u64]) -> (Vec<u32>, usize) {
    let mut distinct: Vec<u64> = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let ids = labels
        .iter()
        .map(|x| distinct.binary_search(x).unwrap() as u32)
        .collect();
    (ids, distinct.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{Network, NetworkConfig};
    use twgraph::alg::components;
    use twgraph::gen::{grid, path};
    use twgraph::UGraph;

    #[test]
    fn whole_graph_single_component() {
        let g = grid(3, 4);
        let mut net = Network::new(g, NetworkConfig::default());
        let labels = detect(&mut net, &[true; 12], |_, _| true).unwrap();
        let first = labels[0].unwrap();
        assert!(labels.iter().all(|&l| l == Some(first)));
    }

    #[test]
    fn removing_cut_vertex_splits() {
        // Path 0-1-2-3-4; deactivate 2 → components {0,1} and {3,4}.
        let g = path(5);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut active = vec![true; 5];
        active[2] = false;
        let labels = detect(&mut net, &active, |_, _| true).unwrap();
        assert!(labels[2].is_none());
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        let (ids, count) = compact_labels(&labels);
        assert_eq!(count, 2);
        assert!(ids[2].is_none());
    }

    #[test]
    fn scoped_detect_matches_dense() {
        let g = grid(4, 5);
        let active_list: Vec<u32> = (0..20u32).filter(|&v| v % 7 != 0).collect();
        let active: Vec<bool> = (0..20).map(|v| v % 7 != 0).collect();
        let mut net_a = Network::new(g.clone(), NetworkConfig::default());
        let dense = detect(&mut net_a, &active, |_, _| true).unwrap();
        let mut net_b = Network::new(g, NetworkConfig::default());
        let scoped = detect_on(&mut net_b, &active_list, |_, _| true).unwrap();
        assert_eq!(*net_a.metrics(), *net_b.metrics());
        for (i, &v) in active_list.iter().enumerate() {
            assert_eq!(dense[v as usize], Some(scoped[i]));
        }
        let (ids, k) = compact_labels_on(&scoped);
        let (dense_ids, dk) = compact_labels(&dense);
        assert_eq!(k, dk);
        for (i, &v) in active_list.iter().enumerate() {
            assert_eq!(dense_ids[v as usize], Some(ids[i]));
        }
    }

    #[test]
    fn edge_filter_respected() {
        // Cycle of 6 with edges {0,1} and {3,4} forbidden → two arcs.
        let g = twgraph::gen::cycle(6);
        let mut net = Network::new(g, NetworkConfig::default());
        let forbidden = [(0u32, 1u32), (3, 4)];
        let labels = detect(&mut net, &[true; 6], |u, v| {
            let key = if u < v { (u, v) } else { (v, u) };
            !forbidden.contains(&key)
        })
        .unwrap();
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[1]);
        assert_eq!(labels[4], labels[5]);
        assert_eq!(labels[5], labels[0]);
    }

    #[test]
    fn matches_centralized_components() {
        let g = UGraph::from_edges(8, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (5, 7)]);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let labels = detect(&mut net, &[true; 8], |_, _| true).unwrap();
        let (comp, k) = components(&g);
        let (ids, count) = compact_labels(&labels);
        assert_eq!(count, k);
        for u in 0..8 {
            for v in 0..8 {
                assert_eq!(
                    comp[u] == comp[v],
                    ids[u] == ids[v],
                    "component mismatch for {u},{v}"
                );
            }
        }
    }
}
