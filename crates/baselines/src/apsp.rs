//! Pipelined all-pairs BFS: every vertex floods its id; nodes forward at
//! most `W` new (source, dist) pairs per incident edge per superstep.
//! Θ(n + D) rounds — the canonical distributed diameter routine the
//! girth/diameter separation of §1.2 is measured against.

use congest_sim::{CongestError, Network};
use std::collections::VecDeque;

#[derive(Clone)]
struct ApspState {
    /// dist[s] = hop distance from source s (u32::MAX unknown).
    dist: Vec<u32>,
    /// Pairs awaiting forwarding.
    queue: VecDeque<(u32, u32)>,
}

/// Run the full flood; returns `(per-node distance vectors, rounds)`.
/// Memory is Θ(n²) — intended for the modest `n` of the separation
/// experiment, where the *round* count is the object of study.
pub fn apsp_pipelined_distributed(net: &mut Network) -> Result<(Vec<Vec<u32>>, u64), CongestError> {
    let n = net.n();
    let g = net.graph().clone();
    let start = net.metrics().rounds;
    let rate = net.config().bandwidth_words.max(1) as usize;

    let mut states: Vec<ApspState> = (0..n)
        .map(|v| {
            let mut dist = vec![u32::MAX; n];
            dist[v] = 0;
            ApspState {
                dist,
                queue: VecDeque::from([(v as u32, 0u32)]),
            }
        })
        .collect();

    let all: Vec<u32> = (0..n as u32).collect();
    let guard = 8 * (n as u64 + 2) * (n as u64 + 2);
    let mut steps = 0u64;
    loop {
        let pending: Vec<usize> = states.iter().map(|s| s.queue.len().min(rate)).collect();
        if pending.iter().all(|&p| p == 0) {
            break;
        }
        if steps == guard {
            return Err(CongestError::SuperstepBudget { limit: guard });
        }
        steps += 1;
        net.superstep_on(
            &all,
            &mut states,
            |u, s: &ApspState| {
                let mut out = Vec::new();
                for &(src, d) in s.queue.iter().take(pending[u as usize]) {
                    for &w in g.neighbors(u) {
                        out.push((w, (src, d)));
                    }
                }
                out
            },
            |_v, s, inbox| {
                for (_from, (src, d)) in inbox {
                    if d + 1 < s.dist[src as usize] {
                        s.dist[src as usize] = d + 1;
                        s.queue.push_back((src, d + 1));
                    }
                }
            },
        )?;
        for (v, s) in states.iter_mut().enumerate() {
            s.queue.drain(..pending[v]);
        }
    }
    Ok((
        states.into_iter().map(|s| s.dist).collect(),
        net.metrics().rounds - start,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::NetworkConfig;
    use twgraph::alg::bfs_dist;
    use twgraph::gen::{bit_gadget, grid};

    #[test]
    fn matches_centralized_bfs() {
        let g = grid(4, 5);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let (dists, rounds) = apsp_pipelined_distributed(&mut net).unwrap();
        for v in 0..g.n() as u32 {
            assert_eq!(dists[v as usize], bfs_dist(&g, v));
        }
        assert!(rounds >= g.n() as u64 / 2, "rounds = {rounds}");
    }

    #[test]
    fn rounds_linear_in_n_on_bit_gadget() {
        // Constant diameter but Θ(n) information per edge: the rounds are
        // forced to Ω(n) — the "diameter is expensive" half of E8.
        let g = bit_gadget(4);
        let n = g.n() as u64;
        let mut net = Network::new(g, NetworkConfig::default());
        let (_, rounds) = apsp_pipelined_distributed(&mut net).unwrap();
        assert!(rounds >= n / 2, "rounds = {rounds}, n = {n}");
    }

    #[test]
    fn charged_metrics_are_pinned() {
        // Exact charges of the flood: (rounds, supersteps, messages, words,
        // peak per-edge words in one superstep).
        for (g, want) in [
            (grid(4, 5), (46, 23, 1274, 2548, 2)),
            (bit_gadget(4), (84, 42, 11152, 22304, 2)),
        ] {
            let mut net = Network::new(g, NetworkConfig::default());
            let (_, rounds) = apsp_pipelined_distributed(&mut net).unwrap();
            let m = net.metrics();
            let got = (
                m.rounds,
                m.supersteps,
                m.messages,
                m.words,
                m.max_edge_words_in_superstep,
            );
            assert_eq!(got, want);
            assert_eq!(rounds, m.rounds);
        }
    }
}
