//! SNC — one-round neighbourhood communication (paper Appendix A.1).
//!
//! One engine superstep on all of V, named to keep the correspondence with
//! the paper's task vocabulary explicit.

use congest_sim::{CongestError, Network, WireMsg};

/// Convenience SNC: every node learns each neighbour's value of `value(v)`.
/// Returns, per node, the `(neighbor, value)` pairs (sorted by neighbour).
pub fn share_with_neighbors<V>(
    net: &mut Network,
    value: impl Fn(u32) -> V,
) -> Result<Vec<Vec<(u32, V)>>, CongestError>
where
    V: WireMsg + std::fmt::Debug,
{
    let g = net.graph_handle();
    let all: Vec<u32> = (0..net.n() as u32).collect();
    let mut states: Vec<Vec<(u32, V)>> = vec![Vec::new(); net.n()];
    net.superstep_on(
        &all,
        &mut states,
        |u, _s| {
            let mine = value(u);
            g.neighbors(u).iter().map(|&v| (v, mine.clone())).collect()
        },
        |_v, s, inbox| {
            *s = inbox.into_iter().collect();
        },
    )?;
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{Network, NetworkConfig};
    use twgraph::gen::cycle;

    #[test]
    fn neighbors_learn_values() {
        let g = cycle(5);
        let mut net = Network::new(g, NetworkConfig::default());
        let got = share_with_neighbors(&mut net, |v| v as u64 * 10).unwrap();
        assert_eq!(got[0], vec![(1, 10), (4, 40)]);
        assert_eq!(net.metrics().rounds, 1);
    }

    #[test]
    fn exchange_is_single_round_for_single_words() {
        let g = cycle(4);
        let mut net = Network::new(g, NetworkConfig::default());
        let got = share_with_neighbors(&mut net, |_| 1u32).unwrap();
        assert!(got.iter().all(|nbrs| nbrs.len() == 2));
        let m = net.metrics();
        assert_eq!((m.rounds, m.supersteps, m.messages, m.words), (1, 1, 8, 8));
    }
}
