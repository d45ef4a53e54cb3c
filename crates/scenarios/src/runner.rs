//! Component splitting and the one-cell runner.

use crate::pipeline::Pipeline;
use crate::registry::Scenario;
use crate::report::{CellError, CellReport};
use treedec::decomp::{DecompError, DecompOutcome};
use treedec::dist::DistDecompOutcome;
use twgraph::{MultiDigraph, UGraph};

/// One connected component of a scenario, with its induced instance and
/// the mapping back to original vertex ids.
pub type Part = twgraph::alg::Component;

/// Split `inst` (over communication graph `g`) into connected components.
/// Parts come out ordered by their smallest original vertex, so `old_of`
/// is sorted and vertex 0 lies in part 0.
pub fn split_components(g: &UGraph, inst: &MultiDigraph) -> Vec<Part> {
    twgraph::alg::split_components(g, inst).1
}

/// Centralized tree decomposition of one part (the harness decomposes each
/// component independently; a decomposition of a disconnected graph does
/// not exist under the repo's connected-`G'_x` invariant). The separator
/// RNG stream is derived through the `twgraph::gen` seed rule so distinct
/// `(seed, comp)` pairs never alias (a plain `seed + comp` would collide
/// with the next scenario's component 0 under the corpus's consecutive
/// seeds).
pub fn decompose_part(
    part: &Part,
    t0: u64,
    seed: u64,
    comp: usize,
) -> Result<DecompOutcome, DecompError> {
    let cfg = treedec::SepConfig::practical(part.graph.n());
    let mut rng = twgraph::gen::derive_rng("scenario_decompose", &[comp as u64], seed);
    treedec::decompose_centralized(&part.graph, t0, &cfg, &mut rng)
}

/// Like [`decompose_part`] but charged on a CONGEST network; returns the
/// outcome and the network for subsequent stages.
pub fn decompose_part_distributed(
    part: &Part,
    t0: u64,
    seed: u64,
    comp: usize,
) -> Result<(DistDecompOutcome, congest_sim::Network), DecompError> {
    let cfg = treedec::SepConfig::practical(part.graph.n());
    let mut rng = twgraph::gen::derive_rng("scenario_decompose", &[comp as u64], seed);
    let mut net =
        congest_sim::Network::new(part.graph.clone(), congest_sim::NetworkConfig::default());
    let out = treedec::decompose_distributed(&mut net, t0, &cfg, &mut rng)?;
    Ok((out, net))
}

/// Run one cell.
pub fn run_cell(sc: &Scenario, pipeline: &dyn Pipeline) -> Result<CellReport, CellError> {
    pipeline.run(sc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twgraph::gen;

    #[test]
    fn split_preserves_structure() {
        let g = gen::multi_component(48, 3);
        let inst = gen::with_random_weights(&g, 9, 3);
        let parts = split_components(&g, &inst);
        assert_eq!(parts.len(), 5);
        let total_n: usize = parts.iter().map(|p| p.graph.n()).sum();
        let total_m: usize = parts.iter().map(|p| p.graph.m()).sum();
        assert_eq!(total_n, g.n());
        assert_eq!(total_m, g.m());
        // Weights survive the split.
        for part in &parts {
            assert_eq!(part.inst.comm_graph(), part.graph);
            for a in part.inst.arcs() {
                assert!((1..=9).contains(&a.weight));
            }
        }
        // Vertex 0 lands in part 0 at local id 0.
        assert_eq!(parts[0].local_of(0), Some(0));
        // The isolated vertex is a 1-vertex part.
        assert!(parts.iter().any(|p| p.graph.n() == 1));
    }

    #[test]
    fn decompose_part_valid() {
        let g = gen::series_parallel(30, 4);
        let inst = gen::with_unit_weights(&g);
        let parts = split_components(&g, &inst);
        assert_eq!(parts.len(), 1);
        let out = decompose_part(&parts[0], 3, 4, 0).unwrap();
        out.td.verify(&parts[0].graph).unwrap();
    }
}
