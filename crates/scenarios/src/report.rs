//! Run reports: charged-cost totals and per-cell records.

use congest_sim::{Network, PhaseSnapshot};
use std::fmt;
use treedec::DecompError;

/// The underlying operational failure of a cell: either the build side
/// (decomposition / simulator, wrapped in [`DecompError`]) or the query
/// side (the `labelserve` store, a [`labelserve::ServeError`]).
#[derive(Debug)]
pub enum CellFailure {
    /// Decomposition or CONGEST-simulator failure.
    Decomp(DecompError),
    /// Label-store build or query failure.
    Serve(labelserve::ServeError),
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Decomp(e) => write!(f, "{e}"),
            CellFailure::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl From<DecompError> for CellFailure {
    fn from(e: DecompError) -> Self {
        CellFailure::Decomp(e)
    }
}

impl From<labelserve::ServeError> for CellFailure {
    fn from(e: labelserve::ServeError) -> Self {
        CellFailure::Serve(e)
    }
}

/// A cell failed for an operational reason (simulator violation, invalid
/// decomposition input, store build/query failure) rather than a
/// differential divergence — the latter is an invariant break and still
/// asserts. Carries the cell coordinates so matrix drivers can report
/// which workload died.
#[derive(Debug)]
pub struct CellError {
    /// Scenario registry name.
    pub scenario: String,
    /// Pipeline name.
    pub pipeline: &'static str,
    /// The underlying failure.
    pub source: CellFailure,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}: {}", self.scenario, self.pipeline, self.source)
    }
}

impl std::error::Error for CellError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.source {
            CellFailure::Decomp(e) => Some(e),
            CellFailure::Serve(e) => Some(e),
        }
    }
}

/// The uniform result record of one scenario × pipeline cell.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Scenario registry name.
    pub scenario: String,
    /// Pipeline name (`sssp`, `distlabel`, `girth`, `matching`, `walks`).
    pub pipeline: &'static str,
    /// Vertices of the scenario graph.
    pub n: usize,
    /// Undirected edges of the scenario graph.
    pub m: usize,
    /// Connected components of the scenario graph.
    pub components: usize,
    /// Largest decomposition width over components (0 if none built).
    pub width: usize,
    /// Largest decomposition depth over components.
    pub depth: usize,
    /// Headline output (pipeline-specific: distance checksum, girth value,
    /// matching size, walk-distance checksum).
    pub output: u64,
    /// Number of values differentially verified against the baseline
    /// oracles — every cell must have `checked > 0`.
    pub checked: usize,
    /// Charged-cost totals, aggregated over connected components under
    /// the parallel composition rule ([`PhaseSnapshot::par_absorb`]):
    /// components run concurrently in CONGEST, so round-like counters take
    /// the maximum over components while traffic counters sum.
    pub metrics: PhaseSnapshot,
    /// Pipeline-specific named counters (trials, augmentations, …).
    pub detail: Vec<(&'static str, u64)>,
    /// Per-phase engine snapshots, names prefixed `c<i>/` per component.
    pub phases: Vec<PhaseSnapshot>,
}

impl CellReport {
    /// Fresh report scaffold for a cell.
    pub fn new(scenario: &str, pipeline: &'static str, n: usize, m: usize) -> Self {
        CellReport {
            scenario: scenario.to_string(),
            pipeline,
            n,
            m,
            components: 0,
            width: 0,
            depth: 0,
            output: 0,
            checked: 0,
            metrics: PhaseSnapshot::default(),
            detail: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Record a component's decomposition shape.
    pub fn note_decomposition(&mut self, width: usize, depth: usize) {
        self.width = self.width.max(width);
        self.depth = self.depth.max(depth);
    }

    /// Fold component `comp`'s finished network into the report: its
    /// totals into [`metrics`](CellReport::metrics) and its phase log
    /// under a `c<i>/` prefix.
    pub fn note_network(&mut self, comp: usize, net: &Network) {
        self.metrics.par_absorb(&net.metrics().as_phase(""));
        for p in net.phase_log() {
            let mut p = p.clone();
            p.phase = format!("c{comp}/{}", p.phase);
            self.phases.push(p);
        }
    }
}

/// Order-independent checksum accumulator for distance-like outputs: folds
/// `(position, value)` pairs with a SplitMix-style scramble so reports can
/// compare whole output vectors as one `u64`.
pub fn fold_checksum(acc: u64, position: u64, value: u64) -> u64 {
    let mut z = position
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value)
        .wrapping_add(0x243F_6A88_85A3_08D3);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    acc.wrapping_add(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_composition_rule() {
        let mut t = PhaseSnapshot::default();
        let mk = |rounds, messages| PhaseSnapshot {
            rounds,
            supersteps: rounds,
            messages,
            words: messages,
            max_edge_words_in_superstep: rounds.min(4),
            ..PhaseSnapshot::default()
        };
        t.par_absorb(&mk(10, 100));
        t.par_absorb(&mk(4, 50));
        assert_eq!(t.rounds, 10);
        assert_eq!(t.supersteps, 10);
        assert_eq!(t.messages, 150);
        assert_eq!(t.words, 150);
        assert_eq!(t.max_edge_words_in_superstep, 4);
    }

    #[test]
    fn checksum_depends_on_position_and_value() {
        let a = fold_checksum(0, 1, 5);
        let b = fold_checksum(0, 2, 5);
        let c = fold_checksum(0, 1, 6);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Order-independent accumulation.
        let ab = fold_checksum(fold_checksum(0, 1, 5), 2, 7);
        let ba = fold_checksum(fold_checksum(0, 2, 7), 1, 5);
        assert_eq!(ab, ba);
    }
}
