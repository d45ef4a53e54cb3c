//! # scenarios — the scenario corpus and unified workload harness
//!
//! The paper's claim is parameterized: every pipeline in this workspace
//! (SSSP, distance labeling, girth, matching, stateful walks, the
//! label-serving query engine, incremental update maintenance with
//! epoch-versioned serving, small-capacity max-flow between terminal
//! pairs, subgraph counting, and FO-property checking) stays fully
//! polynomial *for any* low-treewidth input. This crate makes that claim
//! testable as a cross-product:
//!
//! * [`registry`] — a [`Scenario`] names a seeded graph [`Family`] with a
//!   declared treewidth bound and a [`WeightModel`]; [`corpus`] is the
//!   registered set (series-parallel, cactus, Halin, rings of cliques,
//!   disconnected multi-component mixes, heavy-tailed weights, the legacy
//!   families, and an unbounded G(n, p) control).
//! * [`pipeline`] — the [`Pipeline`] trait wraps each end-to-end pipeline
//!   behind one uniform `run(&Scenario) -> CellReport` interface. Every
//!   run decomposes each connected component, executes the distributed
//!   (or charged-virtual) machinery, and **asserts equality against the
//!   centralized oracles in [`baselines::oracles`]** — a returned report
//!   is a verified report.
//! * [`runner`] — component splitting plus [`run_cell`], which the
//!   `scenario_matrix` differential test suite and the `lab` matrix
//!   driver (`BENCH_scenarios.json`) run every cell through.
//! * [`report`] — [`CellReport`]: outputs, charged metrics under the
//!   parallel-composition rule, and per-phase
//!   [`congest_sim::PhaseSnapshot`] logs.
//!
//! ```
//! use scenarios::{corpus, all_pipelines};
//!
//! let sc = &corpus()[0];
//! let p = &all_pipelines()[0];
//! // Panics if the cell diverges from its oracle; simulator errors are typed.
//! let rep = p.run(sc).unwrap();
//! assert!(rep.checked > 0 && rep.metrics.rounds > 0);
//! ```

pub mod pipeline;
pub mod registry;
pub mod report;
pub mod runner;

pub use pipeline::{
    all_pipelines, update_mixes, CountingPipeline, DistLabelPipeline, FoPipeline, GirthPipeline,
    MatchingPipeline, MaxflowPipeline, Pipeline, ServePipeline, SsspPipeline, UpdateMix,
    UpdatePipeline, WalksPipeline,
};
pub use registry::{corpus, Family, Scenario, WeightModel};
pub use report::{fold_checksum, CellError, CellFailure, CellReport};
pub use runner::{run_cell, split_components, Part};
