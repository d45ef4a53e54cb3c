//! # lab — the experiment harness
//!
//! One pipeline plans, runs and gates every experiment:
//!
//! ```text
//! spec::experiments() ──▶ [ExperimentSpec] ──plan──▶ [Trial]
//!                            (spec.rs)              (plan.rs)
//!                                                       │ run
//!                                                       ▼
//! BENCH_<name>.json ◀──bless── LabReport { schema_version, host,
//!     (baseline)               profile, rows: Vec<TrialRow> }
//!        │                                (results.rs, runner.rs)
//!        └──────────── gate ◀── candidate run ──────────┘
//!                    (gate.rs: det exact, wall ±20%)
//! ```
//!
//! * [`spec`] — the table of experiments: driver, base params, variants
//!   and one parameter overlay per profile.
//! * [`plan`] — expansion of one experiment × profile into its trials.
//! * [`runner`] — executes trials through [`crate::drivers`].
//! * [`results`] — the versioned [`results::LabReport`] table.
//! * [`gate`] — the CI regression gate.

pub mod gate;
pub mod plan;
pub mod results;
pub mod runner;
pub mod spec;
