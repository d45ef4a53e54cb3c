//! The regression gate: diff a candidate lab run against a committed
//! baseline report.
//!
//! Semantics (documented for users in `docs/EXPERIMENTS.md`):
//!
//! * **Deterministic metrics** (`det`) must be bit-identical. Any drift,
//!   missing row, extra row, or changed key set is a hard failure — the
//!   paper's charged quantities are exactly reproducible, so an exact
//!   gate is both possible and the whole point.
//! * **Wall clocks** (`wall_us`) fail when the candidate exceeds the
//!   baseline by strictly more than `wall_tolerance` (default 20% — a
//!   candidate at exactly +20% passes), and only when the *baseline* is at
//!   or above `wall_floor_us` (default 50 ms): relative noise on short
//!   spans is unbounded, so sub-floor baselines carry no gating signal.
//! * **Cross-host runs** (`baseline.host != candidate.host`) downgrade
//!   wall findings to warnings; `det` stays enforced. Committed baselines
//!   are generated wherever `--bless` ran, while CI executes elsewhere —
//!   charged metrics transfer exactly, wall clocks do not.
//! * **Profile or schema mismatch** refuses to compare at all, with a
//!   typed error instead of a confusing diff.
//! * `info` metrics are never compared.
//! * **Coverage** ([`coverage`], whole-suite runs only): a spec that
//!   defines the candidate's profile but has no candidate rows fails, and
//!   so does a `BENCH_<name>.json` that names no spec.

use crate::lab::results::{BaselineError, LabReport, TrialRow};
use crate::lab::spec::ExperimentSpec;
use std::fmt;
use std::path::Path;

/// Gate thresholds.
#[derive(Clone, Copy, Debug)]
pub struct GateConfig {
    /// Relative wall-clock headroom; fail strictly above it.
    pub wall_tolerance: f64,
    /// Ignore wall comparisons whose baseline sits under this floor.
    pub wall_floor_us: u64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            wall_tolerance: 0.20,
            wall_floor_us: 50_000,
        }
    }
}

impl GateConfig {
    /// The default config with a validated wall tolerance: the fraction
    /// must be finite and non-negative (`0.0` means "any slowdown fails",
    /// which is legitimate on a quiet dedicated host).
    pub fn with_wall_tolerance(t: f64) -> Result<GateConfig, GateError> {
        if !t.is_finite() || t < 0.0 {
            return Err(GateError::InvalidTolerance { value: t });
        }
        Ok(GateConfig {
            wall_tolerance: t,
            ..GateConfig::default()
        })
    }
}

/// Why the gate refused to run the comparison at all.
#[derive(Debug, PartialEq)]
pub enum GateError {
    /// Baseline and candidate were produced under different profiles.
    ProfileMismatch { baseline: String, candidate: String },
    /// The baseline could not be loaded (schema mismatch, malformed, IO).
    Baseline(BaselineError),
    /// The wall tolerance is not a usable fraction (NaN, ±∞, or negative).
    InvalidTolerance { value: f64 },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::ProfileMismatch {
                baseline,
                candidate,
            } => write!(
                f,
                "profile mismatch: baseline ran profile {baseline:?}, candidate ran {candidate:?}; \
                 rerun with the matching --profile"
            ),
            GateError::Baseline(e) => write!(f, "{e}"),
            GateError::InvalidTolerance { value } => write!(
                f,
                "wall tolerance must be a finite non-negative fraction, got {value}"
            ),
        }
    }
}

impl std::error::Error for GateError {}

impl From<BaselineError> for GateError {
    fn from(e: BaselineError) -> Self {
        GateError::Baseline(e)
    }
}

/// One comparison discrepancy.
#[derive(Clone, Debug, PartialEq)]
pub enum Finding {
    /// A deterministic metric changed value.
    DetDrift {
        id: String,
        key: String,
        baseline: u64,
        candidate: u64,
    },
    /// A baseline row has no candidate counterpart.
    MissingRow { id: String },
    /// A candidate row has no baseline counterpart.
    ExtraRow { id: String },
    /// A baseline det key disappeared from the candidate row.
    DetKeyMissing { id: String, key: String },
    /// A candidate det key the baseline row does not have.
    DetKeyExtra { id: String, key: String },
    /// A wall clock regressed beyond the tolerance.
    WallRegression {
        id: String,
        key: String,
        baseline_us: u64,
        candidate_us: u64,
        ratio: f64,
    },
    /// A spec that defines the candidate's profile has no candidate rows.
    ExperimentMissing { experiment: String },
    /// A baseline file in the baseline directory names no spec.
    OrphanBaseline { file: String },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::DetDrift {
                id,
                key,
                baseline,
                candidate,
            } => write!(
                f,
                "{id}: deterministic metric `{key}` drifted: {baseline} -> {candidate}"
            ),
            Finding::MissingRow { id } => write!(f, "{id}: row missing from the candidate run"),
            Finding::ExtraRow { id } => write!(f, "{id}: row not present in the baseline"),
            Finding::DetKeyMissing { id, key } => {
                write!(
                    f,
                    "{id}: deterministic metric `{key}` missing from candidate"
                )
            }
            Finding::DetKeyExtra { id, key } => {
                write!(f, "{id}: new deterministic metric `{key}` not in baseline")
            }
            Finding::WallRegression {
                id,
                key,
                baseline_us,
                candidate_us,
                ratio,
            } => write!(
                f,
                "{id}: wall `{key}` regressed {ratio:.2}x ({baseline_us} us -> {candidate_us} us)"
            ),
            Finding::ExperimentMissing { experiment } => {
                write!(f, "{experiment}: spec has no rows in the candidate run")
            }
            Finding::OrphanBaseline { file } => write!(f, "{file}: baseline names no spec"),
        }
    }
}

/// The gate verdict: failures block, warnings inform.
#[derive(Debug, Default)]
pub struct GateOutcome {
    pub failures: Vec<Finding>,
    pub warnings: Vec<Finding>,
    /// Rows present on both sides.
    pub rows_compared: usize,
    /// Det key pairs compared exactly.
    pub det_compared: usize,
    /// Wall key pairs compared against the tolerance.
    pub wall_compared: usize,
}

impl GateOutcome {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Merge another experiment's outcome into this aggregate.
    pub fn absorb(&mut self, other: GateOutcome) {
        self.failures.extend(other.failures);
        self.warnings.extend(other.warnings);
        self.rows_compared += other.rows_compared;
        self.det_compared += other.det_compared;
        self.wall_compared += other.wall_compared;
    }
}

/// Diff `candidate` against `baseline` under `cfg`.
pub fn gate(
    baseline: &LabReport,
    candidate: &LabReport,
    cfg: &GateConfig,
) -> Result<GateOutcome, GateError> {
    // A NaN tolerance would make every ratio comparison silently false
    // (never regressing); refuse with a typed error instead.
    if !cfg.wall_tolerance.is_finite() || cfg.wall_tolerance < 0.0 {
        return Err(GateError::InvalidTolerance {
            value: cfg.wall_tolerance,
        });
    }
    if baseline.profile != candidate.profile {
        return Err(GateError::ProfileMismatch {
            baseline: baseline.profile.clone(),
            candidate: candidate.profile.clone(),
        });
    }
    let same_host = baseline.host == candidate.host;
    let mut out = GateOutcome::default();

    for brow in &baseline.rows {
        let Some(crow) = candidate.rows.iter().find(|r| r.id == brow.id) else {
            out.failures.push(Finding::MissingRow {
                id: brow.id.clone(),
            });
            continue;
        };
        out.rows_compared += 1;
        compare_det(brow, crow, &mut out);
        compare_wall(brow, crow, cfg, same_host, &mut out);
    }
    for crow in &candidate.rows {
        if !baseline.rows.iter().any(|r| r.id == crow.id) {
            out.failures.push(Finding::ExtraRow {
                id: crow.id.clone(),
            });
        }
    }
    Ok(out)
}

/// The coverage findings of a whole-suite gate run (no `--experiment`):
/// [`gate`] compares only the experiments the candidate contains, so a
/// spec left out of the run, or a committed `BENCH_<name>.json` whose spec
/// was deleted, would otherwise pass unnoticed. Findings are ordered:
/// missing experiments in spec order, then orphan files by name.
pub fn coverage(
    specs: &[ExperimentSpec],
    candidate: &LabReport,
    baseline_dir: &Path,
) -> Result<Vec<Finding>, GateError> {
    let present = candidate.experiments();
    let mut out: Vec<Finding> = specs
        .iter()
        .filter(|s| {
            s.profiles.contains_key(candidate.profile.as_str())
                && !present.iter().any(|p| p == s.name)
        })
        .map(|s| Finding::ExperimentMissing {
            experiment: s.name.to_string(),
        })
        .collect();
    let io = |e: std::io::Error| BaselineError::Io {
        path: baseline_dir.display().to_string(),
        msg: e.to_string(),
    };
    let mut files = std::fs::read_dir(baseline_dir)
        .map_err(io)?
        .map(|entry| Ok(entry?.file_name().to_string_lossy().into_owned()))
        .collect::<std::io::Result<Vec<String>>>()
        .map_err(io)?;
    files.sort();
    for file in files {
        let stem = file
            .strip_prefix("BENCH_")
            .and_then(|f| f.strip_suffix(".json"));
        if stem.is_some_and(|name| specs.iter().all(|s| s.name != name)) {
            out.push(Finding::OrphanBaseline { file });
        }
    }
    Ok(out)
}

fn compare_det(brow: &TrialRow, crow: &TrialRow, out: &mut GateOutcome) {
    for (key, bval) in &brow.det {
        match crow.det_get(key) {
            Some(cval) => {
                out.det_compared += 1;
                if cval != *bval {
                    out.failures.push(Finding::DetDrift {
                        id: brow.id.clone(),
                        key: key.clone(),
                        baseline: *bval,
                        candidate: cval,
                    });
                }
            }
            None => out.failures.push(Finding::DetKeyMissing {
                id: brow.id.clone(),
                key: key.clone(),
            }),
        }
    }
    for (key, _) in &crow.det {
        if brow.det_get(key).is_none() {
            out.failures.push(Finding::DetKeyExtra {
                id: crow.id.clone(),
                key: key.clone(),
            });
        }
    }
}

fn compare_wall(
    brow: &TrialRow,
    crow: &TrialRow,
    cfg: &GateConfig,
    same_host: bool,
    out: &mut GateOutcome,
) {
    for (key, bval) in &brow.wall_us {
        let Some(cval) = crow.wall_get(key) else {
            // Wall keys are advisory; a disappeared span is only a warning.
            out.warnings.push(Finding::DetKeyMissing {
                id: brow.id.clone(),
                key: format!("wall:{key}"),
            });
            continue;
        };
        out.wall_compared += 1;
        if *bval < cfg.wall_floor_us {
            continue;
        }
        let ratio = cval as f64 / (*bval).max(1) as f64;
        // Strictly above tolerance: a candidate at exactly +20% passes.
        if ratio > 1.0 + cfg.wall_tolerance {
            let finding = Finding::WallRegression {
                id: brow.id.clone(),
                key: key.clone(),
                baseline_us: *bval,
                candidate_us: cval,
                ratio,
            };
            if same_host {
                out.failures.push(finding);
            } else {
                out.warnings.push(finding);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::results::SCHEMA_VERSION;

    fn row(id: &str, det: &[(&str, u64)], wall: &[(&str, u64)]) -> TrialRow {
        TrialRow {
            id: id.to_string(),
            experiment: "e".into(),
            scenario: "-".into(),
            pipeline: "-".into(),
            variant: "-".into(),
            rep: 0,
            det: det.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            wall_us: wall.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            info: Vec::new(),
        }
    }

    fn report(host: &str, rows: Vec<TrialRow>) -> LabReport {
        LabReport {
            schema_version: SCHEMA_VERSION,
            host: host.into(),
            profile: "quick".into(),
            rows,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let b = report(
            "h",
            vec![row("e/-/-/-#0", &[("rounds", 7)], &[("t", 100_000)])],
        );
        let out = gate(&b, &b.clone(), &GateConfig::default()).unwrap();
        assert!(out.passed());
        assert_eq!(out.rows_compared, 1);
        assert_eq!(out.det_compared, 1);
        assert_eq!(out.wall_compared, 1);
        assert!(out.warnings.is_empty());
    }

    #[test]
    fn det_drift_fails_hard() {
        // The acceptance-criteria test: an injected charged-metric drift
        // must fail the build even when every wall clock improved.
        let b = report(
            "h",
            vec![row(
                "e/-/-/-#0",
                &[("charged_rounds", 100), ("congestion", 8)],
                &[("t", 1_000_000)],
            )],
        );
        let c = report(
            "h",
            vec![row(
                "e/-/-/-#0",
                &[("charged_rounds", 101), ("congestion", 8)],
                &[("t", 100_000)],
            )],
        );
        let out = gate(&b, &c, &GateConfig::default()).unwrap();
        assert!(!out.passed());
        assert_eq!(
            out.failures,
            vec![Finding::DetDrift {
                id: "e/-/-/-#0".into(),
                key: "charged_rounds".into(),
                baseline: 100,
                candidate: 101,
            }]
        );
    }

    #[test]
    fn wall_boundary_is_strictly_above_20_percent() {
        let b = report("h", vec![row("e/-/-/-#0", &[], &[("t", 1_000_000)])]);
        // Exactly +20%: passes.
        let c = report("h", vec![row("e/-/-/-#0", &[], &[("t", 1_200_000)])]);
        let out = gate(&b, &c, &GateConfig::default()).unwrap();
        assert!(out.passed(), "exactly-20% must pass: {:?}", out.failures);
        // One microsecond above: fails.
        let c = report("h", vec![row("e/-/-/-#0", &[], &[("t", 1_200_001)])]);
        let out = gate(&b, &c, &GateConfig::default()).unwrap();
        assert!(!out.passed());
        assert!(matches!(
            out.failures[0],
            Finding::WallRegression {
                candidate_us: 1_200_001,
                ..
            }
        ));
        // Improvements never fail.
        let c = report("h", vec![row("e/-/-/-#0", &[], &[("t", 10)])]);
        assert!(gate(&b, &c, &GateConfig::default()).unwrap().passed());
    }

    #[test]
    fn sub_floor_walls_are_ignored() {
        let b = report("h", vec![row("e/-/-/-#0", &[], &[("t", 1_000)])]);
        // 60x slower, but a 1 ms baseline carries no gating signal.
        let c = report("h", vec![row("e/-/-/-#0", &[], &[("t", 60_000)])]);
        assert!(gate(&b, &c, &GateConfig::default()).unwrap().passed());
        // A baseline at the floor gates normally.
        let b = report("h", vec![row("e/-/-/-#0", &[], &[("t", 50_000)])]);
        let c = report("h", vec![row("e/-/-/-#0", &[], &[("t", 61_000)])]);
        assert!(!gate(&b, &c, &GateConfig::default()).unwrap().passed());
    }

    #[test]
    fn cross_host_downgrades_wall_but_not_det() {
        let b = report(
            "alpha",
            vec![row("e/-/-/-#0", &[("rounds", 5)], &[("t", 1_000_000)])],
        );
        let c = report(
            "beta",
            vec![row("e/-/-/-#0", &[("rounds", 5)], &[("t", 9_000_000)])],
        );
        let out = gate(&b, &c, &GateConfig::default()).unwrap();
        assert!(out.passed());
        assert_eq!(out.warnings.len(), 1);

        let c = report(
            "beta",
            vec![row("e/-/-/-#0", &[("rounds", 6)], &[("t", 1_000_000)])],
        );
        let out = gate(&b, &c, &GateConfig::default()).unwrap();
        assert!(!out.passed(), "det drift must fail even cross-host");
    }

    #[test]
    fn missing_and_extra_rows_fail() {
        let b = report(
            "h",
            vec![
                row("e/-/-/a#0", &[("rounds", 1)], &[]),
                row("e/-/-/b#0", &[("rounds", 2)], &[]),
            ],
        );
        let c = report(
            "h",
            vec![
                row("e/-/-/a#0", &[("rounds", 1)], &[]),
                row("e/-/-/c#0", &[("rounds", 3)], &[]),
            ],
        );
        let out = gate(&b, &c, &GateConfig::default()).unwrap();
        assert_eq!(out.failures.len(), 2);
        assert!(out
            .failures
            .iter()
            .any(|f| matches!(f, Finding::MissingRow { id } if id == "e/-/-/b#0")));
        assert!(out
            .failures
            .iter()
            .any(|f| matches!(f, Finding::ExtraRow { id } if id == "e/-/-/c#0")));
    }

    #[test]
    fn det_key_set_changes_fail() {
        let b = report(
            "h",
            vec![row("e/-/-/-#0", &[("rounds", 1), ("words", 2)], &[])],
        );
        let c = report(
            "h",
            vec![row("e/-/-/-#0", &[("rounds", 1), ("msgs", 2)], &[])],
        );
        let out = gate(&b, &c, &GateConfig::default()).unwrap();
        assert_eq!(out.failures.len(), 2);
        assert!(out
            .failures
            .iter()
            .any(|f| matches!(f, Finding::DetKeyMissing { key, .. } if key == "words")));
        assert!(out
            .failures
            .iter()
            .any(|f| matches!(f, Finding::DetKeyExtra { key, .. } if key == "msgs")));
    }

    #[test]
    fn invalid_tolerances_are_typed_errors() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.2] {
            match GateConfig::with_wall_tolerance(bad) {
                Err(GateError::InvalidTolerance { value }) => {
                    assert!(value.is_nan() == bad.is_nan() && (value.is_nan() || value == bad))
                }
                other => panic!("tolerance {bad} must be rejected, got {other:?}"),
            }
            // The gate itself refuses a hand-built config too: a NaN
            // would silently disable every wall comparison.
            let cfg = GateConfig {
                wall_tolerance: bad,
                ..GateConfig::default()
            };
            let b = report("h", vec![]);
            assert!(matches!(
                gate(&b, &b.clone(), &cfg),
                Err(GateError::InvalidTolerance { .. })
            ));
        }
        // Zero is legitimate: any same-host slowdown fails.
        let cfg = GateConfig::with_wall_tolerance(0.0).unwrap();
        let b = report("h", vec![row("e/-/-/-#0", &[], &[("t", 1_000_000)])]);
        let c = report("h", vec![row("e/-/-/-#0", &[], &[("t", 1_000_001)])]);
        assert!(!gate(&b, &c, &cfg).unwrap().passed());
    }

    /// The coverage findings of a quick candidate with one row per
    /// experiment in `ran`, for `(name, profile)` specs, against a fresh
    /// baseline directory holding empty `files`.
    fn gaps(specs: &[(&'static str, &'static str)], ran: &[&str], files: &[&str]) -> Vec<Finding> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lab-gate-{}-{k}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for f in files {
            std::fs::write(dir.join(f), "").unwrap();
        }
        let specs: Vec<ExperimentSpec> = specs
            .iter()
            .map(|&(name, profile)| ExperimentSpec {
                name,
                driver: crate::lab::spec::Driver::Engine,
                params: Default::default(),
                variants: Vec::new(),
                profiles: [(profile, Default::default())].into(),
            })
            .collect();
        let rows = ran
            .iter()
            .map(|e| TrialRow {
                experiment: e.to_string(),
                ..row(&format!("{e}/-/-/-#0"), &[], &[])
            })
            .collect();
        let found = coverage(&specs, &report("h", rows), &dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        found
    }

    #[test]
    fn coverage_fails_a_spec_without_candidate_rows() {
        // `c` defines no quick profile, so a quick candidate need not cover it.
        let specs = [("a", "quick"), ("b", "quick"), ("c", "full")];
        let files = ["BENCH_a.json", "BENCH_b.json", "README.md"];
        let missing = Finding::ExperimentMissing {
            experiment: "b".into(),
        };
        assert_eq!(gaps(&specs, &["a"], &files), vec![missing]);
        assert_eq!(gaps(&specs, &["a", "b"], &files), vec![]);
    }

    #[test]
    fn coverage_fails_an_orphan_baseline() {
        let files = ["BENCH_a.json", "BENCH_gone.json", "BENCH.json"];
        let orphan = Finding::OrphanBaseline {
            file: "BENCH_gone.json".into(),
        };
        assert_eq!(gaps(&[("a", "quick")], &["a"], &files), vec![orphan]);
        assert_eq!(gaps(&[("a", "quick")], &["a"], &files[..1]), vec![]);
    }

    #[test]
    fn profile_mismatch_refuses_to_compare() {
        let b = report("h", vec![]);
        let mut c = report("h", vec![]);
        c.profile = "full".into();
        match gate(&b, &c, &GateConfig::default()) {
            Err(GateError::ProfileMismatch {
                baseline,
                candidate,
            }) => {
                assert_eq!(baseline, "quick");
                assert_eq!(candidate, "full");
            }
            other => panic!("expected ProfileMismatch, got {other:?}"),
        }
    }
}
