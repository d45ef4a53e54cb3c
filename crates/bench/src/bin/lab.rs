//! `lab` — the experiment harness CLI.
//!
//! ```sh
//! cargo run --release -p lowtw-bench --bin lab -- list
//! cargo run --release -p lowtw-bench --bin lab -- plan --profile quick
//! cargo run --release -p lowtw-bench --bin lab -- run  --profile quick --out LAB_RESULTS.json
//! cargo run --release -p lowtw-bench --bin lab -- run  --profile quick --bless   # regen baselines
//! cargo run --release -p lowtw-bench --bin lab -- gate --candidate LAB_RESULTS.json
//! ```
//!
//! The experiments are the table `lowtw_bench::lab::spec::experiments()`.
//! Committed baselines are the `BENCH_<experiment>.json` files in the
//! repository root — one [`LabReport`] per experiment, written by
//! `run --bless` and compared by `gate`. See `docs/EXPERIMENTS.md` for the
//! table's fields and the gate semantics.

use lowtw_bench::lab::gate::{coverage, gate, GateConfig};
use lowtw_bench::lab::plan::{plan, Trial};
use lowtw_bench::lab::results::LabReport;
use lowtw_bench::lab::runner::run_trials;
use lowtw_bench::lab::spec::{experiments, ExperimentSpec};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match Opts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lab: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let specs = experiments();
    match cmd.as_str() {
        "list" => list(&specs),
        "plan" => plan_cmd(&specs, &opts),
        "run" => run_cmd(&specs, &opts),
        "gate" => gate_cmd(&specs, &opts),
        other => {
            eprintln!("lab: unknown subcommand {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  lab list
  lab plan --profile <name> [--experiment <name>]
  lab run  --profile <name> [--experiment <name>] [--out <file>] [--bless]
  lab gate [--candidate <file>] [--baseline-dir <dir>] [--wall-tolerance <frac>]
           [--experiment <name>]

  list   show every experiment spec with its profiles and variants
  plan   print the trial grid a run would execute
  run    execute the grid; --out writes one combined LabReport,
         --bless rewrites the committed BENCH_<experiment>.json baselines
  gate   diff a candidate report (default LAB_RESULTS.json) against the
         committed baselines: deterministic drift fails hard, wall-clock
         regressions fail above the tolerance (default 0.20, same host only);
         without --experiment, a spec with no candidate rows and a
         BENCH_<name>.json with no spec fail too";

#[derive(Debug, Default)]
struct Opts {
    profile: Option<String>,
    experiment: Option<String>,
    out: Option<PathBuf>,
    bless: bool,
    candidate: Option<PathBuf>,
    baseline_dir: Option<PathBuf>,
    wall_tolerance: Option<f64>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut val = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match a.as_str() {
                "--profile" => o.profile = Some(val("--profile")?),
                "--experiment" => o.experiment = Some(val("--experiment")?),
                "--out" => o.out = Some(PathBuf::from(val("--out")?)),
                "--bless" => o.bless = true,
                "--candidate" => o.candidate = Some(PathBuf::from(val("--candidate")?)),
                "--baseline-dir" => o.baseline_dir = Some(PathBuf::from(val("--baseline-dir")?)),
                "--wall-tolerance" => {
                    let v = val("--wall-tolerance")?;
                    let t: f64 = v.parse().map_err(|e| format!("--wall-tolerance: {e}"))?;
                    // Reject unusable fractions here, before any file IO:
                    // a NaN would disable wall gating silently, a negative
                    // would fail every unchanged run.
                    if !t.is_finite() || t < 0.0 {
                        return Err(format!(
                            "--wall-tolerance must be a finite non-negative fraction, got {v:?}"
                        ));
                    }
                    o.wall_tolerance = Some(t);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(o)
    }

    fn profile(&self) -> Result<&str, String> {
        self.profile
            .as_deref()
            .ok_or_else(|| "--profile is required".to_string())
    }
}

/// The experiments selected by `--experiment` (all when absent).
fn selected<'a>(
    specs: &'a [ExperimentSpec],
    opts: &Opts,
) -> Result<Vec<&'a ExperimentSpec>, String> {
    match &opts.experiment {
        None => Ok(specs.iter().collect()),
        Some(name) => {
            let hit: Vec<&ExperimentSpec> = specs.iter().filter(|s| s.name == *name).collect();
            if hit.is_empty() {
                let known: Vec<&str> = specs.iter().map(|s| s.name).collect();
                Err(format!(
                    "unknown experiment {name:?} (expected one of {known:?})"
                ))
            } else {
                Ok(hit)
            }
        }
    }
}

fn planned(specs: &[ExperimentSpec], opts: &Opts) -> Result<Vec<Trial>, String> {
    let profile = opts.profile()?;
    let chosen = selected(specs, opts)?;
    let trials: Vec<Trial> = chosen.iter().flat_map(|s| plan(s, profile)).collect();
    if trials.is_empty() {
        let known: Vec<&str> = chosen
            .iter()
            .flat_map(|s| s.profiles.keys().copied())
            .collect();
        return Err(format!(
            "no experiment defines profile {profile:?} (profiles present: {known:?})"
        ));
    }
    Ok(trials)
}

fn list(specs: &[ExperimentSpec]) -> ExitCode {
    println!("{} experiments", specs.len());
    for s in specs {
        let profiles: Vec<&str> = s.profiles.keys().copied().collect();
        let variants: Vec<&str> = s.variants.iter().map(|v| v.name).collect();
        println!(
            "  {:<10} driver={:<7} profiles={profiles:?} variants={variants:?}",
            s.name,
            s.driver.name()
        );
    }
    ExitCode::SUCCESS
}

fn plan_cmd(specs: &[ExperimentSpec], opts: &Opts) -> ExitCode {
    let trials = match planned(specs, opts) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lab: {e}");
            return ExitCode::from(2);
        }
    };
    for t in &trials {
        println!("{}", t.id());
    }
    println!("{} trials", trials.len());
    ExitCode::SUCCESS
}

fn run_cmd(specs: &[ExperimentSpec], opts: &Opts) -> ExitCode {
    let profile = match opts.profile() {
        Ok(p) => p.to_string(),
        Err(e) => {
            eprintln!("lab: {e}");
            return ExitCode::from(2);
        }
    };
    let trials = match planned(specs, opts) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lab: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = run_trials(&trials);
    let report = LabReport::new(&profile, rows);
    if let Some(out) = &opts.out {
        report.write_to(out).expect("write results");
        println!("wrote {} ({} rows)", out.display(), report.rows.len());
    }
    if opts.bless {
        for exp in report.experiments() {
            let sub = report.restricted_to(&exp);
            let path = PathBuf::from(format!("BENCH_{exp}.json"));
            sub.write_to(&path).expect("write baseline");
            println!("blessed {} ({} rows)", path.display(), sub.rows.len());
        }
    }
    if opts.out.is_none() && !opts.bless {
        println!(
            "ran {} trials (profile {profile}); pass --out or --bless to persist",
            report.rows.len()
        );
    }
    ExitCode::SUCCESS
}

fn gate_cmd(specs: &[ExperimentSpec], opts: &Opts) -> ExitCode {
    let candidate_path = opts
        .candidate
        .clone()
        .unwrap_or_else(|| PathBuf::from("LAB_RESULTS.json"));
    let candidate = match LabReport::load(&candidate_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lab gate: candidate {}: {e}", candidate_path.display());
            return ExitCode::FAILURE;
        }
    };
    let baseline_dir = opts
        .baseline_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("."));
    let cfg = match opts.wall_tolerance {
        // Parsing already rejected unusable values; the typed constructor
        // re-checks so the library invariant never rests on the CLI.
        Some(t) => match GateConfig::with_wall_tolerance(t) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("lab gate: {e}");
                return ExitCode::from(2);
            }
        },
        None => GateConfig::default(),
    };

    let mut outcome = lowtw_bench::lab::gate::GateOutcome::default();
    let mut experiments = candidate.experiments();
    if let Some(only) = &opts.experiment {
        experiments.retain(|e| e == only);
    }
    if experiments.is_empty() {
        eprintln!("lab gate: candidate has no rows to compare");
        return ExitCode::FAILURE;
    }
    // A whole-suite gate also fails on a spec the run left out and on a
    // baseline whose spec is gone.
    if opts.experiment.is_none() {
        match coverage(specs, &candidate, &baseline_dir) {
            Ok(gaps) => outcome.failures.extend(gaps),
            Err(e) => {
                eprintln!("lab gate: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Also require a baseline for every spec'd experiment the candidate
    // claims to cover — and fail on candidates for unknown experiments.
    for exp in &experiments {
        if specs.iter().all(|s| s.name != exp) {
            eprintln!("lab gate: candidate row experiment {exp:?} has no spec");
            return ExitCode::FAILURE;
        }
        let path = baseline_dir.join(format!("BENCH_{exp}.json"));
        let baseline = match LabReport::load(&path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("lab gate: baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match gate(&baseline, &candidate.restricted_to(exp), &cfg) {
            Ok(o) => {
                println!(
                    "gate {exp}: {} rows, {} det metrics exact, {} wall spans checked, {} warnings",
                    o.rows_compared,
                    o.det_compared,
                    o.wall_compared,
                    o.warnings.len()
                );
                outcome.absorb(o);
            }
            Err(e) => {
                eprintln!("lab gate: {exp}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for w in &outcome.warnings {
        println!("warning: {w}");
    }
    if outcome.passed() {
        println!(
            "gate PASSED: {} rows, {} deterministic metrics bit-identical",
            outcome.rows_compared, outcome.det_compared
        );
        ExitCode::SUCCESS
    } else {
        for f in &outcome.failures {
            eprintln!("FAIL: {f}");
        }
        eprintln!("gate FAILED with {} finding(s)", outcome.failures.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::Opts;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Opts::parse(&owned)
    }

    #[test]
    fn wall_tolerance_accepts_sane_fractions() {
        for (arg, want) in [("0", 0.0), ("0.2", 0.2), ("1.5", 1.5)] {
            let o = parse(&["--wall-tolerance", arg]).unwrap();
            assert_eq!(o.wall_tolerance, Some(want), "arg {arg:?}");
        }
        assert_eq!(parse(&[]).unwrap().wall_tolerance, None);
    }

    #[test]
    fn wall_tolerance_rejects_unusable_values() {
        for bad in ["-0.1", "NaN", "inf", "-inf", "two"] {
            let err = parse(&["--wall-tolerance", bad]).unwrap_err();
            assert!(
                err.contains("--wall-tolerance"),
                "error for {bad:?} must name the flag: {err}"
            );
        }
        let err = parse(&["--wall-tolerance"]).unwrap_err();
        assert!(err.contains("needs a value"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&["--wat"]).is_err());
    }
}
