//! `perfbench`: one wall-clock benchmark over the layers the system
//! spends its time in — the CONGEST simulator (`dist`), in-process
//! serving (`serve`), the socket front-end (`wire`) and incremental
//! updates (`update`). See README.md for the workloads and the metric map.
//!
//! ```text
//! perfbench --workload <dist|serve|wire|update> --seed <n> --seconds <s>
//!           [--trace 0|1] [--scale full|tiny] [--inject-wrong]
//! ```
//!
//! Every run executes all four stages, so every metric is reported on
//! every workload: the workload's own stage runs at full size for half of
//! the time, the other three at a small companion size for the rest, in
//! interleaved slices. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed`, the end-to-end metrics (`e2e`) and,
//! with `--trace 1`, the per-layer metrics (`layers`). The process exits 1
//! when any correctness check failed.

mod cpus;
mod dist;
mod report;
mod serve;
mod trace;
mod update;
mod wire;

use report::Report;
use std::time::Instant;
use trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Dist,
    Serve,
    Wire,
    Update,
}

impl Stage {
    fn parse(s: &str) -> Option<Stage> {
        match s {
            "dist" => Some(Stage::Dist),
            "serve" => Some(Stage::Serve),
            "wire" => Some(Stage::Wire),
            "update" => Some(Stage::Update),
            _ => None,
        }
    }
}

/// What a stage is told: its input size, whether it is the workload's
/// own stage, and the seed.
#[derive(Clone, Copy, Debug)]
pub struct StageRun {
    pub n: usize,
    pub featured: bool,
    pub seed: u64,
    /// Corrupt one checked answer, to prove the checks catch it.
    pub inject_wrong: bool,
}

/// Input sizes of the four stages: `full` for a workload's own stage,
/// `companion` for the other three.
struct Sizes {
    full: [usize; 4],
    companion: [usize; 4],
}

const FULL: Sizes = Sizes {
    full: [2_000, 50_000, 20_000, 20_000],
    companion: [400, 10_000, 4_000, 8_000],
};

const TINY: Sizes = Sizes {
    full: [120, 600, 600, 600],
    companion: [60, 300, 300, 300],
};

const STAGES: [Stage; 4] = [Stage::Dist, Stage::Serve, Stage::Wire, Stage::Update];

/// Share of `--seconds` the workload's own stage measures for; the
/// companions split the rest.
const FEATURED_SHARE: f64 = 0.5;

/// Most of a slice's CPU time the hypervisor may take before the slice is
/// measured again.
const MAX_STEAL: f64 = 0.02;

/// By this multiple of `--seconds` the run stops measuring stages that
/// have measured enough, even if slices keep being discarded.
const MAX_STRETCH: f64 = 1.3;

/// Until this multiple of `--seconds`, slices of stages that still lack
/// their minimum keep being measured again; after it, they are kept.
const MAX_RETRY: f64 = 1.5;

struct Args {
    workload: Stage,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    inject_wrong: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut inject_wrong = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Stage::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            "--scale" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--inject-wrong" => inject_wrong = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        inject_wrong,
    })
}

/// One stage's state between slices. Four of these live for the whole
/// run, so their sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Running {
    Dist(dist::DistStage),
    Serve(serve::ServeStage),
    Wire(wire::WireStage),
    Update(update::UpdateStage),
}

impl Running {
    fn new(stage: Stage, run: StageRun, tr: &mut Tracer) -> Running {
        match stage {
            Stage::Dist => Running::Dist(dist::DistStage::new(run)),
            Stage::Serve => Running::Serve(serve::ServeStage::new(run, tr)),
            Stage::Wire => Running::Wire(wire::WireStage::new(run, tr)),
            Stage::Update => Running::Update(update::UpdateStage::new(run, tr)),
        }
    }

    fn slice(&mut self, tr: &mut Tracer) {
        match self {
            Running::Dist(s) => s.slice(tr),
            Running::Serve(s) => s.slice(tr),
            Running::Wire(s) => s.slice(tr),
            Running::Update(s) => s.slice(tr),
        }
    }

    /// Drop what the last slice measured (its correctness checks stay).
    fn discard_last(&mut self) {
        match self {
            Running::Dist(s) => s.discard_last(),
            Running::Serve(s) => s.discard_last(),
            Running::Wire(s) => s.discard_last(),
            Running::Update(s) => s.discard_last(),
        }
    }

    fn satisfied(&self) -> bool {
        match self {
            Running::Dist(s) => s.satisfied(),
            Running::Serve(s) => s.satisfied(),
            Running::Wire(s) => s.satisfied(),
            Running::Update(s) => s.satisfied(),
        }
    }

    fn finish(self) -> Report {
        match self {
            Running::Dist(s) => s.finish(),
            Running::Serve(s) => s.finish(),
            Running::Wire(s) => s.finish(),
            Running::Update(s) => s.finish(),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let sizes = if args.tiny { &TINY } else { &FULL };
    let mut tracer = Tracer::new(args.trace, Instant::now());

    // Set every stage up; the workload's own stage last, so its set-up is
    // timed in a process that has already paid for the others' first
    // touches.
    let mut order: Vec<usize> = (0..STAGES.len())
        .filter(|&i| STAGES[i] != args.workload)
        .collect();
    order.extend((0..STAGES.len()).filter(|&i| STAGES[i] == args.workload));
    let mut running: Vec<(usize, Running)> = Vec::new();
    let setup = tracer.begin("setup");
    for &i in &order {
        let stage = STAGES[i];
        let featured = stage == args.workload;
        let run = StageRun {
            n: if featured {
                sizes.full[i]
            } else {
                sizes.companion[i]
            },
            featured,
            seed: args.seed,
            // Only the workload's own stage is corrupted, so the test
            // proves each workload's checks, not a companion's.
            inject_wrong: args.inject_wrong && featured,
        };
        eprintln!(
            "perfbench: setting up {} at n = {}",
            stage_name(stage),
            run.n
        );
        let span = tracer.begin(stage_name(stage));
        running.push((i, Running::new(stage, run, &mut tracer)));
        tracer.end(span);
    }
    tracer.end(setup);

    // Measure: slices of the stages in turn, each stage given its share
    // of `--seconds`, so every stage samples the whole run's time. A slice
    // during which the hypervisor ran something else on our CPUs for more
    // than `MAX_STEAL` of the time is measured again. The run ends once the
    // time is spent, or `MAX_STRETCH` times it, and every stage has measured
    // enough; after `MAX_RETRY` times it, no slice is measured again.
    let share = |i: usize| {
        if STAGES[i] == args.workload {
            FEATURED_SHARE
        } else {
            (1.0 - FEATURED_SHARE) / (STAGES.len() - 1) as f64
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let mut used = [0.0f64; 4];
    let mut discarded = 0u64;
    let steal_start = steal_s();
    let start = Instant::now();
    let measure = tracer.begin("measure");
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let over =
            used.iter().sum::<f64>() >= args.seconds || elapsed >= args.seconds * MAX_STRETCH;
        let next = running
            .iter()
            .filter(|(_, r)| !over || !r.satisfied())
            .map(|(i, _)| *i)
            .min_by(|&a, &b| (used[a] / share(a)).total_cmp(&(used[b] / share(b))));
        let Some(i) = next else { break };
        let r = &mut running
            .iter_mut()
            .find(|(j, _)| *j == i)
            .expect("scheduled stage is running")
            .1;
        let stolen = steal_s();
        let t = Instant::now();
        let span = tracer.begin(stage_name(STAGES[i]));
        r.slice(&mut tracer);
        tracer.end(span);
        let wall = t.elapsed().as_secs_f64();
        let stolen = steal_s() - stolen;
        if stolen > MAX_STEAL * wall * cpus && elapsed < args.seconds * MAX_RETRY {
            r.discard_last();
            discarded += 1;
        } else {
            used[i] += wall;
        }
    }
    tracer.end(measure);
    let stolen = steal_s() - steal_start;
    eprintln!(
        "perfbench: measured {:.1} s of slices in {:.1} s; host stole {stolen:.2} CPU-s; {discarded} slices measured again",
        used.iter().sum::<f64>(),
        start.elapsed().as_secs_f64()
    );

    let reports: Vec<(Stage, Report)> = running
        .into_iter()
        .map(|(i, r)| (STAGES[i], r.finish()))
        .collect();
    let mut merged = report::merge(args.workload, reports);
    merged.layer("host.steal_s", stolen, "s");
    merged.layer("host.discarded_slices", discarded as f64, "count");
    if args.trace {
        let path = std::path::Path::new(".bench_out").join(format!(
            "trace-{}-{}.jsonl",
            stage_name(args.workload),
            args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for f in &merged.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", merged.to_json(args.trace));
    if merged.failed > 0 {
        std::process::exit(1);
    }
}

/// CPU time the hypervisor gave to others while this VM had work, over
/// all CPUs since boot, in seconds (the `steal` column of `/proc/stat`,
/// in 10 ms ticks); 0 where the kernel does not report it.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

fn stage_name(s: Stage) -> &'static str {
    match s {
        Stage::Dist => "dist",
        Stage::Serve => "serve",
        Stage::Wire => "wire",
        Stage::Update => "update",
    }
}

/// The seed of every stage's graph structure and of the randomized
/// separator searches that decompose it.
///
/// The seed argument draws the arc weights, the query streams and the edit
/// sites, but not the structure: the cost of the distributed pipeline is a
/// global property of the structure (the decomposition's shape, the size
/// of the label SSSP broadcasts) that does not average out over one
/// graph's nodes. Over six structure seeds at n = 3000 its charged rounds
/// ranged 2.3-fold, and the update stage's apply + publish time 2.8-fold
/// at n = 4000. With the structure fixed, `rounds` is the same on every seed
/// and the timings move when the code does.
pub const STRUCTURE_SEED: u64 = 7;

/// The benchmark's partial-k-tree instance, generated by the `lab`
/// harness's own generator so both measure the same family: the fixed
/// structure, with arc weights in 1..=30 drawn from `seed`.
pub fn instance(n: usize, k: usize, seed: u64) -> lowtw_bench::drivers::Instance {
    use lowtw_bench::lab::plan::Trial;
    use lowtw_bench::lab::spec::{Driver, ParamValue, Params};
    let mut params = Params::default();
    params.0.insert("n".into(), ParamValue::Int(n as i64));
    params.0.insert("k".into(), ParamValue::Int(k as i64));
    params.0.insert("keep".into(), ParamValue::Float(0.5));
    params
        .0
        .insert("seed".into(), ParamValue::Int(STRUCTURE_SEED as i64));
    let trial = Trial {
        experiment: "perfbench".into(),
        driver: Driver::Engine,
        scenario: "-".into(),
        pipeline: "-".into(),
        variant: "-".into(),
        rep: 0,
        params,
    };
    let mut inst = lowtw_bench::drivers::gen_instance(&trial, n, k);
    inst.inst = twgraph::gen::with_random_weights(&inst.g, 30, seed);
    inst.seed = seed;
    inst
}
