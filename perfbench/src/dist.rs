//! The `dist` stage: the paper's pipeline on the CONGEST simulator —
//! `Network::new`, distributed tree decomposition, distributed labeling,
//! label-broadcast SSSP from node 0, and directed girth. Each slice is one
//! solve. Every distance is checked against Dijkstra and the girth
//! against the centralized oracle.

use crate::report::{median, Report};
use crate::trace::Tracer;
use crate::StageRun;
use congest_sim::{Network, NetworkConfig, PhaseSnapshot};
use lowtw_bench::drivers::Instance;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use twgraph::Dist;

const K: usize = 2;
/// `Network::new` is short next to a solve, so each solve sets up this
/// many times and keeps the last network.
const SETUP_REPS: usize = 9;

/// The simulator phases one solve records, in call order.
const PHASES: [&str; 4] = ["decompose", "label", "query", "girth"];

/// Per-call timings of one solve, in seconds.
struct Solve {
    decompose: f64,
    label: f64,
    query: f64,
    girth: f64,
}

impl Solve {
    fn total(&self) -> f64 {
        self.decompose + self.label + self.query + self.girth
    }
}

/// Sum the phases a call appended to the log: traffic adds up, congestion
/// is the peak over the call.
fn fold(phases: &[PhaseSnapshot]) -> PhaseSnapshot {
    let mut acc = PhaseSnapshot::default();
    for p in phases {
        acc.supersteps += p.supersteps;
        acc.messages += p.messages;
        acc.words += p.words;
        acc.max_edge_words_in_superstep = acc
            .max_edge_words_in_superstep
            .max(p.max_edge_words_in_superstep);
    }
    acc
}

pub struct DistStage {
    run: StageRun,
    inst: Instance,
    truth: Vec<Dist>,
    girth_truth: Dist,
    rep: Report,
    solves: Vec<Solve>,
    phases: Vec<PhaseSnapshot>,
    rounds: u64,
    /// Width, depth and total label words of the last solve.
    shape: (usize, usize, u64),
    /// Solves and set-ups recorded before the last slice.
    last: (usize, usize),
}

impl DistStage {
    pub fn new(run: StageRun) -> Self {
        let inst = crate::instance(run.n, K, run.seed);
        // Oracles, outside every timed region.
        let truth = twgraph::alg::dijkstra(&inst.inst, 0).dist;
        let girth_truth = baselines::girth_directed_centralized(&inst.inst);
        DistStage {
            run,
            inst,
            truth,
            girth_truth,
            rep: Report::default(),
            solves: Vec::new(),
            phases: Vec::new(),
            rounds: 0,
            shape: (0, 0, 0),
            last: (0, 0),
        }
    }

    pub fn discard_last(&mut self) {
        self.solves.truncate(self.last.0);
        self.rep.setup_s.truncate(self.last.1);
    }

    /// Enough solves for a median.
    pub fn satisfied(&self) -> bool {
        self.solves.len() >= 3 || self.rep.failed > 0
    }

    /// One solve.
    pub fn slice(&mut self, tr: &mut Tracer) {
        if self.rep.failed > 0 {
            return;
        }
        self.last = (self.solves.len(), self.rep.setup_s.len());
        let inst = &self.inst;
        let n = inst.n;
        let rep = &mut self.rep;
        let mut net = None;
        for _ in 0..SETUP_REPS {
            drop(net.take());
            let t = Instant::now();
            net = Some(tr.span("congest_sim/Network::new", || {
                Network::new(inst.g.clone(), NetworkConfig::default())
            }));
            rep.setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut net = net.expect("at least one set-up");
        let cfg = lowtw::SepConfig::practical(n);
        let mut rng = SmallRng::seed_from_u64(crate::STRUCTURE_SEED);
        let mut marks = vec![net.phase_log().len()];

        let t = Instant::now();
        let out = tr.span("treedec/decompose_distributed", || {
            treedec::decompose_distributed(&mut net, K as u64 + 1, &cfg, &mut rng)
        });
        let decompose = t.elapsed().as_secs_f64();
        marks.push(net.phase_log().len());
        let out = match out {
            Ok(o) => o,
            Err(e) => return rep.check(false, || format!("dist: decomposition failed: {e:?}")),
        };

        let t = Instant::now();
        let labels = tr.span("distlabel/build_labels_distributed", || {
            distlabel::build_labels_distributed(&mut net, &inst.inst, &out.td, &out.info)
        });
        let label = t.elapsed().as_secs_f64();
        marks.push(net.phase_log().len());
        let labels = match labels {
            Ok((l, _)) => l,
            Err(e) => return rep.check(false, || format!("dist: label build failed: {e:?}")),
        };

        let t = Instant::now();
        let dists = tr.span("distlabel/sssp_distributed", || {
            distlabel::sssp_distributed(&mut net, &labels, 0)
        });
        let query = t.elapsed().as_secs_f64();
        marks.push(net.phase_log().len());

        let t = Instant::now();
        let girth = tr.span("girth/girth_directed_distributed", || {
            girth::girth_directed_distributed(&mut net, &inst.inst, &labels)
        });
        let girth_s = t.elapsed().as_secs_f64();
        marks.push(net.phase_log().len());

        match dists {
            Ok((mut d, _)) => {
                if self.run.inject_wrong && self.solves.is_empty() {
                    d[n - 1] += 1;
                }
                let wrong = d.iter().zip(&self.truth).filter(|(a, b)| a != b).count();
                rep.count(
                    n as u64,
                    wrong as u64,
                    "dist: SSSP distances differ from Dijkstra",
                );
            }
            Err(e) => rep.check(false, || format!("dist: SSSP failed: {e:?}")),
        }
        let want = self.girth_truth;
        match girth {
            Ok((g, _)) => rep.check(g == want, || {
                format!("dist: directed girth {g} != oracle {want}")
            }),
            Err(e) => rep.check(false, || format!("dist: girth failed: {e:?}")),
        }

        self.rounds = net.metrics().rounds;
        self.phases = marks
            .windows(2)
            .map(|w| fold(&net.phase_log()[w[0]..w[1]]))
            .collect();
        self.shape = (
            out.td.width(),
            out.td.stats().depth,
            labels.iter().map(|l| l.words() as u64).sum(),
        );
        self.solves.push(Solve {
            decompose,
            label,
            query,
            girth: girth_s,
        });
    }

    pub fn finish(self) -> Report {
        let mut rep = self.rep;
        if self.solves.is_empty() {
            return rep;
        }
        let solves = &self.solves;
        let med = |f: fn(&Solve) -> f64| median(&solves.iter().map(f).collect::<Vec<_>>());
        rep.e2e("solve_s", med(Solve::total), "s");
        rep.e2e("rounds", self.rounds as f64, "rounds");
        rep.layer("treedec.decompose_s", med(|s| s.decompose), "s");
        rep.layer("distlabel.build_s", med(|s| s.label), "s");
        rep.layer("distlabel.query_s", med(|s| s.query), "s");
        rep.layer("girth.directed_s", med(|s| s.girth), "s");
        rep.layer("treedec.width", self.shape.0 as f64, "count");
        rep.layer("treedec.depth", self.shape.1 as f64, "count");
        rep.layer("distlabel.label_words", self.shape.2 as f64, "words");
        let n = self.inst.n as f64;
        for (name, p) in PHASES.iter().zip(&self.phases) {
            let pre = format!("congest_sim.{name}");
            rep.layer(format!("{pre}.supersteps"), p.supersteps as f64, "count");
            rep.layer(format!("{pre}.messages"), p.messages as f64, "count");
            rep.layer(format!("{pre}.words"), p.words as f64, "words");
            rep.layer(
                format!("{pre}.congestion"),
                p.max_edge_words_in_superstep as f64,
                "words",
            );
            rep.layer(
                format!("{pre}.msg_density"),
                p.messages as f64 / (p.supersteps as f64 * n).max(1.0),
                "ratio",
            );
        }
        rep
    }
}
