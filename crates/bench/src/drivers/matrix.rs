//! The `matrix` driver: one scenario × pipeline cell from the `scenarios`
//! registry, differentially verified against its centralized oracle by
//! `run_cell` itself — a returned report is a verified report.

use super::RowBuilder;
use crate::lab::plan::Trial;
use crate::lab::results::TrialRow;
use scenarios::{all_pipelines, corpus, run_cell};
use std::time::Instant;

pub fn run(trial: &Trial) -> TrialRow {
    let scenarios = corpus();
    let sc = scenarios
        .iter()
        .find(|s| s.name == trial.scenario)
        .unwrap_or_else(|| panic!("scenario {:?} not in the registry", trial.scenario));
    let pipelines = all_pipelines();
    let p = pipelines
        .iter()
        .find(|p| p.name() == trial.pipeline)
        .unwrap_or_else(|| panic!("pipeline {:?} not registered", trial.pipeline));

    let t = Instant::now();
    let rep = run_cell(sc, p.as_ref()).unwrap_or_else(|e| panic!("cell failed: {e}"));
    let wall = t.elapsed();

    let mut row = RowBuilder::new(trial);
    row.det("n", rep.n as u64);
    row.det("m", rep.m as u64);
    row.det("components", rep.components as u64);
    row.det("width", rep.width as u64);
    row.det("depth", rep.depth as u64);
    row.det("output", rep.output);
    row.det("checked", rep.checked as u64);
    row.det("rounds", rep.metrics.rounds);
    row.det("supersteps", rep.metrics.supersteps);
    row.det("messages", rep.metrics.messages);
    row.det("words", rep.metrics.words);
    row.det("charged_rounds", rep.metrics.charged_rounds);
    row.det("congestion", rep.metrics.max_edge_words_in_superstep);
    for (key, value) in &rep.detail {
        classify_detail(&mut row, key, *value);
    }
    row.wall("cell", wall);
    row.finish()
}

/// Pipeline detail counters are deterministic except the throughput rates
/// and the publish wall clock the update pipeline reports.
fn classify_detail(row: &mut RowBuilder, key: &str, value: u64) {
    if key.starts_with("qps") {
        row.info(key, value as f64);
    } else if key.ends_with("_us") || key.ends_with("_us_total") {
        row.wall_us_raw(key, value);
    } else {
        row.det(key, value);
    }
}
