//! What a stage measured and checked, and the JSON line a run prints.

use crate::Stage;
use std::collections::BTreeMap;

/// Failure messages kept per run; the count is exact regardless.
const MAX_MESSAGES: usize = 16;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Set-up times of this stage, one per repetition, in seconds.
    pub setup_s: Vec<f64>,
    pub e2e: BTreeMap<String, (f64, &'static str)>,
    pub layers: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Count one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_MESSAGES {
                self.failures.push(what());
            }
        }
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < MAX_MESSAGES {
            self.failures
                .push(format!("{failed} of {attempted} {what}"));
        }
    }

    pub fn e2e(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.e2e.insert(name.into(), (value, unit));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.insert(name.into(), (value, unit));
    }

    /// The JSON line: `e2e` always, `layers` only when traced.
    pub fn to_json(&self, with_layers: bool) -> String {
        let obj = |m: &BTreeMap<String, (f64, &'static str)>| {
            let fields: Vec<String> = m
                .iter()
                .map(|(k, (v, u))| format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"e2e\":{}",
            self.failed == 0,
            self.attempted,
            self.failed,
            obj(&self.e2e)
        );
        if with_layers {
            out.push_str(&format!(",\"layers\":{}", obj(&self.layers)));
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (never expected) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Fold the stages' reports into the run's: every stage contributes its
/// own end-to-end metrics; `setup_s` is the featured stage's median set-up;
/// a per-layer metric comes from the featured stage when it measures one,
/// else from the first companion that does.
pub fn merge(featured: Stage, reports: Vec<(Stage, Report)>) -> Report {
    let mut out = Report::default();
    let (own, others): (Vec<_>, Vec<_>) = reports.into_iter().partition(|(s, _)| *s == featured);
    for (stage, r) in own.into_iter().chain(others) {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.failures.extend(r.failures);
        if stage == featured {
            out.setup_s = r.setup_s;
        }
        for (k, v) in r.e2e {
            out.e2e.entry(k).or_insert(v);
        }
        for (k, v) in r.layers {
            out.layers.entry(k).or_insert(v);
        }
    }
    out.e2e("setup_s", median(&out.setup_s), "s");
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

/// Median of `xs` (mean of the middle two for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in percent) of `xs`; 0 if empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
