//! The lab's experiments, defined as code: [`experiments`] is the one
//! table of every [`ExperimentSpec`] — its [`Driver`], base [`Params`],
//! variants, and one parameter overlay per runnable profile.

use std::collections::BTreeMap;
use std::fmt;

/// Which trial runner an experiment dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// Distributed decompose → label → query on one instance.
    Engine,
    /// The scenario × pipeline cross-product from the `scenarios` registry.
    Matrix,
    /// Build-once / query-many store replay (flat or packed layout).
    Serve,
    /// The store served over a real socket with an open-loop workload.
    Servd,
    /// Incremental label maintenance vs scratch rebuild under live readers.
    Update,
    /// The per-claim paper tables (e1–e9, a1–a3) as variants.
    Tables,
}

impl Driver {
    pub const ALL: [(&'static str, Driver); 6] = [
        ("engine", Driver::Engine),
        ("matrix", Driver::Matrix),
        ("serve", Driver::Serve),
        ("servd", Driver::Servd),
        ("update", Driver::Update),
        ("tables", Driver::Tables),
    ];

    pub fn name(self) -> &'static str {
        Driver::ALL
            .iter()
            .find(|(_, d)| *d == self)
            .map(|(n, _)| *n)
            .expect("every driver is registered")
    }
}

/// One typed parameter value.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => write!(f, "{x}"),
            ParamValue::Str(s) => write!(f, "{s}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A flat, ordered key → value parameter map (overlays are last-wins).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Params(pub BTreeMap<String, ParamValue>);

impl Params {
    /// Overlay `other` on top of `self` (other wins on key collisions).
    pub fn overlaid(&self, other: &Params) -> Params {
        let mut out = self.clone();
        for (k, v) in &other.0 {
            out.0.insert(k.clone(), v.clone());
        }
        out
    }

    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.0.get(key)
    }

    /// Integer parameter as `usize`, with a default.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        match self.0.get(key) {
            Some(ParamValue::Int(i)) => usize::try_from(*i)
                .unwrap_or_else(|_| panic!("param {key} = {i} does not fit usize")),
            Some(other) => panic!("param {key} must be an integer, got {other}"),
            None => default,
        }
    }

    /// Integer parameter as `u64`, with a default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        match self.0.get(key) {
            Some(ParamValue::Int(i)) => u64::try_from(*i)
                .unwrap_or_else(|_| panic!("param {key} = {i} must be non-negative")),
            Some(other) => panic!("param {key} must be an integer, got {other}"),
            None => default,
        }
    }

    /// Float parameter (integers coerce), with a default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        match self.0.get(key) {
            Some(ParamValue::Float(x)) => *x,
            Some(ParamValue::Int(i)) => *i as f64,
            Some(other) => panic!("param {key} must be numeric, got {other}"),
            None => default,
        }
    }

    /// String parameter, with a default.
    pub fn str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        match self.0.get(key) {
            Some(ParamValue::Str(s)) => s,
            Some(other) => panic!("param {key} must be a string, got {other}"),
            None => default,
        }
    }
}

/// A named parameter overlay: one point of the variant dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct Variant {
    pub name: &'static str,
    pub params: Params,
}

/// One experiment: what `lab` plans, runs and gates under one name.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Experiment name — also the committed baseline stem (`BENCH_<name>.json`).
    pub name: &'static str,
    pub driver: Driver,
    /// Base parameters every profile and variant overlays.
    pub params: Params,
    /// The variant dimension (empty = one unnamed variant).
    pub variants: Vec<Variant>,
    /// One parameter overlay per runnable profile (`quick`, `full`, ...).
    pub profiles: BTreeMap<&'static str, Params>,
}

/// Every experiment of the lab, sorted by name: the one place an
/// experiment is defined. Each experiment's `quick` plan is pinned to the
/// row ids of its committed `BENCH_<name>.json`, so adding, renaming or
/// reshaping one here goes together with blessing its baseline.
pub fn experiments() -> Vec<ExperimentSpec> {
    use ParamValue::{Float, Int};
    vec![
        // The distributed engine end-to-end: decomposition, labeling, and
        // SSSP on one partial k-tree, every CONGEST charge accounted per
        // phase.
        ExperimentSpec {
            name: "engine",
            driver: Driver::Engine,
            params: params([("k", Int(1)), ("keep", Float(0.5)), ("seed", Int(7))]),
            variants: Vec::new(),
            profiles: BTreeMap::from([
                ("quick", params([("n", Int(4000))])),
                ("full", params([("n", Int(100_000))])),
            ]),
        },
        // The full scenario x pipeline matrix: every corpus family through
        // every pipeline, with the per-cell charged metrics and checksums
        // gated exactly. The grid spans the live registries, so a new
        // corpus family or pipeline joins the gate automatically.
        ExperimentSpec {
            name: "scenarios",
            driver: Driver::Matrix,
            params: Params::default(),
            variants: Vec::new(),
            profiles: BTreeMap::from([("quick", Params::default()), ("full", Params::default())]),
        },
        // The store behind a real loopback socket: differential wire check,
        // then an open-loop multi-connection run with scheduled-send latency
        // charging.
        ExperimentSpec {
            name: "servd",
            driver: Driver::Servd,
            params: params([
                ("k", Int(1)),
                ("keep", Float(0.5)),
                ("seed", Int(7)),
                ("diff_pairs", Int(2000)),
                ("queries", Int(50_000)),
                ("hot_pairs", Int(4096)),
                ("hot_fraction", Float(0.75)),
                ("rate_per_conn", Int(10_000)),
            ]),
            variants: layouts(),
            profiles: BTreeMap::from([
                (
                    "quick",
                    params([
                        ("n", Int(4000)),
                        ("conns", Int(2)),
                        ("requests_per_conn", Int(4000)),
                    ]),
                ),
                (
                    "full",
                    params([
                        ("n", Int(100_000)),
                        ("conns", Int(4)),
                        ("requests_per_conn", Int(40_000)),
                    ]),
                ),
            ]),
        },
        // Build-once / query-many label serving: store compaction, file
        // round-trip, and a skewed workload replayed single/batched/uncached.
        // One trial per physical layout.
        ExperimentSpec {
            name: "serve",
            driver: Driver::Serve,
            params: params([
                ("k", Int(1)),
                ("keep", Float(0.5)),
                ("seed", Int(7)),
                ("queries", Int(50_000)),
                ("hot_pairs", Int(4096)),
                ("hot_fraction", Float(0.75)),
            ]),
            variants: layouts(),
            profiles: BTreeMap::from([
                ("quick", params([("n", Int(20_000))])),
                // The headline build-once/query-many size.
                (
                    "full",
                    params([("n", Int(1_000_000)), ("queries", Int(1_000_000))]),
                ),
                // CI's release-mode smoke: full-size store, shortened replay.
                ("smoke", params([("n", Int(1_000_000))])),
            ]),
        },
        // The paper's experiment tables (E1-E9) and appendix studies
        // (A1-A3), one variant per table. Each variant prints its
        // human-readable table and contributes row-labelled deterministic
        // metrics to the gate.
        ExperimentSpec {
            name: "tables",
            driver: Driver::Tables,
            params: Params::default(),
            variants: [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "a1", "a2", "a3",
            ]
            .map(|name| Variant {
                name,
                params: Params::default(),
            })
            .into(),
            profiles: BTreeMap::from([("quick", Params::default()), ("full", Params::default())]),
        },
        // Incremental label maintenance: four heavy edit batches against one
        // deep edit site, scoped rebuild work vs from-scratch, epoch-versioned
        // serving probed by concurrent readers throughout.
        ExperimentSpec {
            name: "update",
            driver: Driver::Update,
            params: params([("k", Int(2)), ("keep", Float(0.5)), ("seed", Int(7))]),
            variants: Vec::new(),
            profiles: BTreeMap::from([
                ("quick", params([("n", Int(20_000))])),
                // At the headline size the scoped rebuild must beat scratch
                // by 5x.
                (
                    "full",
                    params([("n", Int(100_000)), ("min_speedup", Float(5.0))]),
                ),
            ]),
        },
    ]
}

/// A parameter map from `(key, value)` pairs.
fn params<const N: usize>(entries: [(&str, ParamValue); N]) -> Params {
    Params(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One variant per physical store layout.
fn layouts() -> Vec<Variant> {
    ["flat", "packed"]
        .map(|layout| Variant {
            name: layout,
            params: params([("layout", ParamValue::Str(layout.to_string()))]),
        })
        .into()
}
