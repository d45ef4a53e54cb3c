//! The scenario × pipeline cross-product, differentially checked.
//!
//! Every registered [`scenarios::Scenario`] runs through every registered
//! [`scenarios::Pipeline`]; each pipeline internally asserts equality
//! against the centralized oracles in `baselines::oracles`, so a cell that
//! diverges (or panics) fails this suite with its scenario name. The same
//! matrix backs the `lab` `scenarios` experiment (`BENCH_scenarios.json`)
//! — this suite is the correctness gate, the lab run the cost reporter.

use scenarios::{all_pipelines, corpus, run_cell, update_mixes};

/// One test per pipeline so failures localize; each runs the full corpus.
fn run_pipeline_over_corpus(name: &str) {
    let pipelines = all_pipelines();
    let p = pipelines
        .iter()
        .find(|p| p.name() == name)
        .unwrap_or_else(|| panic!("pipeline {name} not registered"));
    for sc in corpus() {
        let rep = run_cell(&sc, p.as_ref()).unwrap_or_else(|e| panic!("cell failed: {e}"));
        assert!(rep.checked > 0, "{}/{name}: cell verified nothing", sc.name);
        assert_eq!(rep.scenario, sc.name);
        assert!(rep.components >= 1, "{}", sc.name);
        // Scenarios with a declared bound must keep their decomposition
        // width in the Theorem-1 regime: O(τ² log n) with practical
        // constants — sanity-capped here at elim_bound² · log₂ n + a
        // small slack rather than n.
        if let (Some(b), true) = (sc.elim_bound, rep.width > 0) {
            let n = rep.n.max(4);
            let cap = (b * b + b + 2) * (usize::BITS - n.leading_zeros()) as usize;
            assert!(
                rep.width <= cap,
                "{}/{name}: decomposition width {} blew past the τ²·log n regime (cap {cap})",
                sc.name,
                rep.width
            );
        }
    }
}

#[test]
fn matrix_sssp() {
    run_pipeline_over_corpus("sssp");
}

#[test]
fn matrix_distlabel() {
    run_pipeline_over_corpus("distlabel");
}

#[test]
fn matrix_girth() {
    run_pipeline_over_corpus("girth");
}

#[test]
fn matrix_matching() {
    run_pipeline_over_corpus("matching");
}

#[test]
fn matrix_walks() {
    run_pipeline_over_corpus("walks");
}

#[test]
fn matrix_serve() {
    run_pipeline_over_corpus("serve");
}

#[test]
fn matrix_update() {
    run_pipeline_over_corpus("update");
}

#[test]
fn matrix_maxflow() {
    run_pipeline_over_corpus("maxflow");
}

#[test]
fn matrix_counting() {
    run_pipeline_over_corpus("counting");
}

#[test]
fn matrix_fo() {
    run_pipeline_over_corpus("fo");
}

/// The corpus × pipeline dimensions the acceptance criteria pin: at least
/// five *new* families and all ten pipelines present.
#[test]
fn matrix_dimensions() {
    let c = corpus();
    let new_families = [
        "series_parallel",
        "cactus",
        "halin",
        "ring_of_cliques",
        "multi_component",
    ];
    for f in new_families {
        assert!(
            c.iter().any(|s| s.family.tag() == f),
            "family {f} missing from the corpus"
        );
    }
    assert!(
        c.iter().any(|s| s.weights.tag() == "heavy_tailed"),
        "heavy-tailed weight model missing"
    );
    assert!(
        c.iter().any(|s| s.tw_bound.is_none()),
        "unbounded control family missing"
    );
    let p = all_pipelines();
    assert_eq!(p.len(), 10);
    let names: Vec<_> = p.iter().map(|p| p.name()).collect();
    assert_eq!(
        names,
        [
            "sssp",
            "distlabel",
            "girth",
            "matching",
            "walks",
            "serve",
            "update",
            "maxflow",
            "counting",
            "fo"
        ]
    );
    // The update:query-ratio axis is pinned: three mixes, each reporting
    // its own QPS detail row in every update cell.
    let mixes = update_mixes();
    assert_eq!(mixes.len(), 3);
    assert_eq!(
        mixes.iter().map(|m| m.name).collect::<Vec<_>>(),
        ["read_heavy", "balanced", "write_heavy"]
    );
    assert!(
        mixes[0].updates < mixes[0].queries && mixes[2].updates > mixes[2].queries,
        "mix ratios must span read-heavy through write-heavy"
    );
    // Full matrix cell count: every scenario × every pipeline.
    assert_eq!(
        c.len() * p.len(),
        120,
        "matrix is 12 scenarios × 10 pipelines"
    );
}

/// The portfolio pipelines report the detail rows the `lab` matrix driver
/// records (and `BENCH_scenarios.json` gates).
#[test]
fn portfolio_cells_report_detail() {
    let pipelines = all_pipelines();
    let sc = corpus()
        .into_iter()
        .find(|s| s.name == "multi_component/uniform")
        .unwrap();
    let expected: [(&str, &[&str]); 3] = [
        ("maxflow", &["pairs", "flow_total", "inf_pairs", "cap_max"]),
        (
            "counting",
            &["triangles", "cycles4", "cycles5", "bag_triples_scanned"],
        ),
        (
            "fo",
            &["sentences", "verdicts_true", "radius", "dist_pairs"],
        ),
    ];
    for (name, keys) in expected {
        let p = pipelines.iter().find(|p| p.name() == name).unwrap();
        let rep = run_cell(&sc, p.as_ref()).unwrap_or_else(|e| panic!("cell failed: {e}"));
        for key in keys {
            assert!(
                rep.detail.iter().any(|&(k, _)| k == *key),
                "{name}: detail key {key} missing"
            );
        }
    }
}

/// Every update cell carries the per-mix QPS rows and rebuild-scope
/// counters the `lab` matrix driver records.
#[test]
fn update_cells_report_churn_detail() {
    let pipelines = all_pipelines();
    let p = pipelines.iter().find(|p| p.name() == "update").unwrap();
    let sc = corpus()
        .into_iter()
        .find(|s| s.name == "multi_component/uniform")
        .unwrap();
    let rep = run_cell(&sc, p.as_ref()).unwrap_or_else(|e| panic!("cell failed: {e}"));
    for mix in update_mixes() {
        assert!(
            rep.detail.iter().any(|&(k, _)| k == mix.qps_key),
            "per-mix key {} missing",
            mix.qps_key
        );
    }
    for key in [
        "scoped_parts",
        "rebuilt_parts",
        "reused_parts",
        "fallbacks",
        "publish_us_total",
    ] {
        assert!(
            rep.detail.iter().any(|&(k, _)| k == key),
            "rebuild-scope key {key} missing"
        );
    }
}
