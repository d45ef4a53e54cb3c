//! Bit-identity lock on label construction.
//!
//! Every case decomposes a fixed connected instance once and runs the
//! three label builds on that decomposition: the centralized build
//! (`H_x` from child labels), the distributed build on a fresh network
//! (the same `H_x`, plus the level broadcasts), and the update path's
//! memoized build (`H_x` from child memos, through `PartLabeling::build`).
//! Each case is reduced to one JSON line: a 64-bit FNV-1a fingerprint over
//! every label entry `(hub, to, from)` of the three builds and every
//! `NodeMemo`, plus the distributed build's rounds, messages and words.
//! A final case replays a fixed `DynamicLabeling::apply` sequence (a
//! merge, scoped applies, a gate fallback and a split) and fingerprints
//! every part's labels and memos and the `UpdateReport` after each batch.
//!
//! The two `H_x` sources give different labels on the partial 2-trees
//! (both decode exactly), so `label_sources_stay_distinct` pins how many
//! labels and entries differ there: a change that collapses the two
//! sources fails by name.
//!
//! Regenerate the golden (only when label construction is *meant* to
//! change, with review) via:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test label_golden
//! ```

use lowtw::distlabel::incremental::{NodeMemo, PartLabeling};
use lowtw::distlabel::{build_labels_centralized, build_labels_distributed};
use lowtw::prelude::*;
use lowtw::treedec::SepConfig;
use lowtw::twgraph::{self, gen, MultiDigraph, UGraph};
use lowtw::DynamicLabeling;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scenarios::{corpus, split_components};
use std::sync::OnceLock;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn labels(&mut self, labels: &[Label]) {
        self.word(labels.len() as u64);
        for l in labels {
            self.word(u64::from(l.owner));
            self.word(l.entries.len() as u64);
            for &(hub, to, from) in &l.entries {
                self.word(u64::from(hub));
                self.word(to);
                self.word(from);
            }
        }
    }

    fn memos(&mut self, memos: &[NodeMemo]) {
        self.word(memos.len() as u64);
        for m in memos {
            self.word(m.verts.len() as u64);
            m.verts.iter().for_each(|&v| self.word(u64::from(v)));
            self.word(m.d.len() as u64);
            m.d.iter().for_each(|&d| self.word(d));
        }
    }
}

/// The three builds of one connected instance on one decomposition.
struct Builds {
    part: PartLabeling,
    central: Vec<Label>,
    dist: Vec<Label>,
    rounds: u64,
    messages: u64,
    words: u64,
}

fn builds(g: &UGraph, inst: &MultiDigraph, t0: u64, rng: &mut SmallRng) -> Builds {
    let cfg = SepConfig::practical(g.n());
    let old_of = (0..g.n() as u32).collect();
    let part = PartLabeling::build(g.clone(), inst.clone(), old_of, t0, &cfg, rng)
        .expect("connected instance");
    let central = build_labels_centralized(inst, part.td(), part.info());
    let mut net = Network::new(g.clone(), NetworkConfig::default());
    let (dist, rounds) =
        build_labels_distributed(&mut net, inst, part.td(), part.info()).expect("simulator");
    let (messages, words) = (net.metrics().messages, net.metrics().words);
    Builds {
        part,
        central,
        dist,
        rounds,
        messages,
        words,
    }
}

fn build_line(case: &str, b: &Builds) -> String {
    let mut h = Fnv::new();
    h.labels(&b.central);
    h.labels(b.part.labels());
    h.labels(&b.dist);
    h.memos(b.part.memos());
    let entries: usize = b.central.iter().map(|l| l.entries.len()).sum();
    format!(
        "{{\"case\":\"{case}\",\"n\":{},\"nodes\":{},\"entries\":{entries},\"rounds\":{},\"messages\":{},\"words\":{},\"fingerprint\":\"{:016x}\"}}",
        b.central.len(),
        b.part.td().bags.len(),
        b.rounds,
        b.messages,
        b.words,
        h.0
    )
}

/// `(labels, entries)` on which the centralized and memoized builds
/// differ; an entry differs when its hub is missing from one label or
/// carries other distances.
fn source_diff(b: &Builds) -> (usize, usize) {
    let mut labels = 0;
    let mut entries = 0;
    for (c, m) in b.central.iter().zip(b.part.labels()) {
        if c != m {
            labels += 1;
            entries += c.entries.iter().filter(|e| !m.entries.contains(e)).count();
            entries += m
                .entries
                .iter()
                .filter(|e| !c.entries.iter().any(|f| f.0 == e.0))
                .count();
        }
    }
    (labels, entries)
}

/// The partial 2-tree at n = 2000, weighted undirected and oriented
/// (built once, shared by both tests).
fn partial_2tree_cases() -> &'static [(&'static str, Builds)] {
    static CASES: OnceLock<Vec<(&'static str, Builds)>> = OnceLock::new();
    CASES.get_or_init(|| {
        let g = gen::partial_ktree(2000, 2, 0.5, 7);
        [
            (
                "partial_2tree_2000/weighted",
                gen::with_random_weights(&g, 30, 5),
            ),
            (
                "partial_2tree_2000/oriented",
                gen::random_orientation(&g, 30, 0.3, 5),
            ),
        ]
        .into_iter()
        .map(|(case, inst)| {
            let mut rng = SmallRng::seed_from_u64(7);
            (case, builds(&g, &inst, 3, &mut rng))
        })
        .collect()
    })
}

/// A fixed update sequence on two banded paths: a merge through a bridge,
/// scoped applies, a gate fallback, and the split that deletes the bridge.
fn dynamic_lines() -> Vec<String> {
    let g = gen::disjoint_union(&[gen::banded_path(200, 2), gen::banded_path(200, 2)]);
    let inst = gen::with_random_weights(&g, 20, 3);
    let mut dl = DynamicLabeling::build(&inst, 3, 9).expect("build");
    let batches = [
        ("merge", EdgeBatch::new().insert(199, 200, 5)),
        ("scoped", EdgeBatch::new().insert(2, 4, 40)),
        ("fallback", EdgeBatch::new().insert(10, 30, 1)),
        ("scoped_delete", EdgeBatch::new().delete(2, 4)),
        ("split", EdgeBatch::new().delete(199, 200)),
    ];
    let mut lines = Vec::new();
    for (step, (name, batch)) in batches.iter().enumerate() {
        let rep = dl.apply(batch).expect("apply");
        let kind = (
            rep.parts_scoped,
            rep.fallbacks,
            rep.region_nodes > 0,
            rep.parts_rebuilt,
        );
        let want = match *name {
            "merge" => (0, 0, false, 1),
            "fallback" => (1, 1, true, 0),
            "split" => (0, 0, false, 2),
            _ => (1, 0, true, 0),
        };
        assert_eq!(kind, want, "{name}: (scoped, fallbacks, region, rebuilt)");
        let mut h = Fnv::new();
        for part in dl.parts() {
            h.word(part.old_of().len() as u64);
            part.old_of().iter().for_each(|&v| h.word(u64::from(v)));
            h.labels(part.labels());
            h.memos(part.memos());
        }
        h.word(rep.dirty.len() as u64);
        rep.dirty.iter().for_each(|&v| h.word(u64::from(v)));
        lines.push(format!(
            "{{\"case\":\"dynamic/{step}_{name}\",\"parts\":{},\"reused\":{},\"scoped\":{},\"rebuilt\":{},\"fallbacks\":{},\"region_nodes\":{},\"refreshed\":{},\"total_nodes\":{},\"dirty\":{},\"fingerprint\":\"{:016x}\"}}",
            dl.parts().len(),
            rep.parts_reused,
            rep.parts_scoped,
            rep.parts_rebuilt,
            rep.fallbacks,
            rep.region_nodes,
            rep.refreshed,
            rep.total_nodes,
            rep.dirty.len(),
            h.0
        ));
    }
    lines
}

fn collect() -> Vec<String> {
    let mut lines = Vec::new();
    for sc in corpus() {
        let g = sc.graph();
        let inst = sc.instance();
        for (comp, part) in split_components(&g, &inst).iter().enumerate() {
            if part.graph.n() == 1 {
                continue;
            }
            let mut rng = twgraph::gen::derive_rng("scenario_decompose", &[comp as u64], sc.seed);
            let b = builds(&part.graph, &part.inst, sc.t0, &mut rng);
            lines.push(build_line(&format!("{}/c{comp}", sc.name), &b));
        }
    }
    for (case, b) in partial_2tree_cases() {
        lines.push(build_line(case, b));
    }
    lines.extend(dynamic_lines());
    lines
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/labels.jsonl")
}

#[test]
fn labels_match_golden() {
    let got = collect();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, got.join("\n") + "\n").expect("write golden");
        eprintln!("wrote {} golden lines to {}", got.len(), path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test label_golden`",
            path.display()
        )
    });
    let want: Vec<&str> = text.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "golden line {} diverged", i + 1);
    }
    assert_eq!(got.len(), want.len(), "golden line count changed");
}

#[test]
fn label_sources_stay_distinct() {
    let want = [(94, 371), (80, 144)];
    for ((case, b), want) in partial_2tree_cases().iter().zip(want) {
        assert_eq!(
            source_diff(b),
            want,
            "{case}: (labels, entries) where H_x from child labels and H_x from child memos differ"
        );
    }
}
