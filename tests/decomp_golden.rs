//! Bit-identity lock on the centralized recursion.
//!
//! Every case decomposes a fixed graph (or re-decomposes a fixed region)
//! and reduces the result to one JSON line: a 64-bit FNV-1a fingerprint
//! over every tree node's (parent, bag, separator, `G'_x`, inherited
//! boundary, leaf flag), plus `t_used`, node count, width and depth. The
//! fingerprint sees every RNG draw and tie-break the recursion makes, so a
//! rewrite of `treedec`'s separator, split or recursion code that changes
//! any of them fails this suite with the case name.
//!
//! Cases:
//! - `decompose_centralized` on every connected component of every
//!   `scenarios::corpus()` scenario (the harness's own RNG derivation),
//!   plus a partial 1-tree at n = 2000;
//! - `decompose_region` on one leaf region and one internal region of each
//!   of those decompositions, against the region's parent bag;
//! - larger-width inputs started below their treewidth, so `t` doubles
//!   and step 4's sampled-pair cuts run, and direct `sep_doubling` calls
//!   with a weighted measure and a strict member subset.
//!
//! Regenerate the golden (only when the recursion is *meant* to change,
//! with review) via:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test decomp_golden
//! ```

use lowtw::treedec::{self, decomp::NodeInfo, sep::sep_doubling, SepConfig};
use lowtw::twgraph::{self, UGraph};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scenarios::runner::decompose_part;
use scenarios::{corpus, split_components};

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

    fn list(&mut self, vs: &[u32]) {
        self.word(vs.len() as u64);
        for &v in vs {
            self.word(u64::from(v));
        }
    }
}

/// One golden line from per-node `(parent, bag, info)` records in creation
/// order (`parent == None` marks a root).
fn case_line<'a>(
    case: &str,
    nodes: impl Iterator<Item = (Option<usize>, &'a [u32], &'a NodeInfo)>,
    t_used: u64,
) -> String {
    let mut h = Fnv::new();
    let mut depth: Vec<usize> = Vec::new();
    let mut width = 0usize;
    for (parent, bag, info) in nodes {
        h.word(parent.map_or(u64::MAX, |p| p as u64));
        h.list(bag);
        h.list(&info.sep);
        h.list(&info.gpx);
        h.list(&info.inherited);
        h.word(u64::from(info.is_leaf));
        depth.push(parent.map_or(0, |p| depth[p] + 1));
        width = width.max(bag.len().saturating_sub(1));
    }
    format!(
        "{{\"case\":\"{case}\",\"t_used\":{t_used},\"nodes\":{},\"width\":{width},\"depth\":{},\"fingerprint\":\"{:016x}\"}}",
        depth.len(),
        depth.iter().copied().max().unwrap_or(0),
        h.0
    )
}

fn decomp_line(case: &str, out: &treedec::DecompOutcome) -> String {
    let td = &out.td;
    let nodes = (0..td.bags.len()).map(|x| {
        let parent = (td.parent[x] != x).then_some(td.parent[x]);
        (parent, td.bags[x].as_slice(), &out.info[x])
    });
    case_line(case, nodes, out.t_used)
}

/// Re-decompose one leaf region and one internal region of `out` (the
/// first non-root node of each kind; the root stands in when no non-root
/// internal node exists) and record both outcomes.
fn region_lines(
    case: &str,
    g: &UGraph,
    out: &treedec::DecompOutcome,
    cfg: &SepConfig,
    t0: u64,
    seed: u64,
) -> Vec<String> {
    let td = &out.td;
    let non_root = |x: &usize| td.parent[*x] != *x;
    let leaf = (0..td.bags.len())
        .filter(non_root)
        .find(|&x| out.info[x].is_leaf);
    let internal = (0..td.bags.len())
        .filter(non_root)
        .find(|&x| !out.info[x].is_leaf)
        .or_else(|| (!out.info[td.root].is_leaf).then_some(td.root));
    let mut lines = Vec::new();
    for (kind, x) in [("leaf", leaf), ("internal", internal)] {
        let Some(x) = x else { continue };
        let boundary: &[u32] = if td.parent[x] == x {
            &[]
        } else {
            &td.bags[td.parent[x]]
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ x as u64);
        let region = treedec::decompose_region(g, &out.info[x].gpx, boundary, t0, cfg, &mut rng)
            .unwrap_or_else(|e| panic!("{case}: region {x} failed: {e}"));
        let nodes = region
            .nodes
            .iter()
            .map(|n| (n.parent, n.bag.as_slice(), &n.info));
        lines.push(case_line(
            &format!("region/{case}/{kind}_{x}"),
            nodes,
            region.t_used,
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
            let case = format!("{}/c{comp}", sc.name);
            let out = decompose_part(part, sc.t0, sc.seed, comp)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            lines.push(decomp_line(&format!("centralized/{case}"), &out));
            let cfg = SepConfig::practical(part.graph.n());
            lines.extend(region_lines(&case, &part.graph, &out, &cfg, sc.t0, sc.seed));
        }
    }
    let tight = |n: usize| SepConfig {
        balance_num: 1,
        balance_den: 2,
        iters_num: 1,
        iters_den: 2,
        split_lo: 2,
        split_hi: 1,
        ..SepConfig::practical(n)
    };
    let graphs = [
        (
            "partial_1tree_2000",
            twgraph::gen::partial_ktree(2000, 1, 0.5, 7),
            false,
            2,
            7,
        ),
        ("grid_16x16", twgraph::gen::grid(16, 16), false, 3, 11),
        (
            "banded_path_600_3",
            twgraph::gen::banded_path(600, 3),
            false,
            2,
            12,
        ),
        ("ktree_400_3", twgraph::gen::ktree(400, 3, 13), false, 2, 13),
        ("grid_12x12_tight", twgraph::gen::grid(12, 12), true, 2, 0),
        (
            "banded_path_400_2_tight",
            twgraph::gen::banded_path(400, 2),
            true,
            3,
            2,
        ),
    ];
    for (case, g, is_tight, t0, seed) in &graphs {
        let cfg = if *is_tight {
            tight(g.n())
        } else {
            SepConfig::practical(g.n())
        };
        let mut rng = SmallRng::seed_from_u64(*seed);
        let out = treedec::decompose_centralized(g, *t0, &cfg, &mut rng).expect("connected");
        out.td.verify(g).expect("valid decomposition");
        lines.push(decomp_line(&format!("centralized/{case}"), &out));
        lines.extend(region_lines(case, g, &out, &cfg, *t0, *seed));
    }
    lines.extend(sep_lines(tight));
    lines
}

/// Direct `sep_doubling` calls: the whole graph below its treewidth, a
/// measure concentrated on one end, a strict member subset, and a tight
/// configuration under which `t` doubles and step 4's cuts (alone and in
/// the union fallback) produce the separator.
fn sep_lines(tight: impl Fn(usize) -> SepConfig) -> Vec<String> {
    let grid = twgraph::gen::grid(12, 12);
    let band = twgraph::gen::banded_path(400, 2);
    let heavy_tail: Vec<u64> = (0..400).map(|v| u64::from(v >= 300)).collect();
    let left: Vec<bool> = (0..400).map(|v| v < 200).collect();
    let left_mu: Vec<u64> = left.iter().map(|&b| u64::from(b)).collect();
    let practical = SepConfig::practical(400);
    let cases = [
        (
            "grid_12x12",
            &grid,
            vec![true; 144],
            vec![1; 144],
            practical,
            2,
            20,
        ),
        (
            "banded_heavy_tail",
            &band,
            vec![true; 400],
            heavy_tail,
            practical,
            3,
            21,
        ),
        ("banded_left_half", &band, left, left_mu, practical, 2, 22),
        (
            "grid_12x12_union",
            &grid,
            vec![true; 144],
            vec![1; 144],
            tight(144),
            2,
            0,
        ),
        (
            "banded_cuts",
            &band,
            vec![true; 400],
            vec![1; 400],
            tight(400),
            3,
            2,
        ),
    ];
    cases
        .iter()
        .map(|(case, g, members, mu, cfg, t0, seed)| {
            let mut rng = SmallRng::seed_from_u64(*seed);
            let out = sep_doubling(g, members, mu, *t0, cfg, &mut rng).expect("mincut invariant");
            let mut h = Fnv::new();
            h.list(&out.separator);
            format!(
                "{{\"case\":\"sep/{case}\",\"t_used\":{},\"path\":\"{:?}\",\"size\":{},\"fingerprint\":\"{:016x}\"}}",
                out.t_used,
                out.path,
                out.separator.len(),
                h.0
            )
        })
        .collect()
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/decomp_centralized.jsonl")
}

#[test]
fn centralized_recursion_matches_golden() {
    let got = collect();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, got.join("\n") + "\n").expect("write golden");
        eprintln!("wrote {} golden lines to {}", got.len(), path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test decomp_golden`",
            path.display()
        )
    });
    let want: Vec<&str> = text.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "golden line {} diverged", i + 1);
    }
    assert_eq!(got.len(), want.len(), "golden line count changed");
}
