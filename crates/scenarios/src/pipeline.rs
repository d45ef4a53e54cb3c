//! The ten end-to-end pipelines behind one uniform interface.
//!
//! Every pipeline consumes a [`Scenario`], runs the full distributed (or
//! charged-virtual) machinery per connected component, **differentially
//! checks its outputs against the centralized oracles in
//! [`baselines::oracles`]**, and returns a [`CellReport`]. A report is only
//! ever produced for a verified cell — divergence panics with the scenario
//! name, so running the matrix doubles as the differential suite.

use crate::registry::Scenario;
use crate::report::{fold_checksum, CellError, CellReport};
use crate::runner::{decompose_part, decompose_part_distributed, split_components};
use congest_sim::NetworkConfig;
use stateful_walks::{CdlLabeling, ColoredWalk, StateId, StatefulConstraint};
use twgraph::alg::bfs_dist;
use twgraph::gen::BipartiteInstance;
use twgraph::INF;

/// Finite events-per-second on sub-tick wall clocks: seconds clamp to the
/// 1 µs reporting floor so rate detail keys are always present and never
/// cast an `inf` to `u64::MAX` (issue 7's rate-computation satellite —
/// tiny cells can finish inside one clock tick on fast machines).
fn rate_per_sec(count: u64, secs: f64) -> u64 {
    (count as f64 / secs.max(1e-6)) as u64
}

/// One end-to-end pipeline runnable on any scenario.
pub trait Pipeline {
    /// Stable pipeline name (report key).
    fn name(&self) -> &'static str;
    /// Run on `sc`, differentially checked. Panics on divergence (a broken
    /// invariant); operational failures (simulator violations, invalid
    /// decomposition inputs) surface as a typed [`CellError`].
    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError>;
}

/// Adapter: tag an underlying error (any [`CellFailure`] source — decomp
/// or serve) with the failing cell's coordinates.
fn cell_err<'a, E: Into<crate::report::CellFailure>>(
    sc: &'a Scenario,
    pipeline: &'static str,
) -> impl Fn(E) -> CellError + 'a {
    move |e| CellError {
        scenario: sc.name.to_string(),
        pipeline,
        source: e.into(),
    }
}

/// All ten pipelines, in canonical order.
pub fn all_pipelines() -> Vec<Box<dyn Pipeline>> {
    vec![
        Box::new(SsspPipeline),
        Box::new(DistLabelPipeline),
        Box::new(GirthPipeline),
        Box::new(MatchingPipeline),
        Box::new(WalksPipeline),
        Box::new(ServePipeline),
        Box::new(UpdatePipeline),
        Box::new(MaxflowPipeline),
        Box::new(CountingPipeline),
        Box::new(FoPipeline),
    ]
}

/// Tree decomposition → distance labeling → one label-broadcast SSSP
/// query from global vertex 0, all charged on the simulator; checked
/// vertex-for-vertex against centralized Dijkstra.
pub struct SsspPipeline;

impl Pipeline for SsspPipeline {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError> {
        let ce = cell_err(sc, self.name());
        let g = sc.graph();
        let inst = sc.instance();
        let mut rep = CellReport::new(sc.name, self.name(), g.n(), g.m());
        let parts = split_components(&g, &inst);
        rep.components = parts.len();
        let src = 0u32;
        let mut dists = vec![INF; g.n()];
        for (ci, part) in parts.iter().enumerate() {
            if part.graph.n() == 1 {
                if part.old_of[0] == src {
                    dists[src as usize] = 0;
                }
                continue;
            }
            let (out, mut net) =
                decompose_part_distributed(part, sc.t0, sc.seed, ci).map_err(&ce)?;
            out.td.verify(&part.graph).unwrap();
            rep.note_decomposition(out.td.width(), out.td.stats().depth);
            let (labels, _) =
                distlabel::build_labels_distributed(&mut net, &part.inst, &out.td, &out.info)
                    .map_err(|e| ce(e.into()))?;
            if let Some(local_src) = part.local_of(src) {
                let (d, _) = distlabel::sssp_distributed(&mut net, &labels, local_src)
                    .map_err(|e| ce(e.into()))?;
                for (local, &dv) in d.iter().enumerate() {
                    dists[part.old_of[local] as usize] = dv;
                }
            }
            rep.note_network(ci, &net);
        }
        let oracle = baselines::sssp_oracle(&inst, src);
        assert_eq!(
            dists, oracle,
            "{}: sssp diverged from the Dijkstra oracle",
            sc.name
        );
        rep.checked = g.n();
        rep.output = dists
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &d)| fold_checksum(acc, i as u64, d));
        Ok(rep)
    }
}

/// Distance labeling build + decode: distributed label construction per
/// component, then pairwise `dec(la(u), la(v))` decoding checked against
/// per-source Dijkstra rows, including cross-component ∞ pairs.
pub struct DistLabelPipeline;

impl Pipeline for DistLabelPipeline {
    fn name(&self) -> &'static str {
        "distlabel"
    }

    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError> {
        let ce = cell_err(sc, self.name());
        let g = sc.graph();
        let inst = sc.instance();
        let mut rep = CellReport::new(sc.name, self.name(), g.n(), g.m());
        let parts = split_components(&g, &inst);
        rep.components = parts.len();
        let mut label_words = 0u64;
        let mut max_label_words = 0u64;
        for (ci, part) in parts.iter().enumerate() {
            if part.graph.n() == 1 {
                continue;
            }
            let (out, mut net) =
                decompose_part_distributed(part, sc.t0, sc.seed, ci).map_err(&ce)?;
            rep.note_decomposition(out.td.width(), out.td.stats().depth);
            let (labels, _) =
                distlabel::build_labels_distributed(&mut net, &part.inst, &out.td, &out.info)
                    .map_err(|e| ce(e.into()))?;
            rep.note_network(ci, &net);
            for l in &labels {
                label_words += l.words() as u64;
                max_label_words = max_label_words.max(l.words() as u64);
            }
            // Decode a source stride against Dijkstra rows on the *full*
            // instance (mapped through old ids), every target vertex.
            let pn = part.graph.n();
            for local_u in (0..pn as u32).step_by((pn / 4).max(1)) {
                let oracle = baselines::sssp_oracle(&inst, part.old_of[local_u as usize]);
                for local_v in 0..pn as u32 {
                    let got =
                        distlabel::decode(&labels[local_u as usize], &labels[local_v as usize]);
                    let want = oracle[part.old_of[local_v as usize] as usize];
                    assert_eq!(
                        got, want,
                        "{}: decode({}, {}) diverged",
                        sc.name, part.old_of[local_u as usize], part.old_of[local_v as usize]
                    );
                    rep.output = fold_checksum(
                        rep.output,
                        u64::from(part.old_of[local_u as usize]) * g.n() as u64
                            + u64::from(part.old_of[local_v as usize]),
                        got,
                    );
                    rep.checked += 1;
                }
                // Cross-component pairs have no common label space, so no
                // decode exists; consistency-check (without counting it as
                // a differential verification) that the oracle agrees such
                // pairs are unreachable.
                for other in parts.iter().filter(|o| o.old_of != part.old_of) {
                    for &ov in other.old_of.iter().take(2) {
                        assert!(
                            oracle[ov as usize] >= INF,
                            "{}: oracle finds a cross-component path {} → {ov}",
                            sc.name,
                            part.old_of[local_u as usize]
                        );
                    }
                }
            }
        }
        rep.detail.push(("label_words_total", label_words));
        rep.detail.push(("label_words_max", max_label_words));
        Ok(rep)
    }
}

/// Probabilistic undirected weighted girth per cyclic component (one
/// representative trial charged through the virtual product network),
/// checked for exactness against the centralized shortest-cycle oracle.
pub struct GirthPipeline;

impl Pipeline for GirthPipeline {
    fn name(&self) -> &'static str {
        "girth"
    }

    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError> {
        let ce = cell_err(sc, self.name());
        let g = sc.graph();
        let inst = sc.instance();
        let mut rep = CellReport::new(sc.name, self.name(), g.n(), g.m());
        let parts = split_components(&g, &inst);
        rep.components = parts.len();
        let mut best = INF;
        let mut trials = 0u64;
        for (ci, part) in parts.iter().enumerate() {
            // Connected with m ≤ n − 1 ⇒ acyclic ⇒ girth ∞; skip.
            if part.graph.m() < part.graph.n() {
                continue;
            }
            let out = decompose_part(part, sc.t0, sc.seed, ci).map_err(&ce)?;
            rep.note_decomposition(out.td.width(), out.td.stats().depth);
            // Half the `practical` trial count: the matrix asserts exact
            // equality per cell anyway (deterministic given the seed), so a
            // missed trial shows up as a hard failure, not silent flakiness.
            let cfg = girth::GirthConfig {
                trials_per_c: 2 + (part.graph.n().max(2).ilog2() as usize) / 2,
                seed: sc.seed.wrapping_mul(31).wrapping_add(ci as u64),
                measure_distributed: true,
            };
            let run = girth::girth_undirected(&part.inst, &out.td, &out.info, &cfg)
                .map_err(|e| ce(e.into()))?;
            let want = baselines::girth_exact_centralized(&part.inst);
            assert_eq!(
                run.girth, want,
                "{}: component {ci} girth diverged from the oracle",
                sc.name
            );
            rep.checked += 1;
            best = best.min(run.girth);
            trials += run.trials as u64;
            rep.metrics.rounds = rep.metrics.rounds.max(run.rounds_total);
            rep.detail.push(("rounds_per_trial", run.rounds_per_trial));
        }
        // The whole-graph girth is the min over components; the oracle on
        // the full (possibly disconnected) instance must agree.
        let want_full = baselines::girth_exact_centralized(&inst);
        assert_eq!(best, want_full, "{}: full-graph girth diverged", sc.name);
        rep.checked += 1;
        rep.detail.push(("trials", trials));
        rep.output = if best >= INF { u64::MAX } else { best };
        Ok(rep)
    }
}

/// Separator-hierarchy bipartite matching on the BFS-parity
/// bipartification of every component, augmentations charged through the
/// virtual CDL network, checked against Hopcroft–Karp.
pub struct MatchingPipeline;

impl Pipeline for MatchingPipeline {
    fn name(&self) -> &'static str {
        "matching"
    }

    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError> {
        let ce = cell_err(sc, self.name());
        let g = sc.graph();
        let mut rep = CellReport::new(sc.name, self.name(), g.n(), g.m());
        let inst = sc.instance();
        let parts = split_components(&g, &inst);
        rep.components = parts.len();
        let mut total = 0usize;
        let mut augmentations = 0u64;
        let mut attempts = 0u64;
        // Globally advancing decomposition index: sub-components of
        // different parts must not share separator RNG streams.
        let mut decomp_idx = 0usize;
        for part in &parts {
            // Bipartify: 2-color by BFS-layer parity, keep cross edges.
            let depth = bfs_dist(&part.graph, 0);
            let side: Vec<bool> = depth.iter().map(|&d| d % 2 == 0).collect();
            let mut bb = twgraph::UGraphBuilder::new(part.graph.n());
            for (u, v) in part.graph.edges() {
                if side[u as usize] != side[v as usize] {
                    bb.add_edge(u, v);
                }
            }
            let bg = bb.build();
            // Dropping intra-layer edges may disconnect; recurse on the
            // sub-components of the derived bipartite graph.
            let bunit = twgraph::gen::with_unit_weights(&bg);
            for sub in &split_components(&bg, &bunit) {
                if sub.graph.n() == 1 {
                    continue;
                }
                let sside: Vec<bool> = sub.old_of.iter().map(|&ov| side[ov as usize]).collect();
                let want = baselines::matching_oracle(&sub.graph, &sside);
                let out = decompose_part(sub, sc.t0, sc.seed, decomp_idx).map_err(&ce)?;
                decomp_idx += 1;
                rep.note_decomposition(out.td.width(), out.td.stats().depth);
                let bi = BipartiteInstance::new(sub.graph.clone(), sside);
                let got =
                    bmatch::max_matching(&bi, &out.td, &out.info, bmatch::MatchMode::Distributed)
                        .map_err(|e| ce(e.into()))?;
                assert_eq!(
                    got.size(),
                    want,
                    "{}: matching diverged from Hopcroft–Karp",
                    sc.name
                );
                rep.checked += 1;
                total += got.size();
                augmentations += got.augmentations as u64;
                attempts += got.attempts as u64;
                rep.metrics.rounds = rep.metrics.rounds.max(got.rounds);
            }
        }
        rep.detail.push(("augmentations", augmentations));
        rep.detail.push(("attempts", attempts));
        rep.output = total as u64;
        Ok(rep)
    }
}

/// Constrained distance labeling CDL(C_col(2)) on the edge-colored
/// instance: distributed construction through the charged virtual product
/// network per component, decoded walk distances checked against product
/// Dijkstra for every state.
pub struct WalksPipeline;

impl Pipeline for WalksPipeline {
    fn name(&self) -> &'static str {
        "walks"
    }

    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError> {
        let ce = cell_err(sc, self.name());
        let g = sc.graph();
        let colored = sc.colored_instance(2);
        let mut rep = CellReport::new(sc.name, self.name(), g.n(), g.m());
        let c = ColoredWalk { colors: 2 };
        let parts = split_components(&g, &colored);
        rep.components = parts.len();
        for (ci, part) in parts.iter().enumerate() {
            if part.graph.n() == 1 {
                continue;
            }
            let out = decompose_part(part, sc.t0, sc.seed, ci).map_err(&ce)?;
            rep.note_decomposition(out.td.width(), out.td.stats().depth);
            let (cdl, metrics) = CdlLabeling::build_distributed(
                &part.inst,
                &c,
                &out.td,
                &out.info,
                NetworkConfig::default(),
            )
            .map_err(|e| ce(e.into()))?;
            rep.metrics.par_absorb(&metrics.as_phase(""));
            let pn = part.graph.n();
            for s in (0..pn as u32).step_by((pn / 4).max(1)) {
                let oracle = baselines::constrained_sssp_oracle(&part.inst, &c, s);
                for t in 0..pn as u32 {
                    for q in 0..c.n_states() as StateId {
                        let got = cdl.dist(s, t, q);
                        assert_eq!(
                            got, oracle[t as usize][q as usize],
                            "{}: CDL({s} → {t}, state {q}) diverged",
                            sc.name
                        );
                        rep.output = fold_checksum(
                            rep.output,
                            (u64::from(s) * pn as u64 + u64::from(t)) * 8 + u64::from(q),
                            got,
                        );
                        rep.checked += 1;
                    }
                }
            }
        }
        Ok(rep)
    }
}

/// Query serving: distributed label construction per component, compaction
/// into a sharded `labelserve` store, then a batched query replay through
/// the cached [`labelserve::QueryEngine`] — every answer differentially
/// checked against per-source Dijkstra rows (exhaustive pairs for
/// n ≤ 200, a seeded source/target sample otherwise), cross-component
/// pairs included (the store must answer the oracle's ∞). A seeded skewed
/// workload is then replayed to report throughput and cache behavior.
pub struct ServePipeline;

/// Exhaustive-check cutoff: at or below this vertex count every ordered
/// pair is verified; above it a seeded sample of full source rows is.
const SERVE_EXHAUSTIVE_N: usize = 200;

impl Pipeline for ServePipeline {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError> {
        let ce = cell_err::<treedec::DecompError>(sc, self.name());
        let se = cell_err::<labelserve::ServeError>(sc, self.name());
        let g = sc.graph();
        let inst = sc.instance();
        let mut rep = CellReport::new(sc.name, self.name(), g.n(), g.m());
        let parts = split_components(&g, &inst);
        rep.components = parts.len();

        // Build: distributed label construction per component (charged on
        // the simulator), compacted into one global sharded store.
        let mut builder = labelserve::StoreBuilder::new(g.n());
        for (ci, part) in parts.iter().enumerate() {
            if part.graph.n() == 1 {
                builder.add_singleton(part.old_of[0]).map_err(&se)?;
                continue;
            }
            let (out, mut net) =
                decompose_part_distributed(part, sc.t0, sc.seed, ci).map_err(&ce)?;
            rep.note_decomposition(out.td.width(), out.td.stats().depth);
            let (labels, _) =
                distlabel::build_labels_distributed(&mut net, &part.inst, &out.td, &out.info)
                    .map_err(|e| ce(e.into()))?;
            builder.add_component(&labels, &part.old_of).map_err(&se)?;
            rep.note_network(ci, &net);
        }
        let cfg = labelserve::ServeConfig {
            // Small graphs still exercise real sharding: at least 4 shards.
            shard_size: (g.n() / 4).max(1),
            cache_capacity: 512,
            layout: labelserve::StoreLayout::Flat,
        };
        // One accumulation, both physical layouts: the flat store serves
        // the oracle differential and the workload replay; the packed
        // store rides along as a per-cell differential (below) and for the
        // bytes/node comparison the compression work is judged on.
        let store = builder
            .build_layout(cfg.shard_size, cfg.layout)
            .map_err(&se)?;
        let packed = builder
            .build_layout(cfg.shard_size, labelserve::StoreLayout::Packed)
            .map_err(&se)?;
        rep.detail.push(("store_bytes", store.bytes() as u64));
        rep.detail
            .push(("store_bytes_packed", packed.bytes() as u64));
        rep.detail.push(("store_entries", store.entries() as u64));
        let engine = labelserve::QueryEngine::new(store, cfg);

        // Differential: batched engine answers against Dijkstra rows on
        // the full instance — cross-component pairs must answer ∞.
        let n = g.n();
        let sources: Vec<u32> = if n <= SERVE_EXHAUSTIVE_N {
            (0..n as u32).collect()
        } else {
            let mut rng = twgraph::gen::derive_rng("serve_sample", &[n as u64], sc.seed);
            use rand::Rng;
            (0..32).map(|_| rng.gen_range(0..n as u32)).collect()
        };
        for &u in &sources {
            let oracle = baselines::sssp_oracle(&inst, u);
            let row: Vec<(u32, u32)> = (0..n as u32).map(|v| (u, v)).collect();
            let got = engine.batch(&row).map_err(&se)?;
            for (v, &d) in got.iter().enumerate() {
                assert_eq!(
                    d, oracle[v],
                    "{}: serve({u} → {v}) diverged from the Dijkstra oracle",
                    sc.name
                );
                rep.output = fold_checksum(rep.output, u64::from(u) * n as u64 + v as u64, d);
                rep.checked += 1;
            }
        }

        // Replay the seeded skewed workload for throughput and cache
        // behavior (answers drawn from the just-verified pair space).
        engine.reset();
        let spec = labelserve::WorkloadSpec {
            queries: 8 * n.max(8),
            hot_pairs: (n / 8).max(8),
            hot_fraction: 0.75,
        };
        let queries = labelserve::seeded_queries(n, &spec, sc.seed);
        let t = std::time::Instant::now();
        let answers = engine.batch(&queries).map_err(&se)?;
        let wall = t.elapsed();
        for (i, &d) in answers.iter().enumerate() {
            rep.output = fold_checksum(rep.output, i as u64, d);
        }
        // Packed differential: the compressed layout must answer the
        // whole replayed workload bit-identically to the flat store.
        for (q, &d) in queries.iter().zip(&answers) {
            let pd = packed.distance(q.0, q.1).map_err(&se)?;
            assert_eq!(
                pd, d,
                "{}: packed({} → {}) diverged from the flat store",
                sc.name, q.0, q.1
            );
        }
        rep.detail.push(("packed_checked", queries.len() as u64));
        let stats = engine.stats();
        rep.detail.push(("queries", queries.len() as u64));
        rep.detail.push(("cache_hits", stats.hits));
        rep.detail.push(("cache_misses", stats.misses));
        rep.detail
            .push(("cache_hit_pct", (stats.hit_rate() * 100.0).round() as u64));
        rep.detail.push((
            "qps",
            rate_per_sec(queries.len() as u64, wall.as_secs_f64()),
        ));
        Ok(rep)
    }
}

/// One update:query traffic mix — the churn axis of the matrix.
#[derive(Clone, Copy, Debug)]
pub struct UpdateMix {
    /// Mix name (stable report key fragment).
    pub name: &'static str,
    /// Edge edits per batch round.
    pub updates: usize,
    /// Relative query volume per round (scaled by the pipeline).
    pub queries: usize,
    /// Static detail key under which this mix's QPS is reported.
    pub qps_key: &'static str,
}

/// The pinned update:query ratios every scenario replays.
pub fn update_mixes() -> Vec<UpdateMix> {
    vec![
        UpdateMix {
            name: "read_heavy",
            updates: 1,
            queries: 16,
            qps_key: "qps_read_heavy",
        },
        UpdateMix {
            name: "balanced",
            updates: 4,
            queries: 4,
            qps_key: "qps_balanced",
        },
        UpdateMix {
            name: "write_heavy",
            updates: 16,
            queries: 1,
            qps_key: "qps_write_heavy",
        },
    ]
}

/// Batch rounds replayed per mix.
const UPDATE_ROUNDS: usize = 2;

/// Dynamic graphs: build a maintained labeling once, then replay seeded
/// insert/delete batches at three update:query ratios. Every batch goes
/// through [`distlabel::DynamicLabeling::apply`] (scoped dirty-subtree
/// relabeling with full-rebuild fallback) and is published as a new epoch
/// of a [`labelserve::VersionedEngine`]; after **every** publish the
/// current epoch is checked exhaustively against Dijkstra rows on the
/// *post-update* instance — cross-component ∞ pairs included, so component
/// splits and merges are verified, not just weight churn. Reports rebuild
/// scope (reused / scoped / rebuilt parts, fallbacks), publish latency,
/// and QPS under churn per mix.
pub struct UpdatePipeline;

impl Pipeline for UpdatePipeline {
    fn name(&self) -> &'static str {
        "update"
    }

    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError> {
        use rand::Rng;
        let ce = cell_err::<treedec::DecompError>(sc, self.name());
        let se = cell_err::<labelserve::ServeError>(sc, self.name());
        let g = sc.graph();
        let inst = sc.instance();
        let mut rep = CellReport::new(sc.name, self.name(), g.n(), g.m());
        let n = g.n();
        let wmax = match sc.weights {
            crate::registry::WeightModel::Unit => 1,
            crate::registry::WeightModel::Uniform { wmax } => wmax,
            crate::registry::WeightModel::HeavyTailed { wmax, .. } => wmax,
        };

        // Initial build: decompose and label every component once. Only
        // this decomposition is width-checked — random churn edges may
        // leave the declared family (that is the point of the test).
        let mut dl = distlabel::DynamicLabeling::build(&inst, sc.t0, sc.seed).map_err(&ce)?;
        rep.components = dl.parts().len();
        for part in dl.parts() {
            if part.n() > 1 {
                rep.note_decomposition(part.td().width(), part.td().stats().depth);
            }
        }
        let cfg = labelserve::ServeConfig {
            shard_size: (n / 4).max(1),
            cache_capacity: 512,
            ..labelserve::ServeConfig::default()
        };
        let eng = labelserve::VersionedEngine::from_labeling(&dl, cfg).map_err(&se)?;

        let mut updates_applied = 0u64;
        let mut publishes = 0u64;
        let mut publish_us_total = 0u64;
        let mut dirty_total = 0u64;
        let mut scoped_parts = 0u64;
        let mut rebuilt_parts = 0u64;
        let mut reused_parts = 0u64;
        let mut fallbacks = 0u64;
        let mut queries_total = 0u64;
        let mut churn_secs = 0.0f64;
        let mut qps_mix = Vec::new();

        for (mi, mix) in update_mixes().iter().enumerate() {
            for round in 0..UPDATE_ROUNDS {
                let mut rng =
                    twgraph::gen::derive_rng("update_batch", &[mi as u64, round as u64], sc.seed);
                // Seeded batch: a mixture of deletions of existing edges
                // and fresh weighted insertions.
                let mut batch = twgraph::EdgeBatch::new();
                for _ in 0..mix.updates {
                    let arcs = dl.inst().arcs();
                    if rng.gen_bool(0.5) && !arcs.is_empty() {
                        let a = &arcs[rng.gen_range(0..arcs.len())];
                        batch = batch.delete(a.src, a.dst);
                    } else {
                        let u = rng.gen_range(0..n as u32);
                        let v = rng.gen_range(0..n as u32);
                        batch = batch.insert(u, v, rng.gen_range(1..=wmax));
                    }
                }
                let ur = dl.apply(&batch).map_err(&ce)?;
                updates_applied += 1;
                dirty_total += ur.dirty.len() as u64;
                scoped_parts += ur.parts_scoped as u64;
                rebuilt_parts += ur.parts_rebuilt as u64;
                reused_parts += ur.parts_reused as u64;
                fallbacks += ur.fallbacks as u64;
                let stats = eng.publish_from(&dl, &ur.dirty).map_err(&se)?;
                publishes += 1;
                publish_us_total += stats.publish_us;
                assert_eq!(
                    stats.epoch, publishes,
                    "{}: epochs must advance one per publish",
                    sc.name
                );

                // Exhaustive differential on the post-update instance: the
                // just-published epoch must answer Dijkstra on the *new*
                // graph for every ordered pair (∞ across components).
                let snap = eng.snapshot();
                for u in 0..n as u32 {
                    let oracle = baselines::sssp_oracle(dl.inst(), u);
                    let row: Vec<(u32, u32)> = (0..n as u32).map(|v| (u, v)).collect();
                    let got = snap.engine().batch(&row).map_err(&se)?;
                    for (v, &d) in got.iter().enumerate() {
                        assert_eq!(
                            d, oracle[v],
                            "{}/{}: update({u} → {v}) diverged after batch {updates_applied}",
                            sc.name, mix.name
                        );
                        rep.output =
                            fold_checksum(rep.output, u64::from(u) * n as u64 + v as u64, d);
                        rep.checked += 1;
                    }
                }
            }

            // QPS under churn: replay this mix's seeded skewed stream
            // against the current epoch.
            let spec = labelserve::WorkloadSpec {
                queries: (mix.queries * n.max(8)).max(64),
                hot_pairs: (n / 8).max(8),
                hot_fraction: 0.75,
            };
            let stream = labelserve::seeded_queries(n, &spec, sc.seed.wrapping_add(mi as u64));
            let t = std::time::Instant::now();
            let answers = eng.batch(&stream).map_err(&se)?;
            let wall = t.elapsed().as_secs_f64();
            for (i, &d) in answers.iter().enumerate() {
                rep.output = fold_checksum(rep.output, i as u64, d);
            }
            queries_total += stream.len() as u64;
            churn_secs += wall;
            qps_mix.push((mix.qps_key, rate_per_sec(stream.len() as u64, wall)));
        }

        rep.detail.push(("updates_applied", updates_applied));
        rep.detail.push(("publishes", publishes));
        rep.detail.push(("publish_us_total", publish_us_total));
        rep.detail.push(("dirty_total", dirty_total));
        rep.detail.push(("scoped_parts", scoped_parts));
        rep.detail.push(("rebuilt_parts", rebuilt_parts));
        rep.detail.push(("reused_parts", reused_parts));
        rep.detail.push(("fallbacks", fallbacks));
        rep.detail.push(("queries", queries_total));
        rep.detail
            .push(("qps_churn", rate_per_sec(queries_total, churn_secs)));
        rep.detail.extend(qps_mix);
        Ok(rep)
    }
}

/// Random terminal pairs sampled per component by the max-flow pipeline
/// (one extra deliberately-adjacent pair rides along when the component
/// has an edge, pinning the ∞-agreement path).
const MAXFLOW_PAIRS: usize = 3;

/// Small-capacity max-flow / vertex-disjoint paths between seeded terminal
/// pairs: the batched distributed min-vertex-cut primitive
/// ([`subgraph_ops::mvc::batch_min_vertex_cut`], charged on the same
/// network the decomposition ran on) against the centralized
/// augmenting-path oracle [`baselines::maxflow_oracle`]. The capacity
/// budget is `width + 1`: any two non-adjacent vertices are separated by
/// some bag of the decomposition, so a finite answer inside the budget is
/// itself a decomposition invariant the pipeline asserts.
pub struct MaxflowPipeline;

impl Pipeline for MaxflowPipeline {
    fn name(&self) -> &'static str {
        "maxflow"
    }

    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError> {
        use rand::Rng;
        let ce = cell_err::<treedec::DecompError>(sc, self.name());
        let g = sc.graph();
        let inst = sc.instance();
        let mut rep = CellReport::new(sc.name, self.name(), g.n(), g.m());
        let parts = split_components(&g, &inst);
        rep.components = parts.len();
        let mut pairs_total = 0u64;
        let mut flow_total = 0u64;
        let mut inf_pairs = 0u64;
        let mut cap_max = 0u64;
        for (ci, part) in parts.iter().enumerate() {
            if part.graph.n() < 2 {
                continue;
            }
            let (out, mut net) =
                decompose_part_distributed(part, sc.t0, sc.seed, ci).map_err(&ce)?;
            rep.note_decomposition(out.td.width(), out.td.stats().depth);
            let cap = out.td.width() + 1;
            cap_max = cap_max.max(cap as u64);
            let pn = part.graph.n() as u32;
            let mut rng = twgraph::gen::derive_rng("maxflow_pairs", &[ci as u64], sc.seed);
            let mut pairs: Vec<(u32, u32)> = (0..MAXFLOW_PAIRS)
                .map(|_| {
                    let s = rng.gen_range(0..pn);
                    let mut t = rng.gen_range(0..pn);
                    while t == s {
                        t = rng.gen_range(0..pn);
                    }
                    (s, t)
                })
                .collect();
            // One deliberately adjacent pair: both sides must answer ∞.
            let s = rng.gen_range(0..pn);
            if let Some(&t) = part.graph.neighbors(s).first() {
                pairs.push((s, t));
            }
            let instances: Vec<subgraph_ops::mvc::CutInstance> = pairs
                .iter()
                .map(|&(s, t)| subgraph_ops::mvc::CutInstance {
                    members: None,
                    sources: vec![s],
                    sinks: vec![t],
                })
                .collect();
            let results = subgraph_ops::mvc::batch_min_vertex_cut(&mut net, &instances, cap)
                .map_err(|e| ce(treedec::DecompError::Congest(e)))?;
            rep.note_network(ci, &net);
            for (pi, (&(s, t), got)) in pairs.iter().zip(&results).enumerate() {
                let want = baselines::maxflow_oracle(&part.graph, None, &[s], &[t], cap)
                    .map_err(|e| ce(treedec::DecompError::Mincut(e)))?;
                let adjacent = part.graph.neighbors(s).binary_search(&t).is_ok();
                // Decomposition invariant: non-adjacent terminals are
                // separated by some bag minus the terminals, ≤ width + 1.
                assert!(
                    adjacent || want.is_some(),
                    "{}: non-adjacent pair {s} → {t} needs a cut above width + 1 = {cap}",
                    sc.name
                );
                let flow = match (got, &want) {
                    (subgraph_ops::mvc::CutResult::Cut(cut), Some(wcut)) => {
                        assert_eq!(
                            cut.len(),
                            wcut.len(),
                            "{}: pair {s} → {t} flow diverged from the oracle",
                            sc.name
                        );
                        assert!(
                            cut_separates(&part.graph, cut, s, t),
                            "{}: distributed cut {cut:?} does not separate {s} from {t}",
                            sc.name
                        );
                        flow_total += cut.len() as u64;
                        cut.len() as u64
                    }
                    (subgraph_ops::mvc::CutResult::TooBig, None) => {
                        inf_pairs += 1;
                        u64::MAX
                    }
                    (got, want) => panic!(
                        "{}: pair {s} → {t} diverged: distributed {got:?} vs oracle {want:?}",
                        sc.name
                    ),
                };
                rep.checked += 1;
                pairs_total += 1;
                rep.output = fold_checksum(rep.output, (ci as u64) << 8 | pi as u64, flow);
            }
        }
        rep.detail.push(("pairs", pairs_total));
        rep.detail.push(("flow_total", flow_total));
        rep.detail.push(("inf_pairs", inf_pairs));
        rep.detail.push(("cap_max", cap_max));
        Ok(rep)
    }
}

/// Does removing `cut` disconnect `s` from `t`? Independent of both the
/// distributed primitive and the oracle (plain component scan).
fn cut_separates(g: &twgraph::UGraph, cut: &[u32], s: u32, t: u32) -> bool {
    let keep: Vec<bool> = (0..g.n() as u32).map(|v| !cut.contains(&v)).collect();
    if !keep[s as usize] || !keep[t as usize] {
        return false;
    }
    let (h, old_of) = g.induced(&keep);
    let (comp, _) = twgraph::alg::components(&h);
    let pos = |v: u32| old_of.iter().position(|&o| o == v).unwrap();
    comp[pos(s)] != comp[pos(t)]
}

/// Subgraph counting: triangles and 4-/5-cycles per component. Triangles
/// are enumerated bag-locally (every clique lies inside some bag of a
/// valid decomposition) with the separator overlaps deduplicated; the
/// longer cycles come from the distributed closed-walk spectrum
/// ([`subgraph_ops::probe::closed_walk_spectrum`], charged) via the trace
/// inclusion–exclusion identities
/// `c3 = tr A³ / 6`,
/// `c4 = (tr A⁴ + 2m − 2 Σ d_v²) / 8`,
/// `c5 = (tr A⁵ − 5 tr A³ − 5 Σ (d_v − 2)(A³)_vv) / 10`.
/// The two triangle counts cross-check each other, and all three counts
/// are differentially checked against the brute-force enumeration oracle
/// [`baselines::cycle_counts_oracle`] per component *and* on the full
/// (possibly disconnected) graph.
pub struct CountingPipeline;

impl Pipeline for CountingPipeline {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError> {
        let ce = cell_err::<treedec::DecompError>(sc, self.name());
        let g = sc.graph();
        let inst = sc.instance();
        let mut rep = CellReport::new(sc.name, self.name(), g.n(), g.m());
        let parts = split_components(&g, &inst);
        rep.components = parts.len();
        let mut total = baselines::CycleCounts::default();
        let mut bag_triples = 0u64;
        for (ci, part) in parts.iter().enumerate() {
            if part.graph.n() < 3 {
                continue;
            }
            let (out, mut net) =
                decompose_part_distributed(part, sc.t0, sc.seed, ci).map_err(&ce)?;
            rep.note_decomposition(out.td.width(), out.td.stats().depth);

            // Bag-local triangle join: enumerate adjacent triples inside
            // every bag; bags overlap on separators, so the global set
            // union is the inclusion–exclusion-correct count.
            let adj = |a: u32, b: u32| part.graph.neighbors(a).binary_search(&b).is_ok();
            let mut tris = std::collections::BTreeSet::new();
            for bag in &out.td.bags {
                for (i, &a) in bag.iter().enumerate() {
                    for (j, &b) in bag.iter().enumerate().skip(i + 1) {
                        if !adj(a, b) {
                            continue;
                        }
                        for &c in bag.iter().skip(j + 1) {
                            bag_triples += 1;
                            if adj(a, c) && adj(b, c) {
                                tris.insert((a, b, c));
                            }
                        }
                    }
                }
            }

            // Distributed closed-walk spectrum on the same charged network.
            let active: Vec<u32> = (0..part.graph.n() as u32).collect();
            let spectrum = subgraph_ops::probe::closed_walk_spectrum(&mut net, &active, 5)
                .map_err(|e| ce(treedec::DecompError::Congest(e)))?;
            rep.note_network(ci, &net);
            let (mut tr3, mut tr4, mut tr5) = (0i128, 0i128, 0i128);
            let (mut sum_d2, mut mixed) = (0i128, 0i128);
            for s in &spectrum {
                let d = s.degree as i128;
                tr3 += s.diag[2] as i128;
                tr4 += s.diag[3] as i128;
                tr5 += s.diag[4] as i128;
                sum_d2 += d * d;
                mixed += (d - 2) * s.diag[2] as i128;
            }
            let m2 = 2 * part.graph.m() as i128;
            let counts = [
                ("tr A³ / 6", tr3, 6),
                ("4-cycle inclusion–exclusion", tr4 + m2 - 2 * sum_d2, 8),
                ("5-cycle inclusion–exclusion", tr5 - 5 * tr3 - 5 * mixed, 10),
            ]
            .map(|(what, num, den)| {
                assert!(
                    num >= 0 && num % den == 0,
                    "{}: {what} produced the non-count {num}/{den}",
                    sc.name
                );
                (num / den) as u64
            });
            let comp_counts = baselines::CycleCounts {
                c3: counts[0],
                c4: counts[1],
                c5: counts[2],
            };
            // Cross-check: the bag join and the walk trace count the same
            // triangles through disjoint mechanisms.
            assert_eq!(
                tris.len() as u64,
                comp_counts.c3,
                "{}: bag-local triangles diverged from tr A³ / 6",
                sc.name
            );
            rep.checked += 1;
            let want = baselines::cycle_counts_oracle(&part.graph);
            assert_eq!(
                comp_counts, want,
                "{}: component {ci} cycle counts diverged from the enumeration oracle",
                sc.name
            );
            rep.checked += 3;
            total.c3 += comp_counts.c3;
            total.c4 += comp_counts.c4;
            total.c5 += comp_counts.c5;
        }
        // Cycles never span components: the full-graph oracle must equal
        // the component sum even on the disconnected corpus entries.
        let want_full = baselines::cycle_counts_oracle(&g);
        assert_eq!(
            total, want_full,
            "{}: full-graph cycle counts diverged",
            sc.name
        );
        rep.checked += 3;
        rep.detail.push(("triangles", total.c3));
        rep.detail.push(("cycles4", total.c4));
        rep.detail.push(("cycles5", total.c5));
        rep.detail.push(("bag_triples_scanned", bag_triples));
        rep.output = [(3u64, total.c3), (4, total.c4), (5, total.c5)]
            .iter()
            .fold(0, |acc, &(k, v)| fold_checksum(acc, k, v));
        Ok(rep)
    }
}

/// Sentences evaluated per cell by the FO pipeline.
const FO_SENTENCES: usize = 6;

/// Largest `dist ≤ k` radius the generated sentences may use.
const FO_RADIUS: u32 = 2;

/// FO-property checking: a seeded batch of closed sentences from the
/// [`twgraph::fo`] DSL (∃/∀ over vertices, adjacency / equality /
/// distance-≤k atoms, quantifier depth ≤ 2) evaluated over
/// distributed-gathered bounded hop distances
/// ([`subgraph_ops::probe::bounded_hop_distances`] per component, charged
/// on the decomposition's network — adjacency is decided as `dist = 1`
/// from the gathered tables, never read off the graph), with every
/// verdict differentially checked against the naive quantifier-expansion
/// oracle [`baselines::fo_oracle`] on the full graph (cross-component
/// pairs answer `dist = ∞` on both sides).
pub struct FoPipeline;

impl Pipeline for FoPipeline {
    fn name(&self) -> &'static str {
        "fo"
    }

    fn run(&self, sc: &Scenario) -> Result<CellReport, CellError> {
        use twgraph::fo::{Atom, Formula};
        let ce = cell_err::<treedec::DecompError>(sc, self.name());
        let g = sc.graph();
        let inst = sc.instance();
        let mut rep = CellReport::new(sc.name, self.name(), g.n(), g.m());
        let sentences = twgraph::fo::seeded_sentences(FO_SENTENCES, FO_RADIUS, sc.seed);
        let radius = sentences.iter().map(|f| f.max_radius()).max().unwrap_or(1);
        let parts = split_components(&g, &inst);
        rep.components = parts.len();

        // Gather: per-component bounded hop-distance tables, mapped back
        // to original vertex ids. Absent pairs are beyond the radius (or
        // cross-component) — both read as "false" by every dist atom.
        let mut dist: std::collections::HashMap<(u32, u32), u32> = std::collections::HashMap::new();
        for (ci, part) in parts.iter().enumerate() {
            if part.graph.n() < 2 {
                dist.insert((part.old_of[0], part.old_of[0]), 0);
                continue;
            }
            let (out, mut net) =
                decompose_part_distributed(part, sc.t0, sc.seed, ci).map_err(&ce)?;
            rep.note_decomposition(out.td.width(), out.td.stats().depth);
            let active: Vec<u32> = (0..part.graph.n() as u32).collect();
            let tables = subgraph_ops::probe::bounded_hop_distances(&mut net, &active, radius)
                .map_err(|e| ce(treedec::DecompError::Congest(e)))?;
            rep.note_network(ci, &net);
            for (local, table) in tables.iter().enumerate() {
                for &(o, d) in table {
                    dist.insert((part.old_of[o as usize], part.old_of[local]), d);
                }
            }
        }

        // Evaluate: quantifiers expand centrally over the gathered tables
        // (the oracle re-derives everything from its own BFS rows).
        let n = g.n() as u32;
        let dist_le = |u: u32, v: u32, k: u32| dist.get(&(u, v)).is_some_and(|&d| d <= k);
        fn eval(
            f: &Formula,
            env: [u32; 2],
            n: u32,
            dist_le: &impl Fn(u32, u32, u32) -> bool,
        ) -> bool {
            match f {
                Formula::Atom(Atom::Adj(a, b)) => {
                    let (u, v) = (env[*a as usize], env[*b as usize]);
                    u != v && dist_le(u, v, 1)
                }
                Formula::Atom(Atom::Eq(a, b)) => env[*a as usize] == env[*b as usize],
                Formula::Atom(Atom::DistLe(a, b, k)) => {
                    dist_le(env[*a as usize], env[*b as usize], *k)
                }
                Formula::Not(inner) => !eval(inner, env, n, dist_le),
                Formula::And(l, r) => eval(l, env, n, dist_le) && eval(r, env, n, dist_le),
                Formula::Or(l, r) => eval(l, env, n, dist_le) || eval(r, env, n, dist_le),
                Formula::Exists(var, inner) => (0..n).any(|w| {
                    let mut e = env;
                    e[*var as usize] = w;
                    eval(inner, e, n, dist_le)
                }),
                Formula::Forall(var, inner) => (0..n).all(|w| {
                    let mut e = env;
                    e[*var as usize] = w;
                    eval(inner, e, n, dist_le)
                }),
            }
        }
        let mut verdicts_true = 0u64;
        for (i, f) in sentences.iter().enumerate() {
            assert!(
                f.is_sentence(),
                "{}: generator emitted an open formula",
                sc.name
            );
            let got = eval(f, [0, 0], n, &dist_le);
            let want = baselines::fo_oracle(&g, f);
            assert_eq!(
                got, want,
                "{}: sentence {i} «{f}» diverged from the quantifier-expansion oracle",
                sc.name
            );
            rep.checked += 1;
            verdicts_true += u64::from(got);
            rep.output = fold_checksum(rep.output, i as u64, u64::from(got));
        }
        rep.detail.push(("sentences", sentences.len() as u64));
        rep.detail.push(("verdicts_true", verdicts_true));
        rep.detail.push(("radius", u64::from(radius)));
        rep.detail.push(("dist_pairs", dist.len() as u64));
        Ok(rep)
    }
}

/// (Internal) shared scaffolding assertions exercised by unit tests.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Family, Scenario, WeightModel};

    fn tiny(name: &'static str, family: Family) -> Scenario {
        Scenario {
            name,
            family,
            weights: WeightModel::Uniform { wmax: 7 },
            seed: 5,
            tw_bound: Some(3),
            elim_bound: Some(4),
            t0: 3,
        }
    }

    #[test]
    fn sssp_cell_on_small_cactus() {
        let rep = SsspPipeline
            .run(&tiny("test/cactus", Family::Cactus { n: 24 }))
            .unwrap();
        assert_eq!(rep.checked, 24);
        assert!(rep.metrics.rounds > 0);
        assert!(!rep.phases.is_empty());
    }

    #[test]
    fn girth_cell_on_ring() {
        let rep = GirthPipeline
            .run(&tiny(
                "test/ring",
                Family::RingOfCliques {
                    cliques: 3,
                    size: 3,
                },
            ))
            .unwrap();
        assert!(rep.output < u64::MAX, "a ring of triangles has cycles");
        assert!(rep.checked >= 2);
    }

    #[test]
    fn matching_cell_on_series_parallel() {
        let rep = MatchingPipeline
            .run(&tiny("test/sp", Family::SeriesParallel { n: 26 }))
            .unwrap();
        assert!(rep.output > 0, "a connected graph has a nonempty matching");
        assert!(rep.checked >= 1);
    }

    #[test]
    fn walks_cell_on_halin() {
        let rep = WalksPipeline
            .run(&tiny("test/halin", Family::Halin { n: 20 }))
            .unwrap();
        assert!(rep.checked > 0);
        assert!(rep.metrics.rounds > 0, "virtual CDL rounds must be charged");
    }

    #[test]
    fn serve_cell_on_multi_component() {
        let rep = ServePipeline
            .run(&tiny("test/serve", Family::MultiComponent { n: 40 }))
            .unwrap();
        assert!(rep.components >= 4);
        assert_eq!(rep.checked, 40 * 40, "exhaustive pair verification");
        assert!(rep.metrics.rounds > 0, "label construction must be charged");
        for key in ["store_bytes", "queries", "cache_hits", "cache_misses"] {
            assert!(
                rep.detail.iter().any(|&(k, _)| k == key),
                "detail key {key} missing"
            );
        }
        let hits = rep
            .detail
            .iter()
            .find(|&&(k, _)| k == "cache_hits")
            .unwrap()
            .1;
        assert!(hits > 0, "a 75%-hot workload must hit the cache");
    }

    #[test]
    fn update_cell_on_multi_component() {
        let rep = UpdatePipeline
            .run(&tiny("test/update", Family::MultiComponent { n: 32 }))
            .unwrap();
        let total_batches = (update_mixes().len() * UPDATE_ROUNDS) as u64;
        // Every batch re-verified the full pair space on the mutated graph.
        assert_eq!(rep.checked, 32 * 32 * total_batches as usize);
        for key in [
            "updates_applied",
            "publishes",
            "dirty_total",
            "queries",
            "qps_churn",
        ] {
            assert!(
                rep.detail.iter().any(|&(k, _)| k == key),
                "detail key {key} missing"
            );
        }
        let get = |key| rep.detail.iter().find(|&&(k, _)| k == key).unwrap().1;
        assert_eq!(get("updates_applied"), total_batches);
        assert_eq!(get("publishes"), total_batches);
        // Disconnected corpus + random churn must exercise real update
        // traffic: at least one part changed across the run.
        assert!(get("dirty_total") > 0, "no batch touched anything");
    }

    #[test]
    fn distlabel_cell_on_multi_component() {
        let rep = DistLabelPipeline
            .run(&tiny("test/multi", Family::MultiComponent { n: 40 }))
            .unwrap();
        assert!(rep.components >= 4);
        assert!(rep.checked > 0);
        assert!(rep
            .detail
            .iter()
            .any(|&(k, v)| k == "label_words_total" && v > 0));
    }

    #[test]
    fn maxflow_cell_on_grid() {
        let rep = MaxflowPipeline
            .run(&tiny("test/grid", Family::Grid { rows: 4, cols: 5 }))
            .unwrap();
        let get = |key| rep.detail.iter().find(|&&(k, _)| k == key).unwrap().1;
        // 3 random pairs + the adjacent pair, all oracle-checked.
        assert_eq!(get("pairs"), 4);
        assert_eq!(rep.checked, 4);
        // The adjacent pair must have agreed on ∞ on both sides.
        assert!(get("inf_pairs") >= 1);
        // The random non-adjacent pairs must have produced finite flow.
        assert!(get("flow_total") > 0);
        assert!(get("cap_max") >= 1);
        assert!(rep.metrics.rounds > 0, "the batched MVC must be charged");
    }

    #[test]
    fn counting_cell_on_ring_of_cliques() {
        let rep = CountingPipeline
            .run(&tiny(
                "test/ring",
                Family::RingOfCliques {
                    cliques: 4,
                    size: 4,
                },
            ))
            .unwrap();
        let get = |key| rep.detail.iter().find(|&&(k, _)| k == key).unwrap().1;
        // Each K4 holds 4 triangles; the ring edges add no new ones.
        assert_eq!(get("triangles"), 16);
        // c3 cross-check + 3 per-component + 3 full-graph comparisons.
        assert_eq!(rep.checked, 1 + 3 + 3);
        assert!(get("bag_triples_scanned") > 0);
        assert!(rep.metrics.rounds > 0, "the walk spectrum must be charged");
    }

    #[test]
    fn counting_cell_on_multi_component_sums_parts() {
        let rep = CountingPipeline
            .run(&tiny("test/multi", Family::MultiComponent { n: 40 }))
            .unwrap();
        assert!(rep.components >= 4);
        // The final full-graph oracle comparison ran on top of the parts.
        assert!(rep.checked >= 3);
    }

    #[test]
    fn fo_cell_on_multi_component() {
        let rep = FoPipeline
            .run(&tiny("test/multi", Family::MultiComponent { n: 40 }))
            .unwrap();
        assert!(rep.components >= 4);
        assert_eq!(rep.checked, FO_SENTENCES);
        let get = |key| rep.detail.iter().find(|&&(k, _)| k == key).unwrap().1;
        assert_eq!(get("sentences"), FO_SENTENCES as u64);
        // Template 0 (∃x∃y adj) is true on any graph with an edge, and a
        // disconnected graph falsifies the ∀∃-connectivity template — the
        // corpus must exercise both verdicts.
        assert!(get("verdicts_true") >= 1);
        assert!(get("verdicts_true") < FO_SENTENCES as u64);
        assert!(get("dist_pairs") > 0);
        assert!(rep.metrics.rounds > 0, "the hop flood must be charged");
    }
}
