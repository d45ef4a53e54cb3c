//! Distributed tree decomposition (paper Theorem 1, Appendix B.2–B.3).
//!
//! All recursion-level subgraphs {G'_x | x ∈ A_ℓ} are vertex disjoint and
//! mutually non-adjacent, so one CONGEST execution processes the whole
//! level: every data movement — counting µ, leader election, spanning-tree
//! construction (RST), subtree sizing for `Split` (STA), component
//! detection (CCD), component measures (PA) and the sampled-pair vertex
//! cuts (MVC) — runs through the charged simulator primitives, batched
//! across parts in shared supersteps. Control decisions (loop advancement,
//! balance verdicts) are orchestrated centrally and charged as O(height)
//! control pulses per phase (DESIGN.md §4.4).
//!
//! ## Copy-free recursion
//!
//! The recursion state is arena-backed: each level keeps its subproblems as
//! ranges into one flat vertex arena (`LevelArena`), membership tests go
//! through a generation-stamped set ([`StampSet`]) instead of per-item
//! binary searches, and all dense per-vertex scratch (the µ measure, the
//! removed-roots mask, part labels) lives in a `SepScratch` pool that is
//! reset sparsely and reused across every level and every `t`-doubling
//! attempt. Nothing clones the graph and nothing allocates O(n) per
//! subproblem; combined with the engine's scoped supersteps the whole
//! construction costs O(work touched), not O(levels · n²).
//!
//! ## Sibling branches
//!
//! Post-separator components are vertex disjoint, so sibling subproblems
//! run concurrently in CONGEST: their flows share supersteps, and their
//! costs compose by the parallel-composition rule (see
//! `congest_sim::PhaseSnapshot::par_absorb` for the aggregation law). Their
//! *local* work (split-tree carving, component search, boundary
//! extraction) is charge-free and runs in item order, materialization over
//! one reused `SepCore`, so tree node ids and the per-item charging order
//! are deterministic.

use crate::config::SepConfig;
use crate::decomp::{DecompError, NodeInfo};
use crate::region::materialize;
use crate::sep::{SepCore, SepPath};
use crate::split::{split_to_completion, STree};
use congest_sim::{CongestError, Network};
use rand::Rng;
use subgraph_ops::ccd;
use subgraph_ops::global::{build_global_tree, GlobalTree};
use subgraph_ops::mvc::{batch_min_vertex_cut, CutInstance, CutResult};
use subgraph_ops::pa;
use subgraph_ops::{bfs::part_bfs_trees, ParentMap, Parts, TreeRoles};
use twgraph::view::StampSet;

/// Result of the distributed decomposition.
#[derive(Clone, Debug)]
pub struct DistDecompOutcome {
    /// The tree decomposition.
    pub td: twgraph::tw::TreeDecomposition,
    /// Recursion records aligned with tree node ids.
    pub info: Vec<NodeInfo>,
    /// The largest `t` used.
    pub t_used: u64,
    /// Total charged rounds for the construction (excluding the global
    /// tree build, reported separately).
    pub rounds: u64,
    /// Rounds spent building the global BFS backbone.
    pub backbone_rounds: u64,
}

/// One recursion level, stored copy-free: item vertex sets are ranges into
/// flat arenas (`G'_x` members and inherited boundaries), reused across
/// levels via [`clear`](LevelArena::clear).
#[derive(Default)]
struct LevelArena {
    /// Concatenated sorted `G'_x` member segments.
    gpx: Vec<u32>,
    /// Concatenated sorted inherited-boundary segments.
    inh: Vec<u32>,
    /// Per item: the tree parent and both segment ranges.
    items: Vec<ItemMeta>,
}

struct ItemMeta {
    parent: Option<usize>,
    gpx: (u32, u32),
    inh: (u32, u32),
}

impl LevelArena {
    fn clear(&mut self) {
        self.gpx.clear();
        self.inh.clear();
        self.items.clear();
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn push_item(&mut self, parent: Option<usize>, gpx: &[u32], inh: &[u32]) {
        let g0 = self.gpx.len() as u32;
        self.gpx.extend_from_slice(gpx);
        let i0 = self.inh.len() as u32;
        self.inh.extend_from_slice(inh);
        self.items.push(ItemMeta {
            parent,
            gpx: (g0, self.gpx.len() as u32),
            inh: (i0, self.inh.len() as u32),
        });
    }

    fn gpx_of(&self, i: usize) -> &[u32] {
        let (a, b) = self.items[i].gpx;
        &self.gpx[a as usize..b as usize]
    }

    fn inh_of(&self, i: usize) -> &[u32] {
        let (a, b) = self.items[i].inh;
        &self.inh[a as usize..b as usize]
    }
}

/// Pooled dense scratch for the batched separator attempts: every buffer is
/// allocated once per decomposition and reset *sparsely* (by walking the
/// vertices actually touched, or by an O(1) stamp-generation bump), so one
/// attempt costs O(members), not O(n).
struct SepScratch {
    /// µ measure (1 on the current call's members, 0 elsewhere).
    mu: Vec<u64>,
    /// Vertex → current item index (stamped per call).
    item_of: StampSet,
    /// Vertex → current `G_i` membership (stamped per iteration).
    cur_of: StampSet,
    /// Harvested split-tree roots R* (stamped per call).
    removed: StampSet,
    /// Dense part labels for [`Parts::from_labels`]; entries are cleared by
    /// walking the member list that set them.
    labels: Vec<Option<u32>>,
    /// Sorted union of the current call's item members.
    all_members: Vec<u32>,
}

impl SepScratch {
    fn new(n: usize) -> Self {
        SepScratch {
            mu: vec![0; n],
            item_of: StampSet::new(n),
            cur_of: StampSet::new(n),
            removed: StampSet::new(n),
            labels: vec![None; n],
            all_members: Vec::new(),
        }
    }
}

/// Outcome of one batched Sep attempt for one item.
enum ItemSep {
    Done { separator: Vec<u32>, path: SepPath },
    Failed,
}

/// Execute upflow/downflow traffic equivalent to one STA + total-share pass
/// over the given split trees (the real flows `Split` needs per round:
/// subtree sizes up, totals down).
fn charge_split_flows(
    net: &mut Network,
    trees: &[(u32, &STree)],
    mu: &[u64],
) -> Result<(), CongestError> {
    if trees.is_empty() {
        return Ok(());
    }
    let n = net.n();
    let maps: Vec<ParentMap> = trees
        .iter()
        .map(|&(pid, tr)| (pid, tr.nodes.iter().map(|&(v, p)| (v, p, false)).collect()))
        .collect();
    let roles = TreeRoles::from_parent_maps(n, maps);
    let shared = pa::aggregate_and_share(net, &roles, |v, _p| Some(mu[v as usize]), |a, b| a + b)?;
    let _ = shared;
    Ok(())
}

/// µ totals per compacted component id (distributed CCD + PA) over the
/// sorted active-vertex list, plus the per-position component assignment.
/// `is_active` must hold exactly on `active` (the caller's stamps provide
/// it, so no dense mask is built per call); `labels` is pooled dense
/// scratch (restored to all-`None` before return).
fn component_measures_on(
    net: &mut Network,
    gtree: &GlobalTree,
    active: &[u32],
    is_active: impl Fn(u32) -> bool,
    mu: &[u64],
    labels: &mut [Option<u32>],
) -> Result<(Vec<u32>, Vec<u64>), CongestError> {
    let raw = ccd::detect_on_with(net, active, is_active, |_, _| true)?;
    let (ids, count) = ccd::compact_labels_on(&raw);
    if count == 0 {
        return Ok((ids, Vec::new()));
    }
    for (pos, &v) in active.iter().enumerate() {
        labels[v as usize] = Some(ids[pos]);
    }
    let parts = Parts::from_labels(labels);
    for &v in active {
        labels[v as usize] = None;
    }
    let roles = pa::steiner_roles(gtree, &parts);
    let up = pa::aggregate(net, &roles, |v, _p| Some(mu[v as usize]), |a, b| a + b)?;
    let mut totals = vec![0u64; count];
    for (p, total) in up.roots {
        totals[p as usize] = total;
    }
    gtree.charge_control_pulse(net);
    Ok((ids, totals))
}

/// One batched Sep attempt at a fixed `t` across all `items` (each a
/// connected, mutually non-adjacent sorted vertex set). Returns per-item
/// results. Charged traffic is identical to the historical per-item
/// formulation; only the local bookkeeping is arena/stamp based.
#[allow(clippy::too_many_arguments)]
fn batched_sep_attempt(
    net: &mut Network,
    gtree: &GlobalTree,
    items: &[&[u32]],
    t: u64,
    cfg: &SepConfig,
    rng: &mut impl Rng,
    scratch: &mut SepScratch,
) -> Result<Vec<ItemSep>, CongestError> {
    let n_items = items.len();

    // Stamp membership and the µ measure; build the sorted member union.
    scratch.item_of.clear();
    scratch.removed.clear();
    scratch.all_members.clear();
    for (i, it) in items.iter().enumerate() {
        for &v in it.iter() {
            scratch.mu[v as usize] = 1;
            scratch.item_of.insert(v, i as u32);
            scratch.all_members.push(v);
        }
    }
    scratch.all_members.sort_unstable();

    // µ(G'_x) per item via PA over the item parts (real flow).
    let item_parts = {
        for (i, it) in items.iter().enumerate() {
            for &v in it.iter() {
                scratch.labels[v as usize] = Some(i as u32);
            }
        }
        let parts = Parts::from_labels(&scratch.labels);
        for &v in &scratch.all_members {
            scratch.labels[v as usize] = None;
        }
        parts
    };
    let item_roles = pa::steiner_roles(gtree, &item_parts);
    let up = pa::aggregate(
        net,
        &item_roles,
        |v, _p| Some(scratch.mu[v as usize]),
        |a, b| a + b,
    )?;
    let mut mu_g = vec![0u64; n_items];
    for (p, total) in up.roots {
        mu_g[p as usize] = total;
    }
    gtree.charge_control_pulse(net);

    let mut result: Vec<Option<ItemSep>> = (0..n_items).map(|_| None).collect();
    // Step 1 short-circuit.
    for i in 0..n_items {
        if mu_g[i] <= cfg.small_cutoff * t * t {
            result[i] = Some(ItemSep::Done {
                separator: items[i].to_vec(),
                path: SepPath::Small,
            });
        }
    }

    // Iterations: harvest split-tree roots, lockstep across items.
    let iters = cfg.iterations(t);
    let mut cur: Vec<Vec<u32>> = items.iter().map(|it| it.to_vec()).collect(); // G_i members
    let mut r_star: Vec<Vec<u32>> = vec![Vec::new(); n_items];
    let mut tis: Vec<Vec<STree>> = vec![Vec::new(); n_items]; // all split trees per item
    for _i in 1..=iters {
        let live: Vec<usize> = (0..n_items)
            .filter(|&i| result[i].is_none() && !cur[i].is_empty())
            .collect();
        if live.is_empty() {
            break;
        }
        // RST per live item's current G_i (batched). Roots: minimum member
        // (a real run elects via SLE — charge one pulse).
        let mut roots = Vec::new();
        for (slot, &i) in live.iter().enumerate() {
            for &v in &cur[i] {
                scratch.labels[v as usize] = Some(slot as u32);
            }
            roots.push((slot as u32, cur[i][0]));
        }
        let parts = Parts::from_labels(&scratch.labels);
        for &i in &live {
            for &v in &cur[i] {
                scratch.labels[v as usize] = None;
            }
        }
        gtree.charge_control_pulse(net);
        let trees = part_bfs_trees(net, &parts, &roots)?;

        // Split (centralized control over node-reported structure, with the
        // STA/total flows charged per split round — DESIGN.md §4.4), item
        // by item in slot order.
        let split_rounds = (t.max(2)).ilog2() as usize + 2;
        for (slot, &i) in live.iter().enumerate() {
            let stree = stree_from_roles(&trees, slot as u32, cur[i][0]);
            for _ in 0..split_rounds {
                charge_split_flows(net, &[(slot as u32, &stree)], &scratch.mu)?;
            }
            let ti = split_to_completion(stree, &scratch.mu, mu_g[i], t, cfg);
            let mut ri: Vec<u32> = ti.iter().map(|tr| tr.root).collect();
            ri.sort_unstable();
            ri.dedup();
            for &r in &ri {
                if !scratch.removed.contains(r) {
                    scratch.removed.insert(r, 0);
                    r_star[i].push(r);
                }
            }
            tis[i].extend(ti);
        }

        // Balance check of R* per item + next G_{i+1} via CCD/PA. The
        // active set covers every member not yet harvested (including
        // already-finished items — their components keep flooding, which
        // is what the charged schedule has always been).
        let active: Vec<u32> = scratch
            .all_members
            .iter()
            .copied()
            .filter(|&v| !scratch.removed.contains(v))
            .collect();
        let item_of = &scratch.item_of;
        let removed = &scratch.removed;
        let (ids, totals) = component_measures_on(
            net,
            gtree,
            &active,
            |v| item_of.contains(v) && !removed.contains(v),
            &scratch.mu,
            &mut scratch.labels,
        )?;
        // Assign components to items (components lie inside one item):
        // first active vertex of a component determines it.
        let mut comp_item: Vec<Option<usize>> = vec![None; totals.len()];
        for (pos, &v) in active.iter().enumerate() {
            let c = ids[pos] as usize;
            if comp_item[c].is_none() {
                comp_item[c] =
                    Some(scratch.item_of.tag(v).expect("active vertex in no item") as usize);
            }
        }
        // Stamp the live items' current G_i membership for O(1) lookups.
        scratch.cur_of.clear();
        for &i in &live {
            for &v in &cur[i] {
                scratch.cur_of.insert(v, i as u32);
            }
        }
        for &i in &live {
            let largest = comp_item
                .iter()
                .enumerate()
                .filter(|&(_, &it)| it == Some(i))
                .map(|(c, _)| totals[c])
                .max()
                .unwrap_or(0);
            if cfg.is_balanced(largest, mu_g[i]) {
                let mut sep = r_star[i].clone();
                sep.sort_unstable();
                result[i] = Some(ItemSep::Done {
                    separator: sep,
                    path: SepPath::Roots(_i),
                });
            } else {
                // G_{i+1} = heaviest component of G_i − R_i within item i.
                let best_comp = comp_item
                    .iter()
                    .enumerate()
                    .filter(|&(_, &it)| it == Some(i))
                    .max_by_key(|&(c, _)| (totals[c], usize::MAX - c))
                    .map(|(c, _)| c as u32);
                cur[i] = match best_comp {
                    Some(c) => active
                        .iter()
                        .enumerate()
                        .filter(|&(pos, &v)| {
                            ids[pos] == c && scratch.cur_of.tag(v) == Some(i as u32)
                        })
                        .map(|(_, &v)| v)
                        .collect(),
                    None => Vec::new(),
                };
                if cur[i].is_empty() {
                    let mut sep = r_star[i].clone();
                    sep.sort_unstable();
                    result[i] = Some(ItemSep::Done {
                        separator: sep,
                        path: SepPath::Roots(_i),
                    });
                }
            }
        }
    }

    // Step 4: sampled-pair vertex cuts for the still-open items.
    for _trial in 0..cfg.trials.max(1) {
        let open: Vec<usize> = (0..n_items).filter(|&i| result[i].is_none()).collect();
        if open.is_empty() {
            break;
        }
        let mut instances = Vec::new();
        let mut owner = Vec::new();
        for &i in &open {
            let ti = &tis[i];
            if ti.len() < 2 {
                continue;
            }
            for _ in 0..cfg.sampled_pairs * cfg.iterations(t) as usize {
                let a = rng.gen_range(0..ti.len());
                let b = rng.gen_range(0..ti.len());
                if a == b {
                    continue;
                }
                instances.push(CutInstance {
                    members: Some(items[i].to_vec()),
                    sources: ti[a].sorted_members(),
                    sinks: ti[b].sorted_members(),
                });
                owner.push(i);
            }
        }
        let cuts = batch_min_vertex_cut(net, &instances, t as usize)?;
        let mut z: Vec<Vec<u32>> = vec![Vec::new(); n_items];
        for (k, cut) in cuts.into_iter().enumerate() {
            if let CutResult::Cut(c) = cut {
                z[owner[k]].extend(c);
            }
        }
        // Balance check for Z (and union fallback) via CCD/PA.
        for &i in &open {
            z[i].sort_unstable();
            z[i].dedup();
            let item_of = &scratch.item_of;
            let check = |sep: &Vec<u32>,
                         net: &mut Network,
                         labels: &mut Vec<Option<u32>>|
             -> Result<bool, CongestError> {
                let active: Vec<u32> = items[i]
                    .iter()
                    .copied()
                    .filter(|v| sep.binary_search(v).is_err())
                    .collect();
                let (_, totals) = component_measures_on(
                    net,
                    gtree,
                    &active,
                    |v| item_of.tag(v) == Some(i as u32) && sep.binary_search(&v).is_err(),
                    &scratch.mu,
                    labels,
                )?;
                let largest = totals.iter().copied().max().unwrap_or(0);
                Ok(cfg.is_balanced(largest, mu_g[i]))
            };
            if check(&z[i], net, &mut scratch.labels)? {
                result[i] = Some(ItemSep::Done {
                    separator: z[i].clone(),
                    path: SepPath::Cuts,
                });
            } else if cfg.union_fallback {
                let mut u: Vec<u32> = z[i].iter().chain(r_star[i].iter()).copied().collect();
                u.sort_unstable();
                u.dedup();
                if check(&u, net, &mut scratch.labels)? {
                    result[i] = Some(ItemSep::Done {
                        separator: u,
                        path: SepPath::Union,
                    });
                }
            }
        }
    }

    // Restore the pooled µ for the next call (sparse reset).
    for &v in &scratch.all_members {
        scratch.mu[v as usize] = 0;
    }
    Ok(result
        .into_iter()
        .map(|r| r.unwrap_or(ItemSep::Failed))
        .collect())
}

/// Extract the STree of part `pid` rooted at `root` from RST output.
fn stree_from_roles(trees: &TreeRoles, pid: u32, root: u32) -> STree {
    let mut nodes = Vec::new();
    for &v in &trees.nodes {
        for r in &trees.roles[v as usize] {
            if r.part == pid {
                nodes.push((v, r.parent));
            }
        }
    }
    STree { root, nodes }
}

/// Distributed tree decomposition of the network's communication graph
/// (paper Theorem 1). Rounds are accumulated in the network's metrics and
/// reported in the outcome.
pub fn decompose_distributed(
    net: &mut Network,
    t0: u64,
    cfg: &SepConfig,
    rng: &mut impl Rng,
) -> Result<DistDecompOutcome, DecompError> {
    let n = net.n();
    if n == 0 {
        return Err(DecompError::EmptyGraph);
    }
    let g = net.graph_handle();
    if !twgraph::alg::is_connected(&g) {
        return Err(DecompError::Disconnected);
    }
    let before_backbone = net.metrics().rounds;
    let gtree = build_global_tree(net)?;
    let backbone_rounds = net.metrics().rounds - before_backbone;
    let start_rounds = net.metrics().rounds;

    let mut td = twgraph::tw::TreeDecomposition::default();
    let mut info: Vec<NodeInfo> = Vec::new();
    let mut t = t0.max(2);
    let mut scratch = SepScratch::new(n);
    let mut core = SepCore::new(n);
    let mut level = LevelArena::default();
    let mut next_level = LevelArena::default();
    level.push_item(None, &(0..n as u32).collect::<Vec<u32>>(), &[]);

    while !level.is_empty() {
        // Batched Sep over this level's items, with shared t-doubling.
        let n_items = level.len();
        let mut seps: Vec<Option<(Vec<u32>, SepPath)>> = (0..n_items).map(|_| None).collect();
        loop {
            let open: Vec<usize> = (0..n_items).filter(|&i| seps[i].is_none()).collect();
            if open.is_empty() {
                break;
            }
            let open_items: Vec<&[u32]> = open.iter().map(|&i| level.gpx_of(i)).collect();
            let results = batched_sep_attempt(net, &gtree, &open_items, t, cfg, rng, &mut scratch)?;
            let mut any_fail = false;
            for (slot, res) in results.into_iter().enumerate() {
                match res {
                    ItemSep::Done { separator, path } => {
                        seps[open[slot]] = Some((separator, path));
                    }
                    ItemSep::Failed => any_fail = true,
                }
            }
            if any_fail {
                t *= 2;
                assert!(t <= 4 * n as u64 + 16, "t doubling ran away");
            }
        }
        let seps: Vec<(Vec<u32>, SepPath)> = seps.into_iter().map(Option::unwrap).collect();

        // Materialize tree nodes and the next level in item order, keeping
        // tree node ids deterministic.
        next_level.clear();
        for (i, (sep, _path)) in seps.into_iter().enumerate() {
            let m = materialize(&g, &mut core, level.gpx_of(i), level.inh_of(i), &sep);
            let parent = level.items[i].parent;
            if m.is_leaf {
                td.push_bag(parent, m.bag);
                info.push(NodeInfo {
                    gpx: level.gpx_of(i).to_vec(),
                    inherited: level.inh_of(i).to_vec(),
                    sep,
                    is_leaf: true,
                });
                continue;
            }
            let x = td.push_bag(parent, m.bag);
            // `td` and `info` grow in lockstep: every `push_bag` here is
            // followed by exactly one `info.push`, so node x's info is next.
            assert_eq!(x, info.len(), "tree node ids out of step with info");
            for (comp, child_inherited) in &m.children {
                next_level.push_item(Some(x), comp, child_inherited);
            }
            info.push(NodeInfo {
                gpx: level.gpx_of(i).to_vec(),
                inherited: level.inh_of(i).to_vec(),
                sep,
                is_leaf: false,
            });
        }
        std::mem::swap(&mut level, &mut next_level);
    }

    let rounds = net.metrics().rounds - start_rounds;
    net.snapshot("treedec/decompose");
    Ok(DistDecompOutcome {
        td,
        info,
        t_used: t,
        rounds,
        backbone_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{Network, NetworkConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use twgraph::gen::{banded_path, cycle, ktree, random_tree};

    fn run(g: &twgraph::UGraph, t0: u64, seed: u64) -> (DistDecompOutcome, Network) {
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let cfg = SepConfig::practical(g.n());
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = decompose_distributed(&mut net, t0, &cfg, &mut rng)
            .expect("distributed decomposition failed");
        out.td
            .verify(g)
            .unwrap_or_else(|e| panic!("invalid distributed decomposition: {e}"));
        (out, net)
    }

    #[test]
    fn banded_path_distributed() {
        let g = banded_path(200, 2);
        let (out, _net) = run(&g, 3, 1);
        assert!(out.td.stats().width < 100);
        assert!(out.rounds > 0);
    }

    #[test]
    fn ktree_distributed() {
        let g = ktree(150, 3, 4);
        let (out, _net) = run(&g, 4, 2);
        assert!(out.td.stats().width < 120);
    }

    #[test]
    fn tree_distributed() {
        let g = random_tree(150, 6);
        let (out, _) = run(&g, 2, 3);
        assert!(out.td.stats().width < 60);
    }

    #[test]
    fn small_cycle_single_bag() {
        let g = cycle(10);
        let (out, _) = run(&g, 3, 4);
        assert_eq!(out.td.bags.len(), 1);
    }

    #[test]
    fn empty_graph_is_typed_error() {
        let g = twgraph::UGraph::empty(0);
        let mut net = Network::new(g, NetworkConfig::default());
        let cfg = SepConfig::practical(1);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(
            decompose_distributed(&mut net, 2, &cfg, &mut rng).unwrap_err(),
            DecompError::EmptyGraph
        );
    }

    #[test]
    fn disconnected_graph_is_typed_error() {
        let g = twgraph::UGraph::empty(2); // two isolated vertices
        let mut net = Network::new(g, NetworkConfig::default());
        let cfg = SepConfig::practical(2);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(
            decompose_distributed(&mut net, 2, &cfg, &mut rng).unwrap_err(),
            DecompError::Disconnected
        );
    }

    #[test]
    fn rounds_scale_with_diameter() {
        // Same treewidth, double the diameter → rounds grow, but far less
        // than linearly in n² (sanity of the cost accounting).
        let g1 = banded_path(128, 2);
        let g2 = banded_path(256, 2);
        let (o1, _) = run(&g1, 3, 5);
        let (o2, _) = run(&g2, 3, 5);
        assert!(o2.rounds > o1.rounds);
        assert!(
            o2.rounds < o1.rounds * 16,
            "rounds exploded: {} -> {}",
            o1.rounds,
            o2.rounds
        );
    }
}
