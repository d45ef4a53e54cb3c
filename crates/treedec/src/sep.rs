//! `Sep` — the balanced-separator algorithm (paper §3.3), centralized
//! reference implementation. The distributed implementation in
//! [`crate::dist`] executes the same logic through charged primitives.

use crate::config::SepConfig;
use crate::split::{split_to_completion, STree};
use rand::Rng;
use std::collections::VecDeque;
use twgraph::alg::{min_vertex_cut, MincutError};
use twgraph::view::{StampSet, SubgraphView};
use twgraph::UGraph;

/// Which of the algorithm's output paths produced the separator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SepPath {
    /// Step 1: µ(G) ≤ `small_cutoff`·t² — X itself is output.
    Small,
    /// Step 3: the harvested split-tree roots R* became balanced after the
    /// recorded iteration.
    Roots(u64),
    /// Step 4: the sampled-pair cut set Z.
    Cuts,
    /// Practical fallback: R* ∪ Z (only with `union_fallback`).
    Union,
}

/// A successful `Sep` run.
#[derive(Clone, Debug)]
pub struct SepOutcome {
    /// The separator vertices (sorted).
    pub separator: Vec<u32>,
    /// The `t` value that succeeded.
    pub t_used: u64,
    /// Which output path fired.
    pub path: SepPath,
}

/// The one centralized `Sep` core: dense per-vertex sets allocated once
/// per decomposition, generation-stamped and cleared in O(1), so one
/// `Sep` call costs time proportional to its members and their edges, not
/// to n (the `SepScratch` idiom of [`crate::dist`]).
pub(crate) struct SepCore {
    /// V(G) of the current call.
    member: StampSet,
    /// Vertices cut out of a component search: R*, or a tested separator.
    removed: StampSet,
    /// Search marks of the spanning-tree and component floods.
    seen: StampSet,
    queue: VecDeque<u32>,
}

impl SepCore {
    pub(crate) fn new(n: usize) -> Self {
        SepCore {
            member: StampSet::new(n),
            removed: StampSet::new(n),
            seen: StampSet::new(n),
            queue: VecDeque::new(),
        }
    }

    /// [`sep_doubling`] on `g[members]`, `members` strictly ascending.
    pub(crate) fn sep_doubling(
        &mut self,
        g: &UGraph,
        members: &[u32],
        mu: &[u64],
        t0: u64,
        cfg: &SepConfig,
        rng: &mut impl Rng,
    ) -> Result<SepOutcome, MincutError> {
        let mut t = t0.max(2);
        loop {
            if let Some(out) = self.attempt(g, members, mu, t, cfg, rng)? {
                return Ok(out);
            }
            t *= 2;
            assert!(
                t <= 4 * g.n() as u64 + 16,
                "Sep doubling ran away — this cannot happen (step 1 must fire)"
            );
        }
    }

    /// [`sep_centralized`] on `g[members]`, `members` strictly ascending.
    fn attempt(
        &mut self,
        g: &UGraph,
        members: &[u32],
        mu: &[u64],
        t: u64,
        cfg: &SepConfig,
        rng: &mut impl Rng,
    ) -> Result<Option<SepOutcome>, MincutError> {
        let mu_g: u64 = members.iter().map(|&v| mu[v as usize]).sum();

        // Step 1.
        if mu_g <= cfg.small_cutoff * t * t {
            let separator: Vec<u32> = members
                .iter()
                .copied()
                .filter(|&v| mu[v as usize] > 0)
                .collect();
            return Ok(Some(SepOutcome {
                separator,
                t_used: t,
                path: SepPath::Small,
            }));
        }

        // Steps 2–3: harvest split-tree roots over shrinking G_i. Each G_i
        // is a component of G − R*, so every search below floods
        // `member − removed` and stays inside the G_i it starts in.
        load(&mut self.member, members);
        load(&mut self.removed, &[]); // R*
        let mut cur: Vec<u32> = members.to_vec(); // V(G_i), ascending
        let mut r_star: Vec<u32> = Vec::new();
        let mut tis: Vec<Vec<STree>> = Vec::new();
        let iters = cfg.iterations(t);
        let mut roots_balanced_at = None;
        for i in 1..=iters {
            let t_star = self.spanning_tree(g, &cur, rng);
            let ti = split_to_completion(t_star, mu, mu_g, t, cfg);
            let mut ri: Vec<u32> = ti.iter().map(|tr| tr.root).collect();
            ri.sort_unstable();
            ri.dedup();
            for &r in &ri {
                if !self.removed.contains(r) {
                    self.removed.insert(r, 0);
                    r_star.push(r);
                }
            }
            tis.push(ti);
            // Balance check of R* against the whole input subgraph.
            let (largest, _) = self.heaviest(g, members, mu);
            if cfg.is_balanced(largest, mu_g) {
                roots_balanced_at = Some(i);
                break;
            }
            if i < iters {
                // G_{i+1} = heaviest component of G_i − R_i.
                cur = self.heaviest(g, &cur, mu).1;
                cur.sort_unstable();
                if cur.is_empty() {
                    // Everything got removed — R* is trivially balanced.
                    roots_balanced_at = Some(i);
                    break;
                }
            }
        }
        if let Some(i) = roots_balanced_at {
            r_star.sort_unstable();
            return Ok(Some(SepOutcome {
                separator: r_star,
                t_used: t,
                path: SepPath::Roots(i),
            }));
        }

        // Step 4: sampled-pair vertex cuts.
        for _trial in 0..cfg.trials.max(1) {
            let mut z: Vec<u32> = Vec::new();
            for ti in &tis {
                if ti.len() < 2 {
                    continue;
                }
                for _ in 0..cfg.sampled_pairs {
                    let a = rng.gen_range(0..ti.len());
                    let b = rng.gen_range(0..ti.len());
                    if a == b {
                        continue;
                    }
                    let xs = ti[a].sorted_members();
                    let ys = ti[b].sorted_members();
                    if let Some(cut) = min_vertex_cut(g, Some(members), &xs, &ys, t as usize)? {
                        z.extend(cut);
                    }
                }
            }
            z.sort_unstable();
            z.dedup();
            if self.balanced_without(g, members, &z, mu, mu_g, cfg) {
                return Ok(Some(SepOutcome {
                    separator: z,
                    t_used: t,
                    path: SepPath::Cuts,
                }));
            }
            if cfg.union_fallback {
                let mut u: Vec<u32> = z.iter().chain(r_star.iter()).copied().collect();
                u.sort_unstable();
                u.dedup();
                if self.balanced_without(g, members, &u, mu, mu_g, cfg) {
                    return Ok(Some(SepOutcome {
                        separator: u,
                        t_used: t,
                        path: SepPath::Union,
                    }));
                }
            }
        }
        Ok(None)
    }

    /// BFS spanning tree of `g[cur]` (a component of `member − removed`)
    /// rooted at its smallest vertex, with randomized neighbour order.
    fn spanning_tree(&mut self, g: &UGraph, cur: &[u32], rng: &mut impl Rng) -> STree {
        let root = cur[0];
        self.seen.clear();
        self.seen.insert(root, 0);
        // `nodes` doubles as the BFS queue.
        let mut nodes = vec![(root, root)];
        let mut head = 0;
        let mut scratch: Vec<u32> = Vec::new();
        while let Some(&(u, _)) = nodes.get(head) {
            head += 1;
            scratch.clear();
            scratch.extend(
                g.neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&v| self.open(v) && !self.seen.contains(v)),
            );
            // Randomized order, matching the arbitrary tie-breaks a
            // distributed execution would produce.
            for i in (1..scratch.len()).rev() {
                scratch.swap(i, rng.gen_range(0..=i));
            }
            for &v in &scratch {
                if !self.seen.contains(v) {
                    self.seen.insert(v, 0);
                    nodes.push((v, u));
                }
            }
        }
        STree { root, nodes }
    }

    /// Is `v` in `member − removed`?
    fn open(&self, v: u32) -> bool {
        self.member.contains(v) && !self.removed.contains(v)
    }

    /// µ-measure and vertices of the heaviest component of
    /// `g[member − removed]` among those meeting `list` (ascending, a union
    /// of such components plus removed vertices). Ties go to the component
    /// found first.
    fn heaviest(&mut self, g: &UGraph, list: &[u32], mu: &[u64]) -> (u64, Vec<u32>) {
        self.seen.clear();
        let mut best: (u64, Vec<u32>) = (0, Vec::new());
        let mut comp = Vec::new();
        for &s in list {
            if self.seen.contains(s) || self.removed.contains(s) {
                continue;
            }
            comp.clear();
            self.flood(g, s, |v| comp.push(v));
            let total = comp.iter().map(|&v| mu[v as usize]).sum();
            if total > best.0 || best.1.is_empty() {
                best = (total, std::mem::take(&mut comp));
            }
        }
        best
    }

    /// Visit (and mark seen) every vertex of the component of `s` in
    /// `g[member − removed]`.
    fn flood(&mut self, g: &UGraph, s: u32, mut visit: impl FnMut(u32)) {
        self.seen.insert(s, 0);
        visit(s);
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            for &v in g.neighbors(u) {
                if !self.seen.contains(v) && self.open(v) {
                    self.seen.insert(v, 0);
                    visit(v);
                    self.queue.push_back(v);
                }
            }
        }
    }

    /// Is `sep` an (X, α)-balanced separator of `g[members]` (stamped in
    /// `self.member`) w.r.t. `mu` summing to `mu_g`?
    fn balanced_without(
        &mut self,
        g: &UGraph,
        members: &[u32],
        sep: &[u32],
        mu: &[u64],
        mu_g: u64,
        cfg: &SepConfig,
    ) -> bool {
        load(&mut self.removed, sep);
        let (largest, _) = self.heaviest(g, members, mu);
        cfg.is_balanced(largest, mu_g)
    }

    /// The connected components of `g[verts]` (`verts` ascending; the
    /// components in order of their smallest vertex, each ascending), each
    /// paired with the ascending list of `bound` vertices adjacent to it —
    /// the recursion's child subproblems. `bound` must be disjoint from
    /// `verts`. Costs O(|verts| + their edges + |bound|).
    pub(crate) fn components(
        &mut self,
        g: &UGraph,
        verts: &[u32],
        bound: &[u32],
    ) -> Vec<(Vec<u32>, Vec<u32>)> {
        load(&mut self.member, verts);
        load(&mut self.removed, bound);
        let mut comps = Vec::new();
        SubgraphView::new(g, verts, &self.member).components_into(
            &mut self.seen,
            &mut self.queue,
            &mut comps,
        );
        comps
            .into_iter()
            .map(|comp| {
                let mut adjacent: Vec<u32> = comp
                    .iter()
                    .flat_map(|&v| g.neighbors(v))
                    .copied()
                    .filter(|&b| self.removed.contains(b))
                    .collect();
                adjacent.sort_unstable();
                adjacent.dedup();
                (comp, adjacent)
            })
            .collect()
    }
}

/// Make `set` hold exactly `vs`.
fn load(set: &mut StampSet, vs: &[u32]) {
    set.clear();
    for &v in vs {
        set.insert(v, 0);
    }
}

/// The vertices `members` selects, ascending.
fn member_list(g: &UGraph, members: &[bool]) -> Vec<u32> {
    (0..g.n() as u32).filter(|&v| members[v as usize]).collect()
}

/// One attempt of `Sep` at a fixed `t` (steps 1–4). `members` selects the
/// (connected) subgraph to separate; `mu` is the µ_X measure over *global*
/// vertex ids (zero outside `members`). Returns `Ok(None)` when all step-4
/// trials fail — the caller doubles `t`. `Err` propagates a broken
/// [`min_vertex_cut`] invariant from step 4 (never a balance failure).
pub fn sep_centralized(
    g: &UGraph,
    members: &[bool],
    mu: &[u64],
    t: u64,
    cfg: &SepConfig,
    rng: &mut impl Rng,
) -> Result<Option<SepOutcome>, MincutError> {
    SepCore::new(g.n()).attempt(g, &member_list(g, members), mu, t, cfg, rng)
}

/// `Sep` with the standard doubling estimation of `t` (paper §3.2): try
/// `t = t0, 2t0, …` until success. Always terminates: at `t` with
/// µ(G) ≤ `small_cutoff`·t², step 1 fires. `Err` propagates a broken
/// [`min_vertex_cut`] invariant from step 4.
pub fn sep_doubling(
    g: &UGraph,
    members: &[bool],
    mu: &[u64],
    t0: u64,
    cfg: &SepConfig,
    rng: &mut impl Rng,
) -> Result<SepOutcome, MincutError> {
    SepCore::new(g.n()).sep_doubling(g, &member_list(g, members), mu, t0, cfg, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use twgraph::gen::{banded_path, grid, ktree, random_tree};

    fn uniform_mu(n: usize) -> Vec<u64> {
        vec![1; n]
    }

    /// Is `sep` an (X, α)-balanced separator of `g[members]`?
    fn is_balanced_separator(
        g: &UGraph,
        members: &[bool],
        sep: &[u32],
        mu: &[u64],
        mu_g: u64,
        cfg: &SepConfig,
    ) -> bool {
        let list = member_list(g, members);
        let mut s = SepCore::new(g.n());
        for &v in &list {
            s.member.insert(v, 0);
        }
        s.balanced_without(g, &list, sep, mu, mu_g, cfg)
    }

    fn run(g: &UGraph, t0: u64, cfg: &SepConfig, seed: u64) -> SepOutcome {
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        let members = vec![true; n];
        let out = sep_doubling(g, &members, &uniform_mu(n), t0, cfg, &mut rng).unwrap();
        // The outcome must really be balanced (or the Small path).
        let mu = uniform_mu(n);
        if out.path != SepPath::Small {
            assert!(
                is_balanced_separator(g, &members, &out.separator, &mu, n as u64, cfg),
                "unbalanced separator via {:?}",
                out.path
            );
        }
        assert!(
            out.separator.len() as u64 <= cfg.size_bound(out.t_used),
            "separator size {} exceeds bound {} (t={})",
            out.separator.len(),
            cfg.size_bound(out.t_used),
            out.t_used
        );
        out
    }

    #[test]
    fn small_graph_short_circuits() {
        let g = banded_path(12, 2);
        let cfg = SepConfig::practical(12);
        let out = run(&g, 3, &cfg, 1);
        assert_eq!(out.path, SepPath::Small);
        assert_eq!(out.separator.len(), 12);
    }

    #[test]
    fn banded_path_separates() {
        let g = banded_path(600, 2);
        let cfg = SepConfig::practical(600);
        let out = run(&g, 3, &cfg, 7);
        assert_ne!(out.path, SepPath::Small);
        // t = 3 ≥ τ+1 = 3 should succeed without doubling far.
        assert!(out.t_used <= 12, "t escalated to {}", out.t_used);
    }

    #[test]
    fn ktree_separates_at_tau_plus_one() {
        let g = ktree(400, 3, 5);
        let cfg = SepConfig::practical(400);
        let out = run(&g, 4, &cfg, 3);
        assert!(out.separator.len() <= cfg.size_bound(out.t_used) as usize);
    }

    #[test]
    fn tree_needs_tiny_separator() {
        let g = random_tree(500, 11);
        let cfg = SepConfig::practical(500);
        let out = run(&g, 2, &cfg, 9);
        // Trees (τ=1) are easy; the separator should stay far below n.
        assert!(
            out.separator.len() < 150,
            "separator of a tree too big: {}",
            out.separator.len()
        );
    }

    #[test]
    fn grid_balanced() {
        let g = grid(12, 12);
        let cfg = SepConfig::practical(144);
        let _ = run(&g, 13, &cfg, 2);
    }

    #[test]
    fn weighted_measure_respected() {
        // µ concentrated on the last 100 vertices of a long banded path:
        // balance must be with respect to µ, so the separator has to split
        // the heavy region, not just the middle of the path.
        let g = banded_path(400, 2);
        let n = g.n();
        let mut mu = vec![0u64; n];
        for m in mu.iter_mut().take(400).skip(300) {
            *m = 1;
        }
        let cfg = SepConfig::practical(n);
        let mut rng = SmallRng::seed_from_u64(4);
        let members = vec![true; n];
        let out = sep_doubling(&g, &members, &mu, 3, &cfg, &mut rng).unwrap();
        if out.path != SepPath::Small {
            assert!(is_balanced_separator(
                &g,
                &members,
                &out.separator,
                &mu,
                100,
                &cfg
            ));
            // Balance w.r.t. µ forces at least one separator vertex into
            // (or adjacent to) the heavy tail region.
            assert!(
                out.separator.iter().any(|&v| v >= 295),
                "separator {:?} ignores the heavy region",
                out.separator
            );
        }
    }

    #[test]
    fn paper_constants_on_tiny_graph() {
        // With the paper's constants, any sub-800-vertex graph exits at
        // step 1 for t = 2 — fidelity check of the verbatim constant set.
        let g = banded_path(300, 2);
        let cfg = SepConfig::paper(300);
        let mut rng = SmallRng::seed_from_u64(0);
        let out = sep_centralized(&g, &vec![true; 300], &uniform_mu(300), 2, &cfg, &mut rng)
            .expect("mincut invariant")
            .expect("step 1 must fire");
        assert_eq!(out.path, SepPath::Small);
    }

    #[test]
    fn subgraph_members_respected() {
        // Separate only the left half of a banded path.
        let g = banded_path(400, 2);
        let members: Vec<bool> = (0..400).map(|v| v < 200).collect();
        let mu: Vec<u64> = (0..400).map(|v| u64::from(v < 200)).collect();
        let cfg = SepConfig::practical(200);
        let mut rng = SmallRng::seed_from_u64(12);
        let out = sep_doubling(&g, &members, &mu, 3, &cfg, &mut rng).unwrap();
        for &v in &out.separator {
            assert!(v < 200, "separator vertex {v} outside the subgraph");
        }
    }
}
