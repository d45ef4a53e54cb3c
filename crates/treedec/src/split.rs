//! The `Split` procedure (paper §3.3 step 2, Fig. 1): carve a rooted tree
//! into split trees of µ-size within [µ(G)/(12t), µ(G)/(4t)], vertex
//! disjoint except for shared roots.
//!
//! Each [`split_tree`] call builds one dense index of its tree
//! (`TreeIndex`): positions found by sorting (vertex, position) pairs,
//! parent positions, and a children CSR sorted by vertex id. The centroid
//! search, the re-root, the subtree sizes and every subtree extraction run
//! on it, so a call costs O(k log k) for a k-vertex tree.

use crate::config::SepConfig;

/// A rooted tree over global vertex ids, stored as (member, parent) pairs
/// (`parent == member` marks the root). Trees produced by `Split` may share
/// their root vertex with siblings — exactly the paper's invariant.
#[derive(Clone, Debug)]
pub struct STree {
    /// The root vertex.
    pub root: u32,
    /// Members with parent pointers; contains the root.
    pub nodes: Vec<(u32, u32)>,
}

impl STree {
    /// Number of member vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no vertices (never produced by `Split`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Member vertices, ascending.
    pub fn sorted_members(&self) -> Vec<u32> {
        let mut vs: Vec<u32> = self.nodes.iter().map(|&(v, _)| v).collect();
        vs.sort_unstable();
        vs
    }

    /// Total µ-measure of the members.
    pub fn mu(&self, mu: &[u64]) -> u64 {
        self.nodes.iter().map(|&(v, _)| mu[v as usize]).sum()
    }

    /// µ-centroid: every component of `T − c` has µ ≤ µ(T)/2. Deterministic
    /// tie-break by vertex id.
    pub fn centroid(&self, mu: &[u64]) -> u32 {
        let idx = TreeIndex::new(self);
        let c = idx.centroid(&idx.subtree_sizes(mu));
        idx.vertex(c)
    }
}

/// Dense index of one [`STree`] under some rooting. Positions are indices
/// into the tree's `nodes`.
struct TreeIndex {
    /// `(vertex, position)`, ascending by vertex: the vertex → position map.
    by_vertex: Vec<(u32, u32)>,
    /// Vertex at each position.
    vertex: Vec<u32>,
    /// Parent position per position (the root is its own parent).
    parent: Vec<u32>,
    /// Root position.
    root: u32,
    /// Children CSR: the children of position `i` are
    /// `child[child_start[i]..child_start[i + 1]]`, ascending by vertex id.
    child_start: Vec<u32>,
    child: Vec<u32>,
}

impl TreeIndex {
    fn new(tree: &STree) -> Self {
        let mut by_vertex: Vec<(u32, u32)> = tree
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &(v, _))| (v, i as u32))
            .collect();
        by_vertex.sort_unstable();
        let mut idx = TreeIndex {
            by_vertex,
            vertex: tree.nodes.iter().map(|&(v, _)| v).collect(),
            parent: Vec::new(),
            root: 0,
            child_start: Vec::new(),
            child: Vec::new(),
        };
        idx.parent = tree.nodes.iter().map(|&(_, p)| idx.pos(p)).collect();
        idx.root = idx.pos(tree.root);
        idx.build_children();
        idx
    }

    fn vertex(&self, i: u32) -> u32 {
        self.vertex[i as usize]
    }

    /// Position of member vertex `v`.
    fn pos(&self, v: u32) -> u32 {
        let k = self
            .by_vertex
            .binary_search_by_key(&v, |&(u, _)| u)
            .expect("vertex is a tree member");
        self.by_vertex[k].1
    }

    fn children(&self, i: u32) -> &[u32] {
        let (a, b) = (
            self.child_start[i as usize],
            self.child_start[i as usize + 1],
        );
        &self.child[a as usize..b as usize]
    }

    /// Counting-sort the children lists from `parent`; walking positions in
    /// vertex order leaves every list ascending by vertex id.
    fn build_children(&mut self) {
        let k = self.vertex.len();
        let mut start = vec![0u32; k + 1];
        for (i, &p) in self.parent.iter().enumerate() {
            if p as usize != i {
                start[p as usize + 1] += 1;
            }
        }
        for i in 0..k {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut child = vec![0u32; start[k] as usize];
        for &(_, i) in &self.by_vertex {
            let p = self.parent[i as usize];
            if p != i {
                child[fill[p as usize] as usize] = i;
                fill[p as usize] += 1;
            }
        }
        self.child_start = start;
        self.child = child;
    }

    /// Make position `c` the root by reversing the parent pointers on its
    /// path to the old root.
    fn reroot(&mut self, c: u32) {
        let (mut prev, mut cur) = (c, c);
        loop {
            let next = std::mem::replace(&mut self.parent[cur as usize], prev);
            if next == cur {
                break;
            }
            (prev, cur) = (cur, next);
        }
        self.root = c;
        self.build_children();
    }

    /// µ-size of every position's subtree under the current rooting.
    fn subtree_sizes(&self, mu: &[u64]) -> Vec<u64> {
        let mut order = Vec::with_capacity(self.vertex.len());
        order.push(self.root);
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            order.extend_from_slice(self.children(u));
        }
        let mut sizes: Vec<u64> = self.vertex.iter().map(|&v| mu[v as usize]).collect();
        for &u in order.iter().rev() {
            let p = self.parent[u as usize];
            if p != u {
                sizes[p as usize] += sizes[u as usize];
            }
        }
        sizes
    }

    /// The smallest-id position whose removal leaves components of µ at
    /// most half the total (`sizes` from [`subtree_sizes`](Self::subtree_sizes)).
    fn centroid(&self, sizes: &[u64]) -> u32 {
        let total = sizes[self.root as usize];
        self.by_vertex
            .iter()
            .map(|&(_, i)| i)
            .find(|&i| {
                let below = self.children(i).iter().map(|&c| sizes[c as usize]);
                let worst = below.fold(total - sizes[i as usize], u64::max);
                2 * worst <= total
            })
            .expect("nonempty tree has a centroid")
    }

    /// Append the subtree of position `v` to `out`, its root attached to
    /// `attach` (pass the root's own vertex to keep it a root).
    fn push_subtree(&self, v: u32, attach: u32, out: &mut Vec<(u32, u32)>) {
        out.push((self.vertex(v), attach));
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            for &c in self.children(u) {
                out.push((self.vertex(c), self.vertex(u)));
                stack.push(c);
            }
        }
    }
}

/// Output of one `Split` invocation on one tree.
#[derive(Clone, Debug, Default)]
pub struct SplitOutcome {
    /// Split trees within the target window → the paper's T_i.
    pub finished: Vec<STree>,
    /// Still-too-big trees → back into T for further splitting.
    pub requeue: Vec<STree>,
}

/// Is `x ≥ µ(G)/(lo·t)` (exact rational comparison)?
#[inline]
fn ge_lo(x: u64, mu_g: u64, t: u64, cfg: &SepConfig) -> bool {
    x * cfg.split_lo * t >= mu_g
}

/// Is `x > µ(G)/(hi·t)`?
#[inline]
fn gt_hi(x: u64, mu_g: u64, t: u64, cfg: &SepConfig) -> bool {
    x * cfg.split_hi * t > mu_g
}

/// One `Split` invocation (paper §3.3 step 2): center, carve heavy child
/// subtrees, then either merge a light remainder or group light children
/// into sibling trees sharing the center as root.
pub fn split_tree(tree: &STree, mu: &[u64], mu_g: u64, t: u64, cfg: &SepConfig) -> SplitOutcome {
    let mut out = SplitOutcome::default();
    let mut idx = TreeIndex::new(tree);
    let ci = idx.centroid(&idx.subtree_sizes(mu));
    idx.reroot(ci);
    let sizes = idx.subtree_sizes(mu);
    let total = sizes[ci as usize];
    let c = idx.vertex(ci);

    let (heavy, light): (Vec<u32>, Vec<u32>) = idx
        .children(ci)
        .iter()
        .partition(|&&v| ge_lo(sizes[v as usize], mu_g, t, cfg));
    let heavy_mu: u64 = heavy.iter().map(|&v| sizes[v as usize]).sum();
    let tprime_mu = total - heavy_mu;
    // A tree rooted at c made of the subtrees of `group`.
    let rooted_at_c = |group: &[u32]| {
        let mut nodes = vec![(c, c)];
        for &v in group {
            idx.push_subtree(v, c, &mut nodes);
        }
        STree { root: c, nodes }
    };
    let standalone = |v: u32| {
        let mut nodes = Vec::new();
        idx.push_subtree(v, idx.vertex(v), &mut nodes);
        STree {
            root: idx.vertex(v),
            nodes,
        }
    };

    let mut produced: Vec<STree> = Vec::new();
    if !heavy.is_empty() && !ge_lo(tprime_mu, mu_g, t, cfg) {
        // Fig. 1(a): T' is light — merge it into the first heavy subtree.
        let mut merged: Vec<u32> = light;
        merged.push(heavy[0]);
        produced.push(rooted_at_c(&merged));
        produced.extend(heavy[1..].iter().map(|&v| standalone(v)));
    } else {
        // Fig. 1(b): group consecutive light children into sibling trees
        // rooted at c, each of µ ∈ [µG/(12t), µG/(6t)) except possibly the
        // last which absorbs the remainder (< µG/(4t)).
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut cur: Vec<u32> = Vec::new();
        let mut acc = 0u64;
        for &v in &light {
            cur.push(v);
            acc += sizes[v as usize];
            if ge_lo(acc, mu_g, t, cfg) {
                groups.push(std::mem::take(&mut cur));
                acc = 0;
            }
        }
        if !cur.is_empty() {
            // Remainder below the lo threshold: absorb into the last group
            // (or stand alone if it is the only one).
            match groups.last_mut() {
                Some(last) => last.append(&mut cur),
                None => groups.push(cur),
            }
        }
        // With no children at all, c alone is the whole tree.
        if groups.is_empty() {
            groups.push(Vec::new());
        }
        produced.extend(groups.iter().map(|group| rooted_at_c(group)));
        produced.extend(heavy.iter().map(|&v| standalone(v)));
    }

    for tr in produced {
        let m = tr.mu(mu);
        // Safety valve for degenerate tiny-µG corners (only reachable with
        // aggressive practical cutoffs; see lib.rs): a "split" that failed
        // to shrink the tree is finished rather than requeued forever.
        let no_progress = tr.len() == tree.len();
        if gt_hi(m, mu_g, t, cfg) && !no_progress {
            out.requeue.push(tr);
        } else {
            out.finished.push(tr);
        }
    }
    out
}

/// Iterate `Split` until every tree fits the window: the paper's step-2
/// loop producing T_i from the spanning tree `T*`. Returns the final split
/// trees (T_i).
pub fn split_to_completion(
    start: STree,
    mu: &[u64],
    mu_g: u64,
    t: u64,
    cfg: &SepConfig,
) -> Vec<STree> {
    let mut work = vec![start];
    let mut done = Vec::new();
    let mut guard = 0usize;
    while let Some(tree) = work.pop() {
        guard += 1;
        assert!(guard < 64 + 4 * mu.len(), "split failed to terminate");
        if tree.len() <= 1 || !gt_hi(tree.mu(mu), mu_g, t, cfg) {
            done.push(tree);
            continue;
        }
        let out = split_tree(&tree, mu, mu_g, t, cfg);
        done.extend(out.finished);
        work.extend(out.requeue);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use twgraph::alg::random_spanning_tree;
    use twgraph::gen::{banded_path, random_tree};

    fn tree_of(g: &twgraph::UGraph, seed: u64) -> STree {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rt = random_spanning_tree(g, 0, &mut rng);
        STree {
            root: 0,
            nodes: rt
                .members()
                .into_iter()
                .map(|v| (v, rt.parent[v as usize]))
                .collect(),
        }
    }

    fn cfg() -> SepConfig {
        SepConfig::practical(256)
    }

    #[test]
    fn stree_basics() {
        // Members listed out of vertex order: 0 ← 3 ← {1, 2}.
        let t = STree {
            root: 0,
            nodes: vec![(3, 0), (0, 0), (2, 3), (1, 3)],
        };
        let mu = vec![1u64; 4];
        assert_eq!(t.mu(&mu), 4);
        assert_eq!(t.sorted_members(), vec![0, 1, 2, 3]);
        assert_eq!(t.centroid(&mu), 3);
        let mut idx = TreeIndex::new(&t);
        let sizes = idx.subtree_sizes(&mu);
        assert_eq!(sizes[idx.pos(3) as usize], 3);
        assert_eq!(sizes[idx.pos(0) as usize], 4);
        let kids: Vec<u32> = idx
            .children(idx.pos(3))
            .iter()
            .map(|&i| idx.vertex(i))
            .collect();
        assert_eq!(kids, vec![1, 2], "children ascend by vertex id");
        idx.reroot(idx.pos(3));
        let sizes2 = idx.subtree_sizes(&mu);
        assert_eq!(sizes2[idx.pos(0) as usize], 1);
        assert_eq!(sizes2[idx.pos(3) as usize], 4);
        let mut sub = Vec::new();
        idx.push_subtree(idx.pos(0), 3, &mut sub);
        assert_eq!(sub, vec![(0, 3)]);
        let mut all = Vec::new();
        idx.push_subtree(idx.pos(3), 3, &mut all);
        assert_eq!(all, vec![(3, 3), (0, 3), (1, 3), (2, 3)]);
    }

    /// The paper's invariant: every split tree has µ ≤ µ(G)/(4t) (finished
    /// window) and — except degenerate remainders — µ ≥ µ(G)/(12t); trees
    /// are vertex disjoint except for roots; the union covers T*.
    #[test]
    fn split_invariants_hold() {
        for (n, t) in [(200usize, 2u64), (300, 3), (400, 4)] {
            let g = banded_path(n, 3);
            let start = tree_of(&g, n as u64);
            let mu = vec![1u64; n];
            let mu_g = n as u64;
            let trees = split_to_completion(start, &mu, mu_g, t, &cfg());
            // Window: all finished trees fit under µG/(4t)·(1+slack for the
            // shared roots the tree structurally includes).
            for tr in &trees {
                let m = tr.mu(&mu);
                assert!(
                    4 * t * (m.saturating_sub(1)) <= mu_g,
                    "tree too big: µ={m}, bound {}",
                    mu_g / (4 * t)
                );
            }
            // Coverage and disjointness-except-roots.
            let mut count = vec![0u32; n];
            let mut root_of = vec![false; n];
            for tr in &trees {
                root_of[tr.root as usize] = true;
                for &(v, _) in &tr.nodes {
                    count[v as usize] += 1;
                }
            }
            for v in 0..n {
                assert!(count[v] >= 1, "vertex {v} uncovered");
                if count[v] > 1 {
                    assert!(root_of[v], "non-root vertex {v} shared");
                }
            }
            // Enough trees exist: at least µG/(µG/(4t)) = 4t··(1−slack).
            assert!(
                trees.len() as u64 >= 3 * t,
                "only {} trees for t={t}",
                trees.len()
            );
        }
    }

    #[test]
    fn split_tree_edges_stay_tree_edges() {
        let g = random_tree(150, 9);
        let start = tree_of(&g, 5);
        let mu = vec![1u64; 150];
        let trees = split_to_completion(start, &mu, 150, 2, &cfg());
        for tr in &trees {
            for &(v, p) in &tr.nodes {
                if v != p {
                    assert!(g.has_edge(v, p), "({v},{p}) not an edge");
                }
            }
        }
    }

    #[test]
    fn zero_measure_vertices_allowed() {
        // µ concentrated on half the vertices; split still covers everyone.
        let g = banded_path(120, 2);
        let start = tree_of(&g, 1);
        let mu: Vec<u64> = (0..120).map(|v| (v % 2) as u64).collect();
        let mu_g: u64 = mu.iter().sum();
        let trees = split_to_completion(start, &mu, mu_g, 2, &cfg());
        let covered: usize = {
            let mut seen = [false; 120];
            for tr in &trees {
                for &(v, _) in &tr.nodes {
                    seen[v as usize] = true;
                }
            }
            seen.iter().filter(|&&s| s).count()
        };
        assert_eq!(covered, 120);
    }

    #[test]
    fn singleton_finishes() {
        let single = STree {
            root: 0,
            nodes: vec![(0, 0)],
        };
        let trees = split_to_completion(single, &[1], 1, 2, &cfg());
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].len(), 1);
    }
}
