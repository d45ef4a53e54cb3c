//! MVC(h, t) — batched minimum X–Y vertex cuts (paper Lemma 8, Corollary 2).
//!
//! Classical reduction: split every vertex `v` into `v_in → v_out` with
//! capacity 1 (∞ for X ∪ Y), give every subgraph edge `{v, w}` the two
//! ∞-capacity arcs `v_out → w_in`, `w_out → v_in`, and run augmenting-path
//! max-flow from X to Y. After at most `t+1` augmentations either the flow
//! exceeds `t` (report "cut larger than t") or a final residual BFS yields
//! the cut as `{v internal : v_in reachable, v_out not}` (Menger).
//!
//! All instances of the batch run **concurrently in shared supersteps**
//! (BFS waves and backtrace tokens interleave freely), so the measured cost
//! follows the O(dilation + congestion) scheduling envelope of the paper's
//! Theorem 6 rather than the sequential sum. The paper implements MVC with
//! Õ(t) PA+SNC invocations via the shortcut framework; our substitution
//! (DESIGN.md §4.2) keeps the same asymptotic envelope in `t` with honest,
//! measured dilation.

use congest_sim::{CongestError, Network, WireMsg};
use std::collections::HashMap;

/// One cut instance: find a minimum vertex cut between `sources` and
/// `sinks` inside the subgraph induced by `members` (`None` = whole graph).
#[derive(Clone, Debug)]
pub struct CutInstance {
    /// Subgraph membership (sorted), or `None` for the full graph.
    pub members: Option<Vec<u32>>,
    /// The X side.
    pub sources: Vec<u32>,
    /// The Y side.
    pub sinks: Vec<u32>,
}

/// Result of one instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CutResult {
    /// A minimum vertex cut of size ≤ t (possibly empty if X and Y are
    /// already disconnected in the subgraph).
    Cut(Vec<u32>),
    /// The minimum cut exceeds `t` (including X ∩ Y ≠ ∅ and unseparable
    /// adjacency cases, where it is ∞).
    TooBig,
}

const K_INTERNAL: u8 = 0;
const K_SOURCE: u8 = 1;
const K_SINK: u8 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ParIn {
    None,
    Start,
    /// Reached via forward arc `w_out → v_in`.
    FwdEdge(u32),
    /// Reached via the internal reverse arc `v_out → v_in`.
    FromOut,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ParOut {
    None,
    Start,
    /// Reached via the internal forward arc `v_in → v_out`.
    FromIn,
    /// Reached via residual reverse arc `w_in → v_out` (cancelling v→w flow).
    RevEdge(u32),
}

#[derive(Clone, Debug)]
struct InstState {
    kind: u8,
    /// Unit of flow through the internal arc (internal vertices only).
    internal_flow: bool,
    /// Sparse net edge flows: `(neighbor, f(v→w) − f(w→v))`.
    flows: Vec<(u32, i32)>,
    vis_in: bool,
    vis_out: bool,
    fresh_in: bool,
    fresh_out: bool,
    par_in: ParIn,
    par_out: ParOut,
    /// Pending backtrace token to emit: `(neighbor, continue_side_is_in)`.
    emit: Option<(u32, bool)>,
}

impl InstState {
    fn new(kind: u8) -> Self {
        InstState {
            kind,
            internal_flow: false,
            flows: Vec::new(),
            vis_in: false,
            vis_out: false,
            fresh_in: false,
            fresh_out: false,
            par_in: ParIn::None,
            par_out: ParOut::None,
            emit: None,
        }
    }

    fn add_flow(&mut self, w: u32, delta: i32) {
        if let Some(entry) = self.flows.iter_mut().find(|(x, _)| *x == w) {
            entry.1 += delta;
        } else {
            self.flows.push((w, delta));
        }
    }

    /// Apply the internal-arc closure: propagate visitation across
    /// `v_in ↔ v_out` where the residual internal arc is available.
    /// Returns true if anything changed.
    fn closure(&mut self) -> bool {
        let mut changed = false;
        // in → out available iff no internal flow (or ∞ cap for X/Y).
        if self.vis_in && !self.vis_out && (self.kind != K_INTERNAL || !self.internal_flow) {
            self.vis_out = true;
            self.fresh_out = true;
            self.par_out = ParOut::FromIn;
            changed = true;
        }
        // out → in available iff internal flow exists (or ∞ cap).
        if self.vis_out && !self.vis_in && (self.kind != K_INTERNAL || self.internal_flow) {
            self.vis_in = true;
            self.fresh_in = true;
            self.par_in = ParIn::FromOut;
            changed = true;
        }
        changed
    }

    fn reset_bfs(&mut self) {
        self.vis_in = false;
        self.vis_out = false;
        self.fresh_in = false;
        self.fresh_out = false;
        self.par_in = ParIn::None;
        self.par_out = ParOut::None;
        self.emit = None;
    }

    /// Walk the backtrace locally from the given side until the next
    /// cross-node hop (stored into `emit`) or the path start.
    /// Returns true if the augmentation completed at this node.
    fn backtrace_walk(&mut self, mut side_in: bool) -> bool {
        loop {
            if side_in {
                match self.par_in {
                    ParIn::Start => return true,
                    ParIn::FwdEdge(w) => {
                        // Path hop w→v: at v the net flow to w drops.
                        self.add_flow(w, -1);
                        self.emit = Some((w, false)); // continue at w_out
                        return false;
                    }
                    ParIn::FromOut => {
                        // Internal reverse arc used: cancel the unit.
                        if self.kind == K_INTERNAL {
                            // `closure` sets `FromOut` at an internal node
                            // only while the residual arc v_out → v_in exists,
                            // i.e. while the internal flow is 1.
                            assert!(self.internal_flow, "reverse arc without flow");
                            self.internal_flow = false;
                        }
                        side_in = false;
                    }
                    ParIn::None => unreachable!("backtrace entered unvisited in-side"),
                }
            } else {
                match self.par_out {
                    ParOut::Start => return true,
                    ParOut::RevEdge(w) => {
                        self.add_flow(w, -1);
                        self.emit = Some((w, true)); // continue at w_in
                        return false;
                    }
                    ParOut::FromIn => {
                        if self.kind == K_INTERNAL {
                            // `closure` sets `FromIn` at an internal node only
                            // while the forward arc v_in → v_out has capacity
                            // left, i.e. while the internal flow is 0.
                            assert!(!self.internal_flow, "forward arc already saturated");
                            self.internal_flow = true;
                        }
                        side_in = true;
                    }
                    ParOut::None => unreachable!("backtrace entered unvisited out-side"),
                }
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Bfs,
    Backtrace,
    Done,
}

#[derive(Clone, Debug)]
enum MvcMsg {
    /// BFS visit: `to_in_side` = true targets the receiver's in-side
    /// (forward arc from my out-side); false targets the out-side
    /// (residual reverse arc from my in-side).
    Visit { inst: u32, to_in_side: bool },
    /// Backtrace token: continue at the given side; the receiver also
    /// applies its half of the flow update for the hop.
    Token { inst: u32, continue_in_side: bool },
}

impl WireMsg for MvcMsg {
    fn words(&self) -> u64 {
        2
    }
}

type NodeState = HashMap<u32, InstState>;

/// Solve all `instances` concurrently; report, per instance, a minimum
/// vertex cut of size ≤ `t` or [`CutResult::TooBig`].
///
/// The shared supersteps run scoped to the union of the instances' member
/// sets (BFS waves and backtrace tokens never leave an instance's
/// subgraph), so the per-superstep cost tracks the batch's footprint, not
/// the whole network, at identical charged metrics.
pub fn batch_min_vertex_cut(
    net: &mut Network,
    instances: &[CutInstance],
    t: usize,
) -> Result<Vec<CutResult>, CongestError> {
    let n = net.n();
    let g = net.graph_handle();
    let n_inst = instances.len();
    let mut results: Vec<Option<CutResult>> = vec![None; n_inst];
    let mut phase = vec![Phase::Bfs; n_inst];
    let mut flow_value = vec![0usize; n_inst];

    let member_sets: Vec<Option<Vec<u32>>> = instances
        .iter()
        .map(|ci| {
            ci.members.as_ref().map(|m| {
                let mut s = m.clone();
                s.sort_unstable();
                s
            })
        })
        .collect();
    let is_member = |inst: usize, v: u32| -> bool {
        match &member_sets[inst] {
            None => true,
            Some(s) => s.binary_search(&v).is_ok(),
        }
    };

    // Active set: the union of the member sets (everything if any instance
    // spans the whole graph).
    let active: Vec<u32> = if member_sets.iter().any(Option::is_none) {
        (0..n as u32).collect()
    } else {
        let mut a: Vec<u32> = member_sets
            .iter()
            .flatten()
            .flat_map(|s| s.iter().copied())
            .collect();
        a.sort_unstable();
        a.dedup();
        a
    };
    let pos_of = |v: u32| -> usize {
        active
            .binary_search(&v)
            .expect("cut instance member outside the active set")
    };

    let mut states: Vec<NodeState> = vec![HashMap::new(); active.len()];
    for (i, ci) in instances.iter().enumerate() {
        let mut too_big = false;
        for &s in &ci.sources {
            if ci.sinks.contains(&s) {
                too_big = true;
            }
        }
        if too_big || ci.sources.is_empty() || ci.sinks.is_empty() {
            results[i] = Some(if too_big {
                CutResult::TooBig
            } else {
                CutResult::Cut(Vec::new())
            });
            phase[i] = Phase::Done;
            continue;
        }
        for &s in &ci.sources {
            assert!(is_member(i, s), "source {s} outside instance {i}");
            states[pos_of(s)].insert(i as u32, InstState::new(K_SOURCE));
        }
        for &y in &ci.sinks {
            assert!(is_member(i, y), "sink {y} outside instance {i}");
            states[pos_of(y)].insert(i as u32, InstState::new(K_SINK));
        }
    }

    // Seed the first BFS for all live instances.
    for (i, ci) in instances.iter().enumerate() {
        if phase[i] == Phase::Bfs {
            seed_bfs(&mut states, &pos_of, ci, i as u32);
        }
    }

    let guard = ((t + 2) * (n + 4) * 4) as u64 * (n_inst as u64 + 1) + 1024;
    let mut steps = 0u64;
    let mut sink_hits = vec![u32::MAX; n_inst];
    let mut aug_done = vec![0u32; n_inst];
    let mut progress = vec![0u32; n_inst];

    while phase.iter().any(|&p| p != Phase::Done) {
        if steps == guard {
            return Err(CongestError::SuperstepBudget { limit: guard });
        }
        steps += 1;
        progress.fill(0);

        net.superstep_on(
            &active,
            &mut states,
            |u, s: &NodeState| {
                let mut out: Vec<(u32, MvcMsg)> = Vec::new();
                for (&inst, st) in s.iter() {
                    match phase[inst as usize] {
                        Phase::Bfs => {
                            if st.fresh_out {
                                for &w in g.neighbors(u) {
                                    if member_in(&member_sets, inst as usize, w) {
                                        out.push((
                                            w,
                                            MvcMsg::Visit {
                                                inst,
                                                to_in_side: true,
                                            },
                                        ));
                                    }
                                }
                            }
                            if st.fresh_in {
                                for &(w, f) in &st.flows {
                                    if f < 0 {
                                        out.push((
                                            w,
                                            MvcMsg::Visit {
                                                inst,
                                                to_in_side: false,
                                            },
                                        ));
                                    }
                                }
                            }
                        }
                        Phase::Backtrace => {
                            if let Some((w, continue_in_side)) = st.emit {
                                out.push((
                                    w,
                                    MvcMsg::Token {
                                        inst,
                                        continue_in_side,
                                    },
                                ));
                            }
                        }
                        Phase::Done => {}
                    }
                }
                // Full tiebreak: the per-node instance map iterates in hash
                // order, so sorting by destination alone would leave
                // same-destination messages in nondeterministic relative
                // order. Instance id + message shape complete the key
                // (within one instance the generation order is already
                // deterministic).
                out.sort_by_key(|&(w, ref m)| {
                    let (inst, shape) = match *m {
                        MvcMsg::Visit { inst, to_in_side } => (inst, u8::from(to_in_side)),
                        MvcMsg::Token {
                            inst,
                            continue_in_side,
                        } => (inst, 2 + u8::from(continue_in_side)),
                    };
                    (w, inst, shape)
                });
                out
            },
            |v, s, inbox| {
                // Clear freshness (we are about to absorb the next wave) and
                // emitted tokens (they were just sent).
                for st in s.values_mut() {
                    st.fresh_in = false;
                    st.fresh_out = false;
                    st.emit = None;
                }
                for (src, msg) in inbox {
                    match msg {
                        MvcMsg::Visit { inst, to_in_side } => {
                            if phase[inst as usize] != Phase::Bfs
                                || !member_in(&member_sets, inst as usize, v)
                            {
                                continue;
                            }
                            let st = s.entry(inst).or_insert_with(|| InstState::new(K_INTERNAL));
                            if to_in_side && !st.vis_in {
                                st.vis_in = true;
                                st.fresh_in = true;
                                st.par_in = ParIn::FwdEdge(src);
                                progress[inst as usize] += 1;
                            } else if !to_in_side && !st.vis_out {
                                st.vis_out = true;
                                st.fresh_out = true;
                                st.par_out = ParOut::RevEdge(src);
                                progress[inst as usize] += 1;
                            }
                        }
                        MvcMsg::Token {
                            inst,
                            continue_in_side,
                        } => {
                            let st = s.get_mut(&inst).expect("token at untouched node");
                            // Receiver's half of the hop flow update:
                            // the path hop ran v→src… no: token moves
                            // backwards, so the path hop was v_this → src?
                            // The sender already updated itself; the hop in
                            // path direction is (this node) → (sender).
                            st.add_flow(src, 1);
                            if st.backtrace_walk(continue_in_side) {
                                aug_done[inst as usize] = 1;
                            }
                        }
                    }
                }
                // Internal closure + sink detection after absorbing a wave.
                for (&inst, st) in s.iter_mut() {
                    if phase[inst as usize] != Phase::Bfs {
                        continue;
                    }
                    if st.closure() {
                        progress[inst as usize] += 1;
                    }
                    if st.kind == K_SINK && st.vis_in {
                        sink_hits[inst as usize] = sink_hits[inst as usize].min(v);
                    }
                }
            },
        )?;

        // Orchestrator pass: phase transitions (control decisions; the
        // per-superstep cost is already paid by the messages above).
        for i in 0..n_inst {
            match phase[i] {
                Phase::Bfs => {
                    let hit = sink_hits[i];
                    if hit != u32::MAX {
                        // Augmenting path found: launch the backtrace.
                        phase[i] = Phase::Backtrace;
                        let st = states[pos_of(hit)].get_mut(&(i as u32)).unwrap();
                        if st.backtrace_walk(true) {
                            // Path of length 0 cannot happen (X ∩ Y = ∅).
                            unreachable!("sink cannot be a path start");
                        }
                        sink_hits[i] = u32::MAX;
                    } else if progress[i] == 0 && !bfs_has_fresh(&states, i as u32) {
                        // BFS exhausted without reaching a sink: extract cut.
                        let cut = extract_cut(&states, &active, i);
                        results[i] = Some(CutResult::Cut(cut));
                        phase[i] = Phase::Done;
                    }
                }
                Phase::Backtrace => {
                    if aug_done[i] == 1 {
                        aug_done[i] = 0;
                        flow_value[i] += 1;
                        if flow_value[i] > t {
                            results[i] = Some(CutResult::TooBig);
                            phase[i] = Phase::Done;
                        } else {
                            // Next augmentation phase.
                            for node_states in states.iter_mut() {
                                if let Some(st) = node_states.get_mut(&(i as u32)) {
                                    st.reset_bfs();
                                }
                            }
                            seed_bfs(&mut states, &pos_of, &instances[i], i as u32);
                            phase[i] = Phase::Bfs;
                        }
                    }
                }
                Phase::Done => {}
            }
        }
    }

    Ok(results.into_iter().map(Option::unwrap).collect())
}

#[inline]
fn member_in(member_sets: &[Option<Vec<u32>>], inst: usize, v: u32) -> bool {
    match &member_sets[inst] {
        None => true,
        Some(s) => s.binary_search(&v).is_ok(),
    }
}

fn seed_bfs(states: &mut [NodeState], pos_of: &impl Fn(u32) -> usize, ci: &CutInstance, inst: u32) {
    for &s in &ci.sources {
        let st = states[pos_of(s)].get_mut(&inst).unwrap();
        st.vis_out = true;
        st.vis_in = true;
        st.fresh_out = true;
        st.fresh_in = true;
        st.par_out = ParOut::Start;
        st.par_in = ParIn::Start;
    }
}

fn bfs_has_fresh(states: &[NodeState], inst: u32) -> bool {
    states
        .iter()
        .any(|s| s.get(&inst).is_some_and(|st| st.fresh_in || st.fresh_out))
}

fn extract_cut(states: &[NodeState], active: &[u32], i: usize) -> Vec<u32> {
    let mut cut = Vec::new();
    for (pos, s) in states.iter().enumerate() {
        if let Some(st) = s.get(&(i as u32)) {
            if st.kind == K_INTERNAL && st.vis_in && !st.vis_out {
                cut.push(active[pos]);
            }
        }
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{Network, NetworkConfig};
    use twgraph::alg::components;
    use twgraph::gen::{grid, path};
    use twgraph::UGraph;

    fn run_one(g: &UGraph, inst: CutInstance, t: usize) -> CutResult {
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        batch_min_vertex_cut(&mut net, &[inst], t)
            .unwrap()
            .pop()
            .unwrap()
    }

    /// Oracle: does removing `cut` really disconnect X from Y, and is the
    /// size minimal among all subsets of that size (checked by brute force
    /// on small graphs)?
    fn separates(g: &UGraph, cut: &[u32], xs: &[u32], ys: &[u32]) -> bool {
        let keep: Vec<bool> = (0..g.n() as u32).map(|v| !cut.contains(&v)).collect();
        if xs.iter().chain(ys).any(|&v| !keep[v as usize]) {
            return false; // cut may not contain X ∪ Y
        }
        let (h, old_of) = g.induced(&keep);
        let (comp, _) = components(&h);
        let comp_of = |v: u32| {
            let new = old_of.iter().position(|&o| o == v).unwrap();
            comp[new]
        };
        xs.iter()
            .all(|&x| ys.iter().all(|&y| comp_of(x) != comp_of(y)))
    }

    #[test]
    fn path_cut_is_single_vertex() {
        let g = path(5);
        let res = run_one(
            &g,
            CutInstance {
                members: None,
                sources: vec![0],
                sinks: vec![4],
            },
            3,
        );
        match res {
            CutResult::Cut(cut) => {
                assert_eq!(cut.len(), 1);
                assert!(separates(&g, &cut, &[0], &[4]));
            }
            CutResult::TooBig => panic!("path cut must be size 1"),
        }
    }

    #[test]
    fn grid_cut_matches_menger() {
        // 3×4 grid, corner to corner: the corner has degree 2, so the
        // minimum vertex cut is its neighbourhood {1, 4}.
        let g = grid(3, 4);
        let res = run_one(
            &g,
            CutInstance {
                members: None,
                sources: vec![0],
                sinks: vec![11],
            },
            5,
        );
        match res {
            CutResult::Cut(cut) => {
                assert_eq!(cut.len(), 2, "cut = {cut:?}");
                assert!(separates(&g, &cut, &[0], &[11]));
            }
            CutResult::TooBig => panic!("grid cut must be ≤ 2"),
        }
    }

    #[test]
    fn too_big_reported() {
        let g = grid(3, 4);
        let res = run_one(
            &g,
            CutInstance {
                members: None,
                sources: vec![0],
                sinks: vec![11],
            },
            1, // true cut is 2
        );
        assert_eq!(res, CutResult::TooBig);
    }

    #[test]
    fn adjacent_sets_are_unseparable() {
        let g = path(2);
        let res = run_one(
            &g,
            CutInstance {
                members: None,
                sources: vec![0],
                sinks: vec![1],
            },
            5,
        );
        assert_eq!(res, CutResult::TooBig);
    }

    #[test]
    fn overlapping_sets_are_unseparable() {
        let g = path(3);
        let res = run_one(
            &g,
            CutInstance {
                members: None,
                sources: vec![0, 1],
                sinks: vec![1, 2],
            },
            5,
        );
        assert_eq!(res, CutResult::TooBig);
    }

    #[test]
    fn disconnected_sides_need_empty_cut() {
        let g = UGraph::from_edges(4, [(0, 1), (2, 3)]);
        let res = run_one(
            &g,
            CutInstance {
                members: None,
                sources: vec![0],
                sinks: vec![3],
            },
            5,
        );
        assert_eq!(res, CutResult::Cut(Vec::new()));
    }

    #[test]
    fn membership_restricts_the_graph() {
        // Cycle of 6: cutting 0→3 needs 2 vertices in the full cycle but
        // only 1 inside the half {0,1,2,3}.
        let g = twgraph::gen::cycle(6);
        let res = run_one(
            &g,
            CutInstance {
                members: Some(vec![0, 1, 2, 3]),
                sources: vec![0],
                sinks: vec![3],
            },
            3,
        );
        match res {
            CutResult::Cut(cut) => assert_eq!(cut.len(), 1, "cut = {cut:?}"),
            CutResult::TooBig => panic!("half-cycle cut must be 1"),
        }
        let res_full = run_one(
            &g,
            CutInstance {
                members: None,
                sources: vec![0],
                sinks: vec![3],
            },
            3,
        );
        match res_full {
            CutResult::Cut(cut) => {
                assert_eq!(cut.len(), 2);
                assert!(separates(&g, &cut, &[0], &[3]));
            }
            CutResult::TooBig => panic!("cycle cut must be 2"),
        }
    }

    #[test]
    fn batch_runs_concurrently() {
        let g = grid(4, 4);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let insts: Vec<CutInstance> = vec![
            CutInstance {
                members: None,
                sources: vec![0],
                sinks: vec![15],
            },
            CutInstance {
                members: None,
                sources: vec![3],
                sinks: vec![12],
            },
            CutInstance {
                members: None,
                sources: vec![0, 1],
                sinks: vec![14, 15],
            },
        ];
        let res = batch_min_vertex_cut(&mut net, &insts, 6).unwrap();
        for (i, r) in res.iter().enumerate() {
            match r {
                CutResult::Cut(cut) => {
                    assert!(
                        separates(&g, cut, &insts[i].sources, &insts[i].sinks),
                        "instance {i}: {cut:?} does not separate"
                    );
                }
                CutResult::TooBig => panic!("instance {i} unexpectedly too big"),
            }
        }
    }

    #[test]
    fn multi_source_multi_sink() {
        let g = grid(3, 5);
        let res = run_one(
            &g,
            CutInstance {
                members: None,
                sources: vec![0, 5, 10], // left column
                sinks: vec![4, 9, 14],   // right column
            },
            4,
        );
        match res {
            CutResult::Cut(cut) => {
                assert_eq!(cut.len(), 3, "cut = {cut:?}");
                assert!(separates(&g, &cut, &[0, 5, 10], &[4, 9, 14]));
            }
            CutResult::TooBig => panic!("column cut must be 3"),
        }
    }
}
