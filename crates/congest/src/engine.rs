//! The superstep engine, built around a flat CSR mailbox arena.
//!
//! A superstep stages every emitted message into one contiguous buffer
//! (ordered by source), charges it against precomputed per-directed-edge
//! slots, then counting-sorts it into a second contiguous delivery buffer
//! indexed by destination. All index/accounting scratch (slot loads, the
//! touched-slot list, inbox offsets) lives in a reusable [`MailboxArena`],
//! so after warm-up a superstep performs no per-node allocations.
//! Accounting is *sparse*: only slots that actually carried words are
//! visited, so an almost-quiet superstep never sweeps the m edge slots.
//!
//! ## Frontier quiescence loops
//!
//! [`run_until_quiet`](Network::run_until_quiet) (over all of V) and
//! [`run_until_quiet_on`](Network::run_until_quiet_on) (over a sorted
//! active list, with positional states) share one loop that visits only
//! the *frontier*: the nodes that have something to send plus the nodes
//! that just received something. `send(v, &mut state, &mut outbox)` runs
//! on every active node in the first superstep and afterwards only on
//! *armed* nodes; `recv(v, &mut state, inbox)` runs only on non-empty
//! inboxes. Each returns whether the node is armed for the next
//! superstep. The active set and its id → position map are stamped once
//! per loop, per-destination counts are reset only where something
//! arrived, and the message buffers are reused, so a superstep costs
//! O(senders + receivers + messages) however large the active set is.
//! Armed nodes run in ascending id order, so the stage is source-ascending
//! and every inbox is ordered by source, exactly as if every node had been
//! visited: the charged metrics are those of the full scan.
//!
//! ## Single supersteps
//!
//! [`superstep_on`](Network::superstep_on) evaluates a pure `send` on every
//! node of a sorted active list and `recv` on every active node's inbox
//! window, empty or not, with positional states (`states[i]` belongs to
//! `active[i]`). It resets its bookkeeping over the active set only, so it
//! costs O(active + messages); a list naming every node is the dense case
//! and takes a dense reset instead. Protocols that need a tick on every
//! node every superstep loop over it. In every scoped entry point messages
//! must stay inside the active set ([`CongestError::InactiveRecipient`]
//! otherwise), and the active list itself is checked: not strictly
//! ascending or naming a vertex ≥ n is a typed error with nothing charged.

use crate::error::CongestError;
use crate::metrics::{Metrics, PhaseSnapshot};
use crate::projection::{EdgeProjection, NO_SLOT};
use crate::wire::WireMsg;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use twgraph::UGraph;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Words each edge carries per direction per round (`W`; default 1 —
    /// the classical CONGEST normalization of one O(log n)-bit message).
    pub bandwidth_words: u64,
    /// Seed for the unique O(log n)-bit node identifiers.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            bandwidth_words: 1,
            seed: 0xC0FFEE,
        }
    }
}

/// The messages delivered to one node in a superstep: a window into the
/// flat delivery arena. Iterating by value (`for (src, msg) in inbox`)
/// moves each message out of the arena; [`iter`](Inbox::iter) borrows.
/// Messages arrive ordered by source id.
pub struct Inbox<'a, M> {
    slots: &'a mut [Option<(u32, M)>],
}

impl<'a, M> Inbox<'a, M> {
    /// Number of delivered messages.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing was delivered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The first message (lowest source id), by reference.
    #[inline]
    pub fn first(&self) -> Option<&(u32, M)> {
        self.slots
            .first()
            .map(|s| s.as_ref().expect("message already taken"))
    }

    /// Borrowing iterator over `(source, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(u32, M)> + '_ {
        self.slots
            .iter()
            .map(|s| s.as_ref().expect("message already taken"))
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (u32, M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        InboxIter {
            inner: self.slots.iter_mut(),
        }
    }
}

/// By-value iterator over an [`Inbox`] (see [`Inbox`]).
pub struct InboxIter<'a, M> {
    inner: std::slice::IterMut<'a, Option<(u32, M)>>,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (u32, M);

    #[inline]
    fn next(&mut self) -> Option<(u32, M)> {
        self.inner
            .next()
            .map(|s| s.take().expect("message already taken"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, M> ExactSizeIterator for InboxIter<'a, M> {}

/// The sink a quiescence loop's `send` writes one node's messages into:
/// `(neighbor, payload)` pairs, appended to the superstep's flat stage in
/// call order.
pub struct Outbox<'a, M> {
    src: u32,
    stage: &'a mut Vec<(u32, u32, M)>,
}

impl<M> Outbox<'_, M> {
    /// Send `msg` to neighbour `to`.
    #[inline]
    pub fn send(&mut self, to: u32, msg: M) {
        self.stage.push((self.src, to, msg));
    }
}

impl<M> Extend<(u32, M)> for Outbox<'_, M> {
    fn extend<I: IntoIterator<Item = (u32, M)>>(&mut self, msgs: I) {
        let src = self.src;
        self.stage
            .extend(msgs.into_iter().map(|(to, msg)| (src, to, msg)));
    }
}

/// Reusable accounting scratch: zeroed between supersteps, never shrunk.
#[derive(Default)]
struct MailboxArena {
    /// Words accumulated per physical directed-edge slot this superstep.
    /// Invariant between supersteps: all zeros (reset via `touched`).
    slot_words: Vec<u64>,
    /// The slots dirtied this superstep (sparse reset + sparse max/sum).
    touched: Vec<u32>,
    /// Per-node inbox cursor (counts, then scatter positions). Entering a
    /// scope zeroes the active entries (stale entries outside an active set
    /// are never read), and a quiescence loop re-zeroes the entries that
    /// received after every superstep.
    cursor: Vec<usize>,
    /// The distinct destinations of the current superstep's messages, in
    /// first-arrival order (filled while charging).
    receivers: Vec<u32>,
    /// The id → position map of a stamped active set.
    active_pos: Vec<usize>,
    /// Membership stamp of the current scoped superstep's active set:
    /// `active_stamp[v] == active_epoch` iff `v` is active. Bumping the
    /// epoch clears the whole set in O(1).
    active_stamp: Vec<u64>,
    /// Generation counter for `active_stamp`.
    active_epoch: u64,
}

impl MailboxArena {
    /// Counting-sort a charged stage into `deliv` over the superstep's
    /// receivers only, laying out their inbox windows in ascending id
    /// order. The stage is source-ascending and the scatter is stable, so
    /// every window is ordered by source. Afterwards `cursor[v]` is the end
    /// of `v`'s window (each window starts where the previous one ends).
    fn scatter<M>(&mut self, stage: &mut Vec<(u32, u32, M)>, deliv: &mut Vec<Option<(u32, M)>>) {
        self.receivers.sort_unstable();
        let mut off = 0;
        for &v in &self.receivers {
            let count = self.cursor[v as usize];
            self.cursor[v as usize] = off;
            off += count;
        }
        deliv.clear();
        deliv.resize_with(stage.len(), || None);
        for (u, v, m) in stage.drain(..) {
            let p = self.cursor[v as usize];
            self.cursor[v as usize] += 1;
            deliv[p] = Some((u, m));
        }
    }
}

/// A simulated CONGEST network over a fixed communication graph.
///
/// The network owns the topology, the cost accounting and the node
/// identifiers; *algorithm state* lives outside in a `Vec<S>` supplied to
/// each superstep or quiescence loop, so one network can run many protocols
/// back to back while accumulating a single round count.
pub struct Network {
    g: Arc<UGraph>,
    /// CSR offsets mirroring `g` (`adj_off[v]..adj_off[v+1]` indexes the
    /// sorted neighbour array below).
    adj_off: Vec<u32>,
    /// Undirected edge id per adjacency slot (edge id = rank in the sorted
    /// `(lo, hi)` edge list, as in [`UGraph::edges`]).
    adj_eids: Vec<u32>,
    /// Per virtual edge id: physical directed slot of the lo→hi direction
    /// ([`NO_SLOT`] = free node-local edge).
    slot_fwd: Vec<u32>,
    /// Per virtual edge id: physical directed slot of the hi→lo direction.
    slot_rev: Vec<u32>,
    cfg: NetworkConfig,
    metrics: Metrics,
    /// Unique random O(log n)-bit node ids (the model's identifiers).
    uids: Vec<u64>,
    arena: MailboxArena,
    phase_log: Vec<PhaseSnapshot>,
}

impl Network {
    /// A physical network on the communication graph `g`.
    pub fn new(g: UGraph, cfg: NetworkConfig) -> Self {
        let projection = EdgeProjection::identity(&g);
        Self::with_projection(g, projection, cfg)
    }

    /// A virtual network on the communication graph `g` whose node `v` is
    /// simulated by node `host(v)` of `physical` (paper §5.2). A virtual
    /// edge's words are charged to the physical edge joining its endpoints'
    /// hosts, and an edge between two virtual nodes of one host is free.
    /// A virtual edge whose two hosts are not adjacent in `physical` has no
    /// channel to ride: [`CongestError::UnsimulatableEdge`].
    pub fn with_hosts(
        g: UGraph,
        physical: &UGraph,
        host: impl Fn(u32) -> u32,
        cfg: NetworkConfig,
    ) -> Result<Self, CongestError> {
        let projection = EdgeProjection::from_hosts(&g, physical, host)?;
        Ok(Self::with_projection(g, projection, cfg))
    }

    /// The network on `g` whose word traffic is charged through
    /// `projection`, which maps `g`'s own edges onto physical slots.
    fn with_projection(g: UGraph, projection: EdgeProjection, cfg: NetworkConfig) -> Self {
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut uids: Vec<u64> = (0..n as u64)
            .map(|v| (v << 32) | rng.gen::<u32>() as u64)
            .collect();
        // The high half guarantees uniqueness; shuffle the order relation by
        // rotating so uid order is unrelated to index order.
        for u in uids.iter_mut() {
            *u = u.rotate_left(32);
        }

        // Flatten the adjacency into a CSR mirror annotated with edge ids,
        // so `{u, v} → edge id` is one binary search in u's neighbour list.
        let mut adj_off = Vec::with_capacity(n + 1);
        adj_off.push(0u32);
        for v in 0..n as u32 {
            adj_off.push(adj_off[v as usize] + g.degree(v) as u32);
        }
        let mut adj_eids = vec![0u32; adj_off[n] as usize];
        for (eid, (u, v)) in g.edges().enumerate() {
            for (a, b) in [(u, v), (v, u)] {
                let lo = adj_off[a as usize] as usize;
                let pos = g
                    .neighbors(a)
                    .binary_search(&b)
                    .expect("edge ids out of sync");
                adj_eids[lo + pos] = eid as u32;
            }
        }
        let (slot_fwd, slot_rev) = projection.slot_tables();

        let arena = MailboxArena {
            slot_words: vec![0u64; projection.n_physical_edges() * 2],
            touched: Vec::new(),
            cursor: vec![0usize; n],
            receivers: Vec::new(),
            active_pos: vec![0usize; n],
            active_stamp: vec![0u64; n],
            active_epoch: 0,
        };
        Network {
            g: Arc::new(g),
            adj_off,
            adj_eids,
            slot_fwd,
            slot_rev,
            cfg,
            metrics: Metrics::default(),
            uids,
            arena,
            phase_log: Vec::new(),
        }
    }

    /// The communication graph.
    #[inline]
    pub fn graph(&self) -> &UGraph {
        &self.g
    }

    /// A shared handle to the communication graph — a refcount bump, not a
    /// topology copy. Algorithms that need the adjacency inside `send`/
    /// `recv` closures (while the network itself is mutably borrowed) take
    /// this instead of cloning O(n + m) state per invocation.
    #[inline]
    pub fn graph_handle(&self) -> Arc<UGraph> {
        Arc::clone(&self.g)
    }

    /// Node count.
    #[inline]
    pub fn n(&self) -> usize {
        self.g.n()
    }

    /// The unique identifier of node `v`.
    #[inline]
    pub fn uid(&self, v: u32) -> u64 {
        self.uids[v as usize]
    }

    /// Accumulated metrics.
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Engine configuration.
    #[inline]
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Charge rounds outside message traffic (global O(D)-round control
    /// pulses by the orchestrator; see DESIGN.md §4.4).
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.metrics.note_charged(rounds);
    }

    /// Close the current accounting phase under `phase` (see
    /// [`Metrics::snapshot`]) and append it to the network's phase log.
    pub fn snapshot(&mut self, phase: &str) -> PhaseSnapshot {
        let snap = self.metrics.snapshot(phase);
        self.phase_log.push(snap.clone());
        snap
    }

    /// Every phase recorded via [`snapshot`](Network::snapshot), in order.
    #[inline]
    pub fn phase_log(&self) -> &[PhaseSnapshot] {
        &self.phase_log
    }

    /// Validate and charge the staged messages (source-ascending), count
    /// them per destination into `arena.cursor` (which the caller must have
    /// reset for every possible destination), list the distinct
    /// destinations in `arena.receivers`, and record the superstep in the
    /// metrics. When `scoped` is set, destinations must carry the current
    /// active stamp. On error the slot accounting is rolled back and
    /// nothing is charged.
    fn charge_stage<M: WireMsg>(
        &mut self,
        stage: &[(u32, u32, M)],
        scoped: bool,
    ) -> Result<u64, CongestError> {
        let Network {
            g,
            arena,
            adj_off,
            adj_eids,
            slot_fwd,
            slot_rev,
            ..
        } = self;
        // Defensive reset: an aborted earlier superstep may have left slots
        // dirty mid-accounting; normal supersteps drain `touched` on exit,
        // so this is free.
        for s in arena.touched.drain(..) {
            arena.slot_words[s as usize] = 0;
        }
        arena.receivers.clear();
        let mut failure = None;
        for &(u, v, ref m) in stage.iter() {
            let lo = adj_off[u as usize] as usize;
            let eid = match g.neighbors(u).binary_search(&v) {
                Ok(pos) => adj_eids[lo + pos],
                Err(_) => {
                    failure = Some(CongestError::NonNeighborSend { from: u, to: v });
                    break;
                }
            };
            if scoped && arena.active_stamp[v as usize] != arena.active_epoch {
                failure = Some(CongestError::InactiveRecipient { from: u, to: v });
                break;
            }
            // A zero-word message would leave its slot's load at 0, so the
            // next message on the slot would list it in `touched` twice
            // and its load would be counted twice.
            let w = m.words();
            if w == 0 {
                failure = Some(CongestError::ZeroWordMessage { from: u, to: v });
                break;
            }
            let slot = if u < v {
                slot_fwd[eid as usize]
            } else {
                slot_rev[eid as usize]
            };
            if slot != NO_SLOT {
                if arena.slot_words[slot as usize] == 0 {
                    arena.touched.push(slot);
                }
                arena.slot_words[slot as usize] += w;
            }
            if arena.cursor[v as usize] == 0 {
                arena.receivers.push(v);
            }
            arena.cursor[v as usize] += 1;
        }
        if let Some(e) = failure {
            // Roll back so the arena invariant (all slot loads zero) holds
            // and a failed superstep charges nothing. The per-destination
            // counts are re-zeroed by the next superstep's reset.
            for s in arena.touched.drain(..) {
                arena.slot_words[s as usize] = 0;
            }
            return Err(e);
        }
        let max_slot = arena
            .touched
            .iter()
            .map(|&s| arena.slot_words[s as usize])
            .max()
            .unwrap_or(0);
        let words: u64 = arena
            .touched
            .iter()
            .map(|&s| arena.slot_words[s as usize])
            .sum();
        let bw = self.cfg.bandwidth_words;
        let rounds = self
            .arena
            .touched
            .iter()
            .map(|&s| self.arena.slot_words[s as usize].div_ceil(bw))
            .max()
            .unwrap_or(0)
            .max(1);
        for s in self.arena.touched.drain(..) {
            self.arena.slot_words[s as usize] = 0;
        }
        self.metrics
            .note_superstep(rounds, stage.len() as u64, words, max_slot);
        Ok(rounds)
    }

    /// Prepare the per-destination bookkeeping for scoped supersteps over
    /// `active` (`None` = all of V): zero the inbox counts and, for a
    /// proper subset, stamp the set (an O(1) clear via the epoch bump) and
    /// its id → position map into `active_pos`. Callers pass `None` for a
    /// list naming every node: every recipient is then trivially active,
    /// and the dense reset beats n scattered writes.
    fn enter_scope(&mut self, active: Option<&[u32]>) {
        let arena = &mut self.arena;
        match active {
            None => arena.cursor[..self.g.n()].fill(0),
            Some(list) => {
                arena.active_epoch += 1;
                for (i, &v) in list.iter().enumerate() {
                    arena.active_stamp[v as usize] = arena.active_epoch;
                    arena.active_pos[v as usize] = i;
                    arena.cursor[v as usize] = 0;
                }
            }
        }
    }

    /// Execute one superstep over `active` (sorted, unique node ids; a list
    /// naming every node runs it on all of V).
    ///
    /// * `send(v, &state)` returns the messages node `v` emits as
    ///   `(neighbor, payload)` pairs. Sending to a non-neighbour returns
    ///   [`CongestError::NonNeighborSend`], to a node outside `active`
    ///   [`CongestError::InactiveRecipient`], and a message of zero
    ///   [`words`](WireMsg::words) [`CongestError::ZeroWordMessage`];
    ///   nothing is charged or delivered in any of these cases.
    /// * `recv(v, &mut state, inbox)` runs on every active node, in active
    ///   order, and consumes its delivered `(source, payload)` pairs,
    ///   ordered by source id.
    ///
    /// States are *positional*: `states[i]` is the state of `active[i]`, so
    /// a protocol over k nodes allocates k states, not n. Returns the rounds
    /// charged: `max(1, max_slot ⌈words(slot)/W⌉)` over physical directed
    /// edges. An active list that is not strictly ascending or names a
    /// vertex ≥ n is rejected before anything runs
    /// ([`CongestError::UnsortedActiveList`],
    /// [`CongestError::ActiveOutOfRange`]).
    pub fn superstep_on<S, M>(
        &mut self,
        active: &[u32],
        states: &mut [S],
        send: impl Fn(u32, &S) -> Vec<(u32, M)>,
        mut recv: impl FnMut(u32, &mut S, Inbox<'_, M>),
    ) -> Result<u64, CongestError>
    where
        M: WireMsg,
    {
        self.check_active(active, states.len())?;
        let scope = (active.len() < self.g.n()).then_some(active);
        self.enter_scope(scope);
        // The active list is sorted, so the stage is source-ascending.
        let mut stage = Vec::new();
        for (i, &u) in active.iter().enumerate() {
            stage.extend(send(u, &states[i]).into_iter().map(|(v, m)| (u, v, m)));
        }
        let rounds = self.charge_stage(&stage, scope.is_some())?;
        let mut deliv = Vec::new();
        self.arena.scatter(&mut stage, &mut deliv);
        let MailboxArena {
            receivers, cursor, ..
        } = &self.arena;
        // Every active node gets its window, in active order; nodes that
        // received nothing get an empty one.
        let mut rest = &mut deliv[..];
        let mut start = 0;
        let mut receivers = receivers.iter().peekable();
        for (i, &v) in active.iter().enumerate() {
            let mut len = 0;
            if receivers.next_if_eq(&&v).is_some() {
                len = cursor[v as usize] - start;
                start = cursor[v as usize];
            }
            let (window, r) = rest.split_at_mut(len);
            rest = r;
            recv(v, &mut states[i], Inbox { slots: window });
        }
        Ok(rounds)
    }

    /// Validate a caller-supplied active list: strictly ascending, every
    /// vertex < n, one positional state per entry.
    fn check_active(&self, active: &[u32], n_states: usize) -> Result<(), CongestError> {
        assert_eq!(
            n_states,
            active.len(),
            "positional states must match the active list"
        );
        if let Some(i) = active.windows(2).position(|w| w[0] >= w[1]) {
            return Err(CongestError::UnsortedActiveList { position: i + 1 });
        }
        match active.last() {
            Some(&v) if v as usize >= self.g.n() => Err(CongestError::ActiveOutOfRange {
                vertex: v,
                n: self.g.n(),
            }),
            _ => Ok(()),
        }
    }

    /// Run supersteps over all of V until a superstep stages no message (a
    /// quiescence-driven protocol, e.g. flooding); `states[v]` belongs to
    /// node `v`. That final silent superstep is *not* charged. Returns the
    /// number of productive supersteps.
    ///
    /// * `send(v, &mut state, &mut outbox)` emits node `v`'s messages into
    ///   `outbox` and returns whether `v` stays armed. It runs on every node
    ///   in the first superstep and afterwards only on armed nodes, in
    ///   ascending id order.
    /// * `recv(v, &mut state, inbox)` runs only on nodes whose inbox is
    ///   non-empty (messages ordered by source id) and returns whether `v`
    ///   is armed for the next superstep.
    ///
    /// A node that is neither armed nor receiving is not visited, so a
    /// superstep costs O(senders + receivers + messages). A protocol must
    /// therefore arm every node that will send: whatever `send` would emit
    /// from an unarmed node is never asked for.
    ///
    /// Needing more than `max_supersteps` productive supersteps returns
    /// [`CongestError::SuperstepBudget`]; the supersteps already run stay
    /// charged.
    pub fn run_until_quiet<S, M>(
        &mut self,
        states: &mut [S],
        send: impl FnMut(u32, &mut S, &mut Outbox<'_, M>) -> bool,
        recv: impl FnMut(u32, &mut S, Inbox<'_, M>) -> bool,
        max_supersteps: u64,
    ) -> Result<u64, CongestError>
    where
        M: WireMsg,
    {
        assert_eq!(
            states.len(),
            self.g.n(),
            "state vector must match node count"
        );
        self.frontier_loop(None, states, send, recv, max_supersteps)
    }

    /// [`run_until_quiet`](Network::run_until_quiet) scoped to `active`
    /// (sorted, unique) with positional states — the quiescence loop for
    /// subproblem-local protocols. Every message must target an active
    /// node, and the active list is validated as in
    /// [`superstep_on`](Network::superstep_on).
    pub fn run_until_quiet_on<S, M>(
        &mut self,
        active: &[u32],
        states: &mut [S],
        send: impl FnMut(u32, &mut S, &mut Outbox<'_, M>) -> bool,
        recv: impl FnMut(u32, &mut S, Inbox<'_, M>) -> bool,
        max_supersteps: u64,
    ) -> Result<u64, CongestError>
    where
        M: WireMsg,
    {
        self.check_active(active, states.len())?;
        self.frontier_loop(Some(active), states, send, recv, max_supersteps)
    }

    /// The one quiescence loop body. `active == None` (or a list naming
    /// every node) means all of V, with states indexed by node id;
    /// otherwise states are positional and the active set plus its
    /// id → position map (`arena.active_pos`) are stamped once up front.
    fn frontier_loop<S, M>(
        &mut self,
        active: Option<&[u32]>,
        states: &mut [S],
        mut send: impl FnMut(u32, &mut S, &mut Outbox<'_, M>) -> bool,
        mut recv: impl FnMut(u32, &mut S, Inbox<'_, M>) -> bool,
        max_supersteps: u64,
    ) -> Result<u64, CongestError>
    where
        M: WireMsg,
    {
        let n = self.g.n();
        let active = active.filter(|list| list.len() < n);
        self.enter_scope(active);
        let id_of = |i: u32| active.map_or(i, |list| list[i as usize]);
        // Positions of the nodes `send` runs on: everyone first, then the
        // armed ones.
        let mut woken: Vec<u32> = (0..states.len() as u32).collect();
        let mut armed: Vec<u32> = Vec::new();
        let mut stage: Vec<(u32, u32, M)> = Vec::new();
        let mut deliv: Vec<Option<(u32, M)>> = Vec::new();
        let mut steps = 0;
        loop {
            for &i in &woken {
                let src = id_of(i);
                let mut out = Outbox {
                    src,
                    stage: &mut stage,
                };
                if send(src, &mut states[i as usize], &mut out) {
                    armed.push(i);
                }
            }
            if stage.is_empty() {
                return Ok(steps);
            }
            if steps == max_supersteps {
                return Err(CongestError::SuperstepBudget {
                    limit: max_supersteps,
                });
            }
            self.charge_stage(&stage, active.is_some())?;
            steps += 1;

            // Deliver to the receivers only: each window ends at the
            // receiver's advanced cursor, which is re-zeroed for the next
            // superstep.
            let arena = &mut self.arena;
            arena.scatter(&mut stage, &mut deliv);
            let mut rest = &mut deliv[..];
            let mut start = 0;
            for &v in &arena.receivers {
                let end = std::mem::take(&mut arena.cursor[v as usize]);
                let (window, r) = rest.split_at_mut(end - start);
                rest = r;
                start = end;
                let i = active.map_or(v as usize, |_| arena.active_pos[v as usize]);
                if recv(v, &mut states[i], Inbox { slots: window }) {
                    armed.push(i as u32);
                }
            }
            // Two ascending runs (armed by `send`, then by `recv`): the
            // run-detecting stable sort merges them in linear time.
            armed.sort();
            armed.dedup();
            std::mem::swap(&mut woken, &mut armed);
            armed.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twgraph::gen::{gnp, path};
    use twgraph::UGraph;

    #[derive(Clone, Debug, Default, PartialEq)]
    struct FloodState {
        dist: Option<u32>,
        fresh: bool,
    }

    /// BFS flood states with every vertex of `sources` at distance 0.
    fn flood_states(n: usize, sources: &[u32]) -> Vec<FloodState> {
        let mut states = vec![FloodState::default(); n];
        for &s in sources {
            states[s as usize] = FloodState {
                dist: Some(0),
                fresh: true,
            };
        }
        states
    }

    /// Frontier `send` of the flood: a fresh node floods its neighbours in
    /// `keep` and clears `fresh`; it never stays armed.
    fn flood_send<'g>(
        g: &'g UGraph,
        keep: impl Fn(u32) -> bool + 'g,
    ) -> impl FnMut(u32, &mut FloodState, &mut Outbox<'_, u32>) -> bool + 'g {
        move |u, s, out| {
            if s.fresh {
                let d = s.dist.unwrap();
                out.extend(
                    g.neighbors(u)
                        .iter()
                        .copied()
                        .filter(|&v| keep(v))
                        .map(|v| (v, d + 1)),
                );
                s.fresh = false;
            }
            false
        }
    }

    /// Frontier `recv` of the flood: an improved distance re-arms the node.
    fn flood_recv(_v: u32, s: &mut FloodState, inbox: Inbox<'_, u32>) -> bool {
        for (_src, d) in inbox {
            if s.dist.map_or(true, |cur| d < cur) {
                s.dist = Some(d);
                s.fresh = true;
            }
        }
        s.fresh
    }

    /// Distributed BFS flood through the frontier loop; returns the dists.
    fn flood(net: &mut Network, src: u32) -> Vec<Option<u32>> {
        let g = net.graph_handle();
        let mut states = flood_states(net.n(), &[src]);
        net.run_until_quiet(&mut states, flood_send(&g, |_| true), flood_recv, 10_000)
            .unwrap();
        states.into_iter().map(|s| s.dist).collect()
    }

    /// One superstep on all of V: `superstep_on` with an active list naming
    /// every node, so `states[v]` belongs to node `v`.
    fn superstep_all<S, M: WireMsg>(
        net: &mut Network,
        states: &mut [S],
        send: impl Fn(u32, &S) -> Vec<(u32, M)>,
        recv: impl FnMut(u32, &mut S, Inbox<'_, M>),
    ) -> Result<u64, CongestError> {
        let all: Vec<u32> = (0..net.n() as u32).collect();
        net.superstep_on(&all, states, send, recv)
    }

    /// Full-scan reference for the frontier loop, written over supersteps
    /// on all of V: every superstep evaluates the pure `send` on all n
    /// nodes and `recv` on every inbox, and the loop stops (uncharged) once
    /// no node would send — the quiescence loop as it was before frontiers.
    fn full_scan_quiet<S, M: WireMsg>(
        net: &mut Network,
        states: &mut [S],
        send: impl Fn(u32, &S) -> Vec<(u32, M)>,
        mut recv: impl FnMut(u32, &mut S, Inbox<'_, M>),
    ) -> u64 {
        let mut steps = 0;
        while (0..states.len()).any(|u| !send(u as u32, &states[u]).is_empty()) {
            superstep_all(net, states, &send, &mut recv).unwrap();
            steps += 1;
        }
        steps
    }

    /// The BFS flood of [`flood_send`]/[`flood_recv`] as a pure full-scan
    /// protocol (sends only to neighbours in `keep`); returns the states
    /// and the superstep count.
    fn full_scan_flood(
        net: &mut Network,
        sources: &[u32],
        keep: impl Fn(u32) -> bool,
    ) -> (Vec<FloodState>, u64) {
        let g = net.graph_handle();
        let mut states = flood_states(net.n(), sources);
        let steps = full_scan_quiet(
            net,
            &mut states,
            |u, s: &FloodState| match (s.fresh && keep(u), s.dist) {
                (true, Some(d)) => g
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&v| keep(v))
                    .map(|v| (v, d + 1))
                    .collect(),
                _ => Vec::new(),
            },
            |_v, s, inbox| {
                s.fresh = false;
                for (_src, d) in inbox {
                    if s.dist.map_or(true, |cur| d < cur) {
                        s.dist = Some(d);
                        s.fresh = true;
                    }
                }
            },
        );
        (states, steps)
    }

    #[test]
    fn flood_on_path_costs_diameter_rounds() {
        let g = path(10);
        let mut net = Network::new(g, NetworkConfig::default());
        let dists = flood(&mut net, 0);
        for (v, d) in dists.iter().enumerate() {
            assert_eq!(*d, Some(v as u32));
        }
        // Nine propagation supersteps plus the last node's final echo.
        assert_eq!(net.metrics().rounds, 10);
        assert_eq!(net.metrics().max_edge_words_in_superstep, 1);
    }

    #[test]
    fn big_messages_charge_extra_rounds() {
        let g = path(2);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![0u64; 2];
        let rounds = superstep_all(
            &mut net,
            &mut states,
            |u, _s| {
                if u == 0 {
                    vec![(1u32, vec![7u32; 5])] // one 5-word message
                } else {
                    Vec::new()
                }
            },
            |_v, s, inbox| {
                if let Some((_, payload)) = inbox.first() {
                    *s = payload.len() as u64;
                }
            },
        )
        .unwrap();
        assert_eq!(rounds, 5);
        assert_eq!(states[1], 5);
        assert_eq!(net.metrics().words, 5);
    }

    #[test]
    fn wider_bandwidth_reduces_rounds() {
        let g = path(2);
        let cfg = NetworkConfig {
            bandwidth_words: 4,
            ..Default::default()
        };
        let mut net = Network::new(g, cfg);
        let mut states = vec![(); 2];
        let rounds = superstep_all(
            &mut net,
            &mut states,
            |u, _s| {
                if u == 0 {
                    vec![(1u32, vec![0u32; 8])]
                } else {
                    Vec::new()
                }
            },
            |_v, _s, _inbox| {},
        )
        .unwrap();
        assert_eq!(rounds, 2); // ⌈8/4⌉
    }

    #[test]
    fn both_directions_accounted_separately() {
        let g = path(2);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![(); 2];
        // One word each way in the same superstep: full-duplex, 1 round.
        let rounds = superstep_all(
            &mut net,
            &mut states,
            |u, _s| vec![(1 - u, 1u32)],
            |_v, _s, _inbox| {},
        )
        .unwrap();
        assert_eq!(rounds, 1);
    }

    #[test]
    fn sending_to_non_neighbor_errors() {
        let g = path(3); // 0-1-2: 0 and 2 not adjacent
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![(); 3];
        let err = superstep_all(
            &mut net,
            &mut states,
            |u, _s| {
                if u == 0 {
                    vec![(2u32, 1u32)]
                } else {
                    Vec::new()
                }
            },
            |_v, _s, _inbox| {},
        )
        .unwrap_err();
        assert_eq!(err, CongestError::NonNeighborSend { from: 0, to: 2 });
        // A failed superstep charges nothing.
        assert_eq!(net.metrics().rounds, 0);
        assert_eq!(net.metrics().supersteps, 0);
    }

    /// A payload whose declared size is its value.
    #[derive(Clone)]
    struct Words(u64);

    impl WireMsg for Words {
        fn words(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn zero_word_message_errors_and_charges_nothing() {
        let mut net = Network::new(path(2), NetworkConfig::default());
        let mut step = |words: &[u64]| {
            let msgs: Vec<(u32, Words)> = words.iter().map(|&w| (1, Words(w))).collect();
            let send = |u: u32, _: &()| if u == 0 { msgs.clone() } else { Vec::new() };
            superstep_all(&mut net, &mut [(), ()], send, |_, _, _| {})
        };
        // Unchecked, the 0-word message would leave its slot's load at 0,
        // so the 3-word message would list the slot a second time and the
        // superstep would charge 6 words.
        let err = CongestError::ZeroWordMessage { from: 0, to: 1 };
        assert_eq!(step(&[0, 3]), Err(err));
        // The failed superstep charged nothing and left every slot load at
        // zero, so the next one charges its 3 words once.
        assert_eq!(step(&[3]), Ok(3));
        assert_eq!(net.metrics().words, 3);
        assert_eq!(net.metrics().supersteps, 1);
    }

    #[test]
    fn inbox_sorted_by_source() {
        let g = twgraph::UGraph::from_edges(4, [(3, 0), (3, 1), (3, 2)]);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states: Vec<Vec<u32>> = vec![Vec::new(); 4];
        superstep_all(
            &mut net,
            &mut states,
            |u, _s| if u != 3 { vec![(3u32, u)] } else { Vec::new() },
            |v, s, inbox| {
                if v == 3 {
                    *s = inbox.iter().map(|&(src, _)| src).collect();
                }
            },
        )
        .unwrap();
        assert_eq!(states[3], vec![0, 1, 2]);
    }

    #[test]
    fn uids_unique() {
        let g = path(100);
        let net = Network::new(g, NetworkConfig::default());
        let mut ids: Vec<u64> = (0..100).map(|v| net.uid(v)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn charged_rounds_tracked() {
        let g = path(2);
        let mut net = Network::new(g, NetworkConfig::default());
        net.charge_rounds(7);
        assert_eq!(net.metrics().rounds, 7);
        assert_eq!(net.metrics().charged_rounds, 7);
    }

    #[test]
    fn virtual_local_edges_are_free() {
        // Physical: 0-1. Virtual: 4 nodes, host v/2; local virtual edges
        // (0,1) and (2,3) must not be charged.
        let phys = path(2);
        let virt = twgraph::UGraph::from_edges(4, [(0, 1), (2, 3), (0, 2)]);
        let mut net =
            Network::with_hosts(virt, &phys, |v| v / 2, NetworkConfig::default()).unwrap();
        let mut states = vec![(); 4];
        // Heavy local chatter + one physical word: still 1 round.
        let rounds = superstep_all(
            &mut net,
            &mut states,
            |u, _s| match u {
                0 => vec![(1u32, vec![9u32; 100]), (2u32, vec![1u32; 1])],
                3 => vec![(2u32, vec![9u32; 50])],
                _ => Vec::new(),
            },
            |_v, _s, _inbox| {},
        )
        .unwrap();
        assert_eq!(rounds, 1);
        assert_eq!(net.metrics().words, 1); // only the physical word counted
    }

    #[test]
    fn virtual_network_charges_its_own_edges() {
        // Physical: 0-1-2. Virtual, host v/2: (0,2) rides {0,1}, (2,4)
        // rides {1,2}, (4,5) is local. Five words over (0,2) cost five
        // rounds; the local chatter costs nothing.
        let phys = path(3);
        let virt = twgraph::UGraph::from_edges(6, [(0, 2), (2, 4), (4, 5)]);
        let cfg = NetworkConfig::default();
        let mut net = Network::with_hosts(virt, &phys, |v| v / 2, cfg).unwrap();
        let mut states = vec![(); 6];
        let rounds = superstep_all(
            &mut net,
            &mut states,
            |u, _s| match u {
                0 => vec![(2u32, vec![1u32; 5])],
                4 => vec![(5u32, vec![9u32; 50])],
                _ => Vec::new(),
            },
            |_v, _s, _inbox| {},
        )
        .unwrap();
        assert_eq!((rounds, net.metrics().words), (5, 5));
        // Hosts 0 and 2 share no physical edge.
        let far = twgraph::UGraph::from_edges(6, [(0, 5)]);
        assert_eq!(
            Network::with_hosts(far, &phys, |v| v / 2, cfg).err(),
            Some(CongestError::UnsimulatableEdge { u: 0, v: 2 })
        );
    }

    #[test]
    fn arena_state_clean_between_supersteps() {
        // Two different traffic patterns back to back must account
        // independently (the touched-slot reset works).
        let g = path(3);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![(); 3];
        let r1 = superstep_all(
            &mut net,
            &mut states,
            |u, _s| {
                if u == 0 {
                    vec![(1u32, vec![1u32; 4])]
                } else {
                    Vec::new()
                }
            },
            |_v, _s, _inbox| {},
        )
        .unwrap();
        assert_eq!(r1, 4);
        let r2 = superstep_all(
            &mut net,
            &mut states,
            |u, _s| {
                if u == 2 {
                    vec![(1u32, 1u32)]
                } else {
                    Vec::new()
                }
            },
            |_v, _s, _inbox| {},
        )
        .unwrap();
        assert_eq!(r2, 1);
        assert_eq!(net.metrics().words, 5);
        assert_eq!(net.metrics().max_edge_words_in_superstep, 4);
    }

    #[test]
    fn phase_snapshots_partition_the_totals() {
        let g = path(12);
        let mut net = Network::new(g, NetworkConfig::default());
        flood(&mut net, 0);
        let p1 = net.snapshot("flood-a");
        flood(&mut net, 11);
        net.charge_rounds(3);
        let p2 = net.snapshot("flood-b");
        assert_eq!(net.phase_log().len(), 2);
        assert_eq!(p1.rounds + p2.rounds, net.metrics().rounds);
        assert_eq!(p1.words + p2.words, net.metrics().words);
        assert_eq!(p2.charged_rounds, 3);
        assert!(p1.max_edge_words_in_superstep >= 1);
    }

    #[test]
    fn accounting_recovers_from_violation_error() {
        // A rejected superstep must not leave dirty slot loads behind (the
        // arena is reused, unlike the seed's fresh buffers).
        let g = path(3);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![(); 3];
        let err = superstep_all(
            &mut net,
            &mut states,
            // Node 0 charges a legal 7-word message first, then node 2
            // violates the model — the error lands mid-accounting.
            |u, _s| match u {
                0 => vec![(1u32, vec![1u32; 7])],
                1 => vec![(0u32, vec![2u32; 3]), (2, vec![2u32; 3])],
                _ => vec![(0u32, vec![3u32; 5])], // 2 → 0: non-neighbor
            },
            |_v, _s, _inbox| {},
        );
        assert!(err.is_err());
        // A clean one-word superstep afterwards must charge exactly 1 round
        // and 1 word on top of nothing.
        let mut states = vec![(); 3];
        let rounds = superstep_all(
            &mut net,
            &mut states,
            |u, _s| {
                if u == 0 {
                    vec![(1u32, 1u32)]
                } else {
                    Vec::new()
                }
            },
            |_v, _s, _inbox| {},
        )
        .unwrap();
        assert_eq!(rounds, 1);
        assert_eq!(net.metrics().words, 1);
        assert_eq!(net.metrics().max_edge_words_in_superstep, 1);
    }

    /// Scoped flood over a sub-path, positional states.
    fn scoped_flood(net: &mut Network, active: &[u32], src: u32) -> Vec<Option<u32>> {
        let g = net.graph_handle();
        let mut states = vec![FloodState::default(); active.len()];
        states[active.binary_search(&src).unwrap()] = FloodState {
            dist: Some(0),
            fresh: true,
        };
        net.run_until_quiet_on(
            active,
            &mut states,
            flood_send(&g, |v| active.binary_search(&v).is_ok()),
            flood_recv,
            10_000,
        )
        .unwrap();
        states.into_iter().map(|s| s.dist).collect()
    }

    #[test]
    fn scoped_superstep_charges_like_dense() {
        // The same restricted flood, full scan over all n nodes (send empty
        // outside the set) versus the scoped frontier loop: identical
        // metrics, identical results.
        let g = path(64);
        let active: Vec<u32> = (8..24).collect();
        let mut dense = Network::new(g.clone(), NetworkConfig::default());
        let (states, _) = full_scan_flood(&mut dense, &[8], |v| active.binary_search(&v).is_ok());
        let mut scoped = Network::new(g, NetworkConfig::default());
        let got = scoped_flood(&mut scoped, &active, 8);
        assert_eq!(*dense.metrics(), *scoped.metrics());
        for (i, &v) in active.iter().enumerate() {
            assert_eq!(got[i], states[v as usize].dist, "node {v}");
        }
    }

    /// Run the multi-source flood through the frontier loop and through the
    /// full-scan reference on two fresh networks built by `make`, and
    /// require identical states, superstep counts and metrics.
    fn assert_frontier_matches_full_scan(make: impl Fn() -> Network, sources: &[u32]) {
        let mut reference = make();
        let (want, want_steps) = full_scan_flood(&mut reference, sources, |_| true);
        let mut net = make();
        let g = net.graph_handle();
        let mut got = flood_states(net.n(), sources);
        let steps = net
            .run_until_quiet(&mut got, flood_send(&g, |_| true), flood_recv, 10_000)
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(steps, want_steps);
        assert_eq!(*net.metrics(), *reference.metrics());
        assert!(net.metrics().messages > 0);
    }

    #[test]
    fn frontier_matches_full_scan_on_gnp_with_isolated_vertices() {
        let g = gnp(120, 0.025, 7);
        assert!((0..120).any(|v| g.degree(v) == 0), "want isolated vertices");
        let isolated = (0..120).find(|&v| g.degree(v) == 0).unwrap();
        assert_frontier_matches_full_scan(
            || Network::new(g.clone(), NetworkConfig::default()),
            &[0, 17, isolated, 99],
        );
    }

    #[test]
    fn frontier_matches_full_scan_on_grid() {
        let g = twgraph::gen::grid(7, 9);
        assert_frontier_matches_full_scan(
            || Network::new(g.clone(), NetworkConfig::default()),
            &[0],
        );
        assert_frontier_matches_full_scan(
            || Network::new(g.clone(), NetworkConfig::default()),
            &[4, 31, 62],
        );
    }

    #[test]
    fn frontier_matches_full_scan_on_virtual_network() {
        // Physical path 0-…-5; virtual node v lives on host v / 2. The pair
        // edges (2i, 2i+1) are node-local (free); the others ride physical
        // edges.
        let phys = path(6);
        let mut edges = Vec::new();
        for i in 0..6u32 {
            edges.push((2 * i, 2 * i + 1));
            if i + 1 < 6 {
                edges.push((2 * i + 1, 2 * i + 2));
                edges.push((2 * i, 2 * i + 3));
            }
        }
        let virt = twgraph::UGraph::from_edges(12, edges);
        let make = || {
            Network::with_hosts(virt.clone(), &phys, |v| v / 2, NetworkConfig::default()).unwrap()
        };
        assert_frontier_matches_full_scan(make, &[0]);
        assert_frontier_matches_full_scan(make, &[1, 10]);
    }

    #[test]
    fn frontier_loop_visits_only_the_frontier() {
        // A BFS flood over path(1000) runs ~n supersteps; a full scan would
        // call send and recv ~n² times, the frontier loop O(n) times.
        let n = 1000;
        let g = path(n);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let mut states = flood_states(n, &[0]);
        let (mut sends, mut recvs) = (0usize, 0usize);
        let mut send = flood_send(&g, |_| true);
        let steps = net
            .run_until_quiet(
                &mut states,
                |u, s, out| {
                    sends += 1;
                    send(u, s, out)
                },
                |v, s, inbox| {
                    recvs += 1;
                    flood_recv(v, s, inbox)
                },
                10_000,
            )
            .unwrap();
        assert_eq!(steps, n as u64);
        assert_eq!(states[n - 1].dist, Some(n as u32 - 1));
        assert!(sends <= 2 * n, "send ran {sends} times");
        assert!(recvs <= 2 * n, "recv ran {recvs} times");
    }

    #[test]
    fn superstep_budget_is_a_typed_error() {
        // Ping-pong on path(2): a ball starting at node 0 with `k` bounces
        // left takes exactly k productive supersteps.
        let k = 7u64;
        let run = |budget: u64| {
            let mut net = Network::new(path(2), NetworkConfig::default());
            let mut states: Vec<Option<u64>> = vec![Some(k), None];
            let res = net.run_until_quiet(
                &mut states,
                |u, s, out| {
                    if let Some(left @ 1..) = s.take() {
                        out.send(1 - u, left - 1);
                    }
                    false
                },
                |_v, s, inbox| {
                    for (_src, left) in inbox {
                        *s = Some(left);
                    }
                    true
                },
                budget,
            );
            (res, *net.metrics())
        };
        let (res, m) = run(k);
        assert_eq!(res, Ok(k));
        assert_eq!(m.supersteps, k);
        let (res, m) = run(k - 1);
        assert_eq!(res, Err(CongestError::SuperstepBudget { limit: k - 1 }));
        // The supersteps already run stay charged; the one over budget not.
        assert_eq!(m.supersteps, k - 1);
        assert_eq!(m.messages, k - 1);
    }

    /// Both scoped entry points on `path(4)` with the given active list;
    /// returns their results and checks nothing was charged.
    fn run_scoped(active: &[u32]) -> (Result<u64, CongestError>, Result<u64, CongestError>) {
        let mut net = Network::new(path(4), NetworkConfig::default());
        let mut states = vec![(); active.len()];
        let single = net.superstep_on(
            active,
            &mut states,
            |u, _s| vec![(u ^ 1, 1u32)],
            |_v, _s, _inbox| {},
        );
        let looped = net.run_until_quiet_on(
            active,
            &mut states,
            |u, _s, out| {
                out.send(u ^ 1, 1u32);
                false
            },
            |_v, _s, _inbox| false,
            10,
        );
        assert_eq!(net.metrics().supersteps, 0);
        assert_eq!(net.metrics().rounds, 0);
        (single, looped)
    }

    #[test]
    fn unsorted_active_list_is_rejected() {
        for (active, position) in [(&[1u32, 0][..], 1), (&[0, 1, 1], 2), (&[2, 3, 0], 2)] {
            let err = Err(CongestError::UnsortedActiveList { position });
            assert_eq!(run_scoped(active), (err, err), "active {active:?}");
        }
    }

    #[test]
    fn out_of_range_active_list_is_rejected() {
        let err = Err(CongestError::ActiveOutOfRange { vertex: 4, n: 4 });
        assert_eq!(run_scoped(&[0, 1, 4]), (err, err));
        let err = Err(CongestError::ActiveOutOfRange {
            vertex: u32::MAX,
            n: 4,
        });
        assert_eq!(run_scoped(&[u32::MAX]), (err, err));
    }

    #[test]
    fn scoped_superstep_rejects_outside_recipient() {
        let g = path(4);
        let mut net = Network::new(g, NetworkConfig::default());
        let active = [1u32, 2];
        let mut states = vec![(); 2];
        let err = net
            .superstep_on(
                &active,
                &mut states,
                |u, _s| {
                    if u == 1 {
                        vec![(0u32, 1u32)]
                    } else {
                        Vec::new()
                    }
                },
                |_v, _s, _inbox| {},
            )
            .unwrap_err();
        assert_eq!(err, CongestError::InactiveRecipient { from: 1, to: 0 });
        // Nothing charged; a later clean scoped superstep works.
        assert_eq!(net.metrics().supersteps, 0);
        let rounds = net
            .superstep_on(
                &active,
                &mut states,
                |u, _s| {
                    if u == 1 {
                        vec![(2u32, 1u32)]
                    } else {
                        Vec::new()
                    }
                },
                |_v, _s, _inbox| {},
            )
            .unwrap();
        assert_eq!(rounds, 1);
        assert_eq!(net.metrics().words, 1);
    }

    #[test]
    fn scoped_inbox_windows_line_up() {
        // Star into node 5, scoped to {1, 3, 5}: node 5's window sees both
        // messages sorted by source; the others see empty windows.
        let g = twgraph::UGraph::from_edges(6, [(1, 5), (3, 5), (0, 5)]);
        let mut net = Network::new(g, NetworkConfig::default());
        let active = [1u32, 3, 5];
        let mut states: Vec<Vec<u32>> = vec![Vec::new(); 3];
        net.superstep_on(
            &active,
            &mut states,
            |u, _s| if u != 5 { vec![(5u32, u)] } else { Vec::new() },
            |v, s, inbox| {
                if v == 5 {
                    *s = inbox.iter().map(|&(src, _)| src).collect();
                } else {
                    assert!(inbox.is_empty());
                }
            },
        )
        .unwrap();
        assert_eq!(states[2], vec![1, 3]);
    }

    #[test]
    fn scoped_then_dense_then_scoped_bookkeeping_clean() {
        // Interleave scoped and dense supersteps with different active
        // sets: stale cursor entries must never leak into a later layout.
        let g = path(8);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let d1 = scoped_flood(&mut net, &[0, 1, 2], 0);
        assert_eq!(d1, vec![Some(0), Some(1), Some(2)]);
        let full = flood(&mut net, 0);
        assert_eq!(full[7], Some(7));
        let d2 = scoped_flood(&mut net, &[4, 5, 6, 7], 6);
        assert_eq!(d2, vec![Some(2), Some(1), Some(0), Some(1)]);
    }
}
