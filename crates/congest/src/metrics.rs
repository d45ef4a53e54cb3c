//! Cost accounting for simulated executions.

/// Cumulative execution metrics of a [`crate::Network`].
///
/// Besides the running totals, a `Metrics` carries a *phase mark*: calling
/// [`snapshot`](Metrics::snapshot) returns everything charged since the
/// previous snapshot (or since the start) as a named [`PhaseSnapshot`] and
/// advances the mark, so each pipeline stage (decompose / label / query)
/// can report its own rounds-words-congestion delta.
#[derive(Clone, Copy, Debug, Default)]
pub struct Metrics {
    /// Charged CONGEST rounds (the headline figure in every experiment).
    pub rounds: u64,
    /// Number of supersteps executed.
    pub supersteps: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total words moved across (physical) edges.
    pub words: u64,
    /// Largest per-directed-edge word load observed in any single superstep —
    /// the *congestion* that Lemma 9 bounds by Õ(τ) for part-wise aggregation.
    pub max_edge_words_in_superstep: u64,
    /// Rounds charged explicitly by orchestrators (control pulses, local
    /// gather allowances) rather than by message traffic.
    pub charged_rounds: u64,
    /// Totals at the last [`snapshot`](Metrics::snapshot) call.
    mark: PhaseMark,
    /// Peak single-superstep edge congestion since the last snapshot
    /// (phase-local, unlike the global `max_edge_words_in_superstep`).
    phase_congestion: u64,
}

/// Equality compares the six charged counters only — two executions with
/// identical costs are equal even if their pipelines took a different
/// number of [`snapshot`](Metrics::snapshot) calls along the way.
impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        self.rounds == other.rounds
            && self.supersteps == other.supersteps
            && self.messages == other.messages
            && self.words == other.words
            && self.max_edge_words_in_superstep == other.max_edge_words_in_superstep
            && self.charged_rounds == other.charged_rounds
    }
}

impl Eq for Metrics {}

/// The counter values frozen at a phase boundary (internal).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PhaseMark {
    rounds: u64,
    supersteps: u64,
    messages: u64,
    words: u64,
    charged_rounds: u64,
}

impl Metrics {
    /// Record one executed superstep (engine-internal accounting).
    pub(crate) fn note_superstep(&mut self, rounds: u64, messages: u64, words: u64, max_slot: u64) {
        self.rounds += rounds;
        self.supersteps += 1;
        self.messages += messages;
        self.words += words;
        self.max_edge_words_in_superstep = self.max_edge_words_in_superstep.max(max_slot);
        self.phase_congestion = self.phase_congestion.max(max_slot);
    }

    /// Record explicitly charged control rounds (engine-internal).
    pub(crate) fn note_charged(&mut self, rounds: u64) {
        self.rounds += rounds;
        self.charged_rounds += rounds;
    }

    /// Close the current phase: return everything charged since the last
    /// `snapshot` (or since the start) under the name `phase`, and start a
    /// new phase. The phase's congestion is exact (the peak single-superstep
    /// edge load *within* the phase, not the global running maximum).
    pub fn snapshot(&mut self, phase: &str) -> PhaseSnapshot {
        let snap = PhaseSnapshot {
            phase: phase.to_string(),
            rounds: self.rounds - self.mark.rounds,
            supersteps: self.supersteps - self.mark.supersteps,
            messages: self.messages - self.mark.messages,
            words: self.words - self.mark.words,
            charged_rounds: self.charged_rounds - self.mark.charged_rounds,
            max_edge_words_in_superstep: self.phase_congestion,
        };
        self.mark = PhaseMark {
            rounds: self.rounds,
            supersteps: self.supersteps,
            messages: self.messages,
            words: self.words,
            charged_rounds: self.charged_rounds,
        };
        self.phase_congestion = 0;
        snap
    }

    /// View the *totals* as one phase named `phase`, without touching the
    /// mark — for callers that hold a finished `Metrics` by value (e.g. a
    /// virtual network's result) and want a row in a phase table.
    pub fn as_phase(&self, phase: &str) -> PhaseSnapshot {
        PhaseSnapshot {
            phase: phase.to_string(),
            rounds: self.rounds,
            supersteps: self.supersteps,
            messages: self.messages,
            words: self.words,
            charged_rounds: self.charged_rounds,
            max_edge_words_in_superstep: self.max_edge_words_in_superstep,
        }
    }
}

/// One named phase's charged costs (see [`Metrics::snapshot`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// The phase name passed to `snapshot`.
    pub phase: String,
    /// Rounds charged within the phase.
    pub rounds: u64,
    /// Supersteps executed within the phase.
    pub supersteps: u64,
    /// Messages delivered within the phase.
    pub messages: u64,
    /// Words moved within the phase.
    pub words: u64,
    /// Control rounds charged explicitly within the phase.
    pub charged_rounds: u64,
    /// Peak single-superstep edge congestion within the phase.
    pub max_edge_words_in_superstep: u64,
}

impl PhaseSnapshot {
    /// Fold another phase's counters into this one under the **parallel
    /// composition** rule: two executions over vertex-disjoint subgraphs
    /// run concurrently in CONGEST, so round-like counters (rounds,
    /// supersteps, charged control rounds) take the maximum while traffic
    /// counters (messages, words) sum; peak per-edge congestion is a max
    /// because disjoint subgraphs never share an edge. The phase name of
    /// `self` is kept.
    pub fn par_absorb(&mut self, other: &PhaseSnapshot) {
        self.rounds = self.rounds.max(other.rounds);
        self.supersteps = self.supersteps.max(other.supersteps);
        self.messages += other.messages;
        self.words += other.words;
        self.charged_rounds = self.charged_rounds.max(other.charged_rounds);
        self.max_edge_words_in_superstep = self
            .max_edge_words_in_superstep
            .max(other.max_edge_words_in_superstep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charged(rounds: u64, supersteps: u64, messages: u64, words: u64, max_slot: u64) -> Metrics {
        let mut m = Metrics::default();
        m.note_superstep(rounds, messages, words, max_slot);
        m.supersteps = supersteps;
        m
    }

    #[test]
    fn snapshot_reports_phase_deltas_and_resets() {
        let mut m = Metrics::default();
        m.note_superstep(5, 10, 20, 7);
        m.note_charged(3);
        let p1 = m.snapshot("decompose");
        assert_eq!(p1.phase, "decompose");
        assert_eq!(p1.rounds, 8);
        assert_eq!(p1.supersteps, 1);
        assert_eq!(p1.messages, 10);
        assert_eq!(p1.words, 20);
        assert_eq!(p1.charged_rounds, 3);
        assert_eq!(p1.max_edge_words_in_superstep, 7);

        // A later, lighter phase: its congestion must be phase-local (2),
        // not the global running max (7).
        m.note_superstep(2, 4, 4, 2);
        let p2 = m.snapshot("label");
        assert_eq!(p2.rounds, 2);
        assert_eq!(p2.supersteps, 1);
        assert_eq!(p2.max_edge_words_in_superstep, 2);
        assert_eq!(m.max_edge_words_in_superstep, 7);
    }

    #[test]
    fn par_absorb_maxes_rounds_and_sums_traffic() {
        let mut p = charged(10, 3, 100, 150, 4).as_phase("left");
        let q = charged(25, 5, 80, 90, 6).as_phase("right");
        p.par_absorb(&q);
        assert_eq!(p.phase, "left");
        assert_eq!(p.rounds, 25);
        assert_eq!(p.supersteps, 5);
        assert_eq!(p.messages, 180);
        assert_eq!(p.words, 240);
        assert_eq!(p.max_edge_words_in_superstep, 6);
    }

    #[test]
    fn as_phase_views_totals_without_advancing() {
        let mut m = Metrics::default();
        m.note_superstep(5, 10, 20, 3);
        let p = m.as_phase("total");
        assert_eq!(p.rounds, 5);
        // The mark did not move: a snapshot still sees everything.
        assert_eq!(m.snapshot("all").rounds, 5);
    }
}
