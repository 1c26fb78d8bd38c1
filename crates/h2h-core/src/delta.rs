//! The incremental-evaluation search core (paper §4.2 / §4.4).
//!
//! Every H2H search loop asks the same question thousands of times:
//! *"if layer L moved to accelerator A, what would the system cost
//! be?"*. Historically each candidate re-ran the full knapsack +
//! fusion rebuild and a full `O(V+E)` list schedule. [`DeltaEngine`]
//! answers it incrementally instead:
//!
//! 1. **Pin diff** — a move from accelerator `A` to `B` can only change
//!    the weight-knapsack inputs *of `A` and `B`* (knapsacks are
//!    per-accelerator), so only those two accelerators' pins are
//!    re-derived; every other accelerator's pins carry over. Usually
//!    even that is one pin: when both boards already pin every weighted
//!    layer they host, `B` still fits the moved layer beside its own and
//!    the knapsack is not `Dp` (whose grid rounds weights up), the
//!    scoped step 2 pins everything it is offered, so the only change is
//!    the moved layer's pin, from `A` to `B`, applied in `O(1)`. The
//!    fit test is the all-fit branch of `weight_locality_pass` itself,
//!    and debug builds check each diff against the scoped pass run on a
//!    scratch copy. Otherwise the engine strips both boards' pins and
//!    reruns the pass on them. The engine keeps, per board, whether
//!    every weighted layer on it is pinned: an accepted diff leaves both
//!    flags set, and a fallback recounts its two boards.
//! 2. **Delta scheduling from a fusion-free resting state** — the
//!    engine's [`IncrementalSchedule`] rests at the current mapping's
//!    *pins-only* state (step 2 done, no fused edge), which is where the
//!    reference's step 3 starts. Staging a move refreshes the moved
//!    layer, its graph neighbours and the pin diff, propagates once to
//!    reach the moved mapping's pins-only state, takes a savepoint there
//!    and replays the fusion pass on top, re-timing only the affected
//!    cone (graph successors + same-accelerator queue successors) of
//!    each change instead of the whole graph. A reject rolls the
//!    transaction back to the resting state. An accept rolls back to the
//!    savepoint and commits, so the schedule rests at the new mapping's
//!    pins-only state, and the engine adopts the replayed locality, the
//!    new pins and the score read before the rollback. Cost refreshes
//!    are *deferred*: they batch up and land right before the next
//!    exact read, so a layer several fusions touch is re-derived once.
//!    The wavefront then re-times only the ranks that read needs (a
//!    risky guard reads `from` and its readers); the rest stay pending
//!    until a makespan read or the end of the replay settles them, so a
//!    cone several fusions seed is re-timed once.
//!
//! # Scoring a candidate (bitwise-exact)
//!
//! The fusion pass guards "risky" candidates with a *global* makespan
//! comparison, so the staged rebuild replays the fusion pass over
//! **all** accelerators in its exact global order, with the guard
//! answered by the incremental schedule (bitwise-equal to the full
//! evaluation it replaces). The greedy step first asks the latency
//! screen whether the candidate can win at all; every candidate it lets
//! through, and every candidate the annealer stages, takes that one
//! replay. A candidate that meets no risky guard pays only the landing
//! propagation of its move and pins and the replay's final settle; each
//! risky guard it meets costs what its row says:
//!
//! | Candidate or guard | Path | Cost |
//! |---|---|---|
//! | latency objective, floor makespan cannot beat the incumbent | **screened**: rejected unstaged | one floor propagation, no fusion pass |
//! | latency objective, floor passes but no branch of its split on fusion outcomes can beat the incumbent | **split-screened**: rejected unstaged | one floor propagation per branch its critical path does not close |
//! | split branch whose re-timed critical path already cannot beat the incumbent | **path-closed**: rolled back unpropagated | `O(path)` re-time of the path the split walked |
//! | any risky guard not refused for capacity | **settled to its rank** | the pending ranks up to `from`'s highest reader re-timed, the rest left pending |
//! | risky guard **proven** by the delay walk | global replay, guard pruned | at most 8 raised layers and their readers read, deferred refresh |
//! | risky guard unproven, accepted | global replay, toggle kept | a full settle + one cone propagation |
//! | risky guard unproven, rejected | global replay, toggle undone | a full settle + one cone propagation + `O(cone)` journal restore |
//!
//! * **Latency screen** ([`DeltaEngine::try_improving_move`] under
//!   [`MapObjective::Latency`] only) — most step-4 moves are rejected,
//!   yet staging one pays the whole fusion replay. The engine
//!   keeps a second, *floor* schedule beside the exact one: the same
//!   queues and `max`/`+` recurrence, with each layer's duration from
//!   [`Evaluator::layer_cost_floor`], a lower bound on the exact
//!   duration under any fusion set step 3 can choose for the current
//!   pins. Pricing a candidate on it runs the two touched boards'
//!   scoped step 2 (pins are exact, not bounded), refreshes the moved
//!   layer, its graph neighbours and the pin diff, and propagates once.
//!   The recurrence is monotone in every input under IEEE
//!   round-to-nearest (`max`, `+`), so by induction in queue order
//!   every floor start and finish is at most the exact one, and the
//!   floor makespan is at most the exact makespan — bitwise, not up to
//!   rounding. A candidate whose floor fails the accept rule's own test
//!   `floor + ACCEPT_EPSILON < best` therefore fails it exactly too,
//!   and is rejected without staging ([`SearchStats::screened`]):
//!   decisions stay identical.
//! * **Split on fusion outcomes** (same screen) — most moves the floor
//!   lets through leave the exact makespan unchanged. They pass the
//!   floor only because it lets a producer drop the DRAM write an
//!   accepted fusion costs while its co-located consumers keep their
//!   cheap DRAM reads; no single fusion set does both.
//!   - *Partition.* For a producer, "some co-located consumer fused"
//!     and "none fused" partition every fusion set step 3 can choose.
//!     [`Evaluator::layer_cost_floor`] takes a per-producer
//!     [`FusionOutcome`] that prices one class: the fused class pays
//!     the all-fused OFM, the unfused class the none-fused upload, with
//!     every co-located consumer's edge from it at its route.
//!   - *Monotonicity.* Each term is a value the exact kernel produces
//!     for every fusion set of the class, with the same IEEE
//!     operations, so per-layer durations are bitwise lower bounds
//!     within the class, and the monotone recurrence makes a branch's
//!     floor makespan a lower bound on the exact makespan of every
//!     fusion set in it. A class the replay cannot reach (one that
//!     fails capacity, say) only loosens its branch. A move whose
//!     every branch fails the accept rule's test therefore fails it
//!     exactly too.
//!   - *Search.* When the floor passes, the screen walks the floor
//!     schedule's critical path back from the makespan tail to the
//!     first free producer whose none-fused OFM is below its all-fused
//!     one (only there do both classes raise some duration), prices
//!     each class on the floor's own schedule under a savepoint (the
//!     producer and its co-located consumers refreshed) and recurses,
//!     depth first, into any branch that still passes.
//!   - *Closing on the path.* Before a branch propagates, the screen
//!     re-times the critical path it walked forward from the producer
//!     under the branch's raised durations, every off-path input at its
//!     current floor time. Both classes only raise durations, so every
//!     input only rises and the re-timed tail finish bounds the branch's
//!     floor makespan from below, bitwise; a branch it already fails is
//!     closed without propagating its cone. Otherwise the branch
//!     propagates once. Only if every branch fails is the move rejected
//!     ([`SearchStats::split_screened`]); an open leaf with nothing
//!     left to split, six producers fixed or 64 branches priced
//!     (`SPLIT_MAX_DEPTH`, `SPLIT_MAX_BRANCHES`) sends it to staging.
//!     Either way the floor is rolled back to the pricing state.
//!
//!   Any candidate the screen does not reject keeps its floor
//!   transaction open; it commits or rolls back with the staged
//!   candidate, so an accept needs no rebuild. The annealer stages
//!   directly and needs exact scores for its Metropolis rule, so it
//!   never builds or reads the floor.
//! * **Delay walk** — before a risky guard replays its toggle,
//!   `DeltaOracle::resolve_guard` settles the schedule up to `from`'s
//!   readers and tries to *prove* the accept: the toggle raises
//!   `from`'s finish to an exactly computable `nf` and changes `to`'s
//!   duration, and a bounded, read-only walk follows the raised
//!   finishes through their readers in rank order, each computed with
//!   the schedule's own monotone recurrence. When every raised layer
//!   ends at a reader that does not rise (or, a sink, inside the
//!   makespan), the toggled makespan cannot exceed the current one, and
//!   the guard accepts without touching the schedule (see `DelayWalk`).
//!   The large majority of guards resolve this way
//!   ([`SearchStats::guards_skipped`] / [`SearchStats::guards_total`]);
//!   past 8 raised layers, and for every reject, the guard toggles.
//! * **`O(cone)` guard reverts** — unproven guards still toggle and
//!   measure, but the toggle runs inside a journal savepoint
//!   ([`h2h_system::incremental::IncrementalSchedule::savepoint`]), so
//!   a rejected guard restores the touched set by replaying the
//!   recorded undo entries ([`SearchStats::guard_reverts_fast`])
//!   instead of paying a second cost-refresh + re-propagation.
//!
//! # Seeding (step 3 on the engine's own schedule)
//!
//! [`DeltaEngine::new`] seeds the engine the way staging scores a
//! candidate: step 2 (`weight_locality_opt`), the pins-only
//! [`IncrementalSchedule`], and, inside a transaction, the shared fusion
//! pass replayed through the same oracle, delay walk and savepoint
//! reverts included. The seed score and makespan are read from the
//! schedule's proxy, and the transaction is rolled back, so the engine
//! rests at the pins-only state. The seed therefore costs no full
//! evaluation, where the one-shot step 3 pays up to two per risky
//! guard. The replay is step 3's work, so it adds nothing to the
//! search's counters. Debug builds check every seed against the
//! one-shot steps 2–3 and a full evaluation, bitwise, on a copy of the
//! evaluator. `H2hMapper::run` takes its step-3 locality from the
//! engine it then searches with, so steps 2–3 run once per map.
//!
//! Accepted candidates commit the delta state directly; the only full
//! evaluation in a search run is its finalization. Final
//! mappings and latencies are identical to the per-candidate
//! full-re-evaluation reference,
//! [`crate::remap::data_locality_remapping_reference`] (asserted by the
//! equivalence suites on the zoo, on random and synthetic models and on
//! non-uniform fabrics).
//!
//! [`SearchStats`] counts screened (and split-screened) moves and
//! delta vs full evaluations so the savings are observable (`h2h-bench`
//! records them in `BENCH_search.json`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::Serialize;

use h2h_model::graph::LayerId;
use h2h_model::tensor::DataType;
use h2h_model::units::{Bytes, Seconds};
use h2h_system::incremental::{IncrementalSchedule, Savepoint};
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{Evaluator, FusionOutcome, Schedule};
use h2h_system::system::AccId;

use crate::activation_fusion::{fusion_pass, sorted_fusable_edges, FusionOracle};
use crate::config::{H2hConfig, KnapsackKind, MapObjective, ACCEPT_EPSILON};
use crate::preset::PinPreset;
use crate::weight_locality::{
    pin_saving_per_byte, pins_every_item, weight_locality_opt, weight_locality_pass,
};

/// Deepest chain of producers the latency screen's split fixes before
/// it gives up on a move (see the module docs).
const SPLIT_MAX_DEPTH: usize = 6;

/// Branches the latency screen's split may price for one move before it
/// gives up on it.
const SPLIT_MAX_BRANCHES: usize = 64;

/// Instrumentation of one search run: how often the delta engine
/// answered a candidate query versus how often a full evaluation was
/// needed, and how local the delta updates were.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SearchStats {
    /// Candidate moves scored by the delta engine.
    pub delta_evals: usize,
    /// Always 0: every delta evaluation takes the global fusion
    /// replay. Kept only until the next benchmark change stops reading
    /// it.
    pub prefix_evals: usize,
    /// Full `Evaluator::evaluate` calls on the search path. The delta
    /// engine spends one, its finalization: its seed is step 3 replayed
    /// on its own schedule. The full-re-evaluation reference spends one
    /// per attempted move plus its seed.
    pub full_evals: usize,
    /// Full (all-accelerator) locality rebuilds.
    pub full_rebuilds: usize,
    /// Scoped (two-accelerator) locality rebuilds.
    pub scoped_rebuilds: usize,
    /// Total layers re-timed across all delta propagations.
    pub propagated_layers: usize,
    /// Individual propagation rounds executed (each re-times one
    /// affected cone).
    pub propagations: usize,
    /// Largest single propagation cone.
    pub max_propagated: usize,
    /// Risky fusion guards reached by the delta replay (each one the
    /// reference answers with a toggle + global makespan comparison).
    pub guards_total: usize,
    /// Risky guards whose accept was *proven* by the delay walk,
    /// skipping the toggle/revert replay. Capacity-refused fusions
    /// (which also avoid the replay, trivially) are deliberately not
    /// counted, so the share of `guards_total` is the walk's own — the
    /// CI gate relies on that.
    pub guards_skipped: usize,
    /// Rejected risky guards whose toggle was undone by the journal's
    /// `O(cone)` savepoint restore instead of a second re-propagation.
    pub guard_reverts_fast: usize,
    /// Moves attempted by the search loop.
    pub attempted_moves: usize,
    /// Attempted moves the latency screen rejected on a floor makespan
    /// ([`DeltaEngine::try_improving_move`]). They count in
    /// `attempted_moves` and in the propagation counters (one floor
    /// round each, plus one per branch priced), but in no evaluation or
    /// rebuild counter.
    pub screened: usize,
    /// The subset of `screened` rejected only after splitting the floor
    /// on producers' fusion outcomes: the floor itself passed the accept
    /// rule's test, but every branch failed it.
    pub split_screened: usize,
    /// Moves accepted.
    pub accepted_moves: usize,
    /// Full passes executed (remap loop only).
    pub passes: usize,
}

impl SearchStats {
    /// Full evaluations a per-candidate-full-re-evaluation
    /// implementation would have spent: one per attempted move (the
    /// historical inner loop), versus [`SearchStats::full_evals`]
    /// actually spent.
    pub fn full_evals_saved_ratio(&self) -> f64 {
        if self.full_evals == 0 {
            return self.attempted_moves as f64;
        }
        self.attempted_moves as f64 / self.full_evals as f64
    }

    /// Mean layers re-timed per propagation round — the paper's
    /// locality-of-update measure, always ≤
    /// [`SearchStats::max_propagated`]. (A candidate evaluation may run
    /// several propagation rounds, so this is deliberately *not*
    /// normalized by [`SearchStats::delta_evals`]: doing so once
    /// inflated the "mean" far beyond the largest possible cone.)
    pub fn mean_propagated(&self) -> f64 {
        if self.propagations == 0 {
            return 0.0;
        }
        self.propagated_layers as f64 / self.propagations as f64
    }

    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.delta_evals += other.delta_evals;
        self.full_evals += other.full_evals;
        self.full_rebuilds += other.full_rebuilds;
        self.scoped_rebuilds += other.scoped_rebuilds;
        self.propagated_layers += other.propagated_layers;
        self.propagations += other.propagations;
        self.max_propagated = self.max_propagated.max(other.max_propagated);
        self.guards_total += other.guards_total;
        self.guards_skipped += other.guards_skipped;
        self.guard_reverts_fast += other.guard_reverts_fast;
        self.attempted_moves += other.attempted_moves;
        self.screened += other.screened;
        self.split_screened += other.split_screened;
        self.accepted_moves += other.accepted_moves;
        self.passes += other.passes;
    }
}

fn note_propagation(stats: &mut SearchStats, touched: usize) {
    stats.propagated_layers += touched;
    stats.propagations += 1;
    stats.max_propagated = stats.max_propagated.max(touched);
}

/// Wall-clock breakdown of one engine's search time by phase, filled
/// only when [`H2hConfig::profile_phases`] is on (`bench_search
/// --profile`). Deliberately **not** part of [`SearchStats`]: the stat
/// counters are pinned byte for byte, while wall-clock numbers are
/// machine- and run-specific. The engine scores on the calling thread,
/// so the buckets are elapsed seconds spent inside its staging,
/// rollback and commit calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct PhaseProfile {
    /// Candidate scoring outside the other buckets: the scoped step 2,
    /// fusion-pass bookkeeping, staged-candidate rollback.
    pub scoring_s: f64,
    /// Deferred cost refresh + cone propagation rounds (the
    /// `DeltaOracle` settle/toggle paths).
    pub propagate_s: f64,
    /// Risky-guard resolution: delay walks, toggle savepoints and
    /// `O(cone)` reverts.
    pub guard_s: f64,
    /// Committing accepted candidates into the engine state.
    pub commit_s: f64,
}

impl PhaseProfile {
    /// Sum of all buckets.
    pub fn total(&self) -> f64 {
        self.scoring_s + self.propagate_s + self.guard_s + self.commit_s
    }

    /// Accumulates another run's profile into this one.
    pub fn absorb(&mut self, other: &PhaseProfile) {
        self.scoring_s += other.scoring_s;
        self.propagate_s += other.propagate_s;
        self.guard_s += other.guard_s;
        self.commit_s += other.commit_s;
    }
}

/// The [`FusionOracle`] that answers the shared fusion pass's makespan
/// guards from the incremental schedule. Cost refreshes (the staged
/// move itself and its pin diff, then fused edge endpoints) batch in
/// `pending` and structural re-queue seeds in `pending_seeds`; both land
/// lazily right before a guard reads the schedule, and the wavefront
/// re-times only the ranks that read needs ([`DeltaOracle::settle_to`]);
/// a makespan read, and the end of the replay via [`DeltaOracle::flush`],
/// settle everything. A layer several fusions touch within one candidate
/// is refreshed once, with its final state, and a cone several fusions
/// seed is re-timed once.
///
/// Risky guards additionally go through [`FusionOracle::resolve_guard`]'s
/// delay walk (see [`DelayWalk`] for the proof) and, when the toggle
/// replay does run, a journal savepoint turns a rejected guard's revert
/// into an `O(cone)` restore instead of a second re-propagation.
struct DeltaOracle<'x, 'e, 'm> {
    ev: &'e Evaluator<'m>,
    mapping: &'x Mapping,
    inc: &'x mut IncrementalSchedule,
    stats: &'x mut SearchStats,
    pending: Vec<LayerId>,
    pending_seeds: Vec<LayerId>,
    walk: &'x mut DelayWalk,
    /// Restore point of the risky-guard toggle currently in flight.
    savepoint: Option<Savepoint>,
    /// Phase wall-clock accumulator, present iff profiling is on.
    profile: Option<&'x mut PhaseProfile>,
}

impl DeltaOracle<'_, '_, '_> {
    /// Lands the deferred batches (every pending cost refreshed against
    /// `loc`, the seeds stamped) and re-times the pending ranks up to
    /// `rank`.
    fn settle_to(&mut self, loc: &LocalityState, rank: usize) {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        if !self.pending.is_empty() {
            // Endpoints of several fused edges appear several times in
            // the batch; one refresh against the flush-time locality is
            // the same snapshot (and the same seeds), minus the repeat
            // `layer_cost` derivations.
            self.pending.sort_unstable();
            self.pending.dedup();
            let (ev, mapping) = (self.ev, self.mapping);
            self.inc.refresh_costs_into(
                self.pending.drain(..),
                |id| ev.layer_cost(mapping, loc, id),
                &mut self.pending_seeds,
            );
        }
        self.inc.stamp(&self.pending_seeds);
        self.pending_seeds.clear();
        advance(self.inc, self.stats, rank);
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.propagate_s += t0.elapsed().as_secs_f64();
        }
    }

    /// [`DeltaOracle::settle_to`] every rank: the schedule comes back
    /// settled, exact for `loc`.
    fn flush(&mut self, loc: &LocalityState) {
        self.settle_to(loc, usize::MAX);
    }

    /// Step 3 on the delta schedule: the shared `fusion_pass` body over
    /// the mapping's co-located edges of `sorted_edges`, in the exact
    /// global candidate order of `activation_fusion_opt`, each risky
    /// guard answered by the schedule (bitwise-equal to the full
    /// evaluation it replaces). `loc` enters as the pins-only state and
    /// leaves as the replayed locality; the final flush lands whatever
    /// the guards left pending, so the schedule comes back settled and
    /// exact for it. `candidates` is scratch.
    fn replay_step3(
        &mut self,
        sorted_edges: &[(LayerId, LayerId, Bytes)],
        candidates: &mut Vec<(LayerId, LayerId, Bytes)>,
        loc: &mut LocalityState,
    ) {
        let (ev, mapping) = (self.ev, self.mapping);
        candidates.clear();
        candidates.extend(
            sorted_edges.iter().copied().filter(|(f, t, _)| {
                mapping.get(*f).is_some() && mapping.get(*f) == mapping.get(*t)
            }),
        );
        fusion_pass(ev, mapping, loc, candidates, self);
        self.flush(loc);
    }
}

/// Re-times `inc`'s pending ranks up to `rank`, counting a round that
/// re-timed anything.
fn advance(inc: &mut IncrementalSchedule, stats: &mut SearchStats, rank: usize) {
    inc.advance_to(rank);
    if inc.touched() > 0 {
        note_propagation(stats, inc.touched());
    }
}

impl FusionOracle for DeltaOracle<'_, '_, '_> {
    fn fused(&mut self, _loc: &LocalityState, from: LayerId, to: LayerId) {
        self.pending.push(from);
        self.pending.push(to);
    }

    fn toggled(&mut self, loc: &LocalityState, from: LayerId, to: LayerId) {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        // Toggles always follow a makespan read, so the batches are
        // drained and `pending_seeds` is free to reuse as the seed
        // buffer.
        debug_assert!(self.pending.is_empty() && self.pending_seeds.is_empty());
        let (ev, mapping) = (self.ev, self.mapping);
        self.inc.refresh_costs_into(
            [from, to],
            |id| ev.layer_cost(mapping, loc, id),
            &mut self.pending_seeds,
        );
        self.inc.propagate(&self.pending_seeds);
        self.pending_seeds.clear();
        note_propagation(self.stats, self.inc.touched());
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.propagate_s += t0.elapsed().as_secs_f64();
        }
    }

    fn makespan(&mut self, loc: &LocalityState) -> Seconds {
        self.flush(loc);
        self.inc.makespan()
    }

    /// Resolves a risky guard without the toggle when the delay walk
    /// proves the accept (see [`DelayWalk`]). The reference semantics
    /// it must reproduce: accept the fusion iff the toggled schedule's
    /// makespan does not exceed the pre-toggle makespan. A guard the
    /// walk cannot prove, and every reject, returns `None` and takes the
    /// full toggle/measure path.
    fn resolve_guard(
        &mut self,
        loc: &mut LocalityState,
        from: LayerId,
        to: LayerId,
        acc: AccId,
        bytes: Bytes,
    ) -> Option<bool> {
        self.stats.guards_total += 1;
        if !loc.is_fused(from, to) && bytes > loc.dram_free(acc, self.ev.system()) {
            // Capacity-refused: the reference would measure `before`,
            // fail the same try_fuse and move on. No state changed and
            // nothing is read. Not counted in `guards_skipped` — that
            // counter certifies the walk's proof fired, and this branch
            // never ran it.
            return Some(false);
        }
        // The proof reads `from`'s start and the times of `from`'s
        // readers (graph successors, `to` among them, and the queue
        // successor), so it settles the ranks up to the highest of
        // them; the walk settles further as it goes. The deferred
        // batches land first, against the pre-toggle locality, as they
        // do at the reference's `before` read. (Charged to
        // `propagate_s`: the reference pays the same re-timing.)
        let inc = &*self.inc;
        let rank = self
            .ev
            .successors_flat(from)
            .iter()
            .chain(inc.queue_successor(from).as_ref())
            .map(|l| inc.rank_of(*l))
            .max()
            .expect("`to` succeeds `from`");
        self.settle_to(loc, rank);
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        let out = self.resolve_guard_inner(loc, from, to, acc, bytes);
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.guard_s += t0.elapsed().as_secs_f64();
        }
        out
    }

    fn guard_begin(&mut self) {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        debug_assert!(self.savepoint.is_none(), "risky guards never nest");
        self.savepoint = Some(self.inc.savepoint());
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.guard_s += t0.elapsed().as_secs_f64();
        }
    }

    fn guard_revert(&mut self, _loc: &LocalityState, _from: LayerId, _to: LayerId) {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        // The savepoint journal recorded the toggle's touched set
        // (costs, durations, start/finish times); restoring it is
        // O(touched), replacing the reference's second refresh +
        // re-propagation — which would recompute exactly these values.
        let sp = self
            .savepoint
            .take()
            .expect("guard_begin marks the restore point");
        self.inc.rollback_to(&sp);
        self.stats.guard_reverts_fast += 1;
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.guard_s += t0.elapsed().as_secs_f64();
        }
    }

    fn guard_commit(&mut self) {
        self.savepoint = None;
    }
}

impl DeltaOracle<'_, '_, '_> {
    /// The proof body of [`FusionOracle::resolve_guard`], factored out
    /// so the wrapper can charge it to [`PhaseProfile::guard_s`] as one
    /// span.
    fn resolve_guard_inner(
        &mut self,
        loc: &mut LocalityState,
        from: LayerId,
        to: LayerId,
        acc: AccId,
        bytes: Bytes,
    ) -> Option<bool> {
        // The toggle changes exactly one term on each endpoint: `from`
        // gains a DRAM write (OFM), `to`'s download becomes a DRAM read
        // (IFM). Everything else — weights, compute, the other
        // endpoint's untouched transfer side — is read from the costs
        // the pre-guard refresh just certified, so only the changed term
        // reruns the kernel, with the toggle itself priced as an
        // `extra_fused` overlay — no tentative fuse/unfuse churn on the
        // sorted fused-edge vector. Bitwise equal to the full recompute
        // (the specialized sums replay the same float ops in the same
        // order over the same locality view), which the debug
        // assertions below pin down against a real toggle.
        let ndf = self
            .ev
            .duration_new_ofm(self.mapping, loc, from, self.inc.cost_of(from), Some(to))
            .as_f64();
        let ndt = self
            .ev
            .duration_new_ifm(self.mapping, loc, to, self.inc.cost_of(to), Some(from))
            .as_f64();
        #[cfg(debug_assertions)]
        {
            assert!(loc.try_fuse_bytes(self.ev.system(), from, to, acc, bytes));
            assert_eq!(
                ndf.to_bits(),
                self.ev
                    .layer_cost(self.mapping, loc, from)
                    .duration()
                    .as_f64()
                    .to_bits()
            );
            assert_eq!(
                ndt.to_bits(),
                self.ev
                    .layer_cost(self.mapping, loc, to)
                    .duration()
                    .as_f64()
                    .to_bits()
            );
            assert!(loc.unfuse(from, to, acc));
        }
        let nf = self.inc.start_of(from).as_f64() + ndf;
        if !self
            .walk
            .proves_accept(self.ev, self.inc, self.stats, from, to, nf, ndt)
        {
            // Unproven: hand the untouched state back to the full guard.
            return None;
        }
        #[cfg(debug_assertions)]
        self.assert_toggle_accepts(loc, from, to, acc, bytes);
        // The overlay becomes real only now: an unproven guard leaves
        // `loc` untouched for the full guard.
        let ok = loc.try_fuse_bytes(self.ev.system(), from, to, acc, bytes);
        debug_assert!(ok, "capacity was checked above");
        // Exactly like a non-risky accept: the endpoints' refreshes
        // defer to the next settle.
        self.pending.push(from);
        self.pending.push(to);
        self.stats.guards_skipped += 1;
        Some(true)
    }

    /// Checks a walk-proven accept against the real toggle, run on a
    /// settled copy of the schedule.
    #[cfg(debug_assertions)]
    fn assert_toggle_accepts(
        &self,
        loc: &LocalityState,
        from: LayerId,
        to: LayerId,
        acc: AccId,
        bytes: Bytes,
    ) {
        let mut copy = self.inc.clone();
        copy.settle();
        let before = copy.makespan();
        let mut fused = loc.clone();
        assert!(fused.try_fuse_bytes(self.ev.system(), from, to, acc, bytes));
        let mut seeds = Vec::new();
        let (ev, mapping) = (self.ev, self.mapping);
        copy.refresh_costs_into(
            [from, to],
            |id| ev.layer_cost(mapping, &fused, id),
            &mut seeds,
        );
        copy.propagate(&seeds);
        assert!(
            copy.makespan() <= before,
            "the delay walk accepted {from:?} -> {to:?}, whose toggle raises the makespan"
        );
    }
}

/// Raised layers the delay walk follows before it hands a guard to the
/// toggle path. On ~390-layer synthetic models a cap of 2 left step 4
/// slower than 8, and caps of 4 to 64 were no faster.
const WALK_MAX_RAISED: usize = 8;

/// The delay walk: a bounded, read-only proof that a risky guard's
/// toggle keeps the makespan, so the guard accepts without toggling.
///
/// The toggle changes two durations: `from`'s, whose finish becomes
/// `nf` (exact: nothing upstream of `from` changes), and `to`'s, which
/// becomes `ndt`. The walk visits the layers whose start reads a raised
/// finish — graph successors and the queue successor — in rank order,
/// settling each one's rank before reading it, and bounds its new
/// finish by `max(start, raised) + duration`: `start` is its settled
/// start, the latest settled finish among its inputs, `raised` the
/// latest raised finish among them, and `to` takes duration `ndt`. A
/// layer whose bound does not exceed its settled finish does not rise,
/// and its readers are not visited on its account.
///
/// The recurrence `max(inputs) + duration` is monotone in every input
/// under IEEE round-to-nearest (`max`, `+`), so by induction in rank
/// order every bound is at least the toggled finish, and every layer the
/// walk does not visit keeps a finish at most its settled one. (The
/// bound equals the recurrence with the raised inputs substituted
/// whenever a layer rises, so no layer is raised that the exact
/// recurrence would not raise.) A raised layer is read by a later layer
/// that starts no earlier than the raised finish, so following readers
/// from any raised layer ends at a layer that does not rise (finish at
/// most its settled one, at most the makespan) or at a raised sink,
/// which the walk compares against the settled makespan directly. Once
/// the walk ends with every raised sink inside it, the toggled makespan
/// is at most the current one: the guard accepts, proven. When the
/// toggle raises nothing beyond `from`, and `to` does not rise, this is
/// the whole proof: `nf` is bounded by `to`'s new finish. The walk never
/// proves a reject; more than [`WALK_MAX_RAISED`] raised layers, or a
/// raised sink past the makespan, sends the guard to the toggle.
#[derive(Debug, Default)]
struct DelayWalk {
    /// Layers to visit, by rank (one rank is one layer), each with the
    /// raised finish of the input that queued it, as `f64` bits.
    readers: BinaryHeap<Reverse<(usize, LayerId, u64)>>,
}

impl DelayWalk {
    #[allow(clippy::too_many_arguments)]
    fn proves_accept(
        &mut self,
        ev: &Evaluator<'_>,
        inc: &mut IncrementalSchedule,
        stats: &mut SearchStats,
        from: LayerId,
        to: LayerId,
        nf: f64,
        ndt: f64,
    ) -> bool {
        self.readers.clear();
        let mut raised = 0;
        if nf > inc.finish_of(from).as_f64() {
            raised += 1;
            self.queue_readers(ev, inc, from, nf);
        } else {
            // `from` does not rise, but `to`'s duration changes.
            self.readers
                .push(Reverse((inc.rank_of(to), to, 0.0f64.to_bits())));
        }
        while let Some(Reverse((rank, layer, bits))) = self.readers.pop() {
            let mut input = f64::from_bits(bits);
            while let Some(Reverse((_, _, bits))) = self
                .readers
                .peek()
                .copied()
                .filter(|Reverse((r, ..))| *r == rank)
            {
                input = input.max(f64::from_bits(bits));
                self.readers.pop();
            }
            advance(inc, stats, rank);
            let dur = if layer == to {
                ndt
            } else {
                inc.duration_of(layer).as_f64()
            };
            let finish = inc.start_of(layer).as_f64().max(input) + dur;
            if finish <= inc.finish_of(layer).as_f64() {
                continue;
            }
            raised += 1;
            if raised > WALK_MAX_RAISED {
                return false;
            }
            if ev.successors_flat(layer).is_empty() && inc.queue_successor(layer).is_none() {
                advance(inc, stats, usize::MAX);
                if finish > inc.makespan().as_f64() {
                    return false;
                }
            }
            self.queue_readers(ev, inc, layer, finish);
        }
        true
    }

    /// Queues the readers of `layer`, raised to `finish`.
    fn queue_readers(
        &mut self,
        ev: &Evaluator<'_>,
        inc: &IncrementalSchedule,
        layer: LayerId,
        finish: f64,
    ) {
        let readers = ev
            .successors_flat(layer)
            .iter()
            .copied()
            .chain(inc.queue_successor(layer));
        self.readers
            .extend(readers.map(|l| Reverse((inc.rank_of(l), l, finish.to_bits()))));
    }
}

/// The staged candidate: which layer moved between which boards, what
/// its replay rebuilt, and the resting state an accept keeps.
#[derive(Debug)]
struct StagedMove {
    layer: LayerId,
    from: AccId,
    to: AccId,
    /// The replayed locality: the moved mapping's pins and fusions.
    locality: LocalityState,
    /// The moved mapping's pins alone.
    pins: LocalityState,
    /// Whether `from` and `to` are full boards under the moved mapping
    /// (see [`DeltaEngine`]'s `full_boards`).
    full: [bool; 2],
    /// The schedule at the moved mapping's pins-only state, before the
    /// fusion replay.
    resting: Savepoint,
    /// The candidate's objective score.
    score: f64,
}

/// Whether the scoped step 2 of moving `layer` from `from` to `to` can
/// only move `layer`'s own pin (see the module docs). `full_boards`
/// holds, per board, whether every weighted layer on it is pinned in
/// `pins`, the unmoved mapping's pins-only state, so a full board's DRAM
/// use is exactly the weighted bytes it hosts. `from` then keeps all of
/// its other layers pinned, and `to` pins all of its layers and `layer`
/// when its knapsack values pins at all and they pass the all-fit test,
/// preset pins included (those are subtracted from both sides of it).
fn pin_diff_applies(
    ev: &Evaluator<'_>,
    kind: KnapsackKind,
    full_boards: &[bool],
    pins: &LocalityState,
    layer: LayerId,
    from: AccId,
    to: AccId,
) -> bool {
    if !(full_boards[from.index()] && full_boards[to.index()]) || pin_saving_per_byte(ev, to) <= 0.0
    {
        return false;
    }
    let bytes = ev.model().layer(layer).weight_bytes(DataType::F32).as_u64();
    let capacity = ev.system().acc(to).dram_capacity().as_u64();
    pins_every_item(kind, pins.dram_used(to).as_u64() + bytes, capacity)
}

/// Whether every weighted layer `mapping` puts on `acc` is pinned.
fn board_full(ev: &Evaluator<'_>, mapping: &Mapping, pins: &LocalityState, acc: AccId) -> bool {
    ev.weighted_layers()
        .iter()
        .all(|&(id, _)| mapping.get(id) != Some(acc) || pins.is_pinned(id))
}

/// The pins of `locality` alone: the pins-only state the engine rests at.
#[cfg(any(test, debug_assertions))]
fn pins_of(ev: &Evaluator<'_>, mapping: &Mapping, locality: &LocalityState) -> LocalityState {
    let (model, system) = (ev.model(), ev.system());
    let mut pins = LocalityState::new(system);
    for l in locality.pinned_layers() {
        let ok = pins.try_pin(model, system, l, mapping.acc_of(l));
        debug_assert!(ok, "pins fit without the fusions they fitted beside");
    }
    pins
}

/// Checks an engine seed against the one-shot steps 2–3
/// ([`rebuild_locality`](crate::activation_fusion::rebuild_locality))
/// and a full evaluation, bitwise. It runs them on a copy of `ev`, so
/// the check bills nothing to the engine's evaluator.
#[cfg(debug_assertions)]
#[allow(clippy::too_many_arguments)]
fn assert_seed_matches_step3(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
    preset: &PinPreset,
    mapping: &Mapping,
    locality: &LocalityState,
    pins: &LocalityState,
    score: f64,
    makespan: Seconds,
) {
    let copy =
        Evaluator::from_cache(ev.model(), ev.system(), ev.cache().clone()).with_batch(ev.batch());
    let rebuilt = crate::activation_fusion::rebuild_locality(&copy, mapping, cfg, preset);
    assert!(
        *locality == rebuilt,
        "the seed replay's locality diverged from step 3"
    );
    assert!(
        *pins == pins_of(&copy, mapping, &rebuilt),
        "the seed's pins diverged from step 2"
    );
    let full = copy.evaluate(mapping, &rebuilt);
    assert_eq!(
        makespan.as_f64().to_bits(),
        full.makespan().as_f64().to_bits(),
        "seed makespan"
    );
    assert_eq!(
        score.to_bits(),
        cfg.objective.score(&full).to_bits(),
        "seed score"
    );
}

/// A copy of `source`, in `spare`'s buffers when there is one.
fn recycled(spare: Option<LocalityState>, source: &LocalityState) -> LocalityState {
    match spare {
        Some(mut spare) => {
            spare.clone_from(source);
            spare
        }
        None => source.clone(),
    }
}

/// The scoped step 2 of "move `layer` to `to`", applied to `pins`, the
/// pins-only state of the unmoved `mapping`, which comes back moved. It
/// takes the pin diff when [`pin_diff_applies`], else
/// [`rerun_scoped_step2`]. `stripped` and `added` receive the pins it
/// removed and made, each with its board. Returns whether the diff
/// applied.
#[allow(clippy::too_many_arguments)]
fn scoped_step2(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
    preset: &PinPreset,
    full_boards: &[bool],
    mapping: &mut Mapping,
    layer: LayerId,
    to: AccId,
    pins: &mut LocalityState,
    stripped: &mut Vec<(LayerId, AccId)>,
    added: &mut Vec<(LayerId, AccId)>,
) -> bool {
    let from = mapping.acc_of(layer);
    stripped.clear();
    added.clear();
    if !pin_diff_applies(ev, cfg.knapsack, full_boards, pins, layer, from, to) {
        rerun_scoped_step2(ev, cfg, preset, mapping, layer, to, pins, stripped, added);
        return false;
    }
    #[cfg(debug_assertions)]
    let mut scratch = pins.clone();
    let (model, system) = (ev.model(), ev.system());
    if pins.unpin(layer, from) {
        let ok = pins.try_pin(model, system, layer, to);
        debug_assert!(ok, "the pin diff's fit test passed");
        stripped.push((layer, from));
        added.push((layer, to));
    }
    #[cfg(debug_assertions)]
    {
        let (mut s, mut a) = (Vec::new(), Vec::new());
        rerun_scoped_step2(
            ev,
            cfg,
            preset,
            mapping,
            layer,
            to,
            &mut scratch,
            &mut s,
            &mut a,
        );
        assert!(
            scratch == *pins,
            "the pin diff diverged from the scoped step 2"
        );
    }
    mapping.set(layer, to);
    true
}

/// [`scoped_step2`] the long way: strip the pins of the two touched
/// boards (attributed by the unmoved mapping) and rerun
/// `weight_locality_pass` on them. A move can only change its endpoints'
/// knapsack inputs, so every other board's pins are what a full rebuild
/// would recompute.
#[allow(clippy::too_many_arguments)]
fn rerun_scoped_step2(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
    preset: &PinPreset,
    mapping: &mut Mapping,
    layer: LayerId,
    to: AccId,
    pins: &mut LocalityState,
    stripped: &mut Vec<(LayerId, AccId)>,
    added: &mut Vec<(LayerId, AccId)>,
) {
    let from = mapping.acc_of(layer);
    let in_scope = |a: &AccId| *a == from || *a == to;
    stripped.extend(
        pins.pinned_layers()
            .filter_map(|l| mapping.get(l).filter(in_scope).map(|a| (l, a))),
    );
    for &(l, a) in stripped.iter() {
        pins.unpin(l, a);
    }
    mapping.set(layer, to);
    let mut scoped = [from, to];
    scoped.sort_by_key(|a| a.index());
    weight_locality_pass(ev, mapping, pins, cfg.knapsack, preset, &scoped);
    added.extend(
        pins.pinned_layers()
            .filter_map(|l| mapping.get(l).filter(in_scope).map(|a| (l, a))),
    );
}

/// The latency screen's lower-bound twin of the engine's exact state
/// (see the module docs): the current mapping's pins, and a schedule
/// seeded and refreshed from [`Evaluator::layer_cost_floor`] under them.
#[derive(Debug)]
struct Floor {
    inc: IncrementalSchedule,
    /// The current mapping's pins and nothing else, a copy of the
    /// engine's: the floor kernel reads no fused edge.
    pins: LocalityState,
    /// The fusion outcome each producer's floor assumes, by layer index:
    /// all [`FusionOutcome::Free`] except inside [`Floor::split`].
    outcomes: Vec<FusionOutcome>,
    /// Undo record of an open pricing: the in-scope pins it stripped
    /// and the pins its scoped step 2 made, each with its board.
    stripped: Vec<(LayerId, AccId)>,
    added: Vec<(LayerId, AccId)>,
    // Reusable scratch, so pricing allocates nothing.
    refresh: Vec<LayerId>,
    seeds: Vec<LayerId>,
    /// The critical path of each open split node, tail first and its
    /// producer last, stacked by depth.
    path: Vec<LayerId>,
    /// A candidate is priced and neither accepted nor rejected yet.
    open: bool,
}

impl Floor {
    fn new(ev: &Evaluator<'_>, mapping: &Mapping, pins: &LocalityState) -> Self {
        let pins = pins.clone();
        let outcomes = vec![FusionOutcome::Free; ev.model().id_bound()];
        let inc = IncrementalSchedule::from_costs(ev, mapping, |id| {
            ev.layer_cost_floor(mapping, &pins, &outcomes, id)
        });
        Floor {
            inc,
            pins,
            outcomes,
            stripped: Vec::new(),
            added: Vec::new(),
            refresh: Vec::new(),
            seeds: Vec::new(),
            path: Vec::new(),
            open: false,
        }
    }

    /// Prices "move `layer` to `to`" on the floor and leaves the pricing
    /// open (transaction begun, `pins` holding the candidate's pins);
    /// returns the floor makespan. `mapping` comes back unmoved.
    #[allow(clippy::too_many_arguments)]
    fn price(
        &mut self,
        ev: &Evaluator<'_>,
        cfg: &H2hConfig,
        preset: &PinPreset,
        full_boards: &[bool],
        mapping: &mut Mapping,
        layer: LayerId,
        to: AccId,
        stats: &mut SearchStats,
    ) -> f64 {
        debug_assert!(!self.open, "one pricing at a time");
        self.open = true;
        self.inc.begin();
        let from = mapping.acc_of(layer);

        // 1. The move's scoped step 2, the same one staging runs.
        scoped_step2(
            ev,
            cfg,
            preset,
            full_boards,
            mapping,
            layer,
            to,
            &mut self.pins,
            &mut self.stripped,
            &mut self.added,
        );

        // 2. Refresh the moved layer, its graph neighbours (their
        //    routes and co-locations changed) and the pin diff.
        self.refresh.clear();
        self.refresh.push(layer);
        self.refresh.extend(ev.predecessors_flat(layer));
        self.refresh.extend(ev.successors_flat(layer));
        self.stripped.sort_unstable();
        let (pins, stripped) = (&self.pins, &self.stripped);
        self.refresh
            .extend(stripped.iter().map(|e| e.0).filter(|l| !pins.is_pinned(*l)));
        self.refresh.extend(
            self.added
                .iter()
                .map(|e| e.0)
                .filter(|l| stripped.binary_search_by_key(l, |e| e.0).is_err()),
        );
        self.refresh.sort_unstable();
        self.refresh.dedup();
        self.seeds.clear();
        self.inc.move_layer_into(layer, to, &mut self.seeds);
        let moved: &Mapping = mapping;
        self.inc.refresh_costs_into(
            self.refresh.drain(..),
            |id| ev.layer_cost_floor(moved, pins, &self.outcomes, id),
            &mut self.seeds,
        );

        // 3. One propagation.
        self.inc.propagate(&self.seeds);
        note_propagation(stats, self.inc.touched());
        mapping.set(layer, from);
        self.inc.makespan().as_f64()
    }

    /// Splits the open pricing on producers' fusion outcomes, depth
    /// first, and reports whether no branch is `hopeful`. `mapping` is
    /// the priced candidate (moved). At each node the producer to fix
    /// is the first splittable one on the floor's critical path
    /// ([`Floor::branch_producer`]); each of its two classes is priced
    /// under a savepoint by refreshing it and its co-located consumers.
    /// A branch whose critical-path bound ([`Floor::path_bound`])
    /// already fails is closed without propagating; any other
    /// propagates once, and a hopeful one is split again. An open leaf
    /// (depth [`SPLIT_MAX_DEPTH`] or nothing left to split) or a spent
    /// `budget` ends the search with `false`. Either way the floor comes
    /// back in its pricing state.
    fn split(
        &mut self,
        ev: &Evaluator<'_>,
        mapping: &Mapping,
        hopeful: &impl Fn(f64) -> bool,
        depth: usize,
        budget: &mut usize,
        stats: &mut SearchStats,
    ) -> bool {
        if depth == SPLIT_MAX_DEPTH {
            return false;
        }
        let base = self.path.len();
        let Some(producer) = self.branch_producer(ev, mapping) else {
            self.path.truncate(base);
            return false;
        };
        let acc = mapping.acc_of(producer);
        let mut all_closed = true;
        for outcome in [FusionOutcome::Fused, FusionOutcome::Unfused] {
            if *budget == 0 {
                all_closed = false;
                break;
            }
            *budget -= 1;
            let sp = self.inc.savepoint();
            self.outcomes[producer.index()] = outcome;
            self.refresh.clear();
            self.refresh.push(producer);
            self.refresh.extend(
                ev.successors_flat(producer)
                    .iter()
                    .filter(|c| mapping.get(**c) == Some(acc)),
            );
            self.seeds.clear();
            self.inc.refresh_costs_into(
                self.refresh.drain(..),
                |id| ev.layer_cost_floor(mapping, &self.pins, &self.outcomes, id),
                &mut self.seeds,
            );
            let path_closed = !self.seeds.is_empty() && !hopeful(self.path_bound(base));
            #[cfg(debug_assertions)]
            if path_closed {
                let bound = self.path_bound(base);
                self.inc.propagate(&self.seeds);
                assert!(
                    bound <= self.inc.makespan().as_f64(),
                    "the path bound {bound} exceeds the branch's floor makespan"
                );
            }
            let closed = path_closed || {
                if !self.seeds.is_empty() {
                    self.inc.propagate(&self.seeds);
                    note_propagation(stats, self.inc.touched());
                }
                !hopeful(self.inc.makespan().as_f64())
                    || self.split(ev, mapping, hopeful, depth + 1, budget, stats)
            };
            self.inc.rollback_to(&sp);
            self.outcomes[producer.index()] = FusionOutcome::Free;
            if !closed {
                all_closed = false;
                break;
            }
        }
        self.path.truncate(base);
        all_closed
    }

    /// A lower bound on the open branch's floor makespan, read before
    /// propagating it: the critical path `self.path[base..]` (tail
    /// first, the branch's producer last) re-timed forward from the
    /// producer under the branch's refreshed durations, every off-path
    /// input at its current floor time. Both outcome classes only raise
    /// durations, so every input only rises, and the recurrence is
    /// monotone (`max`, `+`): each re-timed finish bounds the branch's
    /// from below, the tail's bounds its makespan.
    fn path_bound(&self, base: usize) -> f64 {
        let inc = &self.inc;
        let mut path = self.path[base..].iter().rev();
        let producer = *path.next().expect("the path ends at the producer");
        let mut finish = inc.start_of(producer).as_f64() + inc.duration_of(producer).as_f64();
        for &layer in path {
            finish = inc.start_of(layer).as_f64().max(finish) + inc.duration_of(layer).as_f64();
        }
        finish
    }

    /// The producer the split fixes next: walking the floor schedule's
    /// critical path back from the makespan tail (each step to the graph
    /// predecessor whose finish is the start, else the queue
    /// predecessor), the first layer whose outcome is still free and
    /// whose none-fused OFM floor is below its all-fused one. Only then
    /// does each class raise some duration: the fused class the
    /// producer's OFM, the unfused class its co-located consumers' IFM
    /// edges (from the lesser of DRAM and route to the route). Appends
    /// the walked path, tail first and the producer last, to
    /// `self.path`.
    fn branch_producer(&mut self, ev: &Evaluator<'_>, mapping: &Mapping) -> Option<LayerId> {
        let inc = &self.inc;
        let makespan = inc.makespan().as_f64();
        let mut layer = ev
            .system()
            .acc_ids()
            .filter_map(|a| inc.queue(a).last().copied())
            .find(|l| inc.finish_of(*l).as_f64() == makespan)?;
        loop {
            self.path.push(layer);
            if self.outcomes[layer.index()] == FusionOutcome::Free
                && ev
                    .ofm_floor_branches(mapping, layer)
                    .is_some_and(|(none, all)| none < all)
            {
                return Some(layer);
            }
            let start = inc.start_of(layer).as_f64();
            let reads_start = |l: &LayerId| inc.finish_of(*l).as_f64() == start;
            layer = ev
                .predecessors_flat(layer)
                .iter()
                .copied()
                .find(reads_start)
                .or_else(|| inc.queue_predecessor(layer).filter(reads_start))?;
        }
    }

    /// Ends the open pricing with its candidate: an accept keeps it, a
    /// reject restores the pre-pricing state.
    fn close(&mut self, ev: &Evaluator<'_>, accept: bool) {
        debug_assert!(self.open, "no open pricing");
        self.open = false;
        if accept {
            self.inc.commit();
            return;
        }
        self.inc.rollback();
        let (model, system) = (ev.model(), ev.system());
        for &(l, a) in &self.added {
            self.pins.unpin(l, a);
        }
        for &(l, a) in &self.stripped {
            let ok = self.pins.try_pin(model, system, l, a);
            debug_assert!(ok, "restored pins fit where they were");
        }
    }
}

/// Incremental candidate-move evaluator bound to one search run.
///
/// The engine always holds the exact state of the current mapping: its
/// locality and score, and the delta schedule of its pins-only state,
/// where each candidate's fusion replay starts. It is seeded by step 3
/// replayed on that schedule (see the module docs), so a search's only
/// full evaluation is [`DeltaEngine::finalize`]. Candidates are staged
/// transactionally on top and either rolled back or committed as the
/// new current state.
#[derive(Debug)]
pub struct DeltaEngine<'e, 'm> {
    ev: &'e Evaluator<'m>,
    cfg: &'e H2hConfig,
    preset: &'e PinPreset,
    /// The resting schedule: the current mapping under `pins`.
    inc: IncrementalSchedule,
    locality: LocalityState,
    /// The pins of `locality` alone.
    pins: LocalityState,
    /// Per board: every weighted layer the current mapping puts on it is
    /// pinned. An accepted pin diff keeps both flags set; a fallback
    /// recounts its two boards.
    full_boards: Vec<bool>,
    /// The seed mapping's makespan, from the step-3 replay.
    seed_makespan: Seconds,
    score: f64,
    staged: Option<StagedMove>,
    /// All non-input-producer edges pre-sorted by the fusion pass's
    /// global order (bytes desc, then endpoint indices) — the
    /// mapping-independent part of the candidate list, computed once.
    sorted_edges: Vec<(LayerId, LayerId, Bytes)>,
    /// The latency screen's floor state. The first screened
    /// [`DeltaEngine::try_improving_move`] builds it, so direct staging
    /// (the annealer) never does; a commit it did not price drops it.
    floor: Option<Floor>,
    // Reusable scratch for the staging hot path, kept across candidates
    // so steady-state scoring allocates nothing.
    spare_locality: Option<LocalityState>,
    spare_pins: Option<LocalityState>,
    scratch_costs: Vec<LayerId>,
    scratch_seeds: Vec<LayerId>,
    scratch_cands: Vec<(LayerId, LayerId, Bytes)>,
    scratch_stripped: Vec<(LayerId, AccId)>,
    scratch_added: Vec<(LayerId, AccId)>,
    scratch_walk: DelayWalk,
    /// Evaluation counters for this run.
    pub stats: SearchStats,
    /// Phase timers armed ([`H2hConfig::profile_phases`]).
    profile_enabled: bool,
    /// Wall-clock per-phase breakdown of this engine's work; stays
    /// zeroed unless profiling is on. Unlike [`DeltaEngine::stats`]
    /// this is never compared across runs.
    pub profile: PhaseProfile,
}

impl<'e, 'm> DeltaEngine<'e, 'm> {
    /// Binds the engine to `mapping`'s exact state: step 2, then step 3
    /// replayed on the engine's own pins-only schedule. No full
    /// evaluation.
    pub fn new(
        ev: &'e Evaluator<'m>,
        cfg: &'e H2hConfig,
        preset: &'e PinPreset,
        mapping: &Mapping,
    ) -> Self {
        let zero = LocalityState::new(ev.system());
        let pins = weight_locality_opt(ev, mapping, zero, cfg.knapsack, preset);
        Self::from_pins(ev, cfg, preset, mapping, pins)
    }

    /// [`DeltaEngine::new`] from `mapping`'s step-2 locality `pins`, for a
    /// caller that already ran step 2. The seed is step 3, replayed the
    /// way staging scores a candidate: the shared `fusion_pass` through
    /// a `DeltaOracle` on the pins-only schedule, inside a transaction
    /// that is rolled back once the score is read, so the engine rests
    /// at the pins-only state. The replay is step 3's work, not the
    /// search's: its propagation and guard counters are dropped, and it
    /// is not phase-profiled.
    pub(crate) fn from_pins(
        ev: &'e Evaluator<'m>,
        cfg: &'e H2hConfig,
        preset: &'e PinPreset,
        mapping: &Mapping,
        pins: LocalityState,
    ) -> Self {
        let sorted_edges = sorted_fusable_edges(ev.model());
        let mut inc = IncrementalSchedule::new(ev, mapping, &pins);
        let (mut walk, mut candidates) = (DelayWalk::default(), Vec::new());
        let mut locality = pins.clone();
        inc.begin();
        DeltaOracle {
            ev,
            mapping,
            inc: &mut inc,
            stats: &mut SearchStats::default(),
            pending: Vec::new(),
            pending_seeds: Vec::new(),
            walk: &mut walk,
            savepoint: None,
            profile: None,
        }
        .replay_step3(&sorted_edges, &mut candidates, &mut locality);
        let proxy = inc.proxy();
        inc.rollback();
        let score = cfg.objective.score_proxy(&proxy);
        #[cfg(debug_assertions)]
        assert_seed_matches_step3(
            ev,
            cfg,
            preset,
            mapping,
            &locality,
            &pins,
            score,
            proxy.makespan,
        );
        let full_boards = ev
            .system()
            .acc_ids()
            .map(|a| board_full(ev, mapping, &pins, a))
            .collect();
        DeltaEngine {
            ev,
            cfg,
            preset,
            inc,
            locality,
            pins,
            full_boards,
            seed_makespan: proxy.makespan,
            score,
            staged: None,
            sorted_edges,
            floor: None,
            spare_locality: None,
            spare_pins: None,
            scratch_costs: Vec::new(),
            scratch_seeds: Vec::new(),
            scratch_cands: candidates,
            scratch_stripped: Vec::new(),
            scratch_added: Vec::new(),
            scratch_walk: walk,
            stats: SearchStats {
                full_rebuilds: 1,
                ..SearchStats::default()
            },
            profile_enabled: cfg.profile_phases,
            profile: PhaseProfile::default(),
        }
    }

    /// Objective score of the current (exact) state.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Makespan of the seed mapping, read from the step-3 replay
    /// [`DeltaEngine::new`] runs (bitwise a full evaluation's).
    /// Accepted moves advance the engine past it; call
    /// [`DeltaEngine::finalize`] for an exact schedule of the current
    /// state.
    pub fn seed_makespan(&self) -> Seconds {
        self.seed_makespan
    }

    /// Locality of the current state (exact: the staged rebuild replay
    /// reproduces the full rebuild's decisions bitwise).
    pub fn locality(&self) -> &LocalityState {
        &self.locality
    }

    /// Re-evaluates the current state exactly (one full evaluation) and
    /// consumes the engine, yielding the final `(locality, schedule,
    /// stats)`.
    ///
    /// # Panics
    ///
    /// Panics if a candidate is still staged.
    pub fn finalize(mut self, mapping: &Mapping) -> (LocalityState, Schedule, SearchStats) {
        assert!(self.staged.is_none(), "finalize with a staged candidate");
        self.stats.full_evals += 1;
        let schedule = self.ev.evaluate(mapping, &self.locality);
        (self.locality, schedule, self.stats)
    }

    /// Stages the candidate "move `layer` to `to`": mutates `mapping`,
    /// scores the candidate exactly by the two touched boards' scoped
    /// step 2 and the global fusion-pass replay on the delta schedule
    /// (see the module docs), and returns its objective score. The
    /// candidate stays staged until [`DeltaEngine::reject_staged`] or
    /// [`DeltaEngine::accept_staged`].
    ///
    /// # Panics
    ///
    /// Panics if a candidate is already staged or `to` equals the
    /// layer's current accelerator.
    pub fn stage_move(&mut self, mapping: &mut Mapping, layer: LayerId, to: AccId) -> f64 {
        assert!(self.staged.is_none(), "candidate already staged");
        let from = mapping.acc_of(layer);
        assert_ne!(from, to, "staging a no-op move");
        // The oracle charges its own propagate/guard spans while the
        // stage runs; scoring gets the remainder of the elapsed time.
        let t0 = self.profile_enabled.then(std::time::Instant::now);
        let inner_before = self.profile.propagate_s + self.profile.guard_s;
        self.stats.delta_evals += 1;
        self.stats.scoped_rebuilds += 1;
        self.inc.begin();

        // Step 2 of the moved mapping: the resting pins with the move's
        // scoped step 2 applied (usually its pin diff).
        let mut pins = recycled(self.spare_pins.take(), &self.pins);
        let (mut stripped, mut added) = (
            std::mem::take(&mut self.scratch_stripped),
            std::mem::take(&mut self.scratch_added),
        );
        let pin_diff = scoped_step2(
            self.ev,
            self.cfg,
            self.preset,
            &self.full_boards,
            mapping,
            layer,
            to,
            &mut pins,
            &mut stripped,
            &mut added,
        );
        let full = if pin_diff {
            [true, true]
        } else {
            [from, to].map(|a| board_full(self.ev, mapping, &pins, a))
        };

        // Deferred cost refreshes: the moved layer, the pin diff and,
        // once the replay runs, fused edge endpoints accumulate here and
        // are re-derived lazily, at the next exact makespan read, with
        // their state at that point. Duplicates and unchanged-state
        // layers are fine: a refresh whose cost comes out identical
        // seeds nothing.
        let mut pending_costs = std::mem::take(&mut self.scratch_costs);
        pending_costs.clear();
        pending_costs.push(layer);
        // Per-route bandwidths make a layer's transfer terms depend on
        // its neighbours' placements: the move re-rates the IFM edges
        // of `layer`'s successors and the OFM upload of its
        // predecessors, so both sides join the deferred refresh. (On a
        // uniform fabric the refreshes come back with identical
        // durations and seed nothing.)
        pending_costs.extend(self.ev.predecessors_flat(layer));
        pending_costs.extend(self.ev.successors_flat(layer));
        pending_costs.extend(stripped.iter().chain(&added).map(|e| e.0));
        self.scratch_stripped = stripped;
        self.scratch_added = added;
        let mut pending_seeds = std::mem::take(&mut self.scratch_seeds);
        pending_seeds.clear();
        self.inc.move_layer_into(layer, to, &mut pending_seeds);

        let mut oracle = DeltaOracle {
            ev: self.ev,
            mapping,
            inc: &mut self.inc,
            stats: &mut self.stats,
            pending: pending_costs,
            pending_seeds,
            walk: &mut self.scratch_walk,
            savepoint: None,
            profile: self.profile_enabled.then_some(&mut self.profile),
        };
        // Land the move and its pins: one propagation takes the schedule
        // to the moved mapping's pins-only state, where the reference's
        // step 3 starts and where an accept leaves it resting.
        oracle.flush(&pins);
        let resting = oracle.inc.savepoint();

        // Step 3 replay over all accelerators, from the moved pins.
        let mut loc = recycled(self.spare_locality.take(), &pins);
        oracle.replay_step3(&self.sorted_edges, &mut self.scratch_cands, &mut loc);
        self.scratch_costs = oracle.pending;
        self.scratch_seeds = oracle.pending_seeds;

        // The proxy sums the per-layer state in the evaluator's order,
        // bitwise-equal to a full evaluation's, so every objective's
        // score — not just latency — filters exactly.
        let score = self.cfg.objective.score_proxy(&self.inc.proxy());
        self.staged = Some(StagedMove {
            layer,
            from,
            to,
            locality: loc,
            pins,
            full,
            resting,
            score,
        });
        if let Some(t0) = t0 {
            let inner = (self.profile.propagate_s + self.profile.guard_s) - inner_before;
            self.profile.scoring_s += (t0.elapsed().as_secs_f64() - inner).max(0.0);
        }
        score
    }

    /// Makespan of the staged candidate (exact).
    ///
    /// # Panics
    ///
    /// Panics if no candidate is staged: the resting schedule holds the
    /// current mapping without its fusions.
    pub fn staged_makespan(&self) -> f64 {
        assert!(self.staged.is_some(), "no staged candidate");
        self.inc.makespan().as_f64()
    }

    /// Rolls the staged candidate back, restoring `mapping` and the
    /// delta schedule to the current state.
    ///
    /// # Panics
    ///
    /// Panics if no candidate is staged.
    pub fn reject_staged(&mut self, mapping: &mut Mapping) {
        let t0 = self.profile_enabled.then(std::time::Instant::now);
        let staged = self.staged.take().expect("no staged candidate");
        // Recycle the staged states' buffers for the next candidate.
        self.spare_locality = Some(staged.locality);
        self.spare_pins = Some(staged.pins);
        mapping.set(staged.layer, staged.from);
        self.inc.rollback();
        if let Some(floor) = self.floor.as_mut().filter(|f| f.open) {
            floor.close(self.ev, false);
        }
        if let Some(t0) = t0 {
            // Rollback is part of the transactional scoring cost.
            self.profile.scoring_s += t0.elapsed().as_secs_f64();
        }
    }

    /// Commits the staged candidate: its replayed locality, its pins
    /// and its score become the engine's current state, and the delta
    /// schedule rests at its pins-only state, without any full
    /// evaluation (the replay is exact by construction). The mapping the
    /// candidate was staged on stays moved. Returns the committed
    /// objective score.
    ///
    /// # Panics
    ///
    /// Panics if no candidate is staged.
    pub fn accept_staged(&mut self) -> f64 {
        let t0 = self.profile_enabled.then(std::time::Instant::now);
        let staged = self.staged.take().expect("no staged candidate");
        self.inc.rollback_to(&staged.resting);
        self.inc.commit();
        self.spare_locality = Some(std::mem::replace(&mut self.locality, staged.locality));
        self.spare_pins = Some(std::mem::replace(&mut self.pins, staged.pins));
        self.full_boards[staged.from.index()] = staged.full[0];
        self.full_boards[staged.to.index()] = staged.full[1];
        match self.floor.as_mut() {
            Some(floor) if floor.open => {
                floor.close(self.ev, true);
                debug_assert!(
                    floor.pins == self.pins,
                    "the floor's scoped step 2 diverged from the staged one"
                );
            }
            // Staged directly, so the floor no longer mirrors the state.
            Some(_) => self.floor = None,
            None => {}
        }
        self.score = staged.score;
        self.stats.accepted_moves += 1;
        if let Some(t0) = t0 {
            self.profile.commit_s += t0.elapsed().as_secs_f64();
        }
        self.score
    }

    /// Greedy accept-if-better step: stages the move and accepts iff
    /// the candidate score improves on the current state by more than
    /// [`ACCEPT_EPSILON`] — the same decision rule (over bitwise-equal
    /// scores) as the historical full-re-evaluation loop. Under
    /// [`MapObjective::Latency`] the latency screen runs first and
    /// rejects a hopeless move without staging it (see the module
    /// docs). Returns `true` on accept (with `mapping` left moved) and
    /// `false` on reject (with `mapping` restored).
    ///
    /// # Panics
    ///
    /// Panics if a candidate is already staged or `to` equals the
    /// layer's current accelerator.
    pub fn try_improving_move(&mut self, mapping: &mut Mapping, layer: LayerId, to: AccId) -> bool {
        assert!(self.staged.is_none(), "candidate already staged");
        assert_ne!(mapping.acc_of(layer), to, "staging a no-op move");
        self.stats.attempted_moves += 1;
        let best = self.score;
        if self.cfg.objective == MapObjective::Latency && self.screen(mapping, layer, to, best) {
            self.stats.screened += 1;
            return false;
        }
        let cand = self.stage_move(mapping, layer, to);
        debug_assert!(
            self.floor
                .as_ref()
                .is_none_or(|f| f.inc.makespan() <= self.inc.makespan()),
            "floor makespan above the exact one"
        );
        if cand + ACCEPT_EPSILON < best {
            self.accept_staged();
            true
        } else {
            self.reject_staged(mapping);
            false
        }
    }

    /// Prices the candidate on the floor schedule and reports whether it
    /// is hopeless: `floor + ACCEPT_EPSILON < best` fails, either on the
    /// floor itself or on every branch of its split on fusion outcomes,
    /// so the exact score, which is no lower than the branch its fusion
    /// set falls in, fails the accept rule too. A hopeless pricing is
    /// undone here; any other stays open and closes with the staged
    /// candidate. Charged to [`PhaseProfile::scoring_s`].
    fn screen(&mut self, mapping: &mut Mapping, layer: LayerId, to: AccId, best: f64) -> bool {
        let t0 = self.profile_enabled.then(std::time::Instant::now);
        let ev = self.ev;
        let floor = self
            .floor
            .get_or_insert_with(|| Floor::new(ev, mapping, &self.pins));
        let from = mapping.acc_of(layer);
        let bound = floor.price(
            ev,
            self.cfg,
            self.preset,
            &self.full_boards,
            mapping,
            layer,
            to,
            &mut self.stats,
        );
        // The accept rule's own expression, on a bound.
        let hopeful = |bound: f64| bound + ACCEPT_EPSILON < best;
        let mut rejected = !hopeful(bound);
        if !rejected {
            mapping.set(layer, to);
            let mut budget = SPLIT_MAX_BRANCHES;
            rejected = floor.split(ev, mapping, &hopeful, 0, &mut budget, &mut self.stats);
            mapping.set(layer, from);
            self.stats.split_screened += usize::from(rejected);
        }
        if rejected {
            floor.close(ev, false);
        }
        if let Some(t0) = t0 {
            self.profile.scoring_s += t0.elapsed().as_secs_f64();
        }
        rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation_fusion::rebuild_locality;
    use crate::compute_map::computation_prioritized;
    use crate::remap::neighbour_accs;
    use h2h_model::synth::{synthetic_mmmt, SyntheticConfig};
    use h2h_model::ModelGraph;
    use h2h_system::system::{BandwidthClass, SystemSpec};
    use h2h_system::testutil::{const_system, ConstAccel};

    /// Every move of a layer to a capable board that hosts one of its
    /// graph neighbours under `mapping`, in topological order.
    fn neighbour_moves(
        model: &ModelGraph,
        system: &SystemSpec,
        mapping: &Mapping,
    ) -> Vec<(LayerId, AccId)> {
        let mut moves = Vec::new();
        let mut accs = Vec::new();
        for layer in model.topo_order() {
            neighbour_accs(model, mapping, layer, &mut accs);
            let supported = accs
                .iter()
                .filter(|a| system.acc(**a).supports(model.layer(layer)));
            moves.extend(supported.map(|a| (layer, *a)));
        }
        moves
    }

    /// Asserts that `engine` rests where a fresh engine on `mapping`
    /// would: its locality is the full rebuild, its pins are that
    /// rebuild's pins, its full-board flags are recounted from them, and
    /// its resting schedule is the pins-only schedule, bitwise.
    fn assert_resting(engine: &DeltaEngine<'_, '_>, mapping: &Mapping, tag: &str) {
        let ev = engine.ev;
        let rebuilt = rebuild_locality(ev, mapping, engine.cfg, engine.preset);
        assert!(engine.locality() == &rebuilt, "{tag}: locality");
        let pins = pins_of(ev, mapping, &rebuilt);
        assert!(engine.pins == pins, "{tag}: pins");
        for acc in ev.system().acc_ids() {
            let full = board_full(ev, mapping, &pins, acc);
            assert_eq!(engine.full_boards[acc.index()], full, "{tag}: {acc:?} full");
        }
        let fresh = IncrementalSchedule::new(ev, mapping, &pins);
        for id in ev.model().layer_ids() {
            let bits = |inc: &IncrementalSchedule| {
                (
                    inc.start_of(id).as_f64().to_bits(),
                    inc.finish_of(id).as_f64().to_bits(),
                )
            };
            assert_eq!(bits(&engine.inc), bits(&fresh), "{tag}: {id:?}");
        }
    }

    #[test]
    fn every_accept_leaves_the_engine_resting_at_the_pins_only_state() {
        // Through the latency screen and through direct staging as the
        // annealer stages (accepting whatever the score), each accept
        // must leave the engine where a fresh engine on the moved mapping
        // starts. On the standard boards every move takes the pin diff;
        // boards holding a tenth of the model's weight bytes force the
        // strip-and-rerun fallback and its full-board recount.
        let model = synthetic_mmmt(&SyntheticConfig {
            seed: 5,
            ..Default::default()
        });
        let systems = [
            ("standard", SystemSpec::standard(BandwidthClass::LowMinus)),
            ("small boards", small_boards(&model)),
        ];
        for (name, system) in &systems {
            let ev = Evaluator::new(&model, system);
            let cfg = H2hConfig::default();
            let preset = PinPreset::new();
            let (mut mapping, _) = computation_prioritized(&ev, &cfg, &preset).unwrap();
            let mut engine = DeltaEngine::new(&ev, &cfg, &preset, &mapping);
            assert_resting(&engine, &mapping, name);
            let mut accepts = [0; 2];
            for pass in 0..4 {
                for (k, (layer, to)) in neighbour_moves(&model, system, &mapping)
                    .into_iter()
                    .enumerate()
                {
                    if mapping.acc_of(layer) == to {
                        continue;
                    }
                    let direct = (pass + k) % 3 == 0;
                    let accepted = if direct {
                        engine.stage_move(&mut mapping, layer, to);
                        engine.accept_staged();
                        true
                    } else {
                        engine.try_improving_move(&mut mapping, layer, to)
                    };
                    if accepted {
                        accepts[usize::from(direct)] += 1;
                        assert_resting(&engine, &mapping, &format!("{name}: {layer:?} -> {to:?}"));
                    }
                }
            }
            assert!(
                accepts.iter().all(|n| *n > 0),
                "{name}: accepts by screen and direct staging {accepts:?}"
            );
        }
    }

    /// Four universal boards that each hold a tenth of `model`'s weight
    /// bytes: step 2 cannot pin every weight, and capacity refuses many
    /// of step 3's fusions.
    fn small_boards(model: &ModelGraph) -> SystemSpec {
        let small = Bytes::new(model_weight_bytes(model) / 10);
        const_system(
            [1.0e-3, 1.2e-3, 1.5e-3, 2.0e-3]
                .iter()
                .enumerate()
                .map(|(i, t)| ConstAccel::universal(&format!("b{i}"), *t).with_dram(small))
                .collect(),
            1e8,
        )
    }

    /// Total weight bytes of `model`.
    fn model_weight_bytes(model: &ModelGraph) -> u64 {
        model
            .layers()
            .map(|(_, l)| l.weight_bytes(DataType::F32).as_u64())
            .sum()
    }

    /// Asserts that a fresh engine on `model`'s step-1 mapping rests
    /// where the one-shot steps 2-3 land (locality, pins, full boards,
    /// pins-only schedule), with the full evaluation's score and
    /// makespan bit for bit, under every objective whose score reads
    /// more than the makespan, and with nothing billed to the search.
    fn assert_seed_is_steps_2_and_3(model: &ModelGraph, system: &SystemSpec, tag: &str) {
        let ev = Evaluator::new(model, system);
        let preset = PinPreset::new();
        for objective in [
            MapObjective::Latency,
            MapObjective::Energy,
            MapObjective::EnergyDelayProduct,
        ] {
            let cfg = H2hConfig {
                objective,
                ..H2hConfig::default()
            };
            let (mapping, _) = computation_prioritized(&ev, &cfg, &preset).unwrap();
            let engine = DeltaEngine::new(&ev, &cfg, &preset, &mapping);
            let tag = format!("{tag}, {objective:?}");
            assert_resting(&engine, &mapping, &tag);
            let full = ev.evaluate(&mapping, engine.locality());
            assert_eq!(
                engine.score().to_bits(),
                cfg.objective.score(&full).to_bits(),
                "{tag}: score"
            );
            assert_eq!(
                engine.seed_makespan().as_f64().to_bits(),
                full.makespan().as_f64().to_bits(),
                "{tag}: seed makespan"
            );
            let seeded = SearchStats {
                full_rebuilds: 1,
                ..SearchStats::default()
            };
            assert_eq!(engine.stats, seeded, "{tag}: the seed billed the search");
        }
    }

    #[test]
    fn the_seed_replay_equals_steps_2_and_3_and_a_full_evaluation() {
        // Every zoo model on the 7 paper-grid fabrics, seeded synthetic
        // models, and the small boards where capacity refuses many of
        // step 3's fusions (most of the risky guards on seed 5).
        let skewed = [BandwidthClass::LowMinus, BandwidthClass::Mid];
        for model in h2h_model::zoo::all_models() {
            for bw in BandwidthClass::ALL {
                let tag = format!("{} @ {}", model.name(), bw.label());
                assert_seed_is_steps_2_and_3(&model, &SystemSpec::standard(bw), &tag);
            }
            for bw in skewed {
                let system = SystemSpec::standard_with_topology(bw, Some("skewed")).unwrap();
                let tag = format!("{} @ {}/skewed", model.name(), bw.label());
                assert_seed_is_steps_2_and_3(&model, &system, &tag);
            }
        }
        for seed in 1..=5 {
            let model = synthetic_mmmt(&SyntheticConfig {
                seed,
                ..Default::default()
            });
            let tag = format!("synthetic seed {seed}");
            let system = SystemSpec::standard(BandwidthClass::LowMinus);
            assert_seed_is_steps_2_and_3(&model, &system, &tag);
            let tag = format!("{tag}, small boards");
            assert_seed_is_steps_2_and_3(&model, &small_boards(&model), &tag);
        }
    }

    #[test]
    fn a_commit_the_screen_did_not_price_drops_the_floor() {
        // Direct staging (the annealer's path) bypasses the floor, so a
        // direct commit must retire it; the next screened move rebuilds
        // it, and from then on it mirrors the engine's state exactly.
        let model = h2h_model::zoo::casia_surf();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        let preset = PinPreset::new();
        let (mut mapping, _) = computation_prioritized(&ev, &cfg, &preset).unwrap();
        let moves = neighbour_moves(&model, &system, &mapping);
        let mut engine = DeltaEngine::new(&ev, &cfg, &preset, &mapping);
        engine.try_improving_move(&mut mapping, moves[0].0, moves[0].1);
        assert!(engine.floor.is_some(), "a screened move builds the floor");
        let (layer, to) = moves[1];
        engine.stage_move(&mut mapping, layer, to);
        engine.accept_staged();
        assert!(
            engine.floor.is_none(),
            "a direct commit must retire the floor"
        );
        for &(layer, to) in moves[2..].iter().take(40) {
            if mapping.acc_of(layer) == to {
                continue;
            }
            engine.try_improving_move(&mut mapping, layer, to);
            let floor = engine
                .floor
                .as_ref()
                .expect("a screened move rebuilds the floor");
            let fresh = Floor::new(&ev, &mapping, &pins_of(&ev, &mapping, engine.locality()));
            for id in model.layer_ids() {
                assert_eq!(floor.inc.finish_of(id), fresh.inc.finish_of(id), "{id:?}");
            }
        }
        assert!(
            engine.stats.screened > 0,
            "the rebuilt floor screened nothing"
        );
    }
}
