//! Incremental schedule updates (paper §4.2: *"since changing the
//! latency and scheduling of one layer can affect all its successor
//! layers, we update the layer scheduling recursively … in each
//! iteration, we only update a node's direct successor neighbors without
//! traversing the entire graph"*).
//!
//! [`IncrementalSchedule`] mirrors the full [`Evaluator`]'s list
//! schedule as mutable per-layer state — costs, durations, start/finish
//! times and accelerator queues — and re-derives start/finish times
//! along only the *affected cone* of a change: the changed layers, their
//! graph successors, and queue successors on the owning accelerators.
//! [`IncrementalSchedule::move_layer`] re-queues a layer onto another
//! accelerator, [`IncrementalSchedule::refresh_costs`] re-derives
//! per-layer cost decompositions from a tentative locality state, and
//! [`IncrementalSchedule::propagate`] re-times the cone. The re-timing
//! is a wavefront in topological rank order that can stop at a rank and
//! resume: [`IncrementalSchedule::stamp`] marks seeds pending,
//! [`IncrementalSchedule::advance_to`] re-times the pending layers up to
//! a rank, and [`IncrementalSchedule::settle`] re-times the rest, so a
//! caller that reads only early layers pays only for those. The schedule
//! keeps no running totals: [`IncrementalSchedule::proxy`] sums the
//! schedule-level quantities from the per-layer state on read, so any
//! [`crate::schedule::Schedule`]-level objective can be scored without a
//! full re-evaluation.
//!
//! # Invariants the delta engine maintains
//!
//! 1. **Cost fidelity** — `dur[l]` always equals
//!    `LayerCost::duration()` of the layer's last refreshed cost, and
//!    costs come from one cost source, passed as a closure: normally
//!    [`Evaluator::layer_cost`], the same primitive the full evaluator
//!    sums. Identical durations + an identical start-time recurrence ⇒
//!    after propagation over the full affected cone, every start/finish
//!    equals the full evaluation *bitwise*, and so does every
//!    [`ScheduleProxy`] quantity, which adds the same per-layer terms in
//!    the evaluator's order. Seeded and refreshed from
//!    [`Evaluator::layer_cost_floor`] instead, every start/finish bounds
//!    from below the exact one of every fusion set in the floor's
//!    outcome classes (the recurrence is monotone).
//! 2. **Queue order** — each accelerator executes its layers in the
//!    single global topological priority (`Evaluator`'s `topo_order`);
//!    [`IncrementalSchedule::move_layer`] re-inserts at the sorted
//!    position, so queue order never depends on move history.
//! 3. **Transactionality** — between [`IncrementalSchedule::begin`] and
//!    [`IncrementalSchedule::rollback`] every mutation is journaled
//!    (first-touch undo log for times/costs, move list); rollback
//!    restores the pre-transaction state exactly, so a rejected
//!    candidate move costs only its cone size. Within an open
//!    transaction, [`IncrementalSchedule::savepoint`] marks a nested
//!    restore point: the journal keeps recording (first touch *per
//!    savepoint region*), and [`IncrementalSchedule::rollback_to`]
//!    undoes just the suffix — an `O(touched)` memcpy-style restore of
//!    the recorded set, no re-propagation. The fusion pass uses this to
//!    revert a rejected risky-guard toggle at the cost of the cone it
//!    touched instead of a second propagation round.
//! 4. **Settledness** — a layer's start and finish are current once no
//!    rank at or below its own is pending; the schedule is *settled*
//!    when no rank is. [`IncrementalSchedule::makespan`],
//!    [`IncrementalSchedule::proxy`], savepoints and both rollbacks
//!    read or restore every layer, so they require a settled schedule,
//!    and reading one layer's times requires its rank settled; debug
//!    builds assert both. A pending rank is re-timed once, in rank
//!    order, by whichever advance reaches it, so stopping early and
//!    resuming ends at the times one full propagation gives.
//!
//! Equivalence with full re-evaluation is asserted by unit tests here
//! and by the `prop_schedule.rs`/`prop_incremental.rs` property suites.

use std::sync::Arc;

use h2h_model::graph::LayerId;
use h2h_model::units::Seconds;

use crate::locality::LocalityState;
use crate::mapping::Mapping;
use crate::schedule::{Evaluator, LayerCost};
use crate::system::AccId;

/// Schedule-level quantities summed from the per-layer state — enough
/// to score any mapping objective (latency, energy, EDP, pipelined
/// throughput) without building a full [`crate::schedule::Schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleProxy {
    /// End-to-end latency (max finish).
    pub makespan: Seconds,
    /// Total modeled energy (compute + Ethernet + DRAM).
    pub energy_total: f64,
    /// Busy time of the bottleneck accelerator.
    pub bottleneck_busy: Seconds,
}

/// Undo log of one open transaction.
///
/// Entries are first-touch *per savepoint region*: a layer touched
/// before and after a [`IncrementalSchedule::savepoint`] appears once
/// per region, with the region-entry value. Rollback therefore applies
/// entries in **reverse** order so the earliest (pre-transaction) value
/// wins.
#[derive(Debug, Clone, Default)]
struct Journal {
    /// `(layer, old_start, old_finish)`, first touch per region.
    times: Vec<(usize, f64, f64)>,
    /// `(layer, old_cost, old_dur)`, first touch per region.
    costs: Vec<(usize, LayerCost, f64)>,
    /// `(layer, from_acc)` in application order.
    moves: Vec<(LayerId, usize)>,
}

/// A nested restore point inside an open transaction (see
/// [`IncrementalSchedule::savepoint`]): the journal lengths at creation
/// time. [`IncrementalSchedule::rollback_to`] undoes exactly the journal
/// suffix recorded since — the touched set of whatever ran in between —
/// without re-propagating anything.
#[derive(Debug, Clone, Copy)]
pub struct Savepoint {
    times_len: usize,
    costs_len: usize,
    moves_len: usize,
}

/// Read-only per-(model, system) data shared by every clone of an
/// [`IncrementalSchedule`]: the global topological priority and the
/// energy-model constants. It sits behind an [`Arc`], so a clone copies
/// only the mutable scratch.
#[derive(Debug)]
struct IncShared {
    /// Rank of each layer in the global topological priority.
    topo_pos: Vec<usize>,
    /// The global topological priority itself (the evaluator's
    /// iteration order, which [`IncrementalSchedule::proxy`] sums in).
    order: Vec<LayerId>,
    /// CSR-flattened adjacency (by raw layer index): predecessor ids of
    /// layer `i` live in `preds[pred_off[i]..pred_off[i + 1]]`, and
    /// likewise for successors. The propagate hot loop re-times a
    /// million-plus layer visits per large-model search run; reading
    /// neighbours from these flat arrays instead of the graph's
    /// indirect edge storage is what keeps a visit to a handful of
    /// cache lines.
    pred_off: Vec<u32>,
    preds: Vec<u32>,
    succ_off: Vec<u32>,
    /// Successors stored as topological *ranks* (CSR payload for
    /// `succ_off`): the propagate wavefront stamps pending layers by
    /// rank, and storing the ranks pre-translated saves a `topo_pos`
    /// gather per edge in the hottest loop of the search core.
    succ_ranks: Vec<u32>,
    // Energy-model constants captured at seed time.
    eth_power_w: f64,
    dram_pj_per_byte: f64,
}

/// A mutable schedule supporting localized updates and transactional
/// candidate evaluation (see module docs for the invariants).
#[derive(Debug, Clone)]
pub struct IncrementalSchedule {
    /// Layer duration (weight + IFM + compute + OFM), seconds.
    dur: Vec<f64>,
    /// Last refreshed cost decomposition per layer.
    costs: Vec<LayerCost>,
    start: Vec<f64>,
    finish: Vec<f64>,
    /// Per-accelerator execution order (global topological priority).
    acc_queue: Vec<Vec<LayerId>>,
    /// Position of each layer in its accelerator queue.
    queue_pos: Vec<usize>,
    /// Flat queue links: raw index of the layer scheduled immediately
    /// before/after each layer on its accelerator (`u32::MAX` at the
    /// ends). Derived state, kept in sync by `requeue`; the propagate
    /// wavefront reads these instead of chasing `acc_queue[a][pos]`
    /// through two bounds-checked indirections per visit.
    queue_prev: Vec<u32>,
    queue_next: Vec<u32>,
    /// Accelerator index per layer (`usize::MAX` for sparse slots).
    acc_of: Vec<usize>,
    /// Shared read-only topology/energy data (see [`IncShared`]).
    shared: Arc<IncShared>,
    /// Layers re-timed by the last [`IncrementalSchedule::advance_to`].
    touched: usize,
    /// First-touch epoch stamps for time/cost journaling.
    time_stamp: Vec<u64>,
    cost_stamp: Vec<u64>,
    epoch: u64,
    /// Rank-indexed pending flags of the wavefront (persistent, so the
    /// hot path allocates nothing per call).
    pending: Vec<bool>,
    /// The rank the next advance scans from (no rank below it is
    /// pending) and the highest pending rank; `pending_lo > pending_hi`
    /// exactly when the schedule is settled.
    pending_lo: usize,
    pending_hi: usize,
    journal: Option<Journal>,
    /// Retired journal kept for buffer reuse (one transaction per
    /// scored candidate — the hot loop should not allocate).
    spare_journal: Option<Journal>,
}

impl IncrementalSchedule {
    /// Seeds the incremental state from `(mapping, locality)` using the
    /// exact per-layer costs and recurrence of [`Evaluator::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if the mapping is incomplete (validate first).
    pub fn new(ev: &Evaluator<'_>, mapping: &Mapping, locality: &LocalityState) -> Self {
        Self::from_costs(ev, mapping, |id| ev.layer_cost(mapping, locality, id))
    }

    /// Seeds the state from `mapping` with each layer's cost taken from
    /// `cost_of`, under the recurrence of [`Evaluator::evaluate`]. With
    /// [`Evaluator::layer_cost`] this is [`IncrementalSchedule::new`];
    /// the step-4 latency screen passes [`Evaluator::layer_cost_floor`]
    /// to get a schedule whose every start and finish bounds the exact
    /// one from below. Refreshes must then use the same cost source.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is incomplete (validate first).
    pub fn from_costs(
        ev: &Evaluator<'_>,
        mapping: &Mapping,
        mut cost_of: impl FnMut(LayerId) -> LayerCost,
    ) -> Self {
        let model = ev.model();
        let system = ev.system();
        let bound = model.id_bound();
        let n_accs = system.num_accs();
        let emodel = system.energy_model();
        let order = model.topo_order();
        let n = order.len();
        let mut topo_pos = vec![usize::MAX; bound];
        for (rank, id) in order.iter().enumerate() {
            topo_pos[id.index()] = rank;
        }
        let mut pred_off = vec![0u32; bound + 1];
        let mut succ_off = vec![0u32; bound + 1];
        for id in model.layer_ids() {
            pred_off[id.index() + 1] = model.predecessors(id).count() as u32;
            succ_off[id.index() + 1] = model.successors(id).count() as u32;
        }
        for i in 0..bound {
            pred_off[i + 1] += pred_off[i];
            succ_off[i + 1] += succ_off[i];
        }
        let mut preds = vec![0u32; pred_off[bound] as usize];
        let mut succs = vec![0u32; succ_off[bound] as usize];
        for id in model.layer_ids() {
            let i = id.index();
            for (k, p) in model.predecessors(id).enumerate() {
                preds[pred_off[i] as usize + k] = p.index() as u32;
            }
            for (k, s) in model.successors(id).enumerate() {
                succs[succ_off[i] as usize + k] = s.index() as u32;
            }
        }
        let succ_ranks: Vec<u32> = succs
            .into_iter()
            .map(|s| topo_pos[s as usize] as u32)
            .collect();
        let mut inc = IncrementalSchedule {
            dur: vec![0.0; bound],
            costs: vec![LayerCost::default(); bound],
            start: vec![0.0; bound],
            finish: vec![0.0; bound],
            acc_queue: vec![Vec::new(); n_accs],
            queue_pos: vec![0usize; bound],
            queue_prev: vec![u32::MAX; bound],
            queue_next: vec![u32::MAX; bound],
            acc_of: vec![usize::MAX; bound],
            shared: Arc::new(IncShared {
                topo_pos,
                order,
                pred_off,
                preds,
                succ_off,
                succ_ranks,
                eth_power_w: emodel.eth_link_power_w,
                dram_pj_per_byte: emodel.dram_pj_per_byte,
            }),
            touched: 0,
            time_stamp: vec![0; bound],
            cost_stamp: vec![0; bound],
            epoch: 0,
            pending: vec![false; n],
            pending_lo: n,
            pending_hi: 0,
            journal: None,
            spare_journal: None,
        };
        let mut acc_ready = vec![0.0f64; n_accs];
        let shared = inc.shared.clone();
        for id in shared.order.iter().copied() {
            let i = id.index();
            let cost = cost_of(id);
            let dur = cost.duration().as_f64();
            let a = mapping.acc_of(id).index();
            inc.acc_of[i] = a;
            inc.queue_pos[i] = inc.acc_queue[a].len();
            if let Some(prev) = inc.acc_queue[a].last() {
                inc.queue_prev[i] = prev.index() as u32;
                inc.queue_next[prev.index()] = i as u32;
            }
            inc.acc_queue[a].push(id);
            inc.costs[i] = cost;
            inc.dur[i] = dur;
            let deps = model
                .predecessors(id)
                .map(|p| inc.finish[p.index()])
                .fold(0.0f64, f64::max);
            let s = deps.max(acc_ready[a]);
            inc.start[i] = s;
            inc.finish[i] = s + dur;
            acc_ready[a] = s + dur;
        }
        inc
    }

    /// Current makespan (max finish over all layers).
    ///
    /// Computed as the max over each accelerator's *last-queued* layer:
    /// along one queue, `start >= avail = previous finish` and
    /// durations are non-negative, so finish times are non-decreasing
    /// and the queue tail dominates. Every layer sits in exactly one
    /// queue, so this is the same max — the same IEEE value the
    /// all-layers fold produces (`f64::max` is order-insensitive on the
    /// non-negative, NaN-free finish times) — read in `O(accelerators)`
    /// instead of `O(layers)`. The fusion pass reads the makespan at
    /// every guard, so on large models this scan was itself a hot path.
    /// Requires a settled schedule (invariant 4).
    pub fn makespan(&self) -> Seconds {
        debug_assert!(self.is_settled(), "makespan read on an unsettled schedule");
        let mut max = 0.0f64;
        for queue in &self.acc_queue {
            if let Some(last) = queue.last() {
                max = max.max(self.finish[last.index()]);
            }
        }
        Seconds::new(max)
    }

    /// Finish time of one layer, whose rank must be settled
    /// (invariant 4).
    pub fn finish_of(&self, layer: LayerId) -> Seconds {
        debug_assert!(
            self.settled_through(layer),
            "{layer}: finish read before it settled"
        );
        Seconds::new(self.finish[layer.index()])
    }

    /// Start time of one layer, whose rank must be settled
    /// (invariant 4).
    pub fn start_of(&self, layer: LayerId) -> Seconds {
        debug_assert!(
            self.settled_through(layer),
            "{layer}: start read before it settled"
        );
        Seconds::new(self.start[layer.index()])
    }

    /// `layer`'s rank in the global topological priority, the order the
    /// wavefront re-times in: every layer whose finish `layer`'s start
    /// reads has a lower rank.
    pub fn rank_of(&self, layer: LayerId) -> usize {
        self.shared.topo_pos[layer.index()]
    }

    /// Whether no rank is pending: every start and finish is current.
    pub fn is_settled(&self) -> bool {
        self.pending_lo > self.pending_hi
    }

    /// Whether no rank at or below `layer`'s is pending.
    fn settled_through(&self, layer: LayerId) -> bool {
        self.rank_of(layer) < self.pending_lo
    }

    /// The layer scheduled immediately after `layer` on its accelerator
    /// queue (`None` if it runs last). Together with the graph
    /// successors, this is exactly the set of layers whose start times
    /// read `layer`'s finish — the delay walk of the fusion pass's risky
    /// guards follows it to prove a raised finish is absorbed.
    pub fn queue_successor(&self, layer: LayerId) -> Option<LayerId> {
        let next = self.queue_next[layer.index()];
        (next != u32::MAX).then(|| LayerId::from_index(next as usize))
    }

    /// The layer scheduled immediately before `layer` on its accelerator
    /// queue (`None` if it runs first). Together with the graph
    /// predecessors, this is exactly the set of layers whose finish
    /// times `layer`'s start reads — the step-4 latency screen walks it
    /// back along the critical path.
    pub fn queue_predecessor(&self, layer: LayerId) -> Option<LayerId> {
        let prev = self.queue_prev[layer.index()];
        (prev != u32::MAX).then(|| LayerId::from_index(prev as usize))
    }

    /// Duration currently assumed for one layer.
    pub fn duration_of(&self, layer: LayerId) -> Seconds {
        Seconds::new(self.dur[layer.index()])
    }

    /// The full cost decomposition currently assumed for one layer —
    /// after a flush of deferred refreshes, bitwise what
    /// [`Evaluator::layer_cost`] returns for the current `(mapping,
    /// locality)` state. The risky-guard proof reads the unchanged
    /// terms from here instead of recomputing them.
    pub fn cost_of(&self, layer: LayerId) -> &LayerCost {
        &self.costs[layer.index()]
    }

    /// The accelerator queue (global topological priority order).
    pub fn queue(&self, acc: AccId) -> &[LayerId] {
        &self.acc_queue[acc.index()]
    }

    /// Number of layers whose times were recomputed by the last
    /// [`IncrementalSchedule::advance_to`] (the paper's
    /// locality-of-update argument).
    pub fn touched(&self) -> usize {
        self.touched
    }

    /// Schedule-level scores, summed from the per-layer state on read in
    /// `O(layers)` without allocating. The energy terms are added over
    /// the global topological priority and each accelerator's busy time
    /// over its queue, which holds its layers in that same order — the
    /// same values in the same order as [`Evaluator::evaluate`] adds
    /// them, so every field is bitwise-equal to the full evaluation of
    /// the same state (invariant 1). Requires a settled schedule
    /// (invariant 4).
    pub fn proxy(&self) -> ScheduleProxy {
        debug_assert!(self.is_settled(), "proxy read on an unsettled schedule");
        let mut eth_busy = 0.0f64;
        let mut dram_bytes = 0u64;
        let mut compute_energy = 0.0f64;
        for id in &self.shared.order {
            let c = &self.costs[id.index()];
            eth_busy += c.eth_time.as_f64();
            dram_bytes += c.dram_bytes.as_u64();
            compute_energy += c.compute_energy.as_f64();
        }
        let mut bottleneck = 0.0f64;
        for queue in &self.acc_queue {
            let busy = queue
                .iter()
                .fold(0.0f64, |sum, l| sum + self.dur[l.index()]);
            bottleneck = bottleneck.max(busy);
        }
        let energy_total = compute_energy
            + eth_busy * self.shared.eth_power_w
            + dram_bytes as f64 * self.shared.dram_pj_per_byte * 1e-12;
        ScheduleProxy {
            makespan: self.makespan(),
            energy_total,
            bottleneck_busy: Seconds::new(bottleneck),
        }
    }

    /// Opens a transaction: every subsequent mutation is journaled until
    /// [`IncrementalSchedule::commit`] or
    /// [`IncrementalSchedule::rollback`].
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin(&mut self) {
        assert!(self.journal.is_none(), "transaction already open");
        self.epoch += 1;
        let mut journal = self.spare_journal.take().unwrap_or_default();
        journal.times.clear();
        journal.costs.clear();
        journal.moves.clear();
        self.journal = Some(journal);
    }

    /// Discards the open transaction, keeping all changes.
    pub fn commit(&mut self) {
        self.spare_journal = self.journal.take();
    }

    /// Reverts every change made since [`IncrementalSchedule::begin`].
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open. Requires a settled schedule
    /// (invariant 4).
    pub fn rollback(&mut self) {
        debug_assert!(self.is_settled(), "rollback of an unsettled schedule");
        let journal = self.journal.take().expect("no open transaction");
        // Undo queue surgery in reverse order; the canonical sorted
        // insertion restores exact positions. Costs/times also apply in
        // reverse: savepoint regions may have journaled a layer more
        // than once, and the earliest entry (the pre-transaction value)
        // must win.
        for (layer, from_acc) in journal.moves.iter().rev() {
            self.requeue(*layer, *from_acc);
        }
        for (i, cost, dur) in journal.costs.iter().rev() {
            self.costs[*i] = *cost;
            self.dur[*i] = *dur;
        }
        for (i, s, f) in journal.times.iter().rev() {
            self.start[*i] = *s;
            self.finish[*i] = *f;
        }
        self.spare_journal = Some(journal);
    }

    /// Marks a nested restore point inside the open transaction. Every
    /// mutation after this call is journaled with its at-savepoint value
    /// (even for layers already touched earlier in the transaction), so
    /// [`IncrementalSchedule::rollback_to`] can restore exactly the
    /// state as of this call by replaying the recorded suffix — an
    /// `O(touched)` operation, no re-propagation.
    ///
    /// Savepoints nest implicitly: a later savepoint's suffix is a
    /// prefix-stable extension of an earlier one's, so rolling back to
    /// an earlier savepoint after a later one also restores correctly
    /// (later-region entries sit above the earlier marks); the later
    /// savepoint is spent then. A savepoint can be rolled back to any
    /// number of times. One that is *not* rolled back needs no explicit
    /// release — its extra journal entries are harmless because full
    /// [`IncrementalSchedule::rollback`] applies in reverse order.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open. Requires a settled schedule
    /// (invariant 4).
    pub fn savepoint(&mut self) -> Savepoint {
        debug_assert!(self.is_settled(), "savepoint of an unsettled schedule");
        let j = self
            .journal
            .as_ref()
            .expect("savepoint requires an open transaction");
        // New epoch: layers first-touched before this savepoint must be
        // re-journaled (with their current, i.e. at-savepoint, values)
        // when touched inside the region.
        self.epoch += 1;
        Savepoint {
            times_len: j.times.len(),
            costs_len: j.costs.len(),
            moves_len: j.moves.len(),
        }
    }

    /// Restores the exact state as of `sp`'s [`IncrementalSchedule::savepoint`]
    /// call by undoing the journal suffix recorded since (reverse
    /// order). Costs, durations, start/finish times and queues all come
    /// back bitwise; the transaction stays open.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open. `sp` must come from this
    /// instance's current transaction (debug-asserted via the journal
    /// marks), and the schedule must be settled (invariant 4).
    pub fn rollback_to(&mut self, sp: &Savepoint) {
        debug_assert!(self.is_settled(), "rollback_to on an unsettled schedule");
        // Take the journal out so `requeue` can borrow `self` freely.
        let mut journal = self
            .journal
            .take()
            .expect("rollback_to requires an open transaction");
        debug_assert!(
            sp.times_len <= journal.times.len()
                && sp.costs_len <= journal.costs.len()
                && sp.moves_len <= journal.moves.len(),
            "savepoint does not belong to this transaction"
        );
        while journal.moves.len() > sp.moves_len {
            let (layer, from_acc) = journal.moves.pop().expect("length checked");
            self.requeue(layer, from_acc);
        }
        for (i, cost, dur) in journal.costs.drain(sp.costs_len..).rev() {
            self.costs[i] = cost;
            self.dur[i] = dur;
        }
        for (i, s, f) in journal.times.drain(sp.times_len..).rev() {
            self.start[i] = s;
            self.finish[i] = f;
        }
        // The journal is back at `sp`'s marks: later savepoints are
        // spent, this one stays usable.
        self.journal = Some(journal);
        // New epoch: the popped entries' layers carry region stamps, so
        // later touches must journal their (just restored) values anew.
        self.epoch += 1;
    }

    fn journal_cost(&mut self, i: usize) {
        if let Some(j) = self.journal.as_mut() {
            if self.cost_stamp[i] != self.epoch {
                self.cost_stamp[i] = self.epoch;
                j.costs.push((i, self.costs[i], self.dur[i]));
            }
        }
    }

    /// Removes `layer` from its current queue and re-inserts it into
    /// `to_acc`'s queue at the global-topological-priority position
    /// (no journaling — shared by `move_layer` and rollback).
    fn requeue(&mut self, layer: LayerId, to_acc: usize) {
        let i = layer.index();
        let from_acc = self.acc_of[i];
        let pos = self.queue_pos[i];
        // Unlink from the old queue (the flat links are derived state;
        // every queue mutation funnels through here, so updating them
        // in place keeps them exact across rollback replays too).
        let (prev, next) = (self.queue_prev[i], self.queue_next[i]);
        if prev != u32::MAX {
            self.queue_next[prev as usize] = next;
        }
        if next != u32::MAX {
            self.queue_prev[next as usize] = prev;
        }
        self.acc_queue[from_acc].remove(pos);
        for k in pos..self.acc_queue[from_acc].len() {
            self.queue_pos[self.acc_queue[from_acc][k].index()] = k;
        }
        let rank = self.shared.topo_pos[i];
        let queue = &self.acc_queue[to_acc];
        let insert_at = queue.partition_point(|l| self.shared.topo_pos[l.index()] < rank);
        // Link into the new queue at the insertion point.
        let new_prev = insert_at
            .checked_sub(1)
            .map_or(u32::MAX, |k| queue[k].index() as u32);
        let new_next = queue.get(insert_at).map_or(u32::MAX, |l| l.index() as u32);
        self.queue_prev[i] = new_prev;
        self.queue_next[i] = new_next;
        if new_prev != u32::MAX {
            self.queue_next[new_prev as usize] = i as u32;
        }
        if new_next != u32::MAX {
            self.queue_prev[new_next as usize] = i as u32;
        }
        self.acc_queue[to_acc].insert(insert_at, layer);
        for k in insert_at..self.acc_queue[to_acc].len() {
            self.queue_pos[self.acc_queue[to_acc][k].index()] = k;
        }
        self.acc_of[i] = to_acc;
    }

    /// Moves `layer` onto `to_acc`'s queue (journaled). Returns the
    /// propagation seeds the move creates: the layer itself plus the
    /// layers whose queue predecessor changed (the old queue successor
    /// and the new one). Durations are *not* recomputed — call
    /// [`IncrementalSchedule::refresh_costs`] with the tentative
    /// locality, then [`IncrementalSchedule::propagate`].
    pub fn move_layer(&mut self, layer: LayerId, to_acc: AccId) -> Vec<LayerId> {
        let mut seeds = Vec::with_capacity(3);
        self.move_layer_into(layer, to_acc, &mut seeds);
        seeds
    }

    /// [`IncrementalSchedule::move_layer`], appending the propagation
    /// seeds into a caller-owned buffer (the search core reuses one
    /// across candidates).
    pub fn move_layer_into(&mut self, layer: LayerId, to_acc: AccId, seeds: &mut Vec<LayerId>) {
        let i = layer.index();
        let from_acc = self.acc_of[i];
        let old_pos = self.queue_pos[i];
        seeds.push(layer);
        if from_acc == to_acc.index() {
            return;
        }
        if let Some(j) = self.journal.as_mut() {
            j.moves.push((layer, from_acc));
        }
        self.requeue(layer, to_acc.index());
        // The old queue successor (now sitting at `old_pos`) lost its
        // predecessor…
        if let Some(succ) = self.acc_queue[from_acc].get(old_pos) {
            seeds.push(*succ);
        }
        // …and the new queue successor gained one.
        if let Some(succ) = self.acc_queue[to_acc.index()].get(self.queue_pos[i] + 1) {
            seeds.push(*succ);
        }
    }

    /// Re-derives the cost decomposition of `layers` from `(mapping,
    /// locality)` (journaled), updating their durations. Returns the
    /// subset whose duration actually changed — the seeds a subsequent
    /// [`IncrementalSchedule::propagate`] needs.
    pub fn refresh_costs(
        &mut self,
        ev: &Evaluator<'_>,
        mapping: &Mapping,
        locality: &LocalityState,
        layers: impl IntoIterator<Item = LayerId>,
    ) -> Vec<LayerId> {
        let mut changed = Vec::new();
        self.refresh_costs_into(
            layers,
            |id| ev.layer_cost(mapping, locality, id),
            &mut changed,
        );
        changed
    }

    /// [`IncrementalSchedule::refresh_costs`] with the cost source given
    /// as `cost_of` (the one the state was seeded with, see
    /// [`IncrementalSchedule::from_costs`]), appending the changed layers
    /// into a caller-owned buffer (the search core reuses one across
    /// candidates).
    pub fn refresh_costs_into(
        &mut self,
        layers: impl IntoIterator<Item = LayerId>,
        mut cost_of: impl FnMut(LayerId) -> LayerCost,
        changed: &mut Vec<LayerId>,
    ) {
        for id in layers {
            let i = id.index();
            self.journal_cost(i);
            let new = cost_of(id);
            let new_dur = new.duration().as_f64();
            let old_dur = std::mem::replace(&mut self.dur[i], new_dur);
            self.costs[i] = new;
            if new_dur != old_dur {
                changed.push(id);
            }
        }
    }

    /// Re-derives **every** layer's cost under `ev` and propagates the
    /// affected cone — the slice-resize primitive of the multi-tenant
    /// serving loop, where `ev` is the tenant's evaluator at a new
    /// serving batch size (same mapping, same locality, different
    /// per-request repetition factor).
    ///
    /// Compared to a fresh [`Evaluator::evaluate`] this reuses the queue
    /// structure, the CSR adjacency and every scratch buffer, and a
    /// no-op rebatch (costs unchanged, e.g. the batch size the schedule
    /// already reflects) propagates nothing. By invariant 1, every
    /// start/finish time — and so every [`IncrementalSchedule::proxy`]
    /// quantity — is then **bitwise-equal** to a full evaluation under
    /// `ev`. Returns the number of layers whose duration changed.
    pub fn rebatch(
        &mut self,
        ev: &Evaluator<'_>,
        mapping: &Mapping,
        locality: &LocalityState,
    ) -> usize {
        let seeds = self.refresh_costs(ev, mapping, locality, ev.model().layer_ids());
        let changed = seeds.len();
        if changed > 0 {
            self.propagate(&seeds);
        }
        changed
    }

    /// Recomputes start/finish times along the affected cone of `seeds`
    /// (the layers whose durations or queue predecessors changed):
    /// [`IncrementalSchedule::stamp`], then
    /// [`IncrementalSchedule::settle`]. Read
    /// [`IncrementalSchedule::makespan`] afterwards when the new value
    /// is needed.
    pub fn propagate(&mut self, seeds: &[LayerId]) {
        self.stamp(seeds);
        self.settle();
    }

    /// Marks `seeds` pending without re-timing anything; the next
    /// advance that reaches their ranks re-times them and whatever their
    /// changes reach.
    pub fn stamp(&mut self, seeds: &[LayerId]) {
        for s in seeds {
            let r = self.shared.topo_pos[s.index()];
            self.pending[r] = true;
            self.pending_lo = self.pending_lo.min(r);
            self.pending_hi = self.pending_hi.max(r);
        }
    }

    /// Re-times every pending layer, settling the schedule (invariant
    /// 4).
    pub fn settle(&mut self) {
        self.advance_to(usize::MAX);
    }

    /// Re-times the pending layers at ranks up to `rank`, leaving the
    /// stamps above it pending, so every layer at or below `rank` reads
    /// its final start and finish. This is the hottest loop of the
    /// search core (a large-model run visits millions of layers here),
    /// so it runs as a *monotone wavefront*: pending layers are flagged
    /// in a rank-indexed array and processed in global topological
    /// order — every dependency (graph edges and same-accelerator queue
    /// edges both point forward in that order) is final before its
    /// reader is visited, so each pending rank is re-timed once per
    /// stamp, with neighbours read from a CSR copy of the graph's
    /// adjacency. A re-timed layer whose times changed stamps its graph
    /// successors and its queue successor.
    pub fn advance_to(&mut self, rank: usize) {
        // Destructure into disjoint field borrows once: the loop below
        // then runs on locals — no per-iteration `Arc` deref, no method
        // calls, and the journal option is resolved outside the loop's
        // dependent-load chain.
        let IncrementalSchedule {
            ref shared,
            ref dur,
            ref mut start,
            ref mut finish,
            ref queue_prev,
            ref queue_next,
            ref mut pending,
            ref mut pending_lo,
            ref mut pending_hi,
            ref mut time_stamp,
            ref mut journal,
            epoch: journal_epoch,
            ..
        } = *self;
        let shared: &IncShared = shared;
        let mut journal = journal.as_mut();
        let mut hi = *pending_hi;
        let mut touched = 0usize;
        let mut r = *pending_lo;
        while r <= hi.min(rank) {
            if !pending[r] {
                r += 1;
                continue;
            }
            pending[r] = false;
            let i = shared.order[r].index();
            touched += 1;
            let mut deps = 0.0f64;
            for p in &shared.preds[shared.pred_off[i] as usize..shared.pred_off[i + 1] as usize] {
                deps = deps.max(finish[*p as usize]);
            }
            // One flat load replaces the `acc_queue[a][pos - 1]`
            // double indirection of the queue-predecessor read.
            let qp = queue_prev[i];
            let avail = if qp == u32::MAX {
                0.0
            } else {
                finish[qp as usize]
            };
            let new_start = deps.max(avail);
            let new_finish = new_start + dur[i];
            if new_finish != finish[i] || new_start != start[i] {
                if let Some(j) = journal.as_mut() {
                    if time_stamp[i] != journal_epoch {
                        time_stamp[i] = journal_epoch;
                        j.times.push((i, start[i], finish[i]));
                    }
                }
                start[i] = new_start;
                finish[i] = new_finish;
                // Direct graph successors (ranks pre-translated in the
                // CSR, so stamping is load → store)…
                for sr in
                    &shared.succ_ranks[shared.succ_off[i] as usize..shared.succ_off[i + 1] as usize]
                {
                    let sr = *sr as usize;
                    pending[sr] = true;
                    hi = hi.max(sr);
                }
                // …and the next layer in this accelerator's queue.
                let next = queue_next[i];
                if next != u32::MAX {
                    let nr = shared.topo_pos[next as usize];
                    pending[nr] = true;
                    hi = hi.max(nr);
                }
            }
            r += 1;
        }
        // `hi` is a stamped rank, so ranks stay pending iff it lies past
        // where the scan stopped.
        if hi >= r {
            *pending_lo = r;
            *pending_hi = hi;
        } else {
            *pending_lo = shared.order.len();
            *pending_hi = 0;
        }
        self.touched = touched;
    }

    /// Asserts (in tests) that every start and finish time equals a
    /// fresh full evaluation's bitwise (invariant 1); exposed for
    /// downstream test suites.
    #[doc(hidden)]
    pub fn assert_matches_full(
        &self,
        ev: &Evaluator<'_>,
        mapping: &Mapping,
        locality: &LocalityState,
    ) {
        assert!(
            self.is_settled(),
            "only a settled schedule matches a full evaluation"
        );
        let full = ev.evaluate(mapping, locality);
        for id in ev.model().layer_ids() {
            let t = full.timing(id).expect("scheduled");
            let (s, f) = (self.start[id.index()], self.finish[id.index()]);
            assert!(
                s == t.start.as_f64() && f == t.finish.as_f64(),
                "{id}: incremental [{s}, {f}] vs full [{}, {}]",
                t.start.as_f64(),
                t.finish.as_f64()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::system::{AccId, BandwidthClass};
    use crate::testutil::{const_system, ConstAccel};
    use h2h_model::builder::ModelBuilder;
    use h2h_model::graph::ModelGraph;
    use h2h_model::tensor::TensorShape;

    /// The proxy sums what the full schedule sums, in its order, so
    /// every field matches bitwise.
    fn assert_proxy_matches(inc: &IncrementalSchedule, full: &Schedule) {
        let proxy = inc.proxy();
        assert_eq!(proxy.makespan, full.makespan());
        assert_eq!(proxy.energy_total, full.energy().total().as_f64());
        assert_eq!(proxy.bottleneck_busy, full.bottleneck_busy());
    }

    fn chain() -> ModelGraph {
        let mut b = ModelBuilder::new("inc");
        let i = b.input("i", TensorShape::Vector { features: 1024 });
        let f1 = b.fc("f1", i, 1024).unwrap();
        let f2 = b.fc("f2", f1, 1024).unwrap();
        let f3 = b.fc("f3", f2, 1024).unwrap();
        let g1 = b.fc("g1", i, 1024).unwrap();
        let _ = (f3, g1);
        b.finish().unwrap()
    }

    #[test]
    fn seed_matches_full_evaluation() {
        let m = chain();
        let sys = const_system(
            vec![
                ConstAccel::universal("u0", 1e-3),
                ConstAccel::universal("u1", 2e-3),
            ],
            1e6,
        );
        let mut map = Mapping::new(&m);
        for (i, id) in m.topo_order().into_iter().enumerate() {
            map.set(id, AccId::new(i % 2));
        }
        let ev = Evaluator::new(&m, &sys);
        let loc = LocalityState::new(&sys);
        let inc = IncrementalSchedule::new(&ev, &map, &loc);
        inc.assert_matches_full(&ev, &map, &loc);
        assert_proxy_matches(&inc, &ev.evaluate(&map, &loc));
    }

    #[test]
    fn pinning_delta_propagates_to_full_equivalence() {
        // Pin a layer's weights in locality B; the incremental schedule
        // seeded from locality A, with that layer's cost refreshed under
        // B and propagated, must equal the full evaluation of B.
        let m = chain();
        let sys = const_system(vec![ConstAccel::universal("u0", 1e-3)], 1e6);
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let ev = Evaluator::new(&m, &sys);
        let ids = m.topo_order();
        let loc_a = LocalityState::new(&sys);
        let mut loc_b = LocalityState::new(&sys);
        assert!(loc_b.try_pin(&m, &sys, ids[1], AccId::new(0)));

        let mut inc = IncrementalSchedule::new(&ev, &map, &loc_a);
        let seeds = inc.refresh_costs(&ev, &map, &loc_b, [ids[1]]);
        assert_eq!(seeds, [ids[1]], "pinning must change the layer's duration");
        inc.propagate(&seeds);
        inc.assert_matches_full(&ev, &map, &loc_b);
        assert_proxy_matches(&inc, &ev.evaluate(&map, &loc_b));
    }

    #[test]
    fn touched_cone_is_smaller_than_the_graph() {
        // Changing the last layer of a long chain touches only itself;
        // the paper's "without traversing the entire graph" claim.
        let mut b = ModelBuilder::new("long");
        let mut prev = b.input("i", TensorShape::Vector { features: 64 });
        for k in 0..40 {
            prev = b.fc(&format!("f{k}"), prev, 64).unwrap();
        }
        let m = b.finish().unwrap();
        let sys = const_system(vec![ConstAccel::universal("u0", 1e-3)], 1e9);
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let ev = Evaluator::new(&m, &sys);
        let loc = LocalityState::new(&sys);
        let mut inc = IncrementalSchedule::new(&ev, &map, &loc);
        let compute_only = |secs: f64| LayerCost {
            compute: Seconds::new(secs),
            ..LayerCost::default()
        };
        let mut seeds = Vec::new();
        let last = *m.topo_order().last().unwrap();
        inc.refresh_costs_into([last], |_| compute_only(5e-3), &mut seeds);
        inc.propagate(&seeds);
        assert_eq!(inc.touched(), 1, "tail change must touch one layer");

        // Changing the head touches everything downstream.
        seeds.clear();
        let head = m.topo_order()[0];
        inc.refresh_costs_into([head], |_| compute_only(2e-3), &mut seeds);
        inc.propagate(&seeds);
        assert_eq!(inc.touched(), m.num_layers());
    }

    #[test]
    fn batch_changes_on_zoo_model_match_full() {
        let m = h2h_model::zoo::cnn_lstm();
        let sys = crate::system::SystemSpec::standard(BandwidthClass::Mid);
        let ev = Evaluator::new(&m, &sys);
        let mut map = Mapping::new(&m);
        for (id, layer) in m.layers() {
            let acc = sys.acc_ids().find(|a| sys.acc(*a).supports(layer)).unwrap();
            map.set(id, acc);
        }
        let loc_a = LocalityState::new(&sys);
        let mut loc_b = LocalityState::new(&sys);
        // Pin everything that fits on each layer's accelerator.
        for id in m.layer_ids() {
            if m.layer(id).has_weights() {
                let _ = loc_b.try_pin(&m, &sys, id, map.acc_of(id));
            }
        }
        // Re-cost only the pinned layers under B, as production does.
        let pinned: Vec<LayerId> = m.layer_ids().filter(|id| loc_b.is_pinned(*id)).collect();
        let mut inc = IncrementalSchedule::new(&ev, &map, &loc_a);
        let seeds = inc.refresh_costs(&ev, &map, &loc_b, pinned);
        assert!(!seeds.is_empty(), "pinning must change some duration");
        inc.propagate(&seeds);
        inc.assert_matches_full(&ev, &map, &loc_b);
        assert_proxy_matches(&inc, &ev.evaluate(&map, &loc_b));
    }

    #[test]
    fn move_refresh_propagate_matches_full_schedule() {
        // The full search-move primitive: move a layer to the other
        // accelerator, refresh its cost, propagate — must equal a fresh
        // full evaluation of the moved mapping bitwise.
        let m = chain();
        let sys = const_system(
            vec![
                ConstAccel::universal("u0", 1e-3),
                ConstAccel::universal("u1", 2e-3),
            ],
            1e6,
        );
        let ids = m.topo_order();
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let ev = Evaluator::new(&m, &sys);
        let loc = LocalityState::new(&sys);
        let mut inc = IncrementalSchedule::new(&ev, &map, &loc);

        map.set(ids[2], AccId::new(1));
        let mut seeds = inc.move_layer(ids[2], AccId::new(1));
        seeds.extend(inc.refresh_costs(&ev, &map, &loc, m.layer_ids()));
        inc.propagate(&seeds);
        inc.assert_matches_full(&ev, &map, &loc);
        assert_proxy_matches(&inc, &ev.evaluate(&map, &loc));
    }

    #[test]
    fn rollback_restores_exact_state() {
        let m = h2h_model::zoo::cnn_lstm();
        let sys = crate::system::SystemSpec::standard(BandwidthClass::Mid);
        let ev = Evaluator::new(&m, &sys);
        let mut map = Mapping::new(&m);
        for (id, layer) in m.layers() {
            let acc = sys.acc_ids().find(|a| sys.acc(*a).supports(layer)).unwrap();
            map.set(id, acc);
        }
        let loc = LocalityState::new(&sys);
        let mut inc = IncrementalSchedule::new(&ev, &map, &loc);
        let reference = inc.clone();

        // Tentatively shuffle several layers across capable devices.
        let ids = m.topo_order();
        inc.begin();
        let mut all_seeds = Vec::new();
        for (k, id) in ids.iter().enumerate().take(8) {
            let layer = m.layer(*id);
            let target = sys
                .acc_ids()
                .filter(|a| sys.acc(*a).supports(layer))
                .nth(k % 2)
                .unwrap_or_else(|| map.acc_of(*id));
            all_seeds.extend(inc.move_layer(*id, target));
        }
        all_seeds.extend(inc.refresh_costs(&ev, &map, &loc, m.layer_ids()));
        inc.propagate(&all_seeds);
        inc.rollback();

        assert_eq!(inc.makespan(), reference.makespan());
        for id in m.layer_ids() {
            assert_eq!(inc.finish_of(id), reference.finish_of(id));
            assert_eq!(inc.duration_of(id), reference.duration_of(id));
        }
        for acc in sys.acc_ids() {
            assert_eq!(inc.queue(acc), reference.queue(acc));
        }
        assert_eq!(inc.proxy(), reference.proxy());
    }

    #[test]
    fn rebatch_matches_full_evaluation_at_every_batch_size() {
        // The serving loop's slice-resize primitive: walking the batch
        // size up and down through one incremental schedule must land on
        // the full evaluator's makespan (and proxy) bitwise, every time.
        let m = h2h_model::zoo::cnn_lstm();
        let sys = crate::system::SystemSpec::standard(BandwidthClass::LowMinus);
        let mut map = Mapping::new(&m);
        for (id, layer) in m.layers() {
            let acc = sys
                .acc_ids()
                .find(|a| sys.acc(*a).supports(layer))
                .expect("standard system supports every zoo layer");
            map.set(id, acc);
        }
        let mut loc = LocalityState::new(&sys);
        for (k, id) in m.topo_order().into_iter().enumerate() {
            if k % 2 == 0 && m.layer(id).has_weights() {
                let _ = loc.try_pin(&m, &sys, id, map.acc_of(id));
            }
        }
        let base = Evaluator::new(&m, &sys);
        let mut inc = IncrementalSchedule::new(&base, &map, &loc);
        for batch in [4u32, 1, 16, 16, 2] {
            let ev = Evaluator::from_cache(&m, &sys, base.cache().clone()).with_batch(batch);
            inc.rebatch(&ev, &map, &loc);
            inc.assert_matches_full(&ev, &map, &loc);
            assert_proxy_matches(&inc, &ev.evaluate(&map, &loc));
        }
        // Same-batch rebatch is a no-op: no duration can change.
        let ev = Evaluator::from_cache(&m, &sys, base.cache().clone()).with_batch(2);
        assert_eq!(
            inc.rebatch(&ev, &map, &loc),
            0,
            "2 -> 2 must change nothing"
        );
    }
}
