//! Multi-tenant **open-loop streaming** serving: several models'
//! request streams scheduled through **one** heterogeneous system,
//! with tail-latency (p50/p95/p99) accounting.
//!
//! The offline mapper answers "where does one model's every layer
//! run"; deployment asks the next question — *N* tenants, each a
//! (model, arrival process, latency SLO) triple, sharing the same
//! boards and the same local DRAM. A [`Tenant`] is a contract (its
//! spec, evaluator tables and arrival schedule) plus the placement
//! installed for it: mapping, locality, fabric rates, incremental
//! schedule, slice memo and footprint, all derived by one constructor,
//! so admission, every fault-transition install and every staged-repair
//! landing build it the same way. A serve run keeps its per-run ledgers,
//! residency, parked flags and staged repairs in one drain state. The
//! pieces:
//!
//! 1. **Tenant registry** ([`TenantRegistry::admit`]) — each tenant is
//!    mapped *offline* by the full four-step pipeline (bit-identical to
//!    a standalone [`H2hMapper`] run) and its mapping pinned. Admission
//!    enforces the shared DRAM budget
//!    ([`H2hConfig::serve_dram_budget_frac`] of every board): a tenant
//!    whose pinned weights oversubscribe it keeps only the
//!    highest-value pins — a knapsack on saved transfer time, the same
//!    objective as the step-2 pass — and the trimmed layers are
//!    re-costed through the tenant's [`IncrementalSchedule`] as a delta
//!    (refresh the unpinned layers, propagate their cone) rather than a
//!    rebuild.
//! 2. **Open-loop arrivals** ([`crate::arrivals`]) — each tenant's
//!    requests enter its queue on an arrival schedule materialized
//!    from its [`ArrivalProcess`]: the deterministic `j / rate_hz`
//!    clock (the default), a seeded Poisson process, or a replayed
//!    [`h2h_system::trace::ArrivalTrace`]. The round loop consults
//!    the schedule through one monotone *event clock*: arrival
//!    cursors advance by exact comparison against the same
//!    `arrival(j)` values the latency ledger charges (integer-exact —
//!    no floor estimate, no epsilon), while fault boundaries and
//!    staged-repair landings share the single
//!    [`h2h_system::sim::BOUNDARY_EPS`] slack, so the three event
//!    streams can never disagree about whether an instant passed and
//!    a request arriving exactly at a fault boundary is counted once.
//! 3. **Online batch former** ([`TenantRegistry::serve`]) — each
//!    scheduling round packs the backlogged tenants whose *combined*
//!    resident footprint fits the DRAM budget and serves each
//!    selected tenant one *slice* of up to
//!    [`H2hConfig::serve_max_batch`] requests. Round forming is a
//!    policy surface ([`RoundPolicy`]): the urgency knapsack (value =
//!    backlog + doomed requests; the default), earliest-deadline-first,
//!    or weighted-fair virtual finish times. A round derives only
//!    what its policy reads: the knapsack former takes every
//!    backlogged tenant when they fit together and derives urgency
//!    only when they do not, and only the ranked policies derive rank
//!    keys. Residency is rebuilt only when a selected tenant swaps
//!    in; otherwise the resident set and its per-board total stand.
//! 4. **Interleaved slice evaluator** — a slice of `k` requests streams
//!    through the tenant's pinned mapping with weights fetched **once**
//!    ([`Evaluator::with_batch`] semantics). Slice makespans come from
//!    the tenant's long-lived [`IncrementalSchedule`] via
//!    [`IncrementalSchedule::rebatch`]: changing `k` re-costs layers
//!    and propagates, re-serving the same `k` propagates nothing, and
//!    repeated sizes hit a memo outright — bitwise-equal to a full
//!    evaluation either way (cross-checked against an evaluator built
//!    from scratch when [`H2hConfig::serve_verify`] is set). The
//!    evaluator tables are derived once per tenant, at admission
//!    ([`h2h_system::schedule::ModelTables`]): a slice re-costs through
//!    an O(1) batch view of them, and a fault transition switches every
//!    tenant to the degraded fabric's
//!    [`h2h_system::schedule::FabricRates`], derived once per
//!    transition, so neither re-derives the model.
//! 5. **Per-tenant tail-latency accounting** ([`TenantServeStats`]) —
//!    the full attained-latency *distribution* per tenant (exact
//!    samples, [`LatencyLedger`]): p50/p95/p99 alongside mean/max,
//!    violation counters, amortized weight-fetch time — rendered by
//!    [`crate::report::serve_report`] and recorded (with offered-load
//!    × p99 throughput curves) by the `bench_serve` bin. A round
//!    appends its samples and the drain sorts each ledger once at the
//!    end, so a round costs the same at any window length.
//!    [`ServeOutcome::check_coherence`] cross-validates the ledger
//!    against the scalar counters (sample count == served, samples
//!    sorted, ledger max == worst latency bitwise, samples over SLO ==
//!    violations).
//! 6. **Overload shedding** ([`H2hConfig::serve_queue_cap`]) — with a
//!    bounded per-tenant queue, backlog above the cap sheds from the
//!    queue *head*: under a latency SLO the oldest waiting request is
//!    the lowest-value work (nearest or past its deadline), so
//!    head-drop is value-ranked shedding. Shed requests land in a
//!    per-tenant ledger ([`TenantServeStats::shed`], with
//!    [`TenantServeStats::shed_doomed`] counting those already unable
//!    to meet their SLO), and an unrecovered outage sheds the blocked
//!    tenants' remaining windows instead of stalling the drain. The
//!    default unbounded queue serves everything, and a permanent
//!    blockage is [`ServeError::Stalled`].
//! 7. **Degraded-fabric serving** ([`TenantRegistry::serve_with_faults`])
//!    — the same round loop replayed through a
//!    [`h2h_system::fault::FaultPlan`]: at every boundary that changes
//!    the fabric (sampled at round starts; slices are atomic), each
//!    tenant's mapping is repaired onto the degraded system by the
//!    time-budgeted [`crate::repair::repair_mapping`], its pinned
//!    weights are evicted (the next slice re-streams them over the
//!    degraded routes — re-admission), and the SLO ledger records the
//!    degraded window separately. An empty plan is bit-identical to
//!    [`TenantRegistry::serve`], and every tenant's admitted placement
//!    is restored afterwards so later no-fault calls stay
//!    bit-identical too.
//!    Host-scoped faults extend the timeline: a degraded host NIC
//!    re-prices every via-host route and weight re-stream, while a
//!    **down** host freezes swap-ins entirely — only tenants already
//!    resident keep serving until the recovery boundary (a drain
//!    blocked forever returns [`ServeError::Stalled`]). When
//!    [`H2hConfig::repair_secs_per_move`] is set, each transition's
//!    budgeted search is additionally charged modeled wall time: the
//!    tenant keeps serving on the evacuation-only interim placement
//!    until the searched one *lands*, and the window is recorded in
//!    [`TenantServeStats::repair_time_charged`]. Tenants whose repair
//!    or budget trim fails on the shrunken fabric are parked (shed)
//!    instead of failing the run, and retried at every later
//!    transition.
//!
//! The contention model is deliberately conservative: slices within a
//! round execute sequentially (the host dispatches one model at a
//! time), so co-scheduling never *hides* latency — every win reported
//! here comes from weight-residency amortization, which is exactly what
//! the H2H cost model can defend. Residency itself is stateful across
//! rounds: tenants that fit the budget together stay resident, but
//! when the batch former must alternate oversubscribed tenants, a
//! tenant evicted in one round **re-streams its pinned weights over
//! Ethernet** before its next slice ([`TenantServeStats::reload_time`])
//! — swap-ins are never free, and batching additionally amortizes them
//! across the slice. Related work motivates the framing:
//! task-mapping with shared-resource contention as first-class
//! (arXiv:2208.06321) and multi-application co-residency as the core
//! heterogeneous-CPS challenge (arXiv:2005.07841).

use std::fmt;
use std::sync::Arc;

use h2h_model::graph::{LayerId, ModelGraph};
use h2h_model::tensor::DataType;
use h2h_model::units::{Bytes, Seconds};
use h2h_system::fault::{FaultPlan, FaultState};
use h2h_system::incremental::IncrementalSchedule;
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{Evaluator, FabricRates, ModelTables};
use h2h_system::sim::event_reached;
use h2h_system::system::{AccId, SystemSpec};
use h2h_system::topology::Endpoint;

use crate::arrivals::{ArrivalProcess, ArrivalSchedule};
use crate::config::{H2hConfig, RoundPolicy};
use crate::knapsack::{solve_auto, Item};
use crate::pipeline::{H2hError, H2hMapper};
use crate::preset::PinPreset;
use crate::repair::{repair_mapping, resolve_repair_budget};

/// One tenant's admission request: a model plus its service contract.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (bench/report key; need not be unique, but should be).
    pub name: String,
    /// The tenant's model (validated at admission).
    pub model: ModelGraph,
    /// Request arrival rate in requests/second. Under the default
    /// [`ArrivalProcess::Fixed`] process arrivals are modeled
    /// deterministically at `j / rate_hz` for `j = 0..requests` (every
    /// serve run exactly reproducible); a Poisson process samples its
    /// exponential gaps at this rate; a trace ignores it for timing.
    pub rate_hz: f64,
    /// Per-request latency SLO (arrival → completion).
    pub slo: Seconds,
    /// Number of requests in the serving window (the bench horizon).
    pub requests: usize,
    /// Arrival process driving the open-loop window
    /// ([`ArrivalProcess::Fixed`] by default — the deterministic
    /// clock, bit-identical to the pre-streaming serve loop).
    pub arrivals: ArrivalProcess,
}

impl TenantSpec {
    /// Convenience constructor (deterministic fixed-clock arrivals).
    pub fn new(
        name: impl Into<String>,
        model: ModelGraph,
        rate_hz: f64,
        slo: Seconds,
        requests: usize,
    ) -> Self {
        TenantSpec {
            name: name.into(),
            model,
            rate_hz,
            slo,
            requests,
            arrivals: ArrivalProcess::Fixed,
        }
    }

    /// Builder: replace the arrival process (validated and
    /// materialized at admission).
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }
}

/// Handle to an admitted tenant (index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantId(usize);

impl TenantId {
    /// Raw registry index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors of admission and serving.
#[derive(Debug)]
pub enum ServeError {
    /// The tenant's model could not be mapped on the system.
    Mapping(H2hError),
    /// The service contract is unusable (zero rate, zero requests, …).
    BadSpec {
        /// Tenant name.
        tenant: String,
        /// What was wrong.
        reason: String,
    },
    /// The tenant cannot fit the shared DRAM budget even with every
    /// discretionary pin trimmed (its fusion buffers alone exceed the
    /// budget on some board).
    DramBudget {
        /// Tenant name.
        tenant: String,
        /// Offending accelerator (catalog id).
        acc: String,
        /// Bytes the tenant needs resident on that accelerator.
        needed: Bytes,
        /// The per-accelerator budget.
        budget: Bytes,
    },
    /// Serving deadlocked: every remaining request belongs to a tenant
    /// that cannot currently serve (parked by shedding, or not
    /// resident while the host NIC is down) and no future fault
    /// boundary can change the condition.
    Stalled {
        /// Modeled time at which progress stopped.
        at: Seconds,
        /// Requests left unserved across tenants.
        unserved: usize,
        /// Tenants parked (shed) at the stall.
        parked: usize,
        /// Whether the host NIC was down at the stall.
        host_down: bool,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Mapping(e) => write!(f, "tenant mapping failed: {e}"),
            ServeError::BadSpec { tenant, reason } => {
                write!(f, "tenant `{tenant}`: {reason}")
            }
            ServeError::DramBudget { tenant, acc, needed, budget } => write!(
                f,
                "tenant `{tenant}` needs {needed} resident on {acc} but the serve budget is {budget}"
            ),
            ServeError::Stalled { at, unserved, parked, host_down } => write!(
                f,
                "serving stalled at t={at}: {unserved} requests unserved ({parked} tenants \
                 parked, host {}) — an unrecovered outage blocks every remaining tenant",
                if *host_down { "down" } else { "up" }
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<H2hError> for ServeError {
    fn from(e: H2hError) -> Self {
        ServeError::Mapping(e)
    }
}

/// Validates a service contract (shared by [`TenantRegistry::admit`]
/// and [`TenantRegistry::set_contract`]).
fn validate_contract(
    name: &str,
    rate_hz: f64,
    slo: Seconds,
    requests: usize,
) -> Result<(), ServeError> {
    if !(rate_hz > 0.0 && rate_hz.is_finite()) {
        return Err(ServeError::BadSpec {
            tenant: name.to_owned(),
            reason: format!("rate must be positive and finite, got {rate_hz}"),
        });
    }
    if requests == 0 {
        return Err(ServeError::BadSpec {
            tenant: name.to_owned(),
            reason: "a tenant must bring at least one request".into(),
        });
    }
    // NaN fails the `>` comparison and infinities fail `is_finite`,
    // so neither survives to the urgency math (where a non-finite SLO
    // once meant the round former's `total_cmp` ranks and the doomed
    // horizon silently degenerated, and violation counting turned
    // itself off — `latency > NaN` is never true).
    if !(slo > Seconds::ZERO && slo.as_f64().is_finite()) {
        return Err(ServeError::BadSpec {
            tenant: name.to_owned(),
            reason: format!("the SLO must be positive and finite, got {}", slo.as_f64()),
        });
    }
    Ok(())
}

/// Per-board serve-budget enforcement, run by [`Placement::new`] for
/// every install: on every board over budget, keep the highest-value
/// pins that fit (knapsack on saved transfer time, the step-2
/// objective), unpin the rest, and re-cost the dropped layers' cones as
/// an incremental delta. The model and system come from `ev`, which is
/// priced on whatever fabric the tenant is installed on (the degraded
/// one during a fault window — budgets depend only on DRAM capacity,
/// which faults never change). Returns the number of pins dropped.
fn trim_to_budget(
    ev: &Evaluator<'_>,
    config: &H2hConfig,
    tenant: &str,
    mapping: &Mapping,
    locality: &mut LocalityState,
    inc: &mut IncrementalSchedule,
) -> Result<usize, ServeError> {
    let (model, system) = (ev.model(), ev.system());
    let budget_of = |acc: AccId| {
        let cap = system.acc(acc).dram_capacity().as_u64() as f64;
        (cap * config.serve_dram_budget_frac) as u64
    };
    let mut trimmed_pins = 0usize;
    let topo = system.topology();
    for acc in system.acc_ids() {
        let budget = budget_of(acc);
        let used = locality.dram_used(acc).as_u64();
        if used <= budget {
            continue;
        }
        let mut pins: Vec<LayerId> = locality
            .pinned_layers()
            .filter(|l| mapping.acc_of(*l) == acc)
            .collect();
        pins.sort_unstable();
        let pinned_bytes: u64 = pins
            .iter()
            .map(|l| model.layer(*l).weight_bytes(DataType::F32).as_u64())
            .sum();
        // Everything resident that is not a pin (fusion buffers) is
        // non-negotiable: fusions changed the *schedule structure*
        // the offline search committed to, pins only change where
        // weights stream from.
        let fixed = used - pinned_bytes;
        if fixed > budget {
            return Err(ServeError::DramBudget {
                tenant: tenant.to_owned(),
                acc: system.acc(acc).meta().id.clone(),
                needed: Bytes::new(fixed),
                budget: Bytes::new(budget),
            });
        }
        let dram = system.acc(acc).dram_bandwidth().as_f64();
        // Saved streaming time is priced at this board's host-route
        // rate (the scalar Ethernet rate on a uniform star).
        let eth = topo.path_bw(Endpoint::Host, Endpoint::Acc(acc)).as_f64();
        let items: Vec<Item> = pins
            .iter()
            .enumerate()
            .map(|(idx, l)| {
                let bytes = model.layer(*l).weight_bytes(DataType::F32).as_u64();
                Item {
                    id: idx,
                    weight: bytes,
                    value: bytes as f64 * (1.0 / eth - 1.0 / dram),
                }
            })
            .collect();
        let keep = solve_auto(&items, budget - fixed);
        let mut keep_mask = vec![false; pins.len()];
        for idx in keep {
            keep_mask[idx] = true;
        }
        let mut dropped = Vec::new();
        for (idx, layer) in pins.iter().enumerate() {
            if !keep_mask[idx] {
                let ok = locality.unpin(*layer, acc);
                debug_assert!(ok, "trim targets were pinned");
                dropped.push(*layer);
                trimmed_pins += 1;
            }
        }
        // Delta re-cost: only the unpinned layers' weight terms
        // changed; refresh them and propagate their cone instead of
        // rebuilding the schedule.
        let seeds = inc.refresh_costs(ev, mapping, locality, dropped);
        inc.propagate(&seeds);
    }
    for acc in system.acc_ids() {
        let used = locality.dram_used(acc);
        let budget = Bytes::new(budget_of(acc));
        if used > budget {
            return Err(ServeError::DramBudget {
                tenant: tenant.to_owned(),
                acc: system.acc(acc).meta().id.clone(),
                needed: used,
                budget,
            });
        }
    }
    Ok(trimmed_pins)
}

/// Evaluates one tenant's slice makespan at batch `k` through its
/// incremental schedule (memoized per batch size). A miss re-costs the
/// schedule through an O(1) batch view: the tenant's shared model
/// tables priced with the fabric rates its placement was installed on,
/// so no table is derived again. `system` is the fabric the tenant is
/// currently served on — the degraded system during a fault window;
/// every install starts a fresh memo, so hits never cross fabrics.
/// With `verify` the slice is cross-checked against an evaluator built
/// from scratch on `system` (the cost cache alone is shared), which
/// also catches a placement priced on a stale fabric.
fn slice_makespan_on(
    system: &SystemSpec,
    verify: bool,
    t: &mut Tenant,
    k: u32,
    counters: &mut ServeCounters,
) -> Seconds {
    let p = &mut t.placement;
    if let Some((_, m)) = p.slice_memo.iter().find(|(b, _)| *b == k) {
        counters.slice_cache_hits += 1;
        return *m;
    }
    counters.slice_evals += 1;
    let model = &t.spec.model;
    let ev =
        Evaluator::from_tables(model, system, t.tables.clone(), p.fabric.clone()).with_batch(k);
    // The memo pre-empts same-size re-evaluation, so every call
    // here rebatches to a genuinely new size.
    p.inc.rebatch(&ev, &p.mapping, &p.locality);
    let m = p.inc.makespan();
    if verify {
        counters.crosschecks += 1;
        let fresh = Evaluator::from_cache(model, system, ev.cache().clone()).with_batch(k);
        let full = fresh.evaluate(&p.mapping, &p.locality).makespan();
        if full.as_f64() != m.as_f64() {
            counters.crosscheck_mismatches += 1;
        }
    }
    p.slice_memo.push((k, m));
    m
}

/// One admitted tenant: its contract (the spec, the evaluator tables
/// and the arrival schedule) plus the placement currently installed.
#[derive(Debug)]
pub struct Tenant {
    spec: TenantSpec,
    /// The admission mapper's model tables, derived once and shared by
    /// every placement and slice view of the tenant
    /// ([`Evaluator::from_tables`]). Compute times are stored at healthy
    /// speed (throttles are priced at read time), so they stay valid on
    /// any degraded fabric.
    tables: Arc<ModelTables>,
    /// Materialization of `spec.arrivals` against the contract —
    /// rebuilt by `admit`, `set_contract` and `set_arrivals`, never by
    /// serving.
    arrivals: ArrivalSchedule,
    /// Admission installs it; a faulted drain replaces it and puts the
    /// admitted one back when it ends.
    placement: Placement,
}

impl Tenant {
    /// The admission spec.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// The offline-searched mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.placement.mapping
    }

    /// The (possibly budget-trimmed) locality state.
    pub fn locality(&self) -> &LocalityState {
        &self.placement.locality
    }

    /// Batch-1 slice makespan (zero-queueing request latency).
    pub fn ideal_latency(&self) -> Seconds {
        self.placement.ideal
    }

    /// Pins dropped at admission to fit the shared DRAM budget.
    pub fn trimmed_pins(&self) -> usize {
        self.placement.trimmed_pins
    }

    /// Total pinned weight bytes (post-trim) — the payload an evicted
    /// tenant re-streams, each board's share at its own link rate.
    pub fn pinned_bytes(&self) -> Bytes {
        self.placement.pinned_total
    }

    /// Resident DRAM bytes on one accelerator.
    pub fn resident_bytes(&self, acc: AccId) -> Bytes {
        Bytes::new(self.placement.resident[acc.index()])
    }

    /// Resident DRAM bytes summed over the system.
    pub fn resident_total(&self) -> Bytes {
        Bytes::new(self.placement.resident.iter().sum())
    }

    /// A view of the tenant's shared tables on `system`, priced with
    /// `fabric`, `system`'s rates ([`Evaluator::from_tables`]).
    fn view<'t>(&'t self, system: &'t SystemSpec, fabric: &Arc<FabricRates>) -> Evaluator<'t> {
        Evaluator::from_tables(
            &self.spec.model,
            system,
            self.tables.clone(),
            fabric.clone(),
        )
    }

    /// Arrival time of request `j` under the materialized schedule
    /// (the deterministic `j / rate_hz` clock by default).
    fn arrival(&self, j: usize) -> f64 {
        self.arrivals.arrival(j)
    }

    /// Requests already *doomed* at `horizon = now + ideal − slo`:
    /// those arriving strictly before it, since even service starting
    /// immediately completes at `now + ideal > arrival + slo`. Strict
    /// on purpose — a request whose arrival lands exactly on the
    /// horizon attains exactly its SLO, and violations are strictly
    /// `latency > slo`. Counted against the materialized arrivals
    /// (the closed-form `floor(horizon·rate)+1` estimate this
    /// replaces over-counted by one whenever `horizon·rate` sat
    /// within its 1e-9 fudge of an integer).
    ///
    /// A binary search for the partition point of
    /// `arrival(k) < horizon` over `0..requests`: it relies on the
    /// [`ArrivalSchedule`] contract that schedules are monotone
    /// non-decreasing, under which the predicate holds on a prefix
    /// and the count equals a linear scan's exactly, in
    /// `O(log requests)` per call. The round former calls it once per
    /// candidate, and only in a knapsack round whose backlog overflows
    /// the budget.
    fn doomed_arrivals(&self, horizon: f64) -> usize {
        let (mut lo, mut hi) = (0, self.spec.requests);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.arrival(mid) < horizon {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A tenant's installed placement and everything derived from it: the
/// long-lived incremental schedule the slice evaluator mutates, the
/// slice memo and the footprint the batch former packs. Only
/// [`Placement::new`] builds one, so admission, every fault-transition
/// install and every staged-repair landing derive it the same way.
#[derive(Debug, Clone)]
struct Placement {
    mapping: Mapping,
    locality: LocalityState,
    /// The rates of the fabric the placement was installed on, which
    /// its slices are priced with.
    fabric: Arc<FabricRates>,
    /// The schedule state; durations reflect the batch size of the
    /// last fresh slice evaluation.
    inc: IncrementalSchedule,
    /// Slice makespan memo, keyed by batch size (append-only, tiny).
    slice_memo: Vec<(u32, Seconds)>,
    /// Batch-1 slice makespan — the latency a request attains executing
    /// alone with zero queueing, the "ideal" of the SLO accounting.
    ideal: Seconds,
    /// Weight-transfer seconds one slice pays exactly once regardless
    /// of batch size (the amortization the batch former exploits).
    weight_xfer_once: Seconds,
    /// Resident DRAM bytes per accelerator (pins + fusion buffers).
    resident: Vec<u64>,
    /// Total pinned weight bytes (post-trim) — the payload an evicted
    /// tenant must re-stream over the interconnect to become resident
    /// again.
    pinned_total: Bytes,
    /// Pinned weight bytes per accelerator (post-trim): eviction
    /// reloads charge each board's share at that board's actual
    /// host-link rate, not one global scalar.
    pinned_by_acc: Vec<u64>,
    /// Pins the budget trim dropped.
    trimmed_pins: usize,
}

impl Placement {
    /// Derives the placement of `(mapping, locality)` on the fabric
    /// `ev` is priced on: builds the incremental schedule on `ev`'s
    /// tables, trims the pins to the serve budget ([`trim_to_budget`]),
    /// derives the footprint and seeds the memo with the batch-1
    /// makespan.
    ///
    /// # Errors
    ///
    /// [`ServeError::DramBudget`] when the trim cannot fit the budget.
    fn new(
        ev: &Evaluator<'_>,
        cfg: &H2hConfig,
        tenant: &str,
        mapping: Mapping,
        mut locality: LocalityState,
    ) -> Result<Self, ServeError> {
        let (model, system) = (ev.model(), ev.system());
        let mut inc = IncrementalSchedule::new(ev, &mapping, &locality);
        let trimmed_pins = trim_to_budget(ev, cfg, tenant, &mapping, &mut locality, &mut inc)?;
        let ideal = inc.makespan();
        let weight_xfer_once = model
            .layer_ids()
            .map(|id| ev.layer_cost(&mapping, &locality, id).weight_xfer)
            .sum();
        let resident = system
            .acc_ids()
            .map(|a| locality.dram_used(a).as_u64())
            .collect();
        let pinned_total = locality.total_pinned_bytes(model);
        let mut pinned_by_acc = vec![0u64; system.num_accs()];
        for l in locality.pinned_layers() {
            pinned_by_acc[mapping.acc_of(l).index()] +=
                model.layer(l).weight_bytes(DataType::F32).as_u64();
        }
        Ok(Placement {
            mapping,
            locality,
            fabric: ev.fabric_rates().clone(),
            inc,
            slice_memo: vec![(1, ideal)],
            ideal,
            weight_xfer_once,
            resident,
            pinned_total,
            pinned_by_acc,
            trimmed_pins,
        })
    }
}

/// A repaired placement waiting out its modeled wall time
/// ([`crate::repair::RepairOutcome::wall_time`]): the tenant serves on
/// the evacuation-only interim placement until `lands_at`, then the
/// searched mapping is installed. A newer fault transition drops
/// pending stages — they were computed against a fabric that no longer
/// exists.
#[derive(Debug)]
struct StagedRepair {
    /// Absolute serving-clock time the repair completes.
    lands_at: f64,
    mapping: Mapping,
    locality: LocalityState,
}

/// Exact per-tenant attained-latency distribution: every served
/// request's latency, appended as it completes and sorted once when
/// the drain ends, with nearest-rank percentiles. Exact sampling is
/// deliberate at serving-window scale (up to tens of thousands of
/// requests per tenant; the repository benchmark serves 40,000): the
/// tail quantiles are reproducible bit for bit, which the equivalence
/// suites and the `BENCH_serve.json` byte-identity contract require —
/// a streaming sketch would trade that away to save memory the
/// windows don't need. The readers below assume sorted samples;
/// [`ServeOutcome::check_coherence`] rejects a ledger that is not.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyLedger {
    // The field name is part of the `Debug` rendering, which the
    // repository benchmark hashes into its ledger digests.
    sorted: Vec<f64>,
}

impl LatencyLedger {
    /// Records one attained latency (seconds) in completion order;
    /// [`LatencyLedger::sort`] orders the samples when the drain ends.
    fn record(&mut self, latency: f64) {
        self.sorted.push(latency);
    }

    /// Sorts the samples ascending, once per drain. Latencies are
    /// finite and positive, so `total_cmp` orders them exactly as
    /// `<=` does, and samples it calls equal are bit-identical: the
    /// sorted vector is the same whichever sort produced it. The
    /// in-place unstable sort needs no scratch buffer.
    fn sort(&mut self) {
        self.sorted.sort_unstable_by(f64::total_cmp);
    }

    /// Samples recorded (== requests served).
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank quantile: the `⌈q·n⌉`-th smallest sample
    /// (`Seconds::ZERO` when nothing was recorded).
    pub fn quantile(&self, q: f64) -> Seconds {
        let n = self.sorted.len();
        if n == 0 {
            return Seconds::ZERO;
        }
        let rank = (q * n as f64).ceil() as usize;
        Seconds::new(self.sorted[rank.clamp(1, n) - 1])
    }

    /// Median attained latency.
    pub fn p50(&self) -> Seconds {
        self.quantile(0.50)
    }

    /// 95th-percentile attained latency.
    pub fn p95(&self) -> Seconds {
        self.quantile(0.95)
    }

    /// 99th-percentile attained latency.
    pub fn p99(&self) -> Seconds {
        self.quantile(0.99)
    }

    /// Worst recorded latency (`Seconds::ZERO` when empty) — must
    /// equal [`TenantServeStats::attained_max`] bitwise.
    pub fn max(&self) -> Seconds {
        Seconds::new(self.sorted.last().copied().unwrap_or(0.0))
    }

    /// Sum of all samples (coherence cross-check against
    /// [`TenantServeStats::attained_total`]).
    pub fn total(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// Samples strictly above `slo` — the same strict comparison the
    /// violation counter uses, so the two must agree exactly.
    pub fn over(&self, slo: Seconds) -> usize {
        self.sorted.len() - self.sorted.partition_point(|s| *s <= slo.as_f64())
    }
}

/// Per-tenant serving outcome: the SLO ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantServeStats {
    /// Tenant name.
    pub name: String,
    /// Requests in the window.
    pub requests: usize,
    /// Requests actually served (== `requests` after a full run).
    pub served: usize,
    /// Requests whose attained latency exceeded the SLO.
    pub violations: usize,
    /// The SLO target.
    pub slo: Seconds,
    /// Zero-queueing request latency (batch-1 slice makespan).
    pub ideal: Seconds,
    /// Sum of attained latencies (arrival → completion).
    pub attained_total: Seconds,
    /// Worst attained latency.
    pub attained_max: Seconds,
    /// Slices served.
    pub batches: usize,
    /// Largest slice batch used.
    pub max_batch: u32,
    /// Weight-fetch seconds saved versus serving every request in its
    /// own slice: `(k - 1) × weight_xfer_once` summed over slices.
    pub amortized_weight_time: Seconds,
    /// Times this tenant was swapped back in after an eviction (its
    /// pinned weights re-streamed over Ethernet before the slice).
    pub weight_reloads: usize,
    /// Total Ethernet time spent on those reloads (already included in
    /// the attained latencies and the drain makespan).
    pub reload_time: Seconds,
    /// Mapping repairs applied to this tenant at fault transitions
    /// ([`TenantRegistry::serve_with_faults`]); zero on no-fault runs.
    pub repairs: usize,
    /// Requests completed while the fabric was degraded (a fault
    /// window was in force at their round's start).
    pub degraded_served: usize,
    /// SLO violations among [`TenantServeStats::degraded_served`] —
    /// the degraded-mode slice of the violation ledger.
    pub violations_degraded: usize,
    /// Modeled repair wall time charged to this tenant's serving clock
    /// ([`crate::repair::RepairOutcome::wall_time`] summed over fault
    /// transitions): while it elapses the tenant serves on the interim
    /// evacuated placement; the searched one lands only afterwards.
    /// Zero under the default instantaneous-repair model.
    pub repair_time_charged: Seconds,
    /// Times this tenant was parked (shed) because a fault transition
    /// left its repair or budget trim unsatisfiable on the shrunken
    /// fabric; a later transition that repairs successfully un-parks
    /// it.
    pub parks: usize,
    /// The full attained-latency distribution (exact sorted samples):
    /// p50/p95/p99 tails alongside the scalar mean/max columns.
    pub latencies: LatencyLedger,
    /// Requests shed by the bounded-queue overload policy
    /// ([`H2hConfig::serve_queue_cap`]) — dropped from the queue head
    /// (oldest first) on overflow, or in bulk when an unrecovered
    /// outage permanently blocks the tenant. Always zero under the
    /// default unbounded queue. `served + shed == requests` after a
    /// complete drain.
    pub shed: usize,
    /// Among [`TenantServeStats::shed`], requests that were already
    /// doomed when dropped (even immediate service would have violated
    /// the SLO) — shedding them lost nothing.
    pub shed_doomed: usize,
}

impl TenantServeStats {
    /// Mean attained latency (zero if nothing was served).
    pub fn attained_mean(&self) -> Seconds {
        if self.served == 0 {
            Seconds::ZERO
        } else {
            self.attained_total / self.served as f64
        }
    }
}

/// Run-wide mechanical counters ([`crate::delta::SearchStats`] style):
/// how much work the slice evaluator actually did, and whether the
/// incremental path stayed equal to the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCounters {
    /// Scheduling rounds executed.
    pub rounds: usize,
    /// Slices whose makespan was freshly evaluated (rebatch + propagate).
    pub slice_evals: usize,
    /// Slices answered from the per-tenant batch-size memo.
    pub slice_cache_hits: usize,
    /// Full-evaluation cross-checks run ([`H2hConfig::serve_verify`]).
    pub crosschecks: usize,
    /// Cross-checks where the incremental makespan was not bitwise
    /// equal to the full evaluation (must stay zero).
    pub crosscheck_mismatches: usize,
    /// Total swap-ins across tenants (evicted pinned weights
    /// re-streamed over Ethernet).
    pub weight_reloads: usize,
    /// Fault-state transitions applied (boundary crossings of the
    /// [`h2h_system::fault::FaultPlan`] that changed the fabric).
    pub fault_transitions: usize,
    /// Per-tenant mapping repairs run at those transitions.
    pub repairs: usize,
    /// Attempted delta moves spent by all repairs (the deterministic
    /// budget currency of [`crate::repair::repair_mapping`]).
    pub repair_evals: usize,
    /// Repairs whose searched placement was staged behind a modeled
    /// wall-time window ([`H2hConfig::repair_secs_per_move`]) instead
    /// of landing instantly.
    pub staged_repairs: usize,
    /// Tenants parked (shed) at fault transitions because repair or
    /// the budget trim failed on the degraded fabric.
    pub sheds: usize,
    /// Requests shed across tenants by the bounded-queue overload
    /// policy ([`H2hConfig::serve_queue_cap`]); zero under the default
    /// unbounded queue.
    pub requests_shed: usize,
}

/// Result of one serving window.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-tenant SLO ledgers, in admission order.
    pub tenants: Vec<TenantServeStats>,
    /// Completion time of the last request (the drain makespan).
    pub makespan: Seconds,
    /// Mechanical counters.
    pub counters: ServeCounters,
    /// Peak co-resident bytes per accelerator over all rounds.
    pub peak_resident: Vec<Bytes>,
    /// The per-accelerator serve budget the rounds were held to.
    pub budgets: Vec<Bytes>,
    /// Accelerator catalog ids, index-aligned with the two vectors
    /// above.
    pub acc_names: Vec<String>,
    /// The round-forming policy the window ran under.
    pub policy: RoundPolicy,
}

impl ServeOutcome {
    /// Total requests served across tenants.
    pub fn total_served(&self) -> usize {
        self.tenants.iter().map(|t| t.served).sum()
    }

    /// Total requests shed across tenants (bounded-queue policy).
    pub fn total_shed(&self) -> usize {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    /// Checks every invariant the accounting promises: all requests
    /// accounted for (served or ledgered as shed), violations within
    /// the request population, attained latencies at or above the
    /// zero-queueing ideal, the latency distribution coherent with the
    /// scalar columns (sample count == served, samples sorted — the
    /// quantile, max and over-SLO readers assume it — p50 ≤ p95 ≤
    /// p99 ≤ max, ledger max == worst latency bitwise, samples over
    /// SLO == violations), the DRAM budget never exceeded, and zero
    /// incremental-vs-full mismatches. Returns the first violated
    /// invariant as an error string — the CI smoke and the property
    /// suite both gate on this. A tenant parked for the whole drain
    /// (served 0, everything shed) is coherent: the mean/max/ideal
    /// checks apply only to tenants that served something.
    pub fn check_coherence(&self) -> Result<(), String> {
        for t in &self.tenants {
            if t.served + t.shed != t.requests {
                return Err(format!(
                    "{}: served {} + shed {} of {} requests",
                    t.name, t.served, t.shed, t.requests
                ));
            }
            if t.shed_doomed > t.shed {
                return Err(format!(
                    "{}: {} doomed sheds exceed {} total sheds",
                    t.name, t.shed_doomed, t.shed
                ));
            }
            if t.latencies.count() != t.served {
                return Err(format!(
                    "{}: latency ledger holds {} samples for {} served requests",
                    t.name,
                    t.latencies.count(),
                    t.served
                ));
            }
            if !t.latencies.sorted.is_sorted() {
                return Err(format!("{}: latency ledger samples are not sorted", t.name));
            }
            if t.violations > t.served {
                return Err(format!(
                    "{}: {} violations exceed {} served requests",
                    t.name, t.violations, t.served
                ));
            }
            if t.degraded_served > t.served {
                return Err(format!(
                    "{}: {} degraded-window requests exceed {} served",
                    t.name, t.degraded_served, t.served
                ));
            }
            if t.violations_degraded > t.violations {
                return Err(format!(
                    "{}: {} degraded violations exceed {} total violations",
                    t.name, t.violations_degraded, t.violations
                ));
            }
            if t.violations_degraded > t.degraded_served {
                return Err(format!(
                    "{}: {} degraded violations exceed {} degraded-window requests",
                    t.name, t.violations_degraded, t.degraded_served
                ));
            }
            if self.counters.fault_transitions == 0
                && (t.repairs > 0
                    || t.degraded_served > 0
                    || t.violations_degraded > 0
                    || t.parks > 0
                    || t.repair_time_charged > Seconds::ZERO)
            {
                return Err(format!(
                    "{}: degraded-mode ledger is non-zero without a fault transition",
                    t.name
                ));
            }
            if t.repair_time_charged > Seconds::ZERO && t.repairs == 0 && t.parks == 0 {
                return Err(format!(
                    "{}: {} of repair time charged with zero repairs or parks",
                    t.name, t.repair_time_charged
                ));
            }
            if t.weight_reloads == 0 && t.reload_time > Seconds::ZERO {
                return Err(format!(
                    "{}: {} of reload time with zero swap-ins",
                    t.name, t.reload_time
                ));
            }
            // Distribution-vs-scalar checks only bite for tenants that
            // served something: an all-parked tenant (served 0, window
            // shed under a permanent fault) legitimately reports mean
            // = max = ZERO, which would otherwise trip `mean < ideal`.
            if t.served > 0 {
                let mean = t.attained_mean().as_f64();
                let ideal = t.ideal.as_f64();
                if mean < ideal * (1.0 - 1e-12) {
                    return Err(format!(
                        "{}: mean attained {mean}s below the zero-queueing ideal {ideal}s",
                        t.name
                    ));
                }
                if t.attained_max.as_f64() < mean * (1.0 - 1e-12) {
                    return Err(format!(
                        "{}: max attained {} below the mean {mean}s",
                        t.name,
                        t.attained_max.as_f64()
                    ));
                }
                let (p50, p95, p99) = (t.latencies.p50(), t.latencies.p95(), t.latencies.p99());
                if !(p50 <= p95 && p95 <= p99 && p99 <= t.latencies.max()) {
                    return Err(format!(
                        "{}: percentiles out of order (p50 {p50}, p95 {p95}, p99 {p99}, \
                         max {})",
                        t.name,
                        t.latencies.max()
                    ));
                }
                if t.latencies.max() != t.attained_max {
                    return Err(format!(
                        "{}: ledger max {} diverges from attained max {}",
                        t.name,
                        t.latencies.max(),
                        t.attained_max
                    ));
                }
                if t.latencies.over(t.slo) != t.violations {
                    return Err(format!(
                        "{}: {} ledger samples over the SLO vs {} counted violations",
                        t.name,
                        t.latencies.over(t.slo),
                        t.violations
                    ));
                }
                let total = t.latencies.total();
                let accum = t.attained_total.as_f64();
                if (total - accum).abs() > 1e-9 * accum.abs().max(1.0) {
                    return Err(format!(
                        "{}: ledger sum {total}s diverges from attained total {accum}s",
                        t.name
                    ));
                }
            }
        }
        let shed_total: usize = self.tenants.iter().map(|t| t.shed).sum();
        if shed_total != self.counters.requests_shed {
            return Err(format!(
                "{} tenant-ledger sheds vs {} counted run-wide",
                shed_total, self.counters.requests_shed
            ));
        }
        for (i, (peak, budget)) in self
            .peak_resident
            .iter()
            .zip(self.budgets.iter())
            .enumerate()
        {
            if peak > budget {
                return Err(format!(
                    "{}: peak co-resident {peak} exceeds the budget {budget}",
                    self.acc_names[i]
                ));
            }
        }
        if self.counters.crosscheck_mismatches > 0 {
            return Err(format!(
                "{} slice cross-checks diverged from the full evaluation",
                self.counters.crosscheck_mismatches
            ));
        }
        if self.counters.fault_transitions == 0 && self.counters.repairs > 0 {
            return Err(format!(
                "{} repairs ran without a fault transition",
                self.counters.repairs
            ));
        }
        if self.counters.fault_transitions == 0
            && (self.counters.staged_repairs > 0 || self.counters.sheds > 0)
        {
            return Err(format!(
                "{} staged repairs / {} sheds without a fault transition",
                self.counters.staged_repairs, self.counters.sheds
            ));
        }
        // Every staging ends as either a counted repair (the interim
        // install succeeded) or a shed (it did not).
        if self.counters.staged_repairs > self.counters.repairs + self.counters.sheds {
            return Err(format!(
                "{} staged repairs exceed {} repairs + {} sheds",
                self.counters.staged_repairs, self.counters.repairs, self.counters.sheds
            ));
        }
        let charged: f64 = self
            .tenants
            .iter()
            .map(|t| t.repair_time_charged.as_f64())
            .sum();
        if charged > 0.0 && self.counters.repairs == 0 && self.counters.sheds == 0 {
            return Err(format!(
                "{charged}s of repair time charged without any repair or shed"
            ));
        }
        Ok(())
    }
}

/// The per-drain ledgers and flags one serve run threads through its
/// rounds, fault transitions and staged-repair landings. Parking,
/// installing and head-shedding each have one body here.
#[derive(Debug)]
struct Drain {
    /// Per-tenant SLO ledgers, in admission order.
    stats: Vec<TenantServeStats>,
    counters: ServeCounters,
    /// Whose weights sit on the boards now; a swap-in re-streams them.
    resident: Vec<bool>,
    /// Per board, the resident tenants' footprint total. Re-derived
    /// wherever residency changes: the round's rebuild, and every
    /// fault transition and staged landing (parks and evicting
    /// installs).
    resident_used: Vec<u64>,
    /// Parked (shed) tenants sit out rounds until a later transition
    /// installs a placement for them.
    parked: Vec<bool>,
    /// Repairs waiting out their modeled wall time before landing.
    staged: Vec<Option<StagedRepair>>,
}

impl Drain {
    /// Empty ledgers for `tenants`: nobody resident, parked or staged.
    fn new(tenants: &[Tenant]) -> Self {
        let n = tenants.len();
        let n_accs = tenants.first().map_or(0, |t| t.placement.resident.len());
        let stats = tenants
            .iter()
            .map(|t| TenantServeStats {
                name: t.spec.name.clone(),
                requests: t.spec.requests,
                served: 0,
                violations: 0,
                slo: t.spec.slo,
                ideal: t.placement.ideal,
                attained_total: Seconds::ZERO,
                attained_max: Seconds::ZERO,
                latencies: LatencyLedger::default(),
                shed: 0,
                shed_doomed: 0,
                batches: 0,
                max_batch: 0,
                amortized_weight_time: Seconds::ZERO,
                weight_reloads: 0,
                reload_time: Seconds::ZERO,
                repairs: 0,
                degraded_served: 0,
                violations_degraded: 0,
                repair_time_charged: Seconds::ZERO,
                parks: 0,
            })
            .collect();
        Drain {
            stats,
            counters: ServeCounters::default(),
            resident: vec![false; n],
            resident_used: vec![0; n_accs],
            parked: vec![false; n],
            staged: (0..n).map(|_| None).collect(),
        }
    }

    /// Re-derives [`Drain::resident_used`] from the resident set.
    fn rederive_resident_used(&mut self, tenants: &[Tenant]) {
        self.resident_used.fill(0);
        for (t, _) in tenants.iter().zip(&self.resident).filter(|(_, r)| **r) {
            for (u, b) in self.resident_used.iter_mut().zip(&t.placement.resident) {
                *u += b;
            }
        }
    }

    /// Requests tenant `i` has finished with, served or shed — the
    /// index of its queue head.
    fn done(&self, i: usize) -> usize {
        self.stats[i].served + self.stats[i].shed
    }

    /// Sheds tenant `i`'s queue head at `now`, counting it as doomed
    /// when even an immediate ideal-latency slice would have violated
    /// its SLO.
    fn shed_head(&mut self, i: usize, t: &Tenant, now: f64) {
        let arrival = t.arrival(self.done(i));
        let s = &mut self.stats[i];
        s.shed += 1;
        if now + t.placement.ideal.as_f64() - arrival > t.spec.slo.as_f64() {
            s.shed_doomed += 1;
        }
        self.counters.requests_shed += 1;
    }

    /// Parks tenant `i`: it leaves the boards, drops any staged repair
    /// and sits out rounds until a later install succeeds.
    fn park(&mut self, i: usize) {
        self.counters.sheds += 1;
        self.stats[i].parks += 1;
        self.parked[i] = true;
        self.resident[i] = false;
        self.staged[i] = None;
    }

    /// Installs `placement` into tenant `i` and un-parks it, or parks
    /// it with its previous placement intact when the placement could
    /// not be built. The install evicts the tenant unless
    /// `keep_if_unchanged` is set and the mapping and locality are
    /// those already installed. Returns whether it installed.
    fn install(
        &mut self,
        i: usize,
        t: &mut Tenant,
        placement: Result<Placement, ServeError>,
        keep_if_unchanged: bool,
    ) -> bool {
        let Ok(p) = placement else {
            self.park(i);
            return false;
        };
        debug_assert!(
            Arc::ptr_eq(p.inc.model_tables(), &t.tables),
            "a placement must be built on its tenant's tables"
        );
        let unchanged = p.mapping == t.placement.mapping && p.locality == t.placement.locality;
        if !(keep_if_unchanged && unchanged) {
            self.resident[i] = false;
        }
        self.parked[i] = false;
        // The ledger's ideal floor must hold for requests served on any
        // fabric of the run; keep the smallest.
        self.stats[i].ideal = self.stats[i].ideal.min(p.ideal);
        t.placement = p;
        true
    }
}

/// Rebuilds residency around a round's `selected` tenants: they swap
/// in, then each of `was_resident` keeps its slot while it still fits
/// next to them under `budgets`, in admission order. Writes the
/// resident set into `resident` and its per-board total into `used`.
fn rebuild_residency(
    tenants: &[Tenant],
    selected: &[usize],
    budgets: &[u64],
    was_resident: &[bool],
    resident: &mut [bool],
    used: &mut [u64],
) {
    resident.fill(false);
    used.fill(0);
    for &i in selected {
        for (u, b) in used.iter_mut().zip(&tenants[i].placement.resident) {
            *u += b;
        }
        resident[i] = true;
    }
    for (i, slot) in resident.iter_mut().enumerate() {
        let r = &tenants[i].placement.resident;
        if was_resident[i]
            && !*slot
            && used
                .iter()
                .zip(r)
                .zip(budgets)
                .all(|((u, b), cap)| u + b <= *cap)
        {
            for (u, b) in used.iter_mut().zip(r) {
                *u += b;
            }
            *slot = true;
        }
    }
}

/// The multi-tenant serving state: admitted tenants, their pinned
/// placements, and the shared-budget batch former.
#[derive(Debug)]
pub struct TenantRegistry<'s> {
    system: &'s SystemSpec,
    config: H2hConfig,
    tenants: Vec<Tenant>,
}

impl<'s> TenantRegistry<'s> {
    /// An empty registry over one system.
    ///
    /// # Panics
    ///
    /// Panics if the serve knobs are out of range:
    /// [`H2hConfig::serve_dram_budget_frac`] must be in `(0, 1]` (a
    /// fraction above 1 would let the accounting promise more DRAM
    /// than the boards have) and [`H2hConfig::serve_max_batch`] must
    /// be ≥ 1.
    pub fn new(system: &'s SystemSpec, config: H2hConfig) -> Self {
        assert!(
            config.serve_dram_budget_frac > 0.0 && config.serve_dram_budget_frac <= 1.0,
            "serve_dram_budget_frac must be in (0, 1], got {}",
            config.serve_dram_budget_frac
        );
        assert!(
            config.serve_max_batch >= 1,
            "serve_max_batch must be at least 1"
        );
        TenantRegistry {
            system,
            config,
            tenants: Vec::new(),
        }
    }

    /// The shared system.
    pub fn system(&self) -> &'s SystemSpec {
        self.system
    }

    /// The serving configuration.
    pub fn config(&self) -> &H2hConfig {
        &self.config
    }

    /// Admitted tenant count.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenant is admitted.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// One admitted tenant.
    pub fn tenant(&self, id: TenantId) -> &Tenant {
        &self.tenants[id.0]
    }

    /// All admitted tenants, in admission order.
    pub fn tenants(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.iter()
    }

    /// The per-accelerator serve budget:
    /// [`H2hConfig::serve_dram_budget_frac`] of the board's capacity.
    pub fn budget_bytes(&self, acc: AccId) -> Bytes {
        let cap = self.system.acc(acc).dram_capacity().as_u64() as f64;
        Bytes::new((cap * self.config.serve_dram_budget_frac) as u64)
    }

    /// Admits a tenant: runs the offline four-step pipeline on its
    /// model (bit-identical to a standalone [`H2hMapper`] run), trims
    /// its pin set to the shared DRAM budget if needed (knapsack on
    /// saved transfer time, applied as an incremental delta), and
    /// registers its service contract.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] for unusable contracts,
    /// [`ServeError::Mapping`] when the model cannot be mapped, and
    /// [`ServeError::DramBudget`] when even the fully trimmed tenant
    /// oversubscribes some board's budget.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<TenantId, ServeError> {
        validate_contract(&spec.name, spec.rate_hz, spec.slo, spec.requests)?;
        let arrivals = spec
            .arrivals
            .materialize(spec.rate_hz, spec.requests)
            .map_err(|reason| ServeError::BadSpec {
                tenant: spec.name.clone(),
                reason,
            })?;

        let mapper = H2hMapper::new(&spec.model, self.system).with_config(self.config);
        let out = mapper.run()?;
        // The mapper's tables become the tenant's: every later
        // placement and slice is a view of them.
        let ev = mapper.evaluator();
        let tables = ev.model_tables().clone();
        let placement = Placement::new(ev, &self.config, &spec.name, out.mapping, out.locality)?;
        if self.config.serve_verify {
            // The memo is pre-seeded with `(1, ideal)`, so batch-1
            // slices never re-run the serve-loop crosscheck — verify
            // the (possibly trim-delta-produced) ideal here instead. A
            // mismatch is an internal soundness bug, not a caller
            // error, hence the assert.
            let full = ev
                .evaluate(&placement.mapping, &placement.locality)
                .makespan();
            assert!(
                placement.ideal.as_f64() == full.as_f64(),
                "tenant `{}`: admission ideal {} diverged from the full evaluation {} \
                 (trim delta is unsound)",
                spec.name,
                placement.ideal,
                full
            );
        }
        self.tenants.push(Tenant {
            spec,
            tables,
            arrivals,
            placement,
        });
        Ok(TenantId(self.tenants.len() - 1))
    }

    /// Replaces an admitted tenant's service contract (rate / SLO /
    /// request window) without re-running the offline mapping. Callers
    /// that want contracts scaled to the tenant's own pace admit
    /// first, read [`Tenant::ideal_latency`], and set the contract
    /// from it — the `bench_serve` bin and the CLI do exactly this.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] under the same rules as
    /// [`TenantRegistry::admit`]; the tenant is left unchanged.
    pub fn set_contract(
        &mut self,
        id: TenantId,
        rate_hz: f64,
        slo: Seconds,
        requests: usize,
    ) -> Result<(), ServeError> {
        let t = &mut self.tenants[id.0];
        validate_contract(&t.spec.name, rate_hz, slo, requests)?;
        // Re-materialize the arrival schedule against the new contract
        // *before* committing anything, so a failure (e.g. a trace
        // shorter than the new window) leaves the tenant unchanged.
        let arrivals = t
            .spec
            .arrivals
            .materialize(rate_hz, requests)
            .map_err(|reason| ServeError::BadSpec {
                tenant: t.spec.name.clone(),
                reason,
            })?;
        t.spec.rate_hz = rate_hz;
        t.spec.slo = slo;
        t.spec.requests = requests;
        t.arrivals = arrivals;
        Ok(())
    }

    /// Replaces an admitted tenant's arrival process (the open-loop
    /// workload shape) without touching its mapping or contract. The
    /// schedule is re-materialized against the current contract.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] when the process cannot be materialized
    /// (e.g. a trace shorter than the request window); the tenant is
    /// left unchanged.
    pub fn set_arrivals(
        &mut self,
        id: TenantId,
        process: ArrivalProcess,
    ) -> Result<(), ServeError> {
        let t = &mut self.tenants[id.0];
        let arrivals = process
            .materialize(t.spec.rate_hz, t.spec.requests)
            .map_err(|reason| ServeError::BadSpec {
                tenant: t.spec.name.clone(),
                reason,
            })?;
        t.spec.arrivals = process;
        t.arrivals = arrivals;
        Ok(())
    }

    /// Switches the batch-forming policy for subsequent serve calls
    /// (the config the registry was built with stays authoritative for
    /// everything else). Lets benches sweep policies on one registry
    /// without re-running admission.
    pub fn set_policy(&mut self, policy: RoundPolicy) {
        self.config.serve_policy = policy;
    }

    /// Serves every tenant's full request window with batched slices
    /// (up to [`H2hConfig::serve_max_batch`] requests per slice) and
    /// the shared-budget batch former. Deterministic: same registry,
    /// same outcome, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty.
    pub fn serve(&mut self) -> ServeOutcome {
        self.serve_impl(self.config.serve_max_batch, &FaultPlan::empty(), true)
            .expect("no-fault serving cannot fail")
    }

    /// The naive per-tenant reference: identical arrivals and round
    /// structure, but every request is served in its own slice (batch
    /// 1), so weight traffic is paid per request. `serve()` must beat
    /// this whenever weights matter — the `bench_serve` gate.
    pub fn serve_naive(&mut self) -> ServeOutcome {
        self.serve_impl(1, &FaultPlan::empty(), true)
            .expect("no-fault serving cannot fail")
    }

    /// Serves the full request window through a fault timeline: at
    /// every [`FaultPlan`] boundary that changes the fabric (sampled
    /// at round starts; slices are atomic), each tenant's mapping is
    /// repaired onto the degraded system by the time-budgeted
    /// [`crate::repair::repair_mapping`]
    /// ([`H2hConfig::repair_eval_budget`] attempted moves per tenant),
    /// its pinned weights are evicted — the next slice re-streams them
    /// over the degraded routes (re-admission) — and the SLO ledger
    /// records the degraded window
    /// ([`TenantServeStats::degraded_served`] /
    /// [`TenantServeStats::violations_degraded`]).
    ///
    /// Every tenant's admitted placement is restored afterwards, so
    /// later calls are unaffected. With an empty plan this is exactly
    /// [`TenantRegistry::serve`], bit for bit — the no-fault identity
    /// contract of the fault subsystem.
    ///
    /// Repair failures do not abort the run: a tenant whose repair
    /// strands a layer class with no live supporting board, or whose
    /// repaired footprint cannot be trimmed to the serve budget, is
    /// *parked* (gracefully shed — [`TenantServeStats::parks`]) and
    /// retried at every later transition.
    ///
    /// # Errors
    ///
    /// [`ServeError::Stalled`] when an unrecovered outage leaves every
    /// remaining request on tenants that can no longer serve (parked
    /// tenants, or non-resident tenants while the host NIC is down)
    /// with no further fault boundary ahead.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty.
    pub fn serve_with_faults(&mut self, plan: &FaultPlan) -> Result<ServeOutcome, ServeError> {
        self.serve_impl(self.config.serve_max_batch, plan, true)
    }

    /// The no-repair baseline: the identical fault timeline, but every
    /// transition only *evacuates* dead boards (repair budget 0) — the
    /// incumbent-on-degraded serving the budgeted repair is measured
    /// against.
    ///
    /// # Errors
    ///
    /// As for [`TenantRegistry::serve_with_faults`].
    pub fn serve_with_faults_unrepaired(
        &mut self,
        plan: &FaultPlan,
    ) -> Result<ServeOutcome, ServeError> {
        self.serve_impl(self.config.serve_max_batch, plan, false)
    }

    /// Packs this round's co-resident tenant set under the configured
    /// [`RoundPolicy`] and writes it into `chosen` (its previous
    /// contents are discarded). `budgets` are the per-board serve
    /// budgets in bytes, computed once per drain; `pending` is each
    /// tenant's servable backlog at `now`, the round's start; `drain`
    /// holds the run's ledgers; `used` is per-board scratch the ranked
    /// path overwrites. Each path derives the keys it reads itself,
    /// for the backlogged candidates only. The default (`Knapsack`)
    /// keeps the historical bit-identical former: all backlogged
    /// tenants if they fit the budget together, otherwise a knapsack
    /// over per-tenant footprints with a per-board feasibility repair,
    /// in ascending tenant indices. Only that overflow fallback
    /// derives urgency (backlog + the requests
    /// [`Tenant::doomed_arrivals`] counts as already at risk), so a
    /// round whose backlog fits derives none. The ranked policies
    /// (`Edf`, `WeightedFair`) instead order candidates by their rank
    /// key (ascending, ties to admission order) and greedy-pack under
    /// the per-board budgets — the written order is the *serve* order,
    /// so the most deadline-pressed (EDF) or least-attended (WFQ)
    /// tenant's slice runs first. Never empty when some tenant has
    /// backlog. Only the knapsack fallback allocates.
    fn form_round(
        &self,
        budgets: &[u64],
        pending: &[usize],
        now: f64,
        drain: &Drain,
        used: &mut [u64],
        chosen: &mut Vec<usize>,
    ) {
        chosen.clear();
        chosen.extend((0..self.tenants.len()).filter(|i| pending[*i] > 0));
        debug_assert!(!chosen.is_empty(), "form_round needs backlog");
        let fits = |sel: &[usize]| {
            budgets.iter().enumerate().all(|(a, budget)| {
                sel.iter()
                    .map(|i| self.tenants[*i].placement.resident[a])
                    .sum::<u64>()
                    <= *budget
            })
        };
        if self.config.serve_policy != RoundPolicy::Knapsack {
            // Ranked path: serve order = rank order. EDF ranks by the
            // head-of-queue deadline, weighted-fair by the virtual
            // finish time of the tenant's next service quantum.
            let rank = |i: usize| {
                let t = &self.tenants[i];
                match self.config.serve_policy {
                    RoundPolicy::Edf => t.arrival(drain.done(i)) + t.spec.slo.as_f64(),
                    RoundPolicy::WeightedFair => {
                        (drain.stats[i].served + 1) as f64 / t.spec.rate_hz
                    }
                    RoundPolicy::Knapsack => unreachable!("the knapsack former ranks nothing"),
                }
            };
            // Greedy-pack under the budgets; the front-ranked candidate
            // always enters (admission guarantees a lone tenant fits
            // its budget). Index ties make the order total, so the
            // unstable sort gives the stable one's result.
            chosen.sort_unstable_by(|&a, &b| rank(a).total_cmp(&rank(b)).then(a.cmp(&b)));
            used.fill(0);
            let mut first = true;
            chosen.retain(|&i| {
                let r = &self.tenants[i].placement.resident;
                let enters = first
                    || used
                        .iter()
                        .zip(r)
                        .zip(budgets)
                        .all(|((u, b), cap)| u + b <= *cap);
                if enters {
                    for (u, b) in used.iter_mut().zip(r) {
                        *u += b;
                    }
                }
                first = false;
                enters
            });
            return;
        }
        if fits(chosen) {
            return;
        }
        // Urgency = backlog + requests already doomed to violate unless
        // served immediately (arrived strictly before `now + ideal -
        // slo`, counted against the actual arrival schedule — see
        // [`Tenant::doomed_arrivals`]). Only this fallback reads it.
        let mut urgency = vec![0.0f64; self.tenants.len()];
        for &i in chosen.iter() {
            let t = &self.tenants[i];
            let horizon = now + t.placement.ideal.as_f64() - t.spec.slo.as_f64();
            let at_risk = t
                .doomed_arrivals(horizon)
                .saturating_sub(drain.done(i))
                .min(pending[i]);
            urgency[i] = (pending[i] + at_risk) as f64;
        }
        // Knapsack over the total-footprint dimension…
        let items: Vec<Item> = chosen
            .iter()
            .map(|&i| Item {
                id: i,
                weight: self.tenants[i].placement.resident.iter().sum(),
                value: urgency[i],
            })
            .collect();
        chosen.clear();
        chosen.extend(solve_auto(&items, budgets.iter().sum()));
        chosen.sort_unstable();
        // …then a per-board repair: drop the lowest-urgency-density
        // tenant until every board fits (admission guarantees a single
        // tenant always does).
        while chosen.len() > 1 && !fits(chosen) {
            let worst = chosen
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let da = urgency[a] / self.tenants[a].resident_total().as_u64().max(1) as f64;
                    let db = urgency[b] / self.tenants[b].resident_total().as_u64().max(1) as f64;
                    da.partial_cmp(&db)
                        .expect("urgency is finite")
                        .then(b.cmp(&a))
                })
                .expect("chosen is non-empty");
            chosen.retain(|&i| i != worst);
        }
        if chosen.is_empty() {
            // Defensive: fall back to the single most urgent tenant.
            let best = items
                .iter()
                .map(|it| it.id)
                .max_by(|&a, &b| {
                    urgency[a]
                        .partial_cmp(&urgency[b])
                        .expect("urgency is finite")
                        .then(b.cmp(&a))
                })
                .expect("candidates are non-empty");
            chosen.push(best);
        }
    }

    /// Save/serve/restore wrapper: a faulted run installs new
    /// placements; putting the saved ones back keeps the registry
    /// reusable and bit-identical for later calls. The no-fault path
    /// installs nothing and saves nothing.
    fn serve_impl(
        &mut self,
        max_batch: u32,
        plan: &FaultPlan,
        budgeted: bool,
    ) -> Result<ServeOutcome, ServeError> {
        let saved: Option<Vec<Placement>> =
            (!plan.is_empty()).then(|| self.tenants.iter().map(|t| t.placement.clone()).collect());
        let result = self.serve_inner(max_batch, plan, budgeted);
        if let Some(saved) = saved {
            for (t, placement) in self.tenants.iter_mut().zip(saved) {
                t.placement = placement;
            }
        }
        result
    }

    /// Applies one fault-state change mid-serve: for every tenant,
    /// repair its mapping onto `sys`, the system `state` degrades the
    /// registry's to (budget per [`H2hConfig::repair_eval_budget`], or
    /// evacuation-only when `budgeted` is false), and install the
    /// result there. Each tenant gets one repair call per transition.
    /// `fabric` holds `sys`'s rates, derived once per transition: one
    /// view per tenant of its shared tables on them prices the repair
    /// and the install. The parks and evicting installs change
    /// residency, so the drain's per-board resident total is
    /// re-derived at the end. Three refinements over the plain install:
    ///
    /// * **Repair wall time** — when
    ///   [`H2hConfig::repair_secs_per_move`] is set and the budgeted
    ///   search moved past the evacuated incumbent it started from,
    ///   the searched mapping does not take effect instantly: the
    ///   tenant keeps serving on that incumbent, and the improvement is
    ///   *staged* to land `attempted_moves × repair_secs_per_move`
    ///   seconds later ([`TenantServeStats::repair_time_charged`]). A
    ///   search that accepted nothing stages nothing: its result is the
    ///   incumbent, installed at once.
    ///   A newer transition drops pending stages — they were computed
    ///   against a fabric that no longer exists.
    /// * **Host-down residency** — while the host NIC is dead, a
    ///   tenant whose installed placement survives unchanged keeps
    ///   its residency: nothing needs restreaming, and restreaming
    ///   would be impossible anyway. An unchanged staged-repair
    ///   interim keeps it too — no weight moved; the genuine
    ///   re-stream is paid when the searched placement lands. Every
    ///   other install evicts.
    /// * **Graceful shedding** — a tenant whose repair or budget trim
    ///   fails on the shrunken fabric is parked (shed) instead of
    ///   failing the whole serve; every later transition retries it.
    fn apply_fault_transition(
        &mut self,
        state: &FaultState,
        sys: &SystemSpec,
        fabric: &Arc<FabricRates>,
        budgeted: bool,
        now: f64,
        drain: &mut Drain,
    ) {
        drain.counters.fault_transitions += 1;
        let cfg = self.config;
        let preset = PinPreset::new();
        for (i, t) in self.tenants.iter_mut().enumerate() {
            // Any stage computed against the previous fabric is stale.
            drain.staged[i] = None;
            let ev = t.view(sys, fabric);
            let budget = if budgeted {
                resolve_repair_budget(&cfg, &t.spec.model)
            } else {
                0
            };
            let old = &t.placement.mapping;
            let Ok(rep) = repair_mapping(&ev, &cfg, &preset, old, state, budget) else {
                // Shed: no live board can host some stranded layer.
                drain.park(i);
                continue;
            };
            drain.counters.repair_evals += rep.stats.attempted_moves;
            // The search's wall time is charged whether or not it
            // found anything — the host CPU spent it either way.
            drain.stats[i].repair_time_charged += rep.wall_time;
            let stage = rep.wall_time > Seconds::ZERO && rep.mapping != rep.interim.0;
            let (mapping, locality) = if stage {
                // Stage the searched placement to land after its wall
                // time; serve meanwhile on the evacuated incumbent the
                // search started from.
                drain.staged[i] = Some(StagedRepair {
                    lands_at: now + rep.wall_time.as_f64(),
                    mapping: rep.mapping,
                    locality: rep.locality,
                });
                drain.counters.staged_repairs += 1;
                rep.interim
            } else {
                (rep.mapping, rep.locality)
            };
            let keep = !state.host_is_up() || drain.staged[i].is_some();
            let placement = Placement::new(&ev, &cfg, &t.spec.name, mapping, locality);
            if drain.install(i, t, placement, keep) {
                drain.counters.repairs += 1;
                drain.stats[i].repairs += 1;
            }
        }
        drain.rederive_resident_used(&self.tenants);
    }

    fn serve_inner(
        &mut self,
        max_batch: u32,
        plan: &FaultPlan,
        budgeted: bool,
    ) -> Result<ServeOutcome, ServeError> {
        assert!(
            !self.tenants.is_empty(),
            "serve() needs at least one admitted tenant"
        );
        let n = self.tenants.len();
        let n_accs = self.system.num_accs();
        let budgets: Vec<Bytes> = self
            .system
            .acc_ids()
            .map(|a| self.budget_bytes(a))
            .collect();
        let acc_names: Vec<String> = self
            .system
            .acc_ids()
            .map(|a| self.system.acc(a).meta().id.clone())
            .collect();

        let mut drain = Drain::new(&self.tenants);
        let mut peak = vec![0u64; n_accs];
        // Monotone per-tenant cursors over the arrival schedule: `now`
        // never moves backwards, so arrival counting is an exact
        // integer advance (`#{j : arrival(j) <= now}`) instead of the
        // old floor-of-rate estimate plus bidirectional correction.
        let mut arrived = vec![0usize; n];
        let queue_cap = self.config.serve_queue_cap;
        let total: usize = self.tenants.iter().map(|t| t.spec.requests).sum();
        let mut done = 0usize;
        let mut now = 0.0f64;
        let budgets_u: Vec<u64> = budgets.iter().map(|b| b.as_u64()).collect();
        // Fault timeline state: boundaries still ahead, the condition
        // in force, the degraded system rounds are priced on (`None`
        // while healthy) and the rates of the fabric the last transition
        // installed on (`None` before the first). Empty plan → all of
        // this is inert and the loop below is the historical no-fault
        // arithmetic.
        let boundaries = plan.boundaries();
        let mut next_boundary = 0usize;
        let mut fault_state = FaultState::healthy(n_accs);
        let mut fault_active = false;
        let mut degraded_sys: Option<SystemSpec> = None;
        let mut fabric: Option<Arc<FabricRates>> = None;
        let verify = self.config.serve_verify;
        // Per-round buffers, allocated once per drain and overwritten
        // by every round.
        let mut pending = vec![0usize; n];
        let mut servable = vec![false; n];
        let mut was_resident = vec![false; n];
        let mut used = vec![0u64; n_accs];
        let mut selected: Vec<usize> = Vec::with_capacity(n);
        // Deployment-time residency: admission-order greedy pack under
        // the shared budget, the rebuild with nobody selected and
        // everybody a candidate. Weights loaded here are part of
        // bring-up, not the serving window (a single tenant is
        // therefore always resident from the start — the bit-identity
        // contract).
        rebuild_residency(
            &self.tenants,
            &[],
            &budgets_u,
            &vec![true; n],
            &mut drain.resident,
            &mut drain.resident_used,
        );

        while done < total {
            // Fault boundaries crossed since the last round change the
            // fabric; the *latest* crossed boundary defines the state
            // (transitions that cancel out inside an idle gap — e.g. a
            // fully recovered outage nobody was serving through — are
            // skipped as the no-ops they are).
            let mut last_crossed = None;
            while next_boundary < boundaries.len() && event_reached(now, boundaries[next_boundary])
            {
                last_crossed = Some(boundaries[next_boundary]);
                next_boundary += 1;
            }
            if let Some(t_b) = last_crossed {
                let new_state = plan.state_at(Seconds::new(t_b), n_accs);
                if new_state != fault_state {
                    fault_state = new_state;
                    fault_active = !fault_state.is_healthy();
                    degraded_sys = fault_active.then(|| self.system.degrade(&fault_state));
                    let sys = degraded_sys.as_ref().unwrap_or(self.system);
                    let rates = fabric.insert(Arc::new(FabricRates::new(sys)));
                    self.apply_fault_transition(
                        &fault_state,
                        sys,
                        rates,
                        budgeted,
                        now,
                        &mut drain,
                    );
                }
            }
            let active_sys: &SystemSpec = degraded_sys.as_ref().unwrap_or(self.system);
            let host_up = fault_state.host_is_up();
            // Land staged repairs whose modeled wall time has elapsed:
            // install the searched placement on the current fabric and
            // evict (the improved placement's weights re-stream next
            // slice) unless the host-down unchanged-placement rule
            // keeps residency; either way the resident total is
            // re-derived.
            for i in 0..n {
                if !drain.staged[i]
                    .as_ref()
                    .is_some_and(|s| event_reached(now, s.lands_at))
                {
                    continue;
                }
                let sr = drain.staged[i].take().expect("a due stage exists");
                let rates = fabric.as_ref().expect("stages follow a transition");
                let t = &mut self.tenants[i];
                let ev = t.view(active_sys, rates);
                let placement =
                    Placement::new(&ev, &self.config, &t.spec.name, sr.mapping, sr.locality);
                drain.install(i, t, placement, !host_up);
                drain.rederive_resident_used(&self.tenants);
            }
            // Backlog at round start: arrivals up to `now`, minus
            // everything already served or shed. The cursor advance is
            // integer-exact against the same `arrival(j)` values the
            // latency accounting uses — arrivals are compared with `<=`
            // and *no* epsilon slack (an epsilon here once pulled a
            // request in before its arrival, attaining less than the
            // ideal), so a request landing exactly on a fault boundary
            // is counted once, by the arrival cursor, never again by
            // the boundary clock.
            for (i, t) in self.tenants.iter().enumerate() {
                while arrived[i] < t.spec.requests && t.arrival(arrived[i]) <= now {
                    arrived[i] += 1;
                }
            }
            // Bounded queues: with a cap, overload sheds from the queue
            // *head* — under a latency SLO the oldest waiter is the
            // nearest deadline and therefore the least salvageable, so
            // head-drop is the value-ranked choice.
            if queue_cap > 0 {
                for (i, t) in self.tenants.iter().enumerate() {
                    while arrived[i] - drain.done(i) > queue_cap {
                        drain.shed_head(i, t, now);
                        done += 1;
                    }
                }
            }
            // Backlog, behind the serviceability gate: parked tenants
            // are shelved until a later transition re-admits them, and
            // while the host NIC is down only already-resident tenants
            // can serve (a swap-in would have to stream weights through
            // the dead host). Healthy runs never zero anything here.
            for i in 0..n {
                servable[i] = !drain.parked[i] && (host_up || drain.resident[i]);
                pending[i] = if servable[i] {
                    arrived[i] - drain.done(i)
                } else {
                    0
                };
            }
            if pending.iter().all(|p| *p == 0) {
                // Idle: jump to the earliest outstanding servable
                // arrival. When unservable tenants hold the remaining
                // work, only a fault boundary can re-admit them, so
                // the jump may land there instead; if neither exists
                // the drain is deadlocked. Fully-servable runs keep
                // the historical next-arrival-only jump (bitwise).
                let next_arrival = (0..n)
                    .filter(|&i| servable[i] && drain.done(i) < self.tenants[i].spec.requests)
                    .map(|i| self.tenants[i].arrival(drain.done(i)))
                    .fold(f64::INFINITY, f64::min);
                let blocked =
                    (0..n).any(|i| !servable[i] && drain.done(i) < self.tenants[i].spec.requests);
                let next_b = if blocked {
                    boundaries
                        .get(next_boundary)
                        .copied()
                        .unwrap_or(f64::INFINITY)
                } else {
                    f64::INFINITY
                };
                let next = next_arrival.min(next_b);
                if !next.is_finite() {
                    // Permanent blockage. With bounded queues the run
                    // degrades gracefully: write off the blocked
                    // tenants' remaining windows as shed (no future
                    // boundary can ever re-admit them) and keep
                    // draining whoever can still serve. The historical
                    // unbounded mode keeps the structural stall error.
                    if queue_cap > 0 {
                        let mut wrote_off = false;
                        for (i, t) in self.tenants.iter().enumerate() {
                            if servable[i] {
                                continue;
                            }
                            while drain.done(i) < t.spec.requests {
                                drain.shed_head(i, t, now);
                                done += 1;
                                wrote_off = true;
                            }
                        }
                        if wrote_off {
                            continue;
                        }
                    }
                    return Err(ServeError::Stalled {
                        at: Seconds::new(now),
                        unserved: total - done,
                        parked: drain.parked.iter().filter(|p| **p).count(),
                        host_down: !host_up,
                    });
                }
                now = now.max(next);
                continue;
            }
            self.form_round(&budgets_u, &pending, now, &drain, &mut used, &mut selected);
            // Residency transition: the selected tenants swap in
            // (evicted ones re-stream their pinned weights over
            // Ethernet before their slice). When they are all resident
            // already, residency and its total stand: the rebuild would
            // re-add every previous resident, because the resident set
            // always fits the budget (deployment packs under it, each
            // round builds under it, parks and evicting installs only
            // remove tenants, and a keeping install keeps its
            // footprint). Debug builds check that against the rebuild.
            let swap_in = selected.iter().any(|&i| !drain.resident[i]);
            if swap_in {
                std::mem::swap(&mut drain.resident, &mut was_resident);
                rebuild_residency(
                    &self.tenants,
                    &selected,
                    &budgets_u,
                    &was_resident,
                    &mut drain.resident,
                    &mut drain.resident_used,
                );
            } else {
                #[cfg(debug_assertions)]
                {
                    let mut scratch = vec![false; n];
                    let mut scratch_used = vec![0; n_accs];
                    rebuild_residency(
                        &self.tenants,
                        &selected,
                        &budgets_u,
                        &drain.resident,
                        &mut scratch,
                        &mut scratch_used,
                    );
                    assert!(
                        scratch == drain.resident && scratch_used == drain.resident_used,
                        "a round that swaps nobody in must keep the rebuilt residency"
                    );
                }
            }
            for (slot, u) in peak.iter_mut().zip(&drain.resident_used) {
                *slot = (*slot).max(*u);
            }
            drain.counters.rounds += 1;
            for &i in &selected {
                let k = (pending[i].min(max_batch as usize)) as u32;
                // A round that swaps nobody in reloads nobody.
                let reload = if !swap_in || was_resident[i] {
                    Seconds::ZERO
                } else {
                    drain.counters.weight_reloads += 1;
                    drain.stats[i].weight_reloads += 1;
                    // Each board's pinned share re-streams at that
                    // board's actual host-link rate (collapses to one
                    // scalar-rate transfer on a uniform star, bitwise;
                    // degraded routes during a fault window).
                    active_sys.topology().host_stream_time(
                        self.tenants[i]
                            .placement
                            .pinned_by_acc
                            .iter()
                            .enumerate()
                            .filter(|(_, b)| **b > 0)
                            .map(|(a, b)| (AccId::new(a), Bytes::new(*b))),
                    )
                };
                drain.stats[i].reload_time += reload;
                let t = &mut self.tenants[i];
                let m = slice_makespan_on(active_sys, verify, t, k, &mut drain.counters);
                let end = now + reload.as_f64() + m.as_f64();
                let s = &mut drain.stats[i];
                for _ in 0..k {
                    let latency = end - t.arrival(s.served + s.shed);
                    s.served += 1;
                    s.attained_total += Seconds::new(latency);
                    s.attained_max = s.attained_max.max(Seconds::new(latency));
                    s.latencies.record(latency);
                    if latency > s.slo.as_f64() {
                        s.violations += 1;
                        if fault_active {
                            s.violations_degraded += 1;
                        }
                    }
                    if fault_active {
                        s.degraded_served += 1;
                    }
                    done += 1;
                }
                s.batches += 1;
                s.max_batch = s.max_batch.max(k);
                s.amortized_weight_time += t.placement.weight_xfer_once * (k - 1) as f64;
                now = end;
            }
        }

        for s in &mut drain.stats {
            s.latencies.sort();
        }
        Ok(ServeOutcome {
            tenants: drain.stats,
            makespan: Seconds::new(now),
            counters: drain.counters,
            policy: self.config.serve_policy,
            peak_resident: peak.into_iter().map(Bytes::new).collect(),
            budgets,
            acc_names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_system::system::BandwidthClass;
    use h2h_system::trace::ArrivalTrace;

    fn spec(name: &str, model: ModelGraph, rate: f64, slo_s: f64, requests: usize) -> TenantSpec {
        TenantSpec::new(name, model, rate, Seconds::new(slo_s), requests)
    }

    #[test]
    fn bad_specs_are_refused() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let m = h2h_model::zoo::mocap();
        assert!(matches!(
            reg.admit(spec("zero-rate", m.clone(), 0.0, 1.0, 4)),
            Err(ServeError::BadSpec { .. })
        ));
        assert!(matches!(
            reg.admit(spec("no-requests", m.clone(), 1.0, 1.0, 0)),
            Err(ServeError::BadSpec { .. })
        ));
        assert!(matches!(
            reg.admit(spec("zero-slo", m, 1.0, 0.0, 4)),
            Err(ServeError::BadSpec { .. })
        ));
        assert!(reg.is_empty());
    }

    #[test]
    fn admission_matches_the_offline_pipeline() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let model = h2h_model::zoo::mocap();
        let offline = H2hMapper::new(&model, &system).run().unwrap();
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let id = reg.admit(spec("mocap", model, 2.0, 2.0, 6)).unwrap();
        let t = reg.tenant(id);
        assert_eq!(t.mapping(), &offline.mapping);
        assert_eq!(t.locality(), &offline.locality);
        assert_eq!(t.ideal_latency(), offline.final_latency());
        assert_eq!(t.trimmed_pins(), 0, "full budget must trim nothing");
    }

    #[test]
    fn single_tenant_serving_is_coherent_and_batches() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let model = h2h_model::zoo::cnn_lstm();
        let cfg = H2hConfig {
            serve_verify: true,
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(&system, cfg);
        // Arrivals far faster than the service rate force batching.
        reg.admit(spec("cnn", model, 200.0, 5.0, 24)).unwrap();
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 24);
        assert!(
            out.tenants[0].max_batch > 1,
            "backlog must trigger batching"
        );
        assert!(out.counters.crosschecks > 0);
        assert_eq!(out.counters.crosscheck_mismatches, 0);
        // The naive reference pays weights per request and must drain
        // strictly slower.
        let naive = reg.serve_naive();
        naive.check_coherence().unwrap();
        assert!(
            out.makespan < naive.makespan,
            "batched {} must beat naive {}",
            out.makespan,
            naive.makespan
        );
        assert!(out.tenants[0].amortized_weight_time > Seconds::ZERO);
        assert_eq!(naive.tenants[0].amortized_weight_time, Seconds::ZERO);
        // A lone tenant is resident from bring-up and never evicted.
        assert_eq!(out.counters.weight_reloads, 0);
        assert_eq!(naive.counters.weight_reloads, 0);
    }

    #[test]
    fn budget_trim_fits_and_stays_consistent() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let model = h2h_model::zoo::cnn_lstm();
        // A tight budget forces pin trimming at admission; verify-mode
        // additionally asserts (inside admit) that the trim delta's
        // ideal equals a full evaluation bitwise.
        let cfg = H2hConfig {
            serve_dram_budget_frac: 0.001,
            serve_verify: true,
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(&system, cfg);
        match reg.admit(spec("tight", model.clone(), 4.0, 5.0, 8)) {
            Ok(id) => {
                let t = reg.tenant(id);
                assert!(t.trimmed_pins() > 0, "0.1% budget must trim pins");
                for acc in system.acc_ids() {
                    assert!(t.resident_bytes(acc) <= reg.budget_bytes(acc));
                }
                // Trimming pins can only slow the tenant down.
                let offline = H2hMapper::new(&model, &system).run().unwrap();
                assert!(t.ideal_latency() >= offline.final_latency());
                // The trimmed incremental state must still match a full
                // evaluation of the trimmed locality.
                let ev = Evaluator::new(&model, &system);
                let full = ev.evaluate(t.mapping(), t.locality()).makespan();
                assert_eq!(
                    t.ideal_latency(),
                    full,
                    "delta trim diverged from full eval"
                );
                let out = reg.serve();
                out.check_coherence().unwrap();
            }
            Err(ServeError::DramBudget { .. }) => {
                // Also acceptable: fusion buffers alone may exceed a
                // 0.1% budget. Nothing to serve then.
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }

    #[test]
    fn oversubscribed_tenants_are_split_across_rounds() {
        // Two tenants that each fit the budget alone but not together:
        // the batch former must alternate them, keep the per-round
        // footprint under budget, and still serve everything.
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let a = h2h_model::zoo::cnn_lstm();
        let b = h2h_model::zoo::mocap();
        let full_budget = H2hConfig::default();
        let mut probe = TenantRegistry::new(&system, full_budget);
        probe.admit(spec("a", a.clone(), 50.0, 10.0, 8)).unwrap();
        probe.admit(spec("b", b.clone(), 50.0, 10.0, 8)).unwrap();
        // Find a budget fraction that separates "fits alone" from
        // "fits together" on the most contended board.
        let mut frac = None;
        for acc in system.acc_ids() {
            let cap = system.acc(acc).dram_capacity().as_u64() as f64;
            let ra = probe.tenant(TenantId(0)).resident_bytes(acc).as_u64() as f64;
            let rb = probe.tenant(TenantId(1)).resident_bytes(acc).as_u64() as f64;
            if ra > 0.0 && rb > 0.0 {
                let f = (ra.max(rb) * 1.05 / cap).min(1.0);
                if ra + rb > f * cap {
                    frac = Some(f);
                    break;
                }
            }
        }
        let Some(frac) = frac else {
            // Zoo placements never contend on this system; the
            // oversubscription path is still covered by prop_serve.
            return;
        };
        let cfg = H2hConfig {
            serve_dram_budget_frac: frac,
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(&system, cfg);
        reg.admit(spec("a", a, 50.0, 10.0, 8)).unwrap();
        reg.admit(spec("b", b, 50.0, 10.0, 8)).unwrap();
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 16);
        assert!(
            out.counters.rounds >= 2,
            "split tenants need at least two rounds, got {}",
            out.counters.rounds
        );
        // Alternation means evictions, and swap-ins are never free:
        // the returning tenant re-streams its pins over Ethernet.
        assert!(
            out.counters.weight_reloads > 0,
            "alternating tenants must pay reloads"
        );
        assert!(out.tenants.iter().any(|t| t.reload_time > Seconds::ZERO));
    }

    #[test]
    fn set_contract_rescales_without_remapping() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let id = reg
            .admit(spec("m", h2h_model::zoo::mocap(), 1.0, 1.0, 1))
            .unwrap();
        let ideal = reg.tenant(id).ideal_latency();
        reg.set_contract(id, 8.0 / ideal.as_f64(), ideal * 16.0, 24)
            .unwrap();
        let t = reg.tenant(id);
        assert_eq!(
            t.ideal_latency(),
            ideal,
            "contract changes must not touch the mapping"
        );
        assert_eq!(t.spec().requests, 24);
        assert!(matches!(
            reg.set_contract(id, 0.0, Seconds::new(1.0), 4),
            Err(ServeError::BadSpec { .. })
        ));
        assert_eq!(
            reg.tenant(id).spec().requests,
            24,
            "rejected contracts leave state alone"
        );
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 24);
    }

    #[test]
    fn slice_memo_and_noop_counters_fire() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        reg.admit(spec("m", h2h_model::zoo::mocap(), 500.0, 60.0, 40))
            .unwrap();
        let out = reg.serve();
        out.check_coherence().unwrap();
        // 40 requests at batch ≤ 8 need ≥ 5 slices but only a handful
        // of distinct batch sizes — the memo must carry most slices.
        assert!(out.tenants[0].batches >= 5);
        assert!(
            out.counters.slice_cache_hits > 0,
            "repeated batch sizes must hit the memo"
        );
        assert!(
            out.counters.slice_evals <= 8,
            "distinct batch sizes are few"
        );
    }

    #[test]
    fn non_finite_slos_are_refused() {
        // NaN slipped past the old `slo <= ZERO` check (every
        // comparison with NaN is false) and +inf trivially passed it;
        // both must be typed admission errors, at admit and at
        // set_contract.
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let m = h2h_model::zoo::mocap();
        // `Seconds::new` debug-asserts non-finite inputs away, but
        // arithmetic does not — scaling is how a NaN/inf SLO reaches a
        // contract in practice (e.g. `ideal * frac` with a bad knob).
        for bad in [f64::NAN, f64::INFINITY] {
            let s = TenantSpec::new("bad-slo", m.clone(), 1.0, Seconds::new(1.0) * bad, 4);
            assert!(matches!(reg.admit(s), Err(ServeError::BadSpec { .. })));
        }
        assert!(reg.is_empty());
        let id = reg.admit(spec("ok", m, 1.0, 1.0, 4)).unwrap();
        assert!(matches!(
            reg.set_contract(id, 1.0, Seconds::new(1.0) * f64::NAN, 4),
            Err(ServeError::BadSpec { .. })
        ));
        assert_eq!(reg.tenant(id).spec().slo, Seconds::new(1.0));
    }

    #[test]
    fn doomed_arrival_count_is_strict_at_integral_horizons() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let id = reg
            .admit(spec("m", h2h_model::zoo::mocap(), 1.0, 1.0, 4))
            .unwrap();
        let t = reg.tenant(id);
        // Rate 1 Hz: arrivals at 0, 1, 2, 3. An exactly-integral
        // horizon of 2.0 dooms the arrivals strictly before it — 0 and
        // 1, not 2 (the old `floor(h·r + 1e-9) + 1` counted 3 here).
        assert_eq!(t.doomed_arrivals(2.0), 2);
        assert_eq!(t.doomed_arrivals(2.5), 3);
        assert_eq!(t.doomed_arrivals(0.0), 0);
        assert_eq!(t.doomed_arrivals(-1.0), 0);
        assert_eq!(t.doomed_arrivals(100.0), 4, "the count caps at the window");
    }

    /// The linear scan `doomed_arrivals` replaced: the oracle its
    /// binary search must equal.
    fn doomed_by_scan(t: &Tenant, horizon: f64) -> usize {
        let mut k = 0;
        while k < t.spec.requests && t.arrival(k) < horizon {
            k += 1;
        }
        k
    }

    #[test]
    fn doomed_arrivals_equals_the_linear_scan_on_every_schedule() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let m = h2h_model::zoo::mocap();
        reg.admit(spec("fixed", m.clone(), 7.0, 1.0, 50)).unwrap();
        reg.admit(
            spec("poisson", m.clone(), 20.0, 1.0, 64)
                .with_arrivals(ArrivalProcess::Poisson { seed: 3 }),
        )
        .unwrap();
        let ties = vec![
            0.0, 0.0, 0.1, 0.1, 0.1, 0.25, 0.5, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0,
        ];
        let n_ties = ties.len();
        let tr = ArrivalTrace::new(ties).unwrap();
        reg.admit(spec("ties", m, 5.0, 1.0, n_ties).with_arrivals(ArrivalProcess::Trace(tr)))
            .unwrap();
        for t in reg.tenants() {
            let last = t.arrival(t.spec.requests - 1);
            let mut horizons = vec![-1.0, last + 1.0];
            for j in 0..t.spec.requests {
                let a = t.arrival(j);
                horizons.extend([a, a.next_up(), a.next_down()]);
            }
            for h in horizons {
                assert_eq!(
                    t.doomed_arrivals(h),
                    doomed_by_scan(t, h),
                    "{}: horizon {h:e}",
                    t.spec.name
                );
            }
            assert_eq!(t.doomed_arrivals(-1.0), 0);
            assert_eq!(t.doomed_arrivals(last + 1.0), t.spec.requests);
        }
    }

    #[test]
    fn the_end_of_drain_sort_equals_per_insert_ordering_bitwise() {
        // Shuffled samples with many repeats and near-equal neighbours.
        let samples: Vec<f64> = (0..600usize)
            .map(|i| {
                let v = 1e-3 * ((i * 23) % 37 + 1) as f64;
                if i % 5 == 0 {
                    v.next_up()
                } else {
                    v
                }
            })
            .collect();
        let mut ledger = LatencyLedger::default();
        for &x in &samples {
            ledger.record(x);
        }
        assert!(
            !ledger.sorted.is_sorted(),
            "the samples must arrive out of order"
        );
        ledger.sort();
        assert!(ledger.sorted.is_sorted());
        // The per-insert ordering `record` used to keep.
        let mut inserted = LatencyLedger::default();
        for &x in &samples {
            let pos = inserted.sorted.partition_point(|s| *s <= x);
            inserted.sorted.insert(pos, x);
        }
        let bits = |l: &LatencyLedger| l.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ledger), bits(&inserted));
        assert_eq!(ledger.p50(), inserted.p50());
        assert_eq!(ledger.p95(), inserted.p95());
        assert_eq!(ledger.p99(), inserted.p99());
        assert_eq!(ledger.max(), inserted.max());
        assert_eq!(ledger.total().to_bits(), inserted.total().to_bits());
        for slo in [0.0, 5e-3, 0.02, 0.037, 1.0] {
            assert_eq!(
                ledger.over(Seconds::new(slo)),
                inserted.over(Seconds::new(slo))
            );
        }
    }

    #[test]
    fn an_unsorted_ledger_fails_the_coherence_check() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        reg.admit(spec("m", h2h_model::zoo::mocap(), 500.0, 60.0, 40))
            .unwrap();
        let mut out = reg.serve();
        out.check_coherence().unwrap();
        let samples = &mut out.tenants[0].latencies.sorted;
        assert!(
            samples.first() < samples.last(),
            "the drain must attain distinct latencies"
        );
        samples.reverse();
        let err = out.check_coherence().unwrap_err();
        assert!(err.contains("not sorted"), "unexpected error: {err}");
    }

    #[test]
    fn poisson_and_trace_tenants_serve_coherently_and_replay() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let m = h2h_model::zoo::mocap();
        reg.admit(
            spec("poisson", m.clone(), 50.0, 5.0, 30)
                .with_arrivals(ArrivalProcess::Poisson { seed: 42 }),
        )
        .unwrap();
        let tr = ArrivalTrace::new((0..30).map(|j| j as f64 * 0.01).collect()).unwrap();
        reg.admit(spec("trace", m, 50.0, 5.0, 30).with_arrivals(ArrivalProcess::Trace(tr)))
            .unwrap();
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 60);
        for t in &out.tenants {
            assert_eq!(t.latencies.count(), t.served);
            assert!(t.latencies.p50() <= t.latencies.p99());
        }
        // Sampled-at-admission schedules replay bitwise run to run
        // (the slice memo warms across serves, so only the ledgers and
        // the drain clock are compared — not the cache counters).
        let again = reg.serve();
        assert_eq!(out.tenants, again.tenants);
        assert_eq!(out.makespan, again.makespan);
    }

    #[test]
    fn contract_changes_refusing_to_materialize_leave_the_tenant_alone() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let tr = ArrivalTrace::new(vec![0.0, 0.1, 0.2, 0.3]).unwrap();
        let id = reg
            .admit(
                spec("m", h2h_model::zoo::mocap(), 10.0, 5.0, 4)
                    .with_arrivals(ArrivalProcess::Trace(tr)),
            )
            .unwrap();
        // Growing the window past the trace length must refuse and
        // leave both the contract and the materialized schedule as
        // they were.
        assert!(matches!(
            reg.set_contract(id, 10.0, Seconds::new(5.0), 16),
            Err(ServeError::BadSpec { .. })
        ));
        assert_eq!(reg.tenant(id).spec().requests, 4);
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 4);
        // Swapping the process re-materializes against the contract.
        reg.set_arrivals(id, ArrivalProcess::Fixed).unwrap();
        assert_eq!(reg.tenant(id).arrival(3), 3.0 / 10.0);
    }

    #[test]
    fn ranked_policies_serve_everything_coherently() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        for policy in [RoundPolicy::Edf, RoundPolicy::WeightedFair] {
            let cfg = H2hConfig {
                serve_policy: policy,
                ..H2hConfig::default()
            };
            let mut reg = TenantRegistry::new(&system, cfg);
            reg.admit(spec("cnn", h2h_model::zoo::cnn_lstm(), 60.0, 8.0, 12))
                .unwrap();
            reg.admit(spec("mocap", h2h_model::zoo::mocap(), 60.0, 8.0, 12))
                .unwrap();
            let out = reg.serve();
            out.check_coherence().unwrap();
            assert_eq!(out.total_served(), 24);
            assert_eq!(out.policy, policy);
        }
    }

    #[test]
    fn bounded_queue_sheds_overload_and_stays_coherent() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig {
            serve_queue_cap: 2,
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(&system, cfg);
        // Arrivals far above the service rate against a 2-deep queue:
        // most of the window must be dropped at the head, and the
        // drops must reconcile with the served ledger exactly.
        let id = reg
            .admit(spec("m", h2h_model::zoo::mocap(), 1.0, 1.0, 1))
            .unwrap();
        let ideal = reg.tenant(id).ideal_latency();
        reg.set_contract(id, 50.0 / ideal.as_f64(), ideal * 4.0, 60)
            .unwrap();
        let out = reg.serve();
        out.check_coherence().unwrap();
        let t = &out.tenants[0];
        assert!(t.shed > 0, "overload against a bounded queue must shed");
        assert!(
            t.served > 0,
            "the queue head that survives must still be served"
        );
        assert_eq!(t.served + t.shed, 60);
        assert_eq!(out.counters.requests_shed, t.shed);
        assert!(t.shed_doomed <= t.shed);
    }

    #[test]
    fn permanent_total_outage_stalls_unbounded_and_sheds_bounded() {
        // Every board goes down for good before the first arrival. The
        // historical unbounded-queue mode must report the structural
        // stall; with a bounded queue the blocked window is written
        // off as shed and the accounting still reconciles.
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let n_accs = system.num_accs();
        let mut plan = FaultPlan::empty();
        for a in 0..n_accs {
            plan = plan.with_event(h2h_system::fault::FaultEvent {
                acc: h2h_system::system::AccId::new(a),
                kind: h2h_system::fault::FaultKind::BoardDown,
                at: Seconds::new(1e-6),
                recover_at: None,
            });
        }
        let tr = ArrivalTrace::new((0..6).map(|j| 0.5 + j as f64 * 0.1).collect()).unwrap();
        let mk = |cap: usize| {
            let cfg = H2hConfig {
                serve_queue_cap: cap,
                ..H2hConfig::default()
            };
            let mut reg = TenantRegistry::new(&system, cfg);
            reg.admit(
                spec("m", h2h_model::zoo::mocap(), 10.0, 1.0, 6)
                    .with_arrivals(ArrivalProcess::Trace(tr.clone())),
            )
            .unwrap();
            reg
        };
        assert!(matches!(
            mk(0).serve_with_faults(&plan),
            Err(ServeError::Stalled { unserved: 6, .. })
        ));
        let out = mk(8).serve_with_faults(&plan).unwrap();
        out.check_coherence().unwrap();
        let t = &out.tenants[0];
        assert_eq!(t.served, 0, "an all-down fabric serves nothing");
        assert_eq!(t.shed, 6, "the whole window is written off");
        assert!(t.parks > 0, "the tenant must have been parked");
        assert_eq!(out.counters.requests_shed, 6);
    }

    #[test]
    fn arrival_exactly_on_a_fault_boundary_counts_once() {
        // A fault boundary placed bitwise on an arrival instant: the
        // arrival clock (compared exactly, no slack) and the
        // epsilon-slackened boundary clock must not double- or
        // zero-count the request. Everything still drains, once.
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let id = reg
            .admit(spec("m", h2h_model::zoo::mocap(), 1.0, 1.0, 1))
            .unwrap();
        let ideal = reg.tenant(id).ideal_latency();
        let rate = 0.5 / ideal.as_f64();
        reg.set_contract(id, rate, ideal * 16.0, 6).unwrap();
        // The same quotient expression the fixed `ArrivalSchedule` uses.
        let boundary = 2.0 / rate;
        assert_eq!(boundary.to_bits(), reg.tenant(id).arrival(2).to_bits());
        let plan = FaultPlan::empty().with_event(h2h_system::fault::FaultEvent {
            acc: h2h_system::system::AccId::new(0),
            kind: h2h_system::fault::FaultKind::LinkDegraded { factor: 4.0 },
            at: Seconds::new(boundary),
            recover_at: None,
        });
        let out = reg.serve_with_faults(&plan).unwrap();
        out.check_coherence().unwrap();
        assert_eq!(out.tenants[0].served, 6, "every request exactly once");
        assert_eq!(out.counters.requests_shed, 0);
    }

    /// Admits one tenant whose serve budget trims its pins: VFS keeps
    /// only part of its weights resident at 10% of every board.
    fn trimmed_vfs(system: &SystemSpec) -> TenantRegistry<'_> {
        let cfg = H2hConfig {
            serve_dram_budget_frac: 0.1,
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(system, cfg);
        reg.admit(spec("vfs", h2h_model::zoo::vfs(), 2.0, 2.0, 6))
            .unwrap();
        assert!(
            reg.tenants[0].trimmed_pins() > 0,
            "the 10% budget must trim VFS"
        );
        reg
    }

    /// Builds the first tenant a placement on the registry's healthy
    /// fabric under `cfg`, as a fault transition builds one.
    fn placement_of(
        reg: &TenantRegistry<'_>,
        cfg: &H2hConfig,
        mapping: &Mapping,
        locality: &LocalityState,
    ) -> Result<Placement, ServeError> {
        let t = &reg.tenants[0];
        let ev = t.view(reg.system, &t.placement.fabric);
        Placement::new(&ev, cfg, &t.spec.name, mapping.clone(), locality.clone())
    }

    /// Every field of two placements except the trim count, floats
    /// compared bit for bit.
    fn assert_same_placement(a: &Placement, b: &Placement, model: &ModelGraph) {
        let bits = |x: Seconds| x.as_f64().to_bits();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.locality, b.locality);
        for id in model.layer_ids() {
            assert_eq!(bits(a.inc.start_of(id)), bits(b.inc.start_of(id)));
            assert_eq!(bits(a.inc.finish_of(id)), bits(b.inc.finish_of(id)));
        }
        let memo = |p: &Placement| {
            p.slice_memo
                .iter()
                .map(|(k, m)| (*k, bits(*m)))
                .collect::<Vec<_>>()
        };
        assert_eq!(memo(a), memo(b));
        assert_eq!(bits(a.ideal), bits(b.ideal));
        assert_eq!(bits(a.weight_xfer_once), bits(b.weight_xfer_once));
        assert_eq!(a.resident, b.resident);
        assert_eq!(a.pinned_total, b.pinned_total);
        assert_eq!(a.pinned_by_acc, b.pinned_by_acc);
    }

    #[test]
    fn every_install_and_slice_of_a_faulted_drain_shares_its_tenants_tables() {
        // Fault transitions switch fabrics and slices change batch
        // sizes; neither may derive a tenant's model tables again. Debug
        // builds check every install (`Drain::install`) and every slice
        // view (`IncrementalSchedule::refresh_costs`); this drives both
        // by hand and compares the pointers directly.
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig {
            serve_verify: true,
            repair_secs_per_move: 25e-6,
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(&system, cfg);
        reg.admit(spec("cnn", h2h_model::zoo::cnn_lstm(), 40.0, 8.0, 8))
            .unwrap();
        reg.admit(spec("mocap", h2h_model::zoo::mocap(), 40.0, 8.0, 8))
            .unwrap();
        let tables: Vec<_> = reg.tenants.iter().map(|t| t.tables.clone()).collect();
        let n = system.num_accs();
        let plan = FaultPlan::parse("board:3@0.001-0.5;link:1/4@0.2;slow:0/2@0.3-0.6", n).unwrap();
        let mut drain = Drain::new(&reg.tenants);
        for t_b in plan.boundaries() {
            let state = plan.state_at(Seconds::new(t_b), n);
            let sys = system.degrade(&state);
            let fabric = Arc::new(FabricRates::new(&sys));
            reg.apply_fault_transition(&state, &sys, &fabric, true, t_b, &mut drain);
            for (i, t) in reg.tenants.iter_mut().enumerate() {
                assert!(Arc::ptr_eq(&t.tables, &tables[i]), "the tenant's own");
                assert!(!drain.parked[i], "every board class survives");
                let p = &t.placement;
                assert!(Arc::ptr_eq(p.inc.model_tables(), &tables[i]), "install");
                assert!(Arc::ptr_eq(&p.fabric, &fabric), "priced on {t_b}'s fabric");
                for k in [3, 1, 6, 3] {
                    slice_makespan_on(&sys, true, t, k, &mut drain.counters);
                }
            }
        }
        assert_eq!(drain.counters.slice_evals, 2 * 2 * plan.boundaries().len());
        assert_eq!(drain.counters.crosscheck_mismatches, 0);
        // A whole drain, staged landings included, checked in debug
        // builds; the admitted placements come back afterwards.
        let out = reg.serve_with_faults(&plan).unwrap();
        out.check_coherence().unwrap();
        assert!(out.counters.crosschecks > 0);
        assert_eq!(out.counters.crosscheck_mismatches, 0);
        assert!(out.counters.staged_repairs > 0, "a repair lands");
        for (t, tables) in reg.tenants.iter().zip(&tables) {
            assert!(Arc::ptr_eq(t.placement.inc.model_tables(), tables));
        }
    }

    #[test]
    fn a_repair_whose_search_accepts_nothing_lands_at_once() {
        // MoCap and CNN-LSTM at Low- (`h2h serve mocap,cnnlstm low-
        // --faults board:11@0.000001 --repair-cost 0.001`): with board
        // 11 down, MoCap's search attempts 4 moves and accepts none, so
        // its evacuated incumbent is its repair. Staging that would
        // re-install the same placement when it lands, evicting MoCap
        // and re-streaming its weights a second time (2 staged, MoCap
        // swapped in twice, drain 23.139 s).
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig {
            serve_verify: true,
            repair_secs_per_move: 0.001,
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(&system, cfg);
        for model in [h2h_model::zoo::mocap(), h2h_model::zoo::cnn_lstm()] {
            let id = reg.admit(spec("t", model, 1.0, 1.0, 32)).unwrap();
            let ideal = reg.tenant(id).ideal_latency();
            reg.set_contract(id, 4.0 / ideal.as_f64(), ideal * 16.0, 32)
                .unwrap();
        }
        let plan = FaultPlan::parse("board:11@0.000001", system.num_accs()).unwrap();
        let out = reg.serve_with_faults(&plan).unwrap();
        out.check_coherence().unwrap();
        assert_eq!(out.counters.repairs, 2);
        assert_eq!(out.counters.staged_repairs, 1, "CNN-LSTM's only");
        assert_eq!(out.tenants[0].weight_reloads, 1, "MoCap swaps in once");
        assert_eq!(out.tenants[1].weight_reloads, 2);
        assert_eq!(format!("{}", out.makespan), "22.899 s");
    }

    #[test]
    fn placement_new_reproduces_the_admitted_placement() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let reg = trimmed_vfs(&system);
        let t = &reg.tenants[0];
        let p = placement_of(&reg, &reg.config, t.mapping(), t.locality()).unwrap();
        assert_eq!(
            p.trimmed_pins, 0,
            "the admitted locality already fits the budget"
        );
        assert_same_placement(&p, &t.placement, &t.spec.model);
    }

    #[test]
    fn a_failed_install_parks_the_tenant_with_its_placement_intact() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = trimmed_vfs(&system);
        let before = reg.tenants[0].placement.clone();
        // A zero-byte budget cannot hold the tenant's fusion buffers.
        assert!(before.locality.num_fused() > 0);
        let none = H2hConfig {
            serve_dram_budget_frac: 1e-12,
            ..reg.config
        };
        let failed = placement_of(&reg, &none, &before.mapping, &before.locality);
        assert!(matches!(failed, Err(ServeError::DramBudget { .. })));
        let mut drain = Drain::new(&reg.tenants);
        drain.resident[0] = true;
        drain.staged[0] = Some(StagedRepair {
            lands_at: 1.0,
            mapping: before.mapping.clone(),
            locality: before.locality.clone(),
        });
        assert!(!drain.install(0, &mut reg.tenants[0], failed, true));
        assert!(drain.parked[0], "parked");
        assert!(!drain.resident[0], "evicted");
        assert!(drain.staged[0].is_none(), "stage cleared");
        assert_eq!((drain.stats[0].parks, drain.counters.sheds), (1, 1));
        let t = &reg.tenants[0];
        assert_same_placement(&t.placement, &before, &t.spec.model);
        assert_eq!(t.trimmed_pins(), before.trimmed_pins);
        assert_eq!(drain.stats[0].ideal, before.ideal);
    }

    #[test]
    fn residency_stands_through_evicting_installs_landings_and_parks() {
        // Debug builds check every round that swaps nobody in against
        // the full rebuild on a scratch copy: same residents, same
        // per-board total. A conv-only tenant needs no Fc or LSTM board,
        // so it stays resident and keeps serving through each host-down
        // window below, while CNN-LSTM leaves residency by a different
        // path in each; the rounds right after re-read the re-derived
        // total. Window 1: board 2 (CNN-LSTM's, not the conv tenant's)
        // goes down, so the transition's install evicts CNN-LSTM.
        // Window 2: its repair for the degraded links 8 and 11 is
        // staged on an unchanged interim, which keeps it resident, and
        // lands inside the window, evicting it. Window 3: every Fc
        // board goes down, so CNN-LSTM is parked.
        use h2h_model::builder::ModelBuilder;
        use h2h_model::tensor::TensorShape;
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig {
            repair_secs_per_move: 25e-6,
            ..H2hConfig::default()
        };
        let mut b = ModelBuilder::new("convs");
        let x = b.input("x", TensorShape::Feature { c: 3, h: 64, w: 64 });
        let c1 = b.conv("c1", x, 32, 3, 1).unwrap();
        let c2 = b.conv("c2", c1, 64, 3, 2).unwrap();
        let c3 = b.conv("c3", c2, 128, 3, 2).unwrap();
        b.global_pool("gap", c3).unwrap();
        let mut reg = TenantRegistry::new(&system, cfg);
        for (model, load, requests) in [
            (b.finish().unwrap(), 0.3, 1000),
            (h2h_model::zoo::cnn_lstm(), 0.15, 8),
        ] {
            let id = reg.admit(spec("t", model, 1.0, 1.0, 1)).unwrap();
            let ideal = reg.tenant(id).ideal_latency();
            reg.set_contract(id, load / ideal.as_f64(), ideal * 16.0, requests)
                .unwrap();
        }
        let plan = FaultPlan::parse(
            "host:down@0.3-0.9;board:2@0.3-0.9;\
             host:down@2-3;link:8/4@2-3;link:11/4@2-3;\
             host:down@4.5-5;board:3@4.5-5;board:5@4.5-5;board:9@4.5-5;board:11@4.5-5",
            system.num_accs(),
        )
        .unwrap();
        let out = reg.serve_with_faults(&plan).unwrap();
        out.check_coherence().unwrap();
        assert_eq!(out.total_served(), 1008);
        assert_eq!(out.counters.fault_transitions, 6);
        assert_eq!(out.counters.staged_repairs, 1, "CNN-LSTM's, in window 2");
        assert_eq!((out.tenants[0].parks, out.tenants[1].parks), (0, 1));
        assert_eq!(out.counters.weight_reloads, 6);
    }

    #[test]
    fn an_install_keeps_residency_only_for_an_unchanged_kept_placement() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut reg = trimmed_vfs(&system);
        let cfg = reg.config;
        let mapping = reg.tenants[0].mapping().clone();
        let locality = reg.tenants[0].locality().clone();
        let mut drain = Drain::new(&reg.tenants);
        let mut install = |reg: &mut TenantRegistry<'_>, loc: &LocalityState, keep: bool| {
            drain.resident[0] = true;
            drain.parked[0] = true;
            let p = placement_of(reg, &cfg, &mapping, loc);
            assert!(drain.install(0, &mut reg.tenants[0], p, keep));
            assert!(!drain.parked[0], "an install un-parks");
            drain.resident[0]
        };
        assert!(
            install(&mut reg, &locality, true),
            "unchanged and kept: stays resident"
        );
        assert!(
            !install(&mut reg, &locality, false),
            "unchanged, not kept: evicted"
        );
        // One pin fewer changes the placement.
        let mut fewer = locality.clone();
        let l = fewer
            .pinned_layers()
            .next()
            .expect("the trimmed tenant keeps some pins");
        assert!(fewer.unpin(l, mapping.acc_of(l)));
        assert!(
            !install(&mut reg, &fewer, true),
            "changed: evicted even when kept"
        );
        assert_eq!(
            reg.tenants[0].locality(),
            &fewer,
            "the changed placement is installed"
        );
    }
}
