//! Discrete-event simulation of the multi-FPGA cluster.
//!
//! ## The phase model
//!
//! Each mapped layer executes as a pipeline of *phases* on its board,
//! in order:
//!
//! 1. **Weight fetch** — a local-DRAM `Phase::Timed` when the layer
//!    is pinned, a host→board `Phase::Link` stream otherwise;
//! 2. **IFM ingest** — one phase per incoming activation edge: a
//!    local-DRAM `Timed` read when the edge is fused, a `Link` phase
//!    from [`crate::topology::edge_src`] otherwise;
//! 3. **Compute** — a `Compute` phase from the shared
//!    [`crate::schedule::CostCache`], tracked in healthy-speed seconds
//!    and stretched by the board's instantaneous throttle factor;
//! 4. **OFM upload** — the *single* `Link` phase of the shared
//!    [`crate::topology::Topology::ofm_route`] rule (one upload serves
//!    every remote consumer at the slowest route among them; model
//!    outputs land at the host), plus a local-DRAM `Timed` write when
//!    some consumer is fused.
//!
//! A `Link` phase carries its remaining bytes, the effective rate of
//! its `(src, dst)` route, and a `via_host` bit — the identical route
//! query the analytical [`crate::schedule::Evaluator::layer_cost`]
//! charges, so with dedicated links (`SimConfig::dedicated`) the
//! simulation reproduces the analytical schedule exactly on any
//! topology (a cross-validation test of both implementations). Only
//! via-host phases contend for the optional shared host NIC
//! (`SimConfig::shared_nic`, fair processor-sharing fluid model);
//! direct peer links of a switched fabric bypass the host and never
//! pay that contention. The analytical floor on the congestion is
//! [`crate::topology::host_contention_bound`], which the
//! `sim_crosscheck` suite verifies the simulator never beats.
//!
//! ## Batch semantics ([`SimConfig::with_batch`])
//!
//! A batch of `k` requests streams through the mapping the way a
//! multi-tenant serve *slice* does ([`crate::schedule::Evaluator::with_batch`]):
//! weights are fetched **once** per slice, while IFM transfers,
//! compute and OFM uploads repeat per request — their phase sizes
//! scale by `k`. Dedicated-link simulation of a batch-`k` slice
//! therefore reproduces the analytic batched makespan the serve loop's
//! `IncrementalSchedule::rebatch` maintains incrementally.
//!
//! ## Fault timelines ([`simulate_with_faults`])
//!
//! The same execution can replay through a [`FaultPlan`]: fault
//! boundaries clamp the event-loop time step, and at each boundary the
//! degraded fabric ([`crate::topology::Topology::degrade`]) re-rates
//! every in-flight and queued `Link` phase — transfers keep their
//! remaining bytes and continue at the new route rate (fluid model).
//! A down board freezes: it starts no layers, its phases make no
//! progress until recovery, and its frozen via-host transfers release
//! the shared NIC. A compute-throttled board
//! ([`crate::fault::FaultKind::BoardDegraded`]) keeps running, its
//! `Compute` phases stretched by the throttle factor — remaining work
//! is tracked in healthy-speed seconds, so mid-phase throttle changes
//! re-rate fluidly like transfers do. A *down host*
//! ([`crate::fault::FaultKind::HostDown`]) stalls every via-host
//! `Link` phase (weight streams, host-relayed activations, output
//! uploads) while peer-link transfers, compute and local DRAM traffic
//! keep flowing — the NIC-outage analogue of the board freeze. An
//! always-degraded plan therefore matches the analytical evaluator on
//! the degraded system exactly, and a recoverable outage on an
//! otherwise-idle dependency chain delays the makespan by exactly the
//! outage overlap — the fault-window cross-checks of the analytical
//! degraded-route costs. With an empty plan the code path is
//! bit-identical to [`simulate`]. A timeline whose remaining work can
//! never progress again (an unrecovered outage stranding mapped work)
//! returns [`SimError::Stalled`] instead of deadlocking.

use h2h_model::graph::{LayerId, ModelGraph};
use h2h_model::layer::LayerOp;
use h2h_model::tensor::DataType;
use h2h_model::units::{BytesPerSec, Seconds};

use crate::fault::FaultPlan;
use crate::locality::LocalityState;
use crate::mapping::Mapping;
use crate::schedule::CostCache;
use crate::system::{AccId, SystemSpec};
use crate::topology::{Endpoint, Topology};

/// Slack under which a modeled clock is considered to have reached a
/// scheduled event time (fault boundaries, staged-repair landings) —
/// the *one* epsilon every event-ordered loop in the workspace
/// compares with, so a fault boundary and a serving-round clock can
/// never disagree about whether the same instant was crossed.
/// Request *arrivals* are deliberately compared exactly (no slack):
/// an epsilon there once pulled a request in before its arrival time,
/// attaining less than the zero-queueing ideal.
pub const BOUNDARY_EPS: f64 = 1e-12;

/// True when clock `now` has reached scheduled event time `t` under
/// [`BOUNDARY_EPS`].
#[inline]
pub fn event_reached(now: f64, t: f64) -> bool {
    now >= t - BOUNDARY_EPS
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Aggregate host-NIC capacity shared by all in-flight via-host
    /// transfer phases; `None` models dedicated full-rate links (the
    /// paper's abstraction).
    pub host_nic_capacity: Option<BytesPerSec>,
    /// Serving batch size: weights are fetched once per batch,
    /// activations and compute repeat per request (matches
    /// `Evaluator::with_batch` — see the module docs).
    pub batch: u32,
}

impl SimConfig {
    /// Dedicated per-accelerator links (matches the analytical model).
    pub fn dedicated() -> Self {
        SimConfig {
            host_nic_capacity: None,
            batch: 1,
        }
    }

    /// A shared host NIC of `capacity`.
    pub fn shared_nic(capacity: BytesPerSec) -> Self {
        SimConfig {
            host_nic_capacity: Some(capacity),
            batch: 1,
        }
    }

    /// Sets the serving batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn with_batch(mut self, batch: u32) -> Self {
        assert!(batch >= 1, "batch must be at least 1");
        self.batch = batch;
        self
    }
}

/// Why a fault-timeline simulation could not run to completion.
///
/// Returned (never panicked) so serving layers can degrade gracefully
/// — surface the failure, shed the tenant, keep the process alive —
/// instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// The timeline can make no further progress and no fault boundary
    /// is ahead: an unrecovered outage strands mapped work forever
    /// (work on a permanently dead board, or via-host traffic behind a
    /// permanently dead host). Permanent outages are the *repair*
    /// path's business — the simulator replays timelines on fixed
    /// mappings.
    Stalled {
        /// Simulation clock at the stall.
        at: Seconds,
        /// Layers left unfinished.
        remaining: usize,
        /// Whether the host was down at the stall (the usual culprit
        /// when every board is still up).
        host_down: bool,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                at,
                remaining,
                host_down,
            } => write!(
                f,
                "simulation stalled at t={at}: {remaining} layers unfinished \
                 ({} — an unrecovered outage strands mapped work)",
                if *host_down {
                    "host down"
                } else {
                    "board down or head-of-line deadlock"
                }
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    makespan: Seconds,
    finish: Vec<Option<Seconds>>,
    events: usize,
}

impl SimReport {
    /// End-to-end simulated latency.
    pub fn makespan(&self) -> Seconds {
        self.makespan
    }

    /// Finish time of a layer.
    pub fn finish_of(&self, layer: LayerId) -> Option<Seconds> {
        self.finish.get(layer.index()).copied().flatten()
    }

    /// Number of simulation events processed (engine health metric).
    pub fn events(&self) -> usize {
        self.events
    }
}

/// How a [`Phase::Link`]'s rate is looked up when the fabric changes
/// at a fault boundary.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// A fixed `(src, dst)` pair, re-priced via `Topology::path_bw`.
    Pair(Endpoint, Endpoint),
    /// The multi-consumer OFM upload of a layer, re-priced via the
    /// shared `Topology::ofm_route` rule.
    Ofm(LayerId),
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Interconnect transfer: remaining bytes, the route's effective
    /// rate, whether the route relays through the host NIC (only those
    /// phases contend for `SimConfig::host_nic_capacity`, and only
    /// those stall while the host is down), and the route itself (for
    /// re-rating at fault boundaries).
    Link {
        bytes: f64,
        rate: f64,
        via_host: bool,
        route: Route,
    },
    /// Fixed-duration work immune to fault re-rating: local-DRAM
    /// traffic (seconds).
    Timed(f64),
    /// Compute work: remaining seconds *at healthy board speed*. A
    /// compute throttle (`FaultState::compute_factor`) stretches the
    /// wall-clock duration at read time, so mid-phase throttle changes
    /// re-rate the remainder fluidly — the compute analogue of a
    /// `Link` phase's bytes.
    Compute { secs: f64 },
}

#[derive(Debug)]
struct ActiveLayer {
    id: LayerId,
    phases: Vec<Phase>,
    /// Index of the phase currently executing.
    current: usize,
}

/// Simulates the mapped, locality-annotated model on the system.
///
/// # Panics
///
/// Panics if the mapping is incomplete or maps a layer onto an
/// accelerator that cannot execute it (validate first).
pub fn simulate(
    model: &ModelGraph,
    system: &SystemSpec,
    mapping: &Mapping,
    locality: &LocalityState,
    config: SimConfig,
) -> SimReport {
    simulate_with_faults(
        model,
        system,
        mapping,
        locality,
        config,
        &FaultPlan::empty(),
    )
    .expect("an empty fault plan cannot stall")
}

/// [`simulate`] through a fault timeline: board outages, link/NIC
/// degradations, compute throttles and host outages of `plan` hit (and
/// recover) at their scheduled times while the model executes — see
/// the module docs for the fluid re-rating, freeze and host-stall
/// semantics. With an empty plan this is bit-identical to
/// [`simulate`].
///
/// # Errors
///
/// Returns [`SimError::Stalled`] when an unrecovered outage strands
/// mapped work forever (every runnable phase frozen with no fault
/// boundary ahead) — permanent outages are the *repair* path's
/// business, the simulator replays timelines on fixed mappings.
///
/// # Panics
///
/// Panics like [`simulate`] on an invalid mapping.
pub fn simulate_with_faults(
    model: &ModelGraph,
    system: &SystemSpec,
    mapping: &Mapping,
    locality: &LocalityState,
    config: SimConfig,
    plan: &FaultPlan,
) -> Result<SimReport, SimError> {
    let cache = CostCache::new(model, system);
    let base_topo = system.topology();
    let n_accs = system.num_accs();
    let bound = model.id_bound();

    // Fault timeline state: the boundaries still ahead, the condition
    // in force, and the degraded fabric (None while healthy). Faults
    // already active at t=0 apply before anything starts.
    let boundaries = plan.boundaries();
    let mut next_boundary = 0usize;
    let mut state = plan.state_at(Seconds::new(0.0), n_accs);
    while next_boundary < boundaries.len() && boundaries[next_boundary] <= 0.0 {
        next_boundary += 1;
    }
    let mut degraded: Option<Topology> = (!state.is_healthy()).then(|| base_topo.degrade(&state));
    let mut board_up: Vec<bool> = (0..n_accs)
        .map(|i| state.acc_is_up(AccId::new(i)))
        .collect();

    // Per-acc queues in global topological priority order.
    let mut queues: Vec<Vec<LayerId>> = vec![Vec::new(); n_accs];
    for id in model.topo_order() {
        queues[mapping.acc_of(id).index()].push(id);
    }
    let mut next_in_queue = vec![0usize; n_accs];
    let mut active: Vec<Option<ActiveLayer>> = (0..n_accs).map(|_| None).collect();

    let mut finished = vec![false; bound];
    let mut finish_time: Vec<Option<Seconds>> = vec![None; bound];
    let mut remaining = model.num_layers();
    let mut now = 0.0f64;
    let mut events = 0usize;

    let edge_is_local =
        |from: LayerId, to: LayerId| locality.edge_is_local(model, mapping, from, to);

    let b = config.batch as f64;
    // Every Link phase is rated by the same (src, dst) route query the
    // analytical `Evaluator::layer_cost` charges, so dedicated-link
    // simulation reproduces the analytical schedule exactly on any
    // topology — including a degraded one.
    let build_phases = |id: LayerId, topo: &Topology| -> Vec<Phase> {
        let layer = model.layer(id);
        let acc = mapping.acc_of(id);
        let here = Endpoint::Acc(acc);
        let dram = system.acc(acc).dram_bandwidth().as_f64();
        let mut phases = Vec::new();
        let is_input = matches!(layer.op(), LayerOp::Input { .. });
        let link = |bytes: f64, src: Endpoint, dst: Endpoint| Phase::Link {
            bytes,
            rate: topo.path_bw(src, dst).as_f64(),
            via_host: topo.crosses_host(src, dst),
            route: Route::Pair(src, dst),
        };

        // Weights amortize over the batch; everything below repeats per
        // request.
        let wbytes = layer.weight_bytes(DataType::F32).as_f64();
        if wbytes > 0.0 {
            if locality.is_pinned(id) {
                phases.push(Phase::Timed(wbytes / dram));
            } else {
                phases.push(link(wbytes, Endpoint::Host, here));
            }
        }
        for pred in model.predecessors(id) {
            let bytes = model.edge_bytes(pred, id).expect("edge exists").as_f64();
            if bytes <= 0.0 {
                continue;
            }
            if edge_is_local(pred, id) {
                phases.push(Phase::Timed(b * bytes / dram));
            } else {
                phases.push(link(
                    b * bytes,
                    crate::topology::edge_src(model, mapping, pred),
                    here,
                ));
            }
        }
        // Remaining compute is tracked at healthy speed; the board's
        // instantaneous throttle factor stretches it at advance time.
        let comp = cache.time(id, acc).expect("supported layer").as_f64();
        if comp > 0.0 {
            phases.push(Phase::Compute { secs: b * comp });
        }
        if !is_input {
            let obytes = layer.ofm_bytes(DataType::F32).as_f64();
            // One upload serves all remote consumers at the slowest
            // route among them (host for outputs) — the shared
            // `Topology::ofm_route` rule, so sim and evaluator cannot
            // drift; it contends for the host NIC iff any chosen route
            // relays through it.
            if let Some((bw, via_host)) = topo.ofm_route(model, mapping, locality, id) {
                if obytes > 0.0 {
                    phases.push(Phase::Link {
                        bytes: b * obytes,
                        rate: bw.as_f64(),
                        via_host,
                        route: Route::Ofm(id),
                    });
                }
            }
            let any_local = model.successors(id).any(|s| edge_is_local(id, s));
            if any_local && obytes > 0.0 {
                phases.push(Phase::Timed(b * obytes / dram));
            }
        }
        phases
    };

    // Re-prices the remaining Link phases of one layer against a new
    // fabric (fault boundary crossed): remaining bytes continue at the
    // new route rate (fluid model).
    let rerate = |a: &mut ActiveLayer, topo: &Topology| {
        for p in a.phases[a.current..].iter_mut() {
            if let Phase::Link {
                rate,
                via_host,
                route,
                ..
            } = p
            {
                let (r, v) = match route {
                    Route::Pair(src, dst) => (
                        topo.path_bw(*src, *dst).as_f64(),
                        topo.crosses_host(*src, *dst),
                    ),
                    Route::Ofm(id) => {
                        let (bw, via) = topo
                            .ofm_route(model, mapping, locality, *id)
                            .expect("OFM phases exist only for routed uploads");
                        (bw.as_f64(), via)
                    }
                };
                *rate = r;
                *via_host = v;
            }
        }
    };

    loop {
        // Apply any fault boundary reached: recompute the degraded
        // fabric and re-rate every phase still ahead.
        while next_boundary < boundaries.len() && event_reached(now, boundaries[next_boundary]) {
            let t = boundaries[next_boundary];
            next_boundary += 1;
            state = plan.state_at(Seconds::new(t), n_accs);
            degraded = (!state.is_healthy()).then(|| base_topo.degrade(&state));
            for (i, up) in board_up.iter_mut().enumerate() {
                *up = state.acc_is_up(AccId::new(i));
            }
            let topo = degraded.as_ref().unwrap_or(base_topo);
            for a in active.iter_mut().flatten() {
                rerate(a, topo);
            }
        }

        // Start whatever can start (down boards start nothing).
        for acc in 0..queues.len() {
            if !board_up[acc] || active[acc].is_some() {
                continue;
            }
            let qi = next_in_queue[acc];
            if qi >= queues[acc].len() {
                continue;
            }
            let head = queues[acc][qi];
            if model.predecessors(head).all(|p| finished[p.index()]) {
                next_in_queue[acc] += 1;
                let topo = degraded.as_ref().unwrap_or(base_topo);
                active[acc] = Some(ActiveLayer {
                    id: head,
                    phases: build_phases(head, topo),
                    current: 0,
                });
            }
        }

        // Zero-phase layers complete immediately; resolve before timing.
        let mut instant = false;
        for slot in active.iter_mut() {
            if let Some(a) = slot {
                if a.current >= a.phases.len() {
                    finished[a.id.index()] = true;
                    finish_time[a.id.index()] = Some(Seconds::new(now));
                    remaining -= 1;
                    *slot = None;
                    instant = true;
                }
            }
        }
        if instant {
            continue;
        }

        if remaining == 0 {
            break;
        }

        // Current rates: via-host transfer phases share the host NIC
        // (fair processor sharing); direct peer links run at full rate;
        // frozen boards neither progress nor hold a NIC share; a down
        // host stalls every via-host phase outright (rate 0) while
        // peer, compute and DRAM phases keep flowing.
        let host_up = state.host_is_up();
        let n_host = active
            .iter()
            .enumerate()
            .filter(|(acc, _)| board_up[*acc])
            .filter_map(|(_, s)| s.as_ref())
            .filter(|a| matches!(a.phases[a.current], Phase::Link { via_host: true, .. }))
            .count();
        let host_share = match config.host_nic_capacity {
            Some(cap) if n_host > 0 => cap.as_f64() / n_host as f64,
            _ => f64::INFINITY,
        };
        let phase_rate = |p: &Phase| match *p {
            Phase::Link { rate, via_host, .. } => {
                if via_host {
                    if host_up {
                        rate.min(host_share)
                    } else {
                        0.0
                    }
                } else {
                    rate
                }
            }
            Phase::Timed(_) | Phase::Compute { .. } => f64::INFINITY,
        };

        // Time to the next phase completion (frozen boards excluded),
        // clamped to the next fault boundary.
        let mut dt = f64::INFINITY;
        for (acc, slot) in active.iter().enumerate() {
            let Some(a) = slot else { continue };
            if !board_up[acc] {
                continue;
            }
            let t = match a.phases[a.current] {
                Phase::Link { bytes, .. } => bytes / phase_rate(&a.phases[a.current]),
                Phase::Timed(secs) => secs,
                Phase::Compute { secs } => secs * state.compute_factor(AccId::new(acc)),
            };
            dt = dt.min(t);
        }
        let horizon = boundaries
            .get(next_boundary)
            .copied()
            .unwrap_or(f64::INFINITY)
            - now;
        if !dt.is_finite() {
            // Every runnable phase is frozen by an outage: jump to the
            // next fault boundary (a recovery) if one is scheduled;
            // with none ahead the timeline is stranded forever.
            if !horizon.is_finite() {
                return Err(SimError::Stalled {
                    at: Seconds::new(now),
                    remaining,
                    host_down: !host_up,
                });
            }
            events += 1;
            now += horizon;
            continue;
        }
        let dt = if horizon < dt { horizon } else { dt };
        events += 1;
        now += dt;

        // Advance all unfrozen active phases by dt.
        for (acc, slot) in active.iter_mut().enumerate() {
            let Some(a) = slot else { continue };
            if !board_up[acc] {
                continue;
            }
            let rate = phase_rate(&a.phases[a.current]);
            let done = match &mut a.phases[a.current] {
                Phase::Link { bytes, .. } => {
                    *bytes -= rate * dt;
                    *bytes <= 1e-9
                }
                Phase::Timed(secs) => {
                    *secs -= dt;
                    *secs <= 1e-12
                }
                Phase::Compute { secs } => {
                    *secs -= dt / state.compute_factor(AccId::new(acc));
                    *secs <= 1e-12
                }
            };
            if done {
                a.current += 1;
                if a.current >= a.phases.len() {
                    finished[a.id.index()] = true;
                    finish_time[a.id.index()] = Some(Seconds::new(now));
                    remaining -= 1;
                    *slot = None;
                }
            }
        }
    }

    Ok(SimReport {
        makespan: Seconds::new(now),
        finish: finish_time,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};
    use crate::schedule::Evaluator;
    use crate::system::AccId;
    use crate::testutil::{const_system, ConstAccel};
    use h2h_model::builder::ModelBuilder;
    use h2h_model::tensor::TensorShape;

    fn branchy_model() -> ModelGraph {
        let mut b = ModelBuilder::new("branchy");
        let i = b.input("i", TensorShape::Vector { features: 4096 });
        let f1 = b.fc("a1", i, 2048).unwrap();
        let f2 = b.fc("b1", i, 2048).unwrap();
        let f3 = b.fc("a2", f1, 1024).unwrap();
        let f4 = b.fc("b2", f2, 1024).unwrap();
        let j = b.add("join", &[f3, f4]).unwrap();
        b.fc("head", j, 16).unwrap();
        b.finish().unwrap()
    }

    fn spread_mapping(m: &ModelGraph, n: usize) -> Mapping {
        let mut map = Mapping::new(m);
        for (i, id) in m.topo_order().into_iter().enumerate() {
            map.set(id, AccId::new(i % n));
        }
        map
    }

    #[test]
    fn dedicated_links_match_analytic_exactly() {
        let m = branchy_model();
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 2e-3),
                ConstAccel::universal("U1", 3e-3),
                ConstAccel::universal("U2", 1e-3),
            ],
            1e6,
        );
        let map = spread_mapping(&m, 3);
        let loc = LocalityState::new(&sys);
        let ev = Evaluator::new(&m, &sys);
        let analytic = ev.evaluate(&map, &loc);
        let sim = simulate(&m, &sys, &map, &loc, SimConfig::dedicated());
        let a = analytic.makespan().as_f64();
        let s = sim.makespan().as_f64();
        assert!((a - s).abs() / a < 1e-6, "analytic {a} vs simulated {s}");
        // Per-layer finishes agree too.
        for id in m.layer_ids() {
            let at = analytic.timing(id).unwrap().finish.as_f64();
            let st = sim.finish_of(id).unwrap().as_f64();
            assert!((at - st).abs() < 1e-6, "{id}: {at} vs {st}");
        }
    }

    #[test]
    fn dedicated_links_match_analytic_with_locality() {
        let m = branchy_model();
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 2e-3),
                ConstAccel::universal("U1", 1e-3),
            ],
            1e6,
        );
        let ids = m.topo_order();
        let mut map = Mapping::new(&m);
        for id in &ids {
            map.set(*id, AccId::new(0));
        }
        map.set(ids[2], AccId::new(1));
        let mut loc = LocalityState::new(&sys);
        // Pin a weighted layer and fuse a co-located edge.
        assert!(loc.try_pin(&m, &sys, ids[1], AccId::new(0)));
        assert!(loc.try_fuse(&m, &sys, ids[1], ids[3], AccId::new(0)));
        let ev = Evaluator::new(&m, &sys);
        let analytic = ev.evaluate(&map, &loc);
        let sim = simulate(&m, &sys, &map, &loc, SimConfig::dedicated());
        let a = analytic.makespan().as_f64();
        let s = sim.makespan().as_f64();
        assert!((a - s).abs() / a < 1e-6, "analytic {a} vs simulated {s}");
    }

    #[test]
    fn shared_nic_never_beats_dedicated() {
        let m = branchy_model();
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 1e-3),
                ConstAccel::universal("U1", 1e-3),
                ConstAccel::universal("U2", 1e-3),
            ],
            1e6,
        );
        let map = spread_mapping(&m, 3);
        let loc = LocalityState::new(&sys);
        let ded = simulate(&m, &sys, &map, &loc, SimConfig::dedicated());
        let shared = simulate(
            &m,
            &sys,
            &map,
            &loc,
            SimConfig::shared_nic(BytesPerSec::new(1e6)),
        );
        assert!(shared.makespan() >= ded.makespan());
        // With parallel branches crossing accelerators, a NIC equal to a
        // single link must actually hurt.
        assert!(
            shared.makespan().as_f64() > ded.makespan().as_f64() * 1.05,
            "shared {} vs dedicated {}",
            shared.makespan(),
            ded.makespan()
        );
    }

    #[test]
    fn generous_shared_nic_converges_to_dedicated() {
        let m = branchy_model();
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 1e-3),
                ConstAccel::universal("U1", 1e-3),
            ],
            1e6,
        );
        let map = spread_mapping(&m, 2);
        let loc = LocalityState::new(&sys);
        let ded = simulate(&m, &sys, &map, &loc, SimConfig::dedicated());
        let roomy = simulate(
            &m,
            &sys,
            &map,
            &loc,
            SimConfig::shared_nic(BytesPerSec::new(1e9)),
        );
        let d = ded.makespan().as_f64();
        let r = roomy.makespan().as_f64();
        assert!(
            (d - r).abs() / d < 1e-9,
            "dedicated {d} vs roomy shared {r}"
        );
    }

    #[test]
    fn event_count_is_bounded() {
        let m = branchy_model();
        let sys = const_system(vec![ConstAccel::universal("U0", 1e-3)], 1e6);
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let rep = simulate(
            &m,
            &sys,
            &map,
            &LocalityState::new(&sys),
            SimConfig::dedicated(),
        );
        // At most a handful of events per phase.
        assert!(rep.events() < m.num_layers() * 8);
    }

    #[test]
    fn empty_fault_plan_is_bitwise_identical() {
        let m = branchy_model();
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 2e-3),
                ConstAccel::universal("U1", 1e-3),
            ],
            1e6,
        );
        let map = spread_mapping(&m, 2);
        let loc = LocalityState::new(&sys);
        for cfg in [
            SimConfig::dedicated(),
            SimConfig::shared_nic(BytesPerSec::new(5e5)),
        ] {
            let plain = simulate(&m, &sys, &map, &loc, cfg);
            let faulted =
                simulate_with_faults(&m, &sys, &map, &loc, cfg, &FaultPlan::empty()).unwrap();
            assert_eq!(plain, faulted, "empty plan must not perturb the timeline");
        }
    }

    #[test]
    fn always_degraded_plan_matches_analytic_on_degraded_system() {
        // A link degraded from t=0 is just a slower fabric: the fault
        // timeline must reproduce the analytical evaluator run on the
        // statically degraded system — the fault-window cross-check of
        // the analytical degraded-route costs.
        let m = branchy_model();
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 2e-3),
                ConstAccel::universal("U1", 3e-3),
                ConstAccel::universal("U2", 1e-3),
            ],
            1e6,
        );
        let map = spread_mapping(&m, 3);
        let loc = LocalityState::new(&sys);
        let plan = FaultPlan::empty().with_event(FaultEvent {
            acc: AccId::new(1),
            kind: FaultKind::LinkDegraded { factor: 8.0 },
            at: Seconds::new(0.0),
            recover_at: None,
        });
        let state = plan.state_at(Seconds::new(0.0), sys.num_accs());
        let degraded_sys = sys.degrade(&state);
        let analytic = Evaluator::new(&m, &degraded_sys).evaluate(&map, &loc);
        let sim =
            simulate_with_faults(&m, &sys, &map, &loc, SimConfig::dedicated(), &plan).unwrap();
        let a = analytic.makespan().as_f64();
        let s = sim.makespan().as_f64();
        assert!(
            (a - s).abs() / a < 1e-6,
            "analytic-on-degraded {a} vs fault sim {s}"
        );
        for id in m.layer_ids() {
            let at = analytic.timing(id).unwrap().finish.as_f64();
            let st = sim.finish_of(id).unwrap().as_f64();
            assert!((at - st).abs() < 1e-6, "{id}: {at} vs {st}");
        }
    }

    #[test]
    fn mid_run_degradation_lands_between_the_analytics() {
        // A fabric that degrades halfway through must cost at least the
        // healthy analytic and at most the always-degraded one.
        let m = branchy_model();
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 2e-3),
                ConstAccel::universal("U1", 1e-3),
            ],
            1e6,
        );
        let map = spread_mapping(&m, 2);
        let loc = LocalityState::new(&sys);
        let ev = Evaluator::new(&m, &sys);
        let healthy = ev.evaluate(&map, &loc).makespan().as_f64();
        let mk_plan = |at: f64| {
            FaultPlan::empty().with_event(FaultEvent {
                acc: AccId::new(1),
                kind: FaultKind::LinkDegraded { factor: 16.0 },
                at: Seconds::new(at),
                recover_at: None,
            })
        };
        let worst =
            simulate_with_faults(&m, &sys, &map, &loc, SimConfig::dedicated(), &mk_plan(0.0))
                .unwrap()
                .makespan()
                .as_f64();
        let mid = simulate_with_faults(
            &m,
            &sys,
            &map,
            &loc,
            SimConfig::dedicated(),
            &mk_plan(healthy * 0.5),
        )
        .unwrap()
        .makespan()
        .as_f64();
        assert!(worst > healthy * 1.01, "a 16x slowdown must actually hurt");
        assert!(
            healthy - 1e-12 <= mid && mid <= worst + 1e-12,
            "mid-run degradation {mid} must land in [{healthy}, {worst}]"
        );
    }

    #[test]
    fn recovered_outage_delays_by_exactly_the_outage_window() {
        // One board, downed from t=0 until t=R: nothing can progress
        // before R, so the makespan is exactly R + the healthy makespan.
        let m = branchy_model();
        let sys = const_system(vec![ConstAccel::universal("U0", 1e-3)], 1e6);
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let loc = LocalityState::new(&sys);
        let healthy = simulate(&m, &sys, &map, &loc, SimConfig::dedicated());
        let r = 0.125;
        let plan = FaultPlan::empty().with_event(FaultEvent {
            acc: AccId::new(0),
            kind: FaultKind::BoardDown,
            at: Seconds::new(0.0),
            recover_at: Some(Seconds::new(r)),
        });
        let sim =
            simulate_with_faults(&m, &sys, &map, &loc, SimConfig::dedicated(), &plan).unwrap();
        let expect = healthy.makespan().as_f64() + r;
        let got = sim.makespan().as_f64();
        assert!(
            (expect - got).abs() < 1e-9,
            "outage window must shift the makespan: expected {expect}, got {got}"
        );
    }

    #[test]
    fn permanent_outage_with_mapped_work_returns_typed_stall() {
        let m = branchy_model();
        let sys = const_system(vec![ConstAccel::universal("U0", 1e-3)], 1e6);
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let plan = FaultPlan::board_down(AccId::new(0), Seconds::new(0.0));
        let err = simulate_with_faults(
            &m,
            &sys,
            &map,
            &LocalityState::new(&sys),
            SimConfig::dedicated(),
            &plan,
        )
        .unwrap_err();
        let SimError::Stalled {
            remaining,
            host_down,
            ..
        } = err;
        assert_eq!(remaining, m.num_layers());
        assert!(!host_down, "the host is fine, the board is dead");
        assert!(err.to_string().contains("stalled"), "{err}");
    }

    #[test]
    fn always_slowed_board_matches_analytic_on_degraded_system() {
        // A board compute-throttled from t=0 is just a slower board:
        // the fault timeline must reproduce the analytical evaluator on
        // the degraded system view that carries the compute factor.
        let m = branchy_model();
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 2e-3),
                ConstAccel::universal("U1", 3e-3),
                ConstAccel::universal("U2", 1e-3),
            ],
            1e6,
        );
        let map = spread_mapping(&m, 3);
        let loc = LocalityState::new(&sys);
        let plan = FaultPlan::empty().with_event(FaultEvent {
            acc: AccId::new(2),
            kind: FaultKind::BoardDegraded { factor: 3.0 },
            at: Seconds::new(0.0),
            recover_at: None,
        });
        let state = plan.state_at(Seconds::new(0.0), sys.num_accs());
        let degraded_sys = sys.degrade(&state);
        assert_eq!(degraded_sys.compute_factor(AccId::new(2)), 3.0);
        let analytic = Evaluator::new(&m, &degraded_sys).evaluate(&map, &loc);
        let healthy = Evaluator::new(&m, &sys).evaluate(&map, &loc);
        assert!(
            analytic.makespan() > healthy.makespan(),
            "a 3x compute throttle must actually hurt"
        );
        let sim =
            simulate_with_faults(&m, &sys, &map, &loc, SimConfig::dedicated(), &plan).unwrap();
        let a = analytic.makespan().as_f64();
        let s = sim.makespan().as_f64();
        assert!(
            (a - s).abs() / a < 1e-6,
            "analytic-on-throttled {a} vs fault sim {s}"
        );
        for id in m.layer_ids() {
            let at = analytic.timing(id).unwrap().finish.as_f64();
            let st = sim.finish_of(id).unwrap().as_f64();
            assert!((at - st).abs() < 1e-6, "{id}: {at} vs {st}");
        }
    }

    #[test]
    fn always_degraded_host_matches_analytic_on_degraded_system() {
        // A host NIC degraded from t=0 re-prices every via-host route:
        // the timeline must reproduce the analytical evaluator on the
        // degraded system.
        let m = branchy_model();
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 2e-3),
                ConstAccel::universal("U1", 1e-3),
            ],
            1e6,
        );
        let map = spread_mapping(&m, 2);
        let loc = LocalityState::new(&sys);
        let plan = FaultPlan::empty().with_event(FaultEvent {
            acc: AccId::new(0),
            kind: FaultKind::HostDegraded { factor: 4.0 },
            at: Seconds::new(0.0),
            recover_at: None,
        });
        let state = plan.state_at(Seconds::new(0.0), sys.num_accs());
        let degraded_sys = sys.degrade(&state);
        let analytic = Evaluator::new(&m, &degraded_sys).evaluate(&map, &loc);
        let healthy = Evaluator::new(&m, &sys).evaluate(&map, &loc);
        assert!(
            analytic.makespan() > healthy.makespan(),
            "a 4x NIC slowdown must actually hurt"
        );
        let sim =
            simulate_with_faults(&m, &sys, &map, &loc, SimConfig::dedicated(), &plan).unwrap();
        let a = analytic.makespan().as_f64();
        let s = sim.makespan().as_f64();
        assert!(
            (a - s).abs() / a < 1e-6,
            "analytic-on-degraded-host {a} vs fault sim {s}"
        );
    }

    #[test]
    fn recovered_host_outage_delays_a_via_host_chain_by_exactly_the_window() {
        // Single board, host down from t=0 until t=R: the weight stream
        // at the head of the chain is via-host, so nothing can progress
        // before R — the host analogue of the board-outage shift test.
        let m = branchy_model();
        let sys = const_system(vec![ConstAccel::universal("U0", 1e-3)], 1e6);
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let loc = LocalityState::new(&sys);
        let healthy = simulate(&m, &sys, &map, &loc, SimConfig::dedicated());
        let r = 0.25;
        let plan = FaultPlan::empty().with_event(FaultEvent {
            acc: AccId::new(0),
            kind: FaultKind::HostDown,
            at: Seconds::new(0.0),
            recover_at: Some(Seconds::new(r)),
        });
        let sim =
            simulate_with_faults(&m, &sys, &map, &loc, SimConfig::dedicated(), &plan).unwrap();
        // Unlike a board outage, the board keeps computing while the
        // host is down: the input layer's compute phase overlaps the
        // outage, so the shift is r minus that overlap — everything
        // after it is gated on the stalled weight stream.
        let input_done = healthy.finish_of(m.topo_order()[0]).unwrap().as_f64();
        let expect = healthy.makespan().as_f64() + r - input_done;
        let got = sim.makespan().as_f64();
        assert!(
            (expect - got).abs() < 1e-9,
            "host outage must shift the via-host chain: expected {expect}, got {got}"
        );
    }

    #[test]
    fn peer_linked_traffic_survives_a_host_outage() {
        // Two boards joined by a direct peer link. A host-down window
        // opened mid-way through the producer's peer OFM upload must
        // not delay it (peer traffic bypasses the host), while the
        // identical run on a star fabric — same rates, but the transfer
        // relays through the host — stalls until recovery.
        let mut b = ModelBuilder::new("pair");
        let i = b.input("i", TensorShape::Vector { features: 256 });
        let f1 = b.fc("f1", i, 256).unwrap();
        let f2 = b.fc("f2", f1, 16).unwrap();
        let m = b.finish().unwrap();
        let rate = 1e6;
        let star = const_system(
            vec![
                ConstAccel::universal("U0", 1e-3),
                ConstAccel::universal("U1", 1e-3),
            ],
            rate,
        );
        let peered = star.clone().with_topology(Topology::switched(
            BytesPerSec::new(rate),
            vec![BytesPerSec::new(rate); 2],
            vec![(0, 1, BytesPerSec::new(rate))],
        ));
        let mut map = Mapping::new(&m);
        map.set(i, AccId::new(0));
        map.set(f1, AccId::new(0));
        map.set(f2, AccId::new(1));
        let loc = LocalityState::new(&star);
        let cfg = SimConfig::dedicated();
        let healthy = simulate(&m, &peered, &map, &loc, cfg);
        let f1_done = healthy.finish_of(f1).unwrap().as_f64();
        // f1's final phase is its OFM upload (1 KiB at 1e6 B/s = ~1 ms);
        // open the host-down window halfway through it.
        let t1 = f1_done - 0.0005;
        let t2 = f1_done + 1.0;
        let plan = FaultPlan::empty().with_event(FaultEvent {
            acc: AccId::new(0),
            kind: FaultKind::HostDown,
            at: Seconds::new(t1),
            recover_at: Some(Seconds::new(t2)),
        });
        let on_peer = simulate_with_faults(&m, &peered, &map, &loc, cfg, &plan).unwrap();
        assert!(
            (on_peer.finish_of(f1).unwrap().as_f64() - f1_done).abs() < 1e-9,
            "the peer-routed upload must ride through the outage"
        );
        let on_star = simulate_with_faults(&m, &star, &map, &loc, cfg, &plan).unwrap();
        assert!(
            on_star.finish_of(f1).unwrap().as_f64() >= t2,
            "the host-relayed upload must stall until recovery"
        );
        assert!(on_star.makespan() > on_peer.makespan());
    }

    #[test]
    fn permanent_host_outage_with_via_host_work_returns_typed_stall() {
        let m = branchy_model();
        let sys = const_system(vec![ConstAccel::universal("U0", 1e-3)], 1e6);
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let plan = FaultPlan::empty().with_event(FaultEvent {
            acc: AccId::new(0),
            kind: FaultKind::HostDown,
            at: Seconds::new(0.0),
            recover_at: None,
        });
        let err = simulate_with_faults(
            &m,
            &sys,
            &map,
            &LocalityState::new(&sys),
            SimConfig::dedicated(),
            &plan,
        )
        .unwrap_err();
        let SimError::Stalled {
            host_down,
            remaining,
            ..
        } = err;
        assert!(host_down, "the stall is the host's fault");
        assert!(remaining > 0);
    }

    #[test]
    fn mid_run_compute_throttle_lands_between_the_analytics() {
        // A board throttled halfway through must cost at least the
        // healthy analytic and at most the always-throttled one — the
        // fluid remainder-rescaling check for Compute phases.
        let m = branchy_model();
        // A fast fabric keeps the timeline compute-bound, so the
        // throttle is what moves the makespan.
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 2e-3),
                ConstAccel::universal("U1", 1e-3),
            ],
            1e9,
        );
        let map = spread_mapping(&m, 2);
        let loc = LocalityState::new(&sys);
        let healthy = Evaluator::new(&m, &sys)
            .evaluate(&map, &loc)
            .makespan()
            .as_f64();
        let mk_plan = |at: f64| {
            FaultPlan::empty().with_event(FaultEvent {
                acc: AccId::new(1),
                kind: FaultKind::BoardDegraded { factor: 8.0 },
                at: Seconds::new(at),
                recover_at: None,
            })
        };
        let cfg = SimConfig::dedicated();
        let worst = simulate_with_faults(&m, &sys, &map, &loc, cfg, &mk_plan(0.0)).unwrap();
        let mid = simulate_with_faults(&m, &sys, &map, &loc, cfg, &mk_plan(healthy * 0.5)).unwrap();
        let (worst, mid) = (worst.makespan().as_f64(), mid.makespan().as_f64());
        assert!(worst > healthy * 1.01, "an 8x throttle must actually hurt");
        assert!(
            healthy - 1e-12 <= mid && mid <= worst + 1e-12,
            "mid-run throttle {mid} must land in [{healthy}, {worst}]"
        );
    }
}
