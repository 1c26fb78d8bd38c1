//! Time-budgeted mapping repair on a degraded fabric.
//!
//! When a [`h2h_system::fault::FaultPlan`] takes boards down or
//! degrades links mid-serve, the incumbent mapping is suddenly priced
//! on the wrong fabric — and layers on dead boards cannot run at all.
//! A full from-scratch remap recovers the best achievable latency but
//! costs a whole pipeline run; this module implements the middle
//! ground the paper's incremental machinery makes cheap:
//!
//! 1. **Evacuate**: every layer on a down board moves to the best live
//!    supporting accelerator (preferring boards that already host a
//!    graph neighbour, then fastest compute, then lowest id) — the
//!    minimal forced change.
//! 2. **Re-price**: the evacuated incumbent is evaluated on the
//!    degraded fabric (every route-crossing edge now pays the degraded
//!    per-route bandwidth) — the *incumbent-on-degraded* baseline. The
//!    search engine's seed (steps 2–3 replayed on its own schedule,
//!    bitwise a full evaluation's makespan) is exactly this pricing, so
//!    it is read from there rather than paid for with an evaluation.
//! 3. **Budgeted search**: a [`DeltaEngine`] pass loop identical in
//!    decision rule and candidate scoring to step-4 remapping (pin diff
//!    and fusion replay on the engine's fusion-free resting schedule),
//!    but visiting fault-affected layers first and hard-capped at a
//!    **budget in attempted-move units** — a deterministic currency (no
//!    wall clocks), so repairs reproduce bit-identically across
//!    machines.
//!
//! [`scratch_remap`] prices the alternative: a full H2H pipeline run
//! on the live sub-system ([`SystemSpec::live_subsystem`]), translated
//! back to full-system accelerator ids. The fault acceptance suite
//! asserts the budgeted repair recovers ≥ 80 % of the scratch remap's
//! latency improvement at ≤ 10 % of its attempted moves on large zoo
//! models.

use h2h_model::graph::{LayerId, ModelGraph};
use h2h_model::units::Seconds;
use h2h_system::fault::FaultState;
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{Evaluator, Schedule};
use h2h_system::system::{AccId, SystemSpec};

use crate::activation_fusion::rebuild_locality;
use crate::config::H2hConfig;
use crate::delta::{DeltaEngine, SearchStats};
use crate::pipeline::{H2hError, H2hMapper};
use crate::preset::PinPreset;
use crate::remap::neighbour_accs;

/// Result of a budgeted repair.
#[derive(Debug)]
pub struct RepairOutcome {
    /// The repaired mapping (valid on the degraded system).
    pub mapping: Mapping,
    /// Locality state of the repaired mapping.
    pub locality: LocalityState,
    /// Schedule of the repaired mapping on the degraded fabric.
    pub schedule: Schedule,
    /// Layers forcibly moved off dead boards, in topological order.
    pub evacuated: Vec<LayerId>,
    /// Latency of the evacuated incumbent on the degraded fabric
    /// before any search — what serving would pay with no repair.
    pub incumbent_degraded: Seconds,
    /// Search counters; `attempted_moves` is the budget actually spent.
    pub stats: SearchStats,
    /// Modeled wall-clock cost of this repair:
    /// `stats.attempted_moves ×` [`H2hConfig::repair_secs_per_move`].
    /// Zero under the default instantaneous-repair model; when the knob
    /// is set, serving charges this window against the SLO ledgers of
    /// the rounds it displaces (see `TenantRegistry::serve_with_faults`
    /// in `h2h-core`).
    pub wall_time: Seconds,
}

impl RepairOutcome {
    /// Latency of the repaired mapping on the degraded fabric.
    pub fn repaired(&self) -> Seconds {
        self.schedule.makespan()
    }
}

/// Result of a from-scratch remap on the live sub-system.
#[derive(Debug)]
pub struct ScratchOutcome {
    /// The scratch mapping, translated back to full-system ids.
    pub mapping: Mapping,
    /// Its latency on the (full) degraded system.
    pub makespan: Seconds,
    /// Step-4 search counters of the scratch pipeline run.
    pub stats: SearchStats,
    /// Full [`Evaluator::evaluate`] calls billed across the *whole*
    /// scratch pipeline (step snapshots, fusion guard replays, remap
    /// engine, final re-pricing) — the evaluator-call bill the
    /// budgeted repair is measured against. The step-4 `stats` see
    /// only their own slice of this.
    pub pipeline_evals: usize,
}

/// Resolves [`H2hConfig::repair_eval_budget`]: `0` means the automatic
/// `max(16, 3 * num_layers / 2)` attempted-move budget — sized so the
/// priority-ordered search makes it through the fault-affected layers
/// more than once (the second pass is where hotspot drains unlock)
/// while staying well under half a from-scratch remap's search bill.
pub fn resolve_repair_budget(cfg: &H2hConfig, model: &ModelGraph) -> usize {
    if cfg.repair_eval_budget == 0 {
        (3 * model.num_layers() / 2).max(16)
    } else {
        cfg.repair_eval_budget
    }
}

/// Repairs `incumbent` for the fault condition `state`, spending at
/// most `budget` attempted delta moves.
///
/// `ev` must be an evaluator over the **degraded** system
/// ([`SystemSpec::degrade`] with the same `state`) — the repair prices
/// everything on the fabric that actually exists. With a healthy
/// `state` the evacuation is empty and (because step-4 remapping ran
/// the incumbent to a fixpoint of the same candidate structure) the
/// search accepts nothing: repair is a no-op.
///
/// # Errors
///
/// Returns [`H2hError::NoCapableAccelerator`] when a layer stranded on
/// a dead board has no live accelerator that supports its class.
pub fn repair_mapping(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
    preset: &PinPreset,
    incumbent: &Mapping,
    state: &FaultState,
    budget: usize,
) -> Result<RepairOutcome, H2hError> {
    let model = ev.model();
    let system = ev.system();
    let mut mapping = incumbent.clone();

    // 1. Evacuate dead boards (topological order, deterministic).
    let evacuated = evacuate(ev, &mut mapping, state)?;

    // 2. Price the evacuated incumbent on the degraded fabric: the
    //    engine's seed replays that mapping's steps 2-3 on its own
    //    schedule, and its makespan is a full evaluation's, bitwise.
    let mut engine = DeltaEngine::new(ev, cfg, preset, &mapping);
    let incumbent_degraded = engine.seed_makespan();

    // 3. Budgeted delta search, fault-affected layers first.
    let order = repair_visit_order(model, &mapping, &evacuated, state);
    let mut passes = 0;
    let mut neighbours: Vec<AccId> = Vec::new();
    'outer: while passes < cfg.remap_max_passes {
        passes += 1;
        let mut improved = false;
        for &layer in &order {
            neighbour_accs(model, &mapping, layer, &mut neighbours);
            for &acc in &neighbours {
                if !state.acc_is_up(acc) || !system.acc(acc).supports(model.layer(layer)) {
                    continue;
                }
                if engine.stats.attempted_moves >= budget {
                    break 'outer;
                }
                if engine.try_improving_move(&mut mapping, layer, acc) {
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let (locality, schedule, mut stats) = engine.finalize(&mapping);
    stats.passes = passes;
    // The attempted-move counter is the deterministic currency; the
    // per-move cost converts it into modeled wall time (see
    // `H2hConfig::repair_secs_per_move` for a measured setting).
    let wall_time = Seconds::new(stats.attempted_moves as f64 * cfg.repair_secs_per_move);
    Ok(RepairOutcome {
        mapping,
        locality,
        schedule,
        evacuated,
        incumbent_degraded,
        stats,
        wall_time,
    })
}

/// Moves every layer on a down board to the best live supporting
/// accelerator: boards already hosting a graph neighbour first, then
/// fastest compute, then lowest id. Neighbour boards win over a
/// load-balanced spread because the fabric is communication-dominated
/// — severing co-locations costs more than a compute hotspot, and the
/// budgeted search that follows is better at spreading compute than at
/// re-discovering locality. Returns the moved layers in topological
/// order.
fn evacuate(
    ev: &Evaluator<'_>,
    mapping: &mut Mapping,
    state: &FaultState,
) -> Result<Vec<LayerId>, H2hError> {
    let model = ev.model();
    let system = ev.system();
    let mut evacuated = Vec::new();
    for id in model.topo_order() {
        if state.acc_is_up(mapping.acc_of(id)) {
            continue;
        }
        let layer = model.layer(id);
        let live_supporting =
            |acc: &AccId| state.acc_is_up(*acc) && system.acc(*acc).supports(layer);
        let pick = |accs: &mut dyn Iterator<Item = AccId>| -> Option<AccId> {
            accs.filter(live_supporting)
                .map(|acc| {
                    // Effective compute time: the cache stores healthy-speed
                    // times; a compute-degraded board pays its throttle, so
                    // the evacuation prefers unthrottled boards. (`* 1.0` is
                    // exact — healthy fabrics keep today's ordering bitwise.)
                    let t = ev.cache().time(id, acc).expect("supporting acc has a cost")
                        * system.compute_factor(acc);
                    (t, acc)
                })
                .min_by(|a, b| a.partial_cmp(b).expect("compute times are finite"))
                .map(|(_, acc)| acc)
        };
        // Prefer a board already hosting a neighbour (so the evacuation
        // severs as few co-locations as possible), then any live board.
        let mut near = model
            .predecessors(id)
            .chain(model.successors(id))
            .filter_map(|n| mapping.get(n));
        let dest = pick(&mut near).or_else(|| pick(&mut system.acc_ids()));
        match dest {
            Some(acc) => {
                mapping.set(id, acc);
                evacuated.push(id);
            }
            None => {
                return Err(H2hError::NoCapableAccelerator {
                    layer: layer.name().to_string(),
                })
            }
        }
    }
    Ok(evacuated)
}

/// Visit order of the repair search: fault-affected layers (evacuees,
/// layers on degraded-link or compute-throttled boards, and the graph
/// neighbours of both) in topological order, then everything else in
/// topological order — the budget goes where the fault hit first.
/// Host-scoped faults re-price every via-host route at once, so they
/// add no per-board priority: the plain topological order is already
/// the right sweep.
fn repair_visit_order(
    model: &ModelGraph,
    mapping: &Mapping,
    evacuated: &[LayerId],
    state: &FaultState,
) -> Vec<LayerId> {
    let mut priority = vec![false; model.id_bound()];
    let mark_with_neighbours = |id: LayerId, priority: &mut Vec<bool>| {
        priority[id.index()] = true;
        for n in model.predecessors(id).chain(model.successors(id)) {
            priority[n.index()] = true;
        }
    };
    for &id in evacuated {
        mark_with_neighbours(id, &mut priority);
    }
    let topo = model.topo_order();
    for &id in &topo {
        let acc = mapping.acc_of(id);
        if state.link_factor(acc) > 1.0 || state.compute_factor(acc) > 1.0 {
            mark_with_neighbours(id, &mut priority);
        }
    }
    topo.iter()
        .copied()
        .filter(|id| priority[id.index()])
        .chain(topo.iter().copied().filter(|id| !priority[id.index()]))
        .collect()
}

/// Full H2H pipeline on the live sub-system of `state`, translated
/// back to full-system accelerator ids and priced on the (full)
/// degraded system — the reference the budgeted repair competes with.
///
/// # Errors
///
/// Propagates pipeline errors (e.g. the surviving boards cannot run
/// some layer class).
///
/// # Panics
///
/// Panics if `state` downs every accelerator.
pub fn scratch_remap(
    model: &ModelGraph,
    system: &SystemSpec,
    state: &FaultState,
    cfg: &H2hConfig,
    preset: &PinPreset,
) -> Result<ScratchOutcome, H2hError> {
    let (sub_sys, live_ids) = system.live_subsystem(state);
    let mapper = H2hMapper::new(model, &sub_sys)
        .with_config(*cfg)
        .with_preset(preset.clone());
    let outcome = mapper.run()?;

    // Translate sub-system accelerator indices back to full-system ids
    // and re-price on the full degraded system (bit-identical fabric —
    // live_subsystem and degrade build the same routes for live pairs).
    let degraded = system.degrade(state);
    let ev = Evaluator::new(model, &degraded);
    let mut mapping = Mapping::new(model);
    for id in model.layer_ids() {
        mapping.set(id, live_ids[outcome.mapping.acc_of(id).index()]);
    }
    let locality = rebuild_locality(&ev, &mapping, cfg, preset);
    let makespan = ev.evaluate(&mapping, &locality).makespan();
    let pipeline_evals = mapper.evaluator().evals_performed() + ev.evals_performed();
    Ok(ScratchOutcome {
        mapping,
        makespan,
        stats: outcome.remap_stats,
        pipeline_evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_system::system::{BandwidthClass, SystemSpec};

    fn board_down(acc: usize, n: usize) -> FaultState {
        let mut s = FaultState::healthy(n);
        s.set_down(AccId::new(acc));
        s
    }

    #[test]
    fn repair_on_healthy_state_is_a_noop() {
        let model = h2h_model::zoo::mocap();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig::default();
        let preset = PinPreset::new();
        let outcome = H2hMapper::new(&model, &system)
            .with_config(cfg)
            .run()
            .unwrap();
        let state = FaultState::healthy(system.num_accs());
        let degraded = system.degrade(&state);
        let ev = Evaluator::new(&model, &degraded);
        let rep = repair_mapping(&ev, &cfg, &preset, &outcome.mapping, &state, 10_000).unwrap();
        assert!(rep.evacuated.is_empty());
        assert_eq!(
            rep.mapping, outcome.mapping,
            "healthy repair must not move anything"
        );
        assert_eq!(rep.stats.accepted_moves, 0);
        assert_eq!(
            rep.repaired().as_f64(),
            outcome.schedule.makespan().as_f64(),
            "healthy repair must reproduce the incumbent latency bitwise"
        );
    }

    #[test]
    fn evacuation_clears_dead_boards_and_budget_zero_only_evacuates() {
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig::default();
        let preset = PinPreset::new();
        let outcome = H2hMapper::new(&model, &system)
            .with_config(cfg)
            .run()
            .unwrap();
        // Down the board hosting the most layers so the evacuation is
        // non-trivial.
        let mut load = vec![0usize; system.num_accs()];
        for id in model.layer_ids() {
            load[outcome.mapping.acc_of(id).index()] += 1;
        }
        let dead = load.iter().enumerate().max_by_key(|(_, l)| **l).unwrap().0;
        let state = board_down(dead, system.num_accs());
        let degraded = system.degrade(&state);
        let ev = Evaluator::new(&model, &degraded);
        let rep = repair_mapping(&ev, &cfg, &preset, &outcome.mapping, &state, 0).unwrap();
        assert_eq!(rep.evacuated.len(), load[dead]);
        assert_eq!(rep.stats.attempted_moves, 0, "budget 0 must not search");
        for id in model.layer_ids() {
            assert_ne!(
                rep.mapping.acc_of(id).index(),
                dead,
                "dead board must be empty"
            );
        }
        rep.mapping.validate(&model, &degraded).unwrap();
        assert_eq!(
            rep.repaired().as_f64(),
            rep.incumbent_degraded.as_f64(),
            "with no search the repaired latency is the incumbent's"
        );
    }

    #[test]
    fn budgeted_repair_improves_on_the_evacuated_incumbent() {
        let model = h2h_model::zoo::casia_surf();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig::default();
        let preset = PinPreset::new();
        let outcome = H2hMapper::new(&model, &system)
            .with_config(cfg)
            .run()
            .unwrap();
        let mut load = vec![0usize; system.num_accs()];
        for id in model.layer_ids() {
            load[outcome.mapping.acc_of(id).index()] += 1;
        }
        let dead = load.iter().enumerate().max_by_key(|(_, l)| **l).unwrap().0;
        let state = board_down(dead, system.num_accs());
        let degraded = system.degrade(&state);
        let ev = Evaluator::new(&model, &degraded);
        let budget = resolve_repair_budget(&cfg, &model);
        let rep = repair_mapping(&ev, &cfg, &preset, &outcome.mapping, &state, budget).unwrap();
        assert!(rep.stats.attempted_moves <= budget);
        // The incumbent is priced by the engine's seed replay, so the
        // repair's only full evaluation is its finalization.
        assert_eq!(ev.evals_performed(), 1, "full evaluations of one repair");
        assert_eq!(rep.stats.full_evals, 1);
        assert!(
            rep.repaired() <= rep.incumbent_degraded,
            "search must not make the evacuated incumbent worse: {} vs {}",
            rep.repaired(),
            rep.incumbent_degraded
        );
        rep.mapping.validate(&model, &degraded).unwrap();
    }
}
