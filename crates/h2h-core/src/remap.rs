//! Step 4 — data-locality-aware remapping (paper §4.4).
//!
//! For every layer, attempt to re-allocate it onto an accelerator where
//! one of its predecessors or successors already lives; re-run weight
//! locality and activation fusion (steps 2–3) for the tentative mapping;
//! accept the move iff the modeled end-to-end latency drops — trading a
//! little computation efficiency for a lot of communication. Loops until
//! a fixpoint (no accepted move in a full pass) or the configured pass
//! bound.
//!
//! The loop runs on the [`DeltaEngine`], seeded by step 3 replayed on
//! its own pins-only schedule rather than by a full evaluation.
//! [`crate::pipeline::H2hMapper::run`] seeds that engine as its step 3
//! and hands it to the loop, so steps 2–3 run once per map.
//!
//! Under the latency objective a move first meets the latency screen: a
//! floor schedule, priced with the move's exact pins and a lower bound
//! on every fusion step 3 could choose, rejects a move whose bound
//! already fails the accept rule.
//! When the bound passes, the screen splits it on the fusion outcomes
//! of producers along the floor's critical path (some co-located
//! consumer fused, or none) and rejects the move if every branch fails
//! — which catches most of the moves that would leave the makespan
//! exactly unchanged. Most rejected moves never reach the fusion
//! replay. The moves the screen lets through are scored incrementally
//! (paper §4.2's "update … without traversing the entire graph"): the
//! move and its pin diff (or, when the two touched boards do not fit all
//! their weights, their rerun step 2) land on the engine's fusion-free
//! resting schedule, and the fusion pass replays on top with cone-local
//! schedule propagation, risky fusion guards proven by a delay walk and
//! rejected toggles restored from the journal savepoint (see
//! [`crate::delta`]; the replay scores bitwise like a full evaluation,
//! and the screen only rejects moves the exact score would reject too).
//! Accepted moves commit the delta state directly, and the search's only
//! full evaluation is its finalization. Final mappings are identical to
//! the per-candidate full-re-evaluation loop, kept below as
//! [`data_locality_remapping_reference`] and asserted equivalent by the
//! test suites.

use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{Evaluator, Schedule};
use h2h_system::system::AccId;

use h2h_model::graph::{LayerId, ModelGraph};

use crate::activation_fusion::rebuild_locality;
use crate::config::{H2hConfig, ACCEPT_EPSILON};
use crate::delta::{DeltaEngine, PhaseProfile, SearchStats};
use crate::preset::PinPreset;

/// Outcome of the remapping loop.
#[derive(Debug)]
pub struct RemapOutcome {
    /// Locality state of the accepted final mapping.
    pub locality: LocalityState,
    /// Schedule of the accepted final mapping.
    pub schedule: Schedule,
    /// Loop counters (passes, moves) and delta-vs-full evaluation
    /// instrumentation.
    pub stats: SearchStats,
    /// Per-phase wall-clock breakdown, zeroed unless
    /// [`H2hConfig::profile_phases`] is on (elapsed seconds of the
    /// search; never part of the cross-run equality contract).
    pub profile: PhaseProfile,
}

impl RemapOutcome {
    /// Full passes executed.
    pub fn passes(&self) -> usize {
        self.stats.passes
    }

    /// Accepted moves.
    pub fn accepted_moves(&self) -> usize {
        self.stats.accepted_moves
    }

    /// Attempted moves (accepted + rejected).
    pub fn attempted_moves(&self) -> usize {
        self.stats.attempted_moves
    }
}

/// Runs the greedy remapping loop on the incremental delta engine,
/// mutating `mapping` in place.
pub fn data_locality_remapping(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
    preset: &PinPreset,
    mapping: &mut Mapping,
) -> RemapOutcome {
    let engine = DeltaEngine::new(ev, cfg, preset, mapping);
    remap_seeded(ev, cfg, engine, mapping)
}

/// The loop of [`data_locality_remapping`] on an `engine` already seeded
/// at `mapping`: [`crate::pipeline::H2hMapper::run`] seeds it as its
/// step 3, so steps 2–3 run once per map.
pub(crate) fn remap_seeded(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
    mut engine: DeltaEngine<'_, '_>,
    mapping: &mut Mapping,
) -> RemapOutcome {
    let model = ev.model();
    let system = ev.system();
    let order = model.topo_order();
    let mut neighbours: Vec<AccId> = Vec::new();
    let mut passes = 0;
    while passes < cfg.remap_max_passes {
        passes += 1;
        let mut improved = false;
        for &layer in &order {
            neighbour_accs(model, mapping, layer, &mut neighbours);
            // Greedy: take the first improving move, go to the next
            // layer.
            for &acc in &neighbours {
                if system.acc(acc).supports(model.layer(layer))
                    && engine.try_improving_move(mapping, layer, acc)
                {
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let profile = engine.profile;
    let (locality, schedule, mut stats) = engine.finalize(mapping);
    stats.passes = passes;
    RemapOutcome {
        locality,
        schedule,
        stats,
        profile,
    }
}

/// Candidate destinations of one layer's move: the accelerators hosting
/// one of its graph neighbours, other than its own, in ascending id
/// order without repeats. Written into `out` (cleared first) so the
/// search loops allocate nothing per visit.
pub(crate) fn neighbour_accs(
    model: &ModelGraph,
    mapping: &Mapping,
    layer: LayerId,
    out: &mut Vec<AccId>,
) {
    let current = mapping.acc_of(layer);
    out.clear();
    out.extend(
        model
            .predecessors(layer)
            .chain(model.successors(layer))
            .filter_map(|n| mapping.get(n))
            .filter(|acc| *acc != current),
    );
    out.sort_unstable();
    out.dedup();
}

/// The historical implementation: every candidate pays a full locality
/// rebuild and a full schedule evaluation. Kept as the semantic
/// reference the delta engine is asserted against (equivalence tests,
/// `bench_search`, the repository benchmark) — not used on the
/// production search path.
pub fn data_locality_remapping_reference(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
    preset: &PinPreset,
    mapping: &mut Mapping,
) -> RemapOutcome {
    let model = ev.model();
    let system = ev.system();

    let mut best_loc = rebuild_locality(ev, mapping, cfg, preset);
    let mut best = ev.evaluate(mapping, &best_loc);
    let mut best_score = cfg.objective.score(&best);
    let mut passes = 0;
    let mut accepted_moves = 0;
    let mut attempted_moves = 0;

    let order = model.topo_order();
    let mut neighbours: Vec<AccId> = Vec::new();
    while passes < cfg.remap_max_passes {
        passes += 1;
        let mut improved = false;
        for &layer in &order {
            let current = mapping.acc_of(layer);
            neighbour_accs(model, mapping, layer, &mut neighbours);
            for &acc in &neighbours {
                if !system.acc(acc).supports(model.layer(layer)) {
                    continue;
                }
                attempted_moves += 1;
                mapping.set(layer, acc);
                let loc = rebuild_locality(ev, mapping, cfg, preset);
                let sched = ev.evaluate(mapping, &loc);
                let score = cfg.objective.score(&sched);
                if score + ACCEPT_EPSILON < best_score {
                    best = sched;
                    best_score = score;
                    best_loc = loc;
                    accepted_moves += 1;
                    improved = true;
                    break;
                }
                mapping.set(layer, current); // revert
            }
        }
        if !improved {
            break;
        }
    }

    let stats = SearchStats {
        attempted_moves,
        accepted_moves,
        passes,
        // Every attempt re-ran the full rebuild + evaluation (plus the
        // seed evaluation).
        full_evals: attempted_moves + 1,
        full_rebuilds: attempted_moves + 1,
        ..SearchStats::default()
    };
    RemapOutcome {
        locality: best_loc,
        schedule: best,
        stats,
        profile: PhaseProfile::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_model::builder::ModelBuilder;
    use h2h_model::tensor::TensorShape;
    use h2h_system::testutil::{const_system, ConstAccel};

    /// A chain whose middle layer starts on the "wrong" accelerator:
    /// compute there is marginally faster but both neighbours live
    /// elsewhere and the activations are huge.
    fn setup() -> (h2h_model::ModelGraph, h2h_system::SystemSpec, Mapping) {
        let mut b = ModelBuilder::new("r");
        let i = b.input("i", TensorShape::Vector { features: 65536 });
        let f1 = b.fc("f1", i, 65536).unwrap();
        let f2 = b.fc("f2", f1, 65536).unwrap();
        let f3 = b.fc("f3", f2, 64).unwrap();
        let _ = f3;
        let m = b.finish().unwrap();
        // acc1 is slightly faster per layer; Ethernet is slow, so a
        // 256 KiB activation round-trip (~0.5 s) dwarfs the 10 ms
        // compute advantage.
        let sys = const_system(
            vec![
                ConstAccel::universal("u0", 0.05),
                ConstAccel::universal("u1", 0.04),
            ],
            1e6,
        );
        let ids = m.topo_order();
        let mut map = Mapping::new(&m);
        map.set(ids[0], AccId::new(0));
        map.set(ids[1], AccId::new(0));
        map.set(ids[2], AccId::new(1)); // the misplaced layer
        map.set(ids[3], AccId::new(0));
        (m, sys, map)
    }

    #[test]
    fn remap_colocates_the_fc_chain() {
        let (m, sys, mut map) = setup();
        let ev = Evaluator::new(&m, &sys);
        let cfg = H2hConfig::default();
        let ids = m.topo_order();
        let before = {
            let loc = rebuild_locality(&ev, &map, &cfg, &PinPreset::new());
            ev.evaluate(&map, &loc).makespan()
        };
        let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut map);
        // The optimizer may gather the chain on either accelerator (the
        // mirror solutions tie up to compute speed); what matters is
        // that f1/f2/f3 end up together so both edges fuse.
        let accs: std::collections::HashSet<usize> =
            ids[1..].iter().map(|id| map.acc_of(*id).index()).collect();
        assert_eq!(accs.len(), 1, "f1/f2/f3 should co-locate, got {accs:?}");
        assert!(out.schedule.makespan() < before);
        assert!(out.accepted_moves() >= 1);
        assert!(out.passes() >= 1);
    }

    #[test]
    fn remapping_never_increases_latency() {
        // Invariant of the accept-only-if-better rule, checked on every
        // zoo model at the lowest bandwidth.
        use h2h_system::system::{BandwidthClass, SystemSpec};
        let sys = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig::default();
        for model in h2h_model::zoo::all_models().into_iter().take(3) {
            let ev = Evaluator::new(&model, &sys);
            let (mut mapping, _) =
                crate::compute_map::computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
            let before = {
                let loc = rebuild_locality(&ev, &mapping, &cfg, &PinPreset::new());
                ev.evaluate(&mapping, &loc).makespan()
            };
            let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut mapping);
            assert!(
                out.schedule.makespan() <= before,
                "{}: {} -> {}",
                model.name(),
                before,
                out.schedule.makespan()
            );
            mapping.validate(&model, &sys).unwrap();
        }
    }

    #[test]
    fn delta_loop_matches_reference_on_every_zoo_model() {
        // The acceptance contract of the incremental search core: final
        // mappings and latencies equal the historical per-candidate
        // full-re-evaluation implementation.
        use h2h_system::system::{BandwidthClass, SystemSpec};
        for bw in [BandwidthClass::LowMinus, BandwidthClass::Mid] {
            let sys = SystemSpec::standard(bw);
            let cfg = H2hConfig::default();
            for model in h2h_model::zoo::all_models() {
                let ev = Evaluator::new(&model, &sys);
                let (seed, _) =
                    crate::compute_map::computation_prioritized(&ev, &cfg, &PinPreset::new())
                        .unwrap();
                let mut map_delta = seed.clone();
                let mut map_ref = seed;
                let out_delta =
                    data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut map_delta);
                let out_ref =
                    data_locality_remapping_reference(&ev, &cfg, &PinPreset::new(), &mut map_ref);
                let d = out_delta.schedule.makespan().as_f64();
                let r = out_ref.schedule.makespan().as_f64();
                assert!(
                    d <= r + 1e-12,
                    "{} at {}: delta {} vs reference {}",
                    model.name(),
                    bw.label(),
                    d,
                    r
                );
                assert_eq!(
                    map_delta,
                    map_ref,
                    "{} at {}: delta and reference mappings diverged",
                    model.name(),
                    bw.label()
                );
            }
        }
    }

    #[test]
    fn delta_loop_matches_reference_on_other_objectives() {
        // The non-latency objectives score through the proxy's on-read
        // sums — assert they drive the same decisions as the
        // full-evaluation reference too.
        use crate::config::MapObjective;
        use h2h_system::system::{BandwidthClass, SystemSpec};
        let sys = SystemSpec::standard(BandwidthClass::LowMinus);
        for objective in [
            MapObjective::Energy,
            MapObjective::EnergyDelayProduct,
            MapObjective::Throughput,
        ] {
            let cfg = H2hConfig {
                objective,
                ..Default::default()
            };
            for model in [h2h_model::zoo::mocap(), h2h_model::zoo::cnn_lstm()] {
                let ev = Evaluator::new(&model, &sys);
                let (seed, _) =
                    crate::compute_map::computation_prioritized(&ev, &cfg, &PinPreset::new())
                        .unwrap();
                let mut map_delta = seed.clone();
                let mut map_ref = seed;
                let out_delta =
                    data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut map_delta);
                let out_ref =
                    data_locality_remapping_reference(&ev, &cfg, &PinPreset::new(), &mut map_ref);
                assert_eq!(
                    map_delta,
                    map_ref,
                    "{} under {:?}: delta and reference mappings diverged",
                    model.name(),
                    objective
                );
                assert_eq!(out_delta.stats.screened, 0, "the screen is latency-only");
                let d = cfg.objective.score(&out_delta.schedule);
                let r = cfg.objective.score(&out_ref.schedule);
                assert!(
                    d <= r + r.abs() * 1e-12,
                    "{} under {:?}: delta {} vs reference {}",
                    model.name(),
                    objective,
                    d,
                    r
                );
            }
        }
    }

    #[test]
    fn delta_loop_spends_far_fewer_full_evaluations() {
        // The perf contract: ≥5× fewer full schedule evaluations per
        // remap run than the one-per-attempt reference on VLocNet.
        use h2h_system::system::{BandwidthClass, SystemSpec};
        let sys = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig::default();
        let model = h2h_model::zoo::vlocnet();
        let ev = Evaluator::new(&model, &sys);
        let (mut mapping, _) =
            crate::compute_map::computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
        let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut mapping);
        assert!(
            out.stats.full_evals_saved_ratio() >= 5.0,
            "expected >=5x fewer full evals, got {:.2}x ({} attempts, {} full evals)",
            out.stats.full_evals_saved_ratio(),
            out.stats.attempted_moves,
            out.stats.full_evals
        );
        // Every attempted move is screened, scored on the delta engine
        // or scored by a full evaluation (beyond the finalization).
        let s = &out.stats;
        assert_eq!(
            s.screened + s.delta_evals + (s.full_evals - 1),
            s.attempted_moves
        );
        assert!(s.screened > 0, "the latency screen rejected nothing: {s:?}");
        assert!(
            out.stats.max_propagated <= model.num_layers(),
            "propagation cone cannot exceed the graph"
        );
    }

    #[test]
    fn zero_passes_config_is_a_no_op() {
        let (m, sys, mut map) = setup();
        let ev = Evaluator::new(&m, &sys);
        let cfg = H2hConfig {
            remap_max_passes: 0,
            ..Default::default()
        };
        let before = map.clone();
        let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut map);
        assert_eq!(map, before);
        assert_eq!(out.accepted_moves(), 0);
        assert_eq!(out.passes(), 0);
    }

    #[test]
    fn fixpoint_terminates_before_pass_bound() {
        let (m, sys, mut map) = setup();
        let ev = Evaluator::new(&m, &sys);
        let cfg = H2hConfig {
            remap_max_passes: 100,
            ..Default::default()
        };
        let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut map);
        assert!(out.passes() < 100, "tiny model must converge quickly");
    }

    #[test]
    fn energy_objective_never_increases_energy() {
        use crate::config::MapObjective;
        use h2h_system::system::{BandwidthClass, SystemSpec};
        let model = h2h_model::zoo::mocap();
        let sys = SystemSpec::standard(BandwidthClass::LowMinus);
        let ev = Evaluator::new(&model, &sys);
        let cfg = H2hConfig {
            objective: MapObjective::Energy,
            ..Default::default()
        };
        let (mut mapping, _) =
            crate::compute_map::computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
        let before = {
            let loc = rebuild_locality(&ev, &mapping, &cfg, &PinPreset::new());
            ev.evaluate(&mapping, &loc).energy().total()
        };
        let out = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut mapping);
        assert!(
            out.schedule.energy().total() <= before,
            "energy objective must not raise energy: {} -> {}",
            before,
            out.schedule.energy().total()
        );
    }

    #[test]
    fn throughput_objective_minimizes_the_bottleneck() {
        use crate::config::MapObjective;
        use h2h_system::system::{BandwidthClass, SystemSpec};
        let model = h2h_model::zoo::casia_surf();
        let sys = SystemSpec::standard(BandwidthClass::LowMinus);
        let run = |objective| {
            let cfg = H2hConfig {
                objective,
                ..Default::default()
            };
            crate::pipeline::H2hMapper::new(&model, &sys)
                .with_config(cfg)
                .run()
                .unwrap()
        };
        let lat_run = run(MapObjective::Latency);
        let thr_run = run(MapObjective::Throughput);
        assert!(
            thr_run.schedule.steady_state_throughput()
                >= lat_run.schedule.steady_state_throughput() - 1e-9,
            "throughput objective must not lose its own metric: {} vs {}",
            thr_run.schedule.steady_state_throughput(),
            lat_run.schedule.steady_state_throughput()
        );
        // Physics: pipelined throughput is at least one finished
        // inference per makespan.
        assert!(
            thr_run.schedule.steady_state_throughput()
                >= 1.0 / thr_run.final_latency().as_f64() - 1e-9
        );
    }

    #[test]
    fn energy_objective_trades_latency_for_joules() {
        use crate::config::MapObjective;
        use h2h_system::system::{BandwidthClass, SystemSpec};
        let model = h2h_model::zoo::cnn_lstm();
        let sys = SystemSpec::standard(BandwidthClass::LowMinus);
        let run = |objective| {
            let cfg = H2hConfig {
                objective,
                ..Default::default()
            };
            crate::pipeline::H2hMapper::new(&model, &sys)
                .with_config(cfg)
                .run()
                .unwrap()
        };
        let lat_run = run(MapObjective::Latency);
        let en_run = run(MapObjective::Energy);
        // Each objective wins (weakly) on its own metric.
        assert!(lat_run.final_latency() <= en_run.final_latency());
        assert!(en_run.final_energy() <= lat_run.final_energy());
    }
}
