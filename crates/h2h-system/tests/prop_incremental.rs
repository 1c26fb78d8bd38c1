//! Property tests of the incremental delta engine against the full
//! evaluator: over every zoo model × every bandwidth class, randomized
//! move sequences (re-queue a layer onto another capable accelerator,
//! refresh its costs, propagate the affected cone) must reproduce the
//! full evaluation's start/finish times and schedule proxy bitwise —
//! and rollback must restore the exact pre-move state.

use proptest::prelude::*;

use h2h_model::graph::{LayerId, ModelGraph};
use h2h_system::incremental::IncrementalSchedule;
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::Evaluator;
use h2h_system::system::{AccId, BandwidthClass, SystemSpec};

/// First-capable-accelerator mapping (valid for every zoo model on the
/// standard system).
fn base_mapping(model: &ModelGraph, system: &SystemSpec) -> Mapping {
    let mut mapping = Mapping::new(model);
    for (id, layer) in model.layers() {
        let acc = system
            .acc_ids()
            .find(|a| system.acc(*a).supports(layer))
            .expect("standard system supports every zoo layer");
        mapping.set(id, acc);
    }
    mapping
}

/// Applies one randomized move through the delta path: re-queue,
/// refresh both touched accelerators' layers, propagate.
fn apply_move(
    inc: &mut IncrementalSchedule,
    ev: &Evaluator<'_>,
    mapping: &mut Mapping,
    loc: &LocalityState,
    layer: LayerId,
    to: AccId,
) {
    let from = mapping.acc_of(layer);
    mapping.set(layer, to);
    let mut seeds = inc.move_layer(layer, to);
    let dirty: Vec<LayerId> = inc
        .queue(from)
        .iter()
        .chain(inc.queue(to).iter())
        .copied()
        .collect();
    seeds.extend(inc.refresh_costs(ev, mapping, loc, dirty));
    inc.propagate(&seeds);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    #[test]
    fn randomized_move_sequences_match_full_evaluation(
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 12),
    ) {
        for model in h2h_model::zoo::all_models() {
            for bw in BandwidthClass::ALL {
                let system = SystemSpec::standard(bw);
                let ev = Evaluator::new(&model, &system);
                let mut mapping = base_mapping(&model, &system);
                // Random (but capacity-valid) pins exercise the
                // weight-term branch of the cost derivation.
                let mut loc = LocalityState::new(&system);
                for (k, id) in model.topo_order().into_iter().enumerate() {
                    if k % 3 == 0 && model.layer(id).has_weights() {
                        let _ = loc.try_pin(&model, &system, id, mapping.acc_of(id));
                    }
                }
                let mut inc = IncrementalSchedule::new(&ev, &mapping, &loc);
                let layers = model.topo_order();
                for (layer_pick, acc_pick) in &picks {
                    let layer = layers[layer_pick % layers.len()];
                    // Moving a pinned layer would strand its pin on the
                    // old accelerator; production strips pins first, so
                    // the equivalence exercise skips those layers.
                    if loc.is_pinned(layer) {
                        continue;
                    }
                    let capable: Vec<AccId> = system
                        .acc_ids()
                        .filter(|a| system.acc(*a).supports(model.layer(layer)))
                        .collect();
                    let to = capable[acc_pick % capable.len()];
                    if to == mapping.acc_of(layer) {
                        continue;
                    }
                    apply_move(&mut inc, &ev, &mut mapping, &loc, layer, to);
                }
                inc.assert_matches_full(&ev, &mapping, &loc);
                // The proxy sums the per-layer state in the evaluator's
                // order: every quantity equals the full schedule's bitwise.
                let full = ev.evaluate(&mapping, &loc);
                let proxy = inc.proxy();
                let at = format!("{} at {}", model.name(), bw.label());
                prop_assert!(proxy.makespan == full.makespan(), "{at}: makespan");
                prop_assert!(
                    proxy.energy_total == full.energy().total().as_f64(),
                    "{at}: energy {} vs {}",
                    proxy.energy_total,
                    full.energy().total().as_f64()
                );
                prop_assert!(proxy.bottleneck_busy == full.bottleneck_busy(), "{at}: bottleneck");
            }
        }
    }

    #[test]
    fn savepoint_toggle_then_fast_revert_equals_never_toggled(
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 5),
        toggles in proptest::collection::vec(any::<usize>(), 4),
    ) {
        // The O(cone) guard-revert contract: after random moves inside a
        // transaction, mark a savepoint, apply toggle-like mutations
        // (cost refreshes against a perturbed locality + propagation),
        // and roll back to the savepoint — timings, durations, queues,
        // proxy and makespan must all equal the never-toggled state
        // bitwise. A full rollback afterwards must still restore the
        // pre-transaction state exactly (savepoint entries must not
        // corrupt the outer undo log).
        for model in h2h_model::zoo::all_models() {
            let system = SystemSpec::standard(BandwidthClass::LowMinus);
            let ev = Evaluator::new(&model, &system);
            let mut mapping = base_mapping(&model, &system);
            let loc = LocalityState::new(&system);
            let mut inc = IncrementalSchedule::new(&ev, &mapping, &loc);
            let reference = inc.clone();
            let layers = model.topo_order();

            inc.begin();
            for (layer_pick, acc_pick) in &picks {
                let layer = layers[layer_pick % layers.len()];
                let capable: Vec<AccId> = system
                    .acc_ids()
                    .filter(|a| system.acc(*a).supports(model.layer(layer)))
                    .collect();
                let to = capable[acc_pick % capable.len()];
                if to == mapping.acc_of(layer) {
                    continue;
                }
                apply_move(&mut inc, &ev, &mut mapping, &loc, layer, to);
            }
            let at_savepoint = inc.clone();
            let sp = inc.savepoint();

            // Toggle-like mutations: pin-perturbed cost refreshes plus
            // propagation, exactly the shape of a risky-guard toggle.
            let mut toggled_loc = loc.clone();
            for layer_pick in &toggles {
                let layer = layers[layer_pick % layers.len()];
                if model.layer(layer).has_weights() {
                    let _ = toggled_loc.try_pin(&model, &system, layer, mapping.acc_of(layer));
                }
            }
            let seeds = inc.refresh_costs(&ev, &mapping, &toggled_loc, model.layer_ids());
            inc.propagate(&seeds);

            inc.rollback_to(&sp);
            prop_assert!(inc.makespan() == at_savepoint.makespan());
            for id in model.layer_ids() {
                prop_assert!(inc.start_of(id) == at_savepoint.start_of(id));
                prop_assert!(inc.finish_of(id) == at_savepoint.finish_of(id));
                prop_assert!(inc.duration_of(id) == at_savepoint.duration_of(id));
            }
            for acc in system.acc_ids() {
                prop_assert!(inc.queue(acc) == at_savepoint.queue(acc));
            }
            prop_assert!(inc.proxy() == at_savepoint.proxy());

            // Nested savepoints, as the latency screen's split takes
            // them: mutate, mark an inner savepoint, mutate back, then
            // roll back to the inner one and to the outer one again.
            let seeds = inc.refresh_costs(&ev, &mapping, &toggled_loc, model.layer_ids());
            inc.propagate(&seeds);
            let at_inner = inc.clone();
            let inner = inc.savepoint();
            let seeds = inc.refresh_costs(&ev, &mapping, &loc, model.layer_ids());
            inc.propagate(&seeds);
            inc.rollback_to(&inner);
            prop_assert!(inc.makespan() == at_inner.makespan());
            prop_assert!(inc.proxy() == at_inner.proxy());
            inc.rollback_to(&sp);
            prop_assert!(inc.makespan() == at_savepoint.makespan());
            for id in model.layer_ids() {
                prop_assert!(inc.finish_of(id) == at_savepoint.finish_of(id));
                prop_assert!(inc.duration_of(id) == at_savepoint.duration_of(id));
            }
            prop_assert!(inc.proxy() == at_savepoint.proxy());

            // Touches after the savepoint revert must journal correctly,
            // including through a savepoint that is *committed* (never
            // rolled back — its duplicate journal entries exercise the
            // reverse-order outer rollback): mutate again under a fresh
            // savepoint, keep it, then fully roll back to the
            // pre-transaction state.
            let _committed = inc.savepoint();
            let seeds = inc.refresh_costs(&ev, &mapping, &toggled_loc, model.layer_ids());
            inc.propagate(&seeds);
            inc.rollback();
            prop_assert!(inc.makespan() == reference.makespan());
            for id in model.layer_ids() {
                prop_assert!(inc.finish_of(id) == reference.finish_of(id));
                prop_assert!(inc.duration_of(id) == reference.duration_of(id));
            }
            for acc in system.acc_ids() {
                prop_assert!(inc.queue(acc) == reference.queue(acc));
            }
            prop_assert!(inc.proxy() == reference.proxy());
        }
    }

    #[test]
    fn transactional_moves_roll_back_to_exact_state(
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 6),
    ) {
        for model in h2h_model::zoo::all_models() {
            let system = SystemSpec::standard(BandwidthClass::LowMinus);
            let ev = Evaluator::new(&model, &system);
            let mut mapping = base_mapping(&model, &system);
            let loc = LocalityState::new(&system);
            let mut inc = IncrementalSchedule::new(&ev, &mapping, &loc);
            let reference = inc.clone();
            let reference_mapping = mapping.clone();

            inc.begin();
            let layers = model.topo_order();
            for (layer_pick, acc_pick) in &picks {
                let layer = layers[layer_pick % layers.len()];
                let capable: Vec<AccId> = system
                    .acc_ids()
                    .filter(|a| system.acc(*a).supports(model.layer(layer)))
                    .collect();
                let to = capable[acc_pick % capable.len()];
                if to == mapping.acc_of(layer) {
                    continue;
                }
                apply_move(&mut inc, &ev, &mut mapping, &loc, layer, to);
            }
            inc.rollback();
            mapping = reference_mapping;
            let _ = &mapping;

            prop_assert!(inc.makespan() == reference.makespan());
            for id in model.layer_ids() {
                prop_assert!(inc.finish_of(id) == reference.finish_of(id));
                prop_assert!(inc.duration_of(id) == reference.duration_of(id));
            }
            for acc in system.acc_ids() {
                prop_assert!(inc.queue(acc) == reference.queue(acc));
            }
            prop_assert!(inc.proxy() == reference.proxy());
        }
    }
}
