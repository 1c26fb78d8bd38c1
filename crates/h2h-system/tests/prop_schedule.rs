//! Property tests on the scheduler stack: evaluator well-formedness on
//! random systems, incremental↔full equivalence, and event-sim
//! agreement, all over randomized FC-chain workloads and constant-cost
//! accelerators (exact arithmetic, no catalog noise); plus the flat cost
//! kernel against its pointer-chasing reference and the latency floor,
//! free or with producers fixed to a fusion outcome, against every
//! fusion set in its class, on zoo models with random mappings and pins.

use proptest::prelude::*;

use h2h_model::builder::ModelBuilder;
use h2h_model::graph::{LayerId, ModelGraph};
use h2h_model::tensor::TensorShape;
use h2h_model::units::Seconds;
use h2h_system::incremental::IncrementalSchedule;
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{Evaluator, FusionOutcome, LayerCost};
use h2h_system::sim::{simulate, SimConfig};
use h2h_system::system::AccId;
use h2h_system::testutil::{const_system, ConstAccel};

fn build_chains(branches: &[Vec<u32>]) -> ModelGraph {
    let mut b = ModelBuilder::new("prop-sys");
    let mut tails = Vec::new();
    for (bi, widths) in branches.iter().enumerate() {
        let mut prev = b.input(&format!("in{bi}"), TensorShape::Vector { features: 17 });
        for (i, w) in widths.iter().enumerate() {
            prev = b.fc(&format!("b{bi}f{i}"), prev, *w).unwrap();
        }
        tails.push(prev);
    }
    if tails.len() >= 2 {
        let cat = b.concat("cat", &tails).unwrap();
        b.fc("head", cat, 3).unwrap();
    } else {
        b.fc("head", tails[0], 3).unwrap();
    }
    b.finish().unwrap()
}

fn strategy() -> impl Strategy<Value = (ModelGraph, Vec<usize>, Vec<f64>)> {
    (
        proptest::collection::vec(proptest::collection::vec(1u32..700, 1..6), 1..4),
        proptest::collection::vec(0usize..4, 40),
        proptest::collection::vec(1e-4f64..5e-3, 4),
    )
        .prop_map(|(branches, picks, speeds)| (build_chains(&branches), picks, speeds))
}

fn setup(model: &ModelGraph, picks: &[usize], speeds: &[f64]) -> (h2h_system::SystemSpec, Mapping) {
    let sys = const_system(
        speeds
            .iter()
            .enumerate()
            .map(|(i, s)| ConstAccel::universal(&format!("u{i}"), *s))
            .collect(),
        2e6,
    );
    let mut map = Mapping::new(model);
    for (i, id) in model.topo_order().into_iter().enumerate() {
        map.set(
            id,
            AccId::new(picks.get(i).copied().unwrap_or(0) % speeds.len()),
        );
    }
    (sys, map)
}

/// A zoo model on the standard Low- system with `fabric`: every layer
/// on the supporting accelerator `picks` selects, and the weighted
/// layers `pin_mask` selects pinned where they are mapped (capacity
/// permitting). No edge is fused.
fn zoo_state(
    model: &ModelGraph,
    fabric: &str,
    picks: &[usize],
    pin_mask: &[bool],
) -> (h2h_system::SystemSpec, Mapping, LocalityState) {
    use h2h_system::system::{BandwidthClass, SystemSpec};
    let sys = SystemSpec::standard_with_topology(BandwidthClass::LowMinus, Some(fabric)).unwrap();
    let order = model.topo_order();
    let mut map = Mapping::new(model);
    for (i, id) in order.iter().copied().enumerate() {
        let supp: Vec<AccId> = sys
            .acc_ids()
            .filter(|a| sys.acc(*a).supports(model.layer(id)))
            .collect();
        map.set(id, supp[picks.get(i).copied().unwrap_or(0) % supp.len()]);
    }
    let mut loc = LocalityState::new(&sys);
    for (i, id) in order.iter().copied().enumerate() {
        if pin_mask.get(i).copied().unwrap_or(false) && model.layer(id).has_weights() {
            let _ = loc.try_pin(model, &sys, id, map.acc_of(id));
        }
    }
    (sys, map, loc)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn evaluator_invariants((model, picks, speeds) in strategy()) {
        let (sys, map) = setup(&model, &picks, &speeds);
        let ev = Evaluator::new(&model, &sys);
        let sched = ev.evaluate(&map, &LocalityState::new(&sys));
        let mut max = 0.0f64;
        for id in model.layer_ids() {
            let t = sched.timing(id).unwrap();
            prop_assert!(t.finish >= t.start);
            max = max.max(t.finish.as_f64());
            for p in model.predecessors(id) {
                prop_assert!(t.start.as_f64() >= sched.timing(p).unwrap().finish.as_f64() - 1e-15);
            }
        }
        prop_assert!((sched.makespan().as_f64() - max).abs() < 1e-15);
        // Busy accounting: the makespan can never exceed total busy time
        // and never undercuts the busiest accelerator.
        let busiest = sched.per_acc_busy().iter().map(|s| s.as_f64()).fold(0.0, f64::max);
        prop_assert!(sched.makespan().as_f64() >= busiest - 1e-12);
    }

    #[test]
    fn incremental_equals_full_after_random_changes(
        (model, picks, speeds) in strategy(),
        victims in proptest::collection::vec((0usize..64, 1e-5f64..1e-2), 1..5),
    ) {
        let (sys, map) = setup(&model, &picks, &speeds);
        let ev = Evaluator::new(&model, &sys);
        let loc = LocalityState::new(&sys);
        let mut inc = IncrementalSchedule::new(&ev, &map, &loc);

        // Re-cost random layers with compute-only costs (duration = the
        // compute term exactly) and propagate.
        let order = model.topo_order();
        let mut changed: Vec<(LayerId, Seconds)> = Vec::new();
        for (vi, d) in &victims {
            let layer = order[vi % order.len()];
            changed.push((layer, Seconds::new(*d)));
        }
        let mut seeds = Vec::new();
        for (l, d) in &changed {
            let cost = LayerCost { compute: *d, ..LayerCost::default() };
            inc.refresh_costs_into([*l], |_| cost, &mut seeds);
        }
        inc.propagate(&seeds);
        let mk_inc = inc.makespan().as_f64();

        // Reference: recompute the same recurrence from scratch.
        let full = ev.evaluate(&map, &loc);
        let mut dur: Vec<f64> = model
            .layer_ids()
            .map(|id| {
                let t = full.timing(id).unwrap();
                (t.finish - t.start).as_f64()
            })
            .collect::<Vec<_>>();
        // Dense index mapping (ids are dense for builder-made graphs).
        for (l, d) in &changed {
            dur[l.index()] = d.as_f64();
        }
        let mut finish = vec![0.0f64; model.id_bound()];
        let mut acc_ready = vec![0.0f64; sys.num_accs()];
        let mut mk_ref = 0.0f64;
        for id in model.topo_order() {
            let deps = model
                .predecessors(id)
                .map(|p| finish[p.index()])
                .fold(0.0f64, f64::max);
            let a = map.acc_of(id).index();
            let start = deps.max(acc_ready[a]);
            let end = start + dur[id.index()];
            finish[id.index()] = end;
            acc_ready[a] = end;
            mk_ref = mk_ref.max(end);
        }
        prop_assert!((mk_inc - mk_ref).abs() < 1e-12, "incremental {mk_inc} vs reference {mk_ref}");
    }

    #[test]
    fn random_star_topologies_keep_incremental_and_sim_exact(
        (model, picks, speeds) in strategy(),
        links in proptest::collection::vec(5e5f64..5e6, 4),
        host in 5e5f64..5e6,
        moves in proptest::collection::vec((0usize..64, 0usize..4), 1..6),
    ) {
        // Per-link rates: after arbitrary move/refresh/propagate
        // sequences the incremental schedule must still equal a fresh
        // full evaluation, and the dedicated-link event sim must agree
        // with the analytical makespan — the whole evaluator/delta/sim
        // triangle stays exact on non-uniform fabrics.
        use h2h_model::units::BytesPerSec;
        use h2h_system::topology::Topology;
        let (sys, mut map) = setup(&model, &picks, &speeds);
        let n = sys.num_accs();
        let topo = Topology::star(
            BytesPerSec::new(host),
            links.iter().take(n).map(|r| BytesPerSec::new(*r)).collect(),
        );
        let sys = sys.with_topology(topo);
        let ev = Evaluator::new(&model, &sys);
        let loc = LocalityState::new(&sys);
        let mut inc = IncrementalSchedule::new(&ev, &map, &loc);
        let order = model.topo_order();
        for (vi, acc) in &moves {
            let layer = order[vi % order.len()];
            let to = AccId::new(acc % n);
            if map.acc_of(layer) == to {
                continue;
            }
            map.set(layer, to);
            let mut seeds = inc.move_layer(layer, to);
            seeds.extend(inc.refresh_costs(&ev, &map, &loc, model.layer_ids()));
            inc.propagate(&seeds);
        }
        inc.assert_matches_full(&ev, &map, &loc);
        let analytic = ev.evaluate(&map, &loc).makespan().as_f64();
        let mk_inc = inc.makespan().as_f64();
        prop_assert!((analytic - mk_inc).abs() <= analytic.max(1e-12) * 1e-12);
        let sim = simulate(&model, &sys, &map, &loc, SimConfig::dedicated()).makespan().as_f64();
        prop_assert!(
            (analytic - sim).abs() <= analytic.max(1e-12) * 1e-6,
            "analytic {analytic} vs sim {sim}"
        );
    }

    #[test]
    fn flat_layer_cost_is_bitwise_equal_to_pointer_chasing_reference(
        model_sel in 0usize..8,
        fabric_sel in 0usize..3,
        batch_sel in 0usize..3,
        picks in proptest::collection::vec(0usize..64, 160),
        pin_mask in proptest::collection::vec(any::<bool>(), 160),
        fuse_mask in proptest::collection::vec(any::<bool>(), 320),
        keep_mask in proptest::collection::vec(any::<bool>(), 160),
    ) {
        // The SoA kernel (`layer_cost`) must reproduce the retained
        // pointer-chasing implementation (`layer_cost_reference`)
        // *bitwise* — every `LayerCost` field, not just the makespan —
        // across the zoo, the three bench fabrics, random valid
        // mappings, random pin/fuse states and serving batch sizes.
        let models = h2h_model::zoo::all_models();
        let model = &models[model_sel % models.len()];
        let fabric = ["uniform", "skewed", "switched"][fabric_sel];
        let (sys, map, mut loc) = zoo_state(model, fabric, &picks, &pin_mask);
        let batch = [1u32, 4, 16][batch_sel];
        let order = model.topo_order();
        for (i, (from, to, _)) in model.edges().enumerate() {
            if fuse_mask.get(i).copied().unwrap_or(false) && map.acc_of(from) == map.acc_of(to) {
                let _ = loc.try_fuse(model, &sys, from, to, map.acc_of(from));
            }
        }

        let ev = Evaluator::new(model, &sys).with_batch(batch);
        for id in order.iter().copied() {
            let flat = ev.layer_cost(&map, &loc, id);
            let reference = ev.layer_cost_reference(&map, &loc, id);
            prop_assert_eq!(flat, reference, "layer {:?} on {}/{}", id, model.name(), fabric);
        }

        // Partially mapped states (the frontier search of step 1):
        // unmapped producers and consumers route through the host in
        // both implementations.
        let mut partial = Mapping::new(model);
        for (i, id) in order.iter().copied().enumerate() {
            if keep_mask.get(i).copied().unwrap_or(true) {
                partial.set(id, map.acc_of(id));
            }
        }
        let empty = LocalityState::new(&sys);
        for (i, id) in order.iter().copied().enumerate() {
            if keep_mask.get(i).copied().unwrap_or(true) {
                let flat = ev.layer_cost(&partial, &empty, id);
                let reference = ev.layer_cost_reference(&partial, &empty, id);
                prop_assert_eq!(flat, reference, "partial layer {:?} on {}", id, model.name());
            }
        }
    }

    #[test]
    fn layer_cost_floor_bounds_every_fusion_set(
        model_sel in 0usize..8,
        fabric_sel in 0usize..3,
        batch_sel in 0usize..3,
        picks in proptest::collection::vec(0usize..2, 160),
        pin_mask in proptest::collection::vec(any::<bool>(), 160),
        fuse_mask in proptest::collection::vec(any::<bool>(), 320),
        fix_mask in proptest::collection::vec(any::<bool>(), 160),
    ) {
        // With the pins fixed, the floor kernel must bound the exact
        // duration of every layer, and the floor schedule the exact
        // makespan, under any fusion set step 3 could pick: none, a
        // random subset of the co-located edges, and all of them
        // (capacity permitting). With every producer free the floor
        // covers all three sets. A producer fixed to the class a set
        // puts it in (some co-located consumer fused, or none) must
        // still bound that set: checked with a random choice of
        // producers fixed and with all of them. Picking among two
        // accelerators per layer co-locates many edges, so producers
        // with co-located and remote consumers are common: the case
        // where the OFM floor needs both of its branches.
        let models = h2h_model::zoo::all_models();
        let model = &models[model_sel % models.len()];
        let fabric = ["uniform", "skewed", "switched"][fabric_sel];
        let (sys, map, pins) = zoo_state(model, fabric, &picks, &pin_mask);
        let ev = Evaluator::new(model, &sys).with_batch([1u32, 4, 16][batch_sel]);
        let order = model.topo_order();
        let floor_of = |outcomes: &[FusionOutcome]| {
            let durations: Vec<Seconds> = order
                .iter()
                .map(|id| ev.layer_cost_floor(&map, &pins, outcomes, *id).duration())
                .collect();
            let makespan = IncrementalSchedule::from_costs(&ev, &map, |id| {
                ev.layer_cost_floor(&map, &pins, outcomes, id)
            })
            .makespan();
            (durations, makespan)
        };
        let free = vec![FusionOutcome::Free; model.id_bound()];
        let colocated: Vec<(LayerId, LayerId)> = model
            .edges()
            .map(|(f, t, _)| (f, t))
            .filter(|(f, t)| map.acc_of(*f) == map.acc_of(*t))
            .collect();
        // Fusion subsets: none, the masked ones, all.
        for subset in 0..3 {
            let mut loc = pins.clone();
            for (i, (f, t)) in colocated.iter().enumerate() {
                if subset == 2 || (subset == 1 && fuse_mask[i % fuse_mask.len()]) {
                    let _ = loc.try_fuse(model, &sys, *f, *t, map.acc_of(*f));
                }
            }
            let mut class = vec![FusionOutcome::Unfused; model.id_bound()];
            for (f, t) in &colocated {
                if loc.is_fused(*f, *t) {
                    class[f.index()] = FusionOutcome::Fused;
                }
            }
            let masked: Vec<FusionOutcome> = class
                .iter()
                .enumerate()
                .map(|(i, c)| if fix_mask[i % fix_mask.len()] { *c } else { FusionOutcome::Free })
                .collect();
            let exact: Vec<Seconds> =
                order.iter().map(|id| ev.layer_cost(&map, &loc, *id).duration()).collect();
            let exact_makespan = ev.evaluate(&map, &loc).makespan();
            for (fixed, outcomes) in [("none", &free), ("some", &masked), ("all", &class)] {
                let (floors, floor_makespan) = floor_of(outcomes);
                for ((id, floor), exact) in order.iter().zip(&floors).zip(&exact) {
                    prop_assert!(
                        floor <= exact,
                        "layer {:?} of {} on {}, subset {}, {} fixed: floor {} above exact {}",
                        id, model.name(), fabric, subset, fixed, floor, exact
                    );
                }
                prop_assert!(
                    floor_makespan <= exact_makespan,
                    "{} on {}, subset {}, {} fixed: floor makespan {} above exact {}",
                    model.name(), fabric, subset, fixed, floor_makespan, exact_makespan
                );
                if subset == 0 && fixed == "all" {
                    // Every producer unfused: the floor is the exact
                    // cost of the empty fusion set, bitwise.
                    prop_assert!(floors == exact, "{} on {}: unfused floor not exact", model.name(), fabric);
                    prop_assert!(floor_makespan == exact_makespan);
                }
            }
        }
    }

    #[test]
    fn sim_matches_analytic_with_random_locality(
        (model, picks, speeds) in strategy(),
        pin_mask in proptest::collection::vec(any::<bool>(), 40),
        fuse_mask in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let (sys, map) = setup(&model, &picks, &speeds);
        let mut loc = LocalityState::new(&sys);
        for (i, id) in model.topo_order().into_iter().enumerate() {
            if pin_mask.get(i).copied().unwrap_or(false) && model.layer(id).has_weights() {
                let _ = loc.try_pin(&model, &sys, id, map.acc_of(id));
            }
        }
        for (i, (from, to, _)) in model.edges().enumerate() {
            if fuse_mask.get(i).copied().unwrap_or(false) && map.acc_of(from) == map.acc_of(to) {
                let _ = loc.try_fuse(&model, &sys, from, to, map.acc_of(from));
            }
        }
        let ev = Evaluator::new(&model, &sys);
        let analytic = ev.evaluate(&map, &loc).makespan().as_f64();
        let sim = simulate(&model, &sys, &map, &loc, SimConfig::dedicated()).makespan().as_f64();
        prop_assert!(
            (analytic - sim).abs() <= analytic.max(1e-12) * 1e-6,
            "analytic {analytic} vs sim {sim}"
        );
    }
}
