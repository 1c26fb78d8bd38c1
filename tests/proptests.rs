//! Property-based tests over randomly generated MMMT-shaped DAGs:
//! schedule well-formedness, locality monotonicity, analytic↔event-sim
//! agreement, delta search ↔ full-re-evaluation reference, staged delta
//! scores ↔ full evaluation under every objective, the latency floor ↔
//! the rebuilt makespan and the floor's split ↔ exact scores on random
//! fabrics, and full-pipeline invariants on arbitrary inputs.

use proptest::prelude::*;

use h2h::core::{H2hConfig, H2hMapper, MapObjective, ACCEPT_EPSILON};
use h2h::model::builder::ModelBuilder;
use h2h::model::graph::{LayerId, ModelGraph};
use h2h::model::tensor::TensorShape;
use h2h::model::units::Seconds;
use h2h::system::{
    simulate, AccId, BandwidthClass, Evaluator, LocalityState, Mapping, SimConfig, SystemSpec,
};

/// A recipe for one extra layer appended to a random model.
#[derive(Debug, Clone)]
enum Grow {
    /// `fc(width)` from the node at `from % existing`.
    Fc { from: usize, width: u16 },
    /// Concat of two earlier nodes.
    Concat { a: usize, b: usize },
}

fn grow_strategy() -> impl Strategy<Value = Grow> {
    prop_oneof![
        (any::<usize>(), 16u16..2048).prop_map(|(from, width)| Grow::Fc { from, width }),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Grow::Concat { a, b }),
    ]
}

/// Builds a random (but always valid) vector-shaped MMMT DAG with
/// 1–3 modality inputs and up to 18 grown layers plus a fusion head.
fn random_model(inputs: usize, widths: Vec<u16>, grows: Vec<Grow>) -> ModelGraph {
    let mut b = ModelBuilder::new("prop");
    let mut nodes: Vec<LayerId> = Vec::new();
    for (i, w) in widths.iter().take(inputs).enumerate() {
        b.modality(Some(&format!("m{i}")));
        nodes.push(b.input(
            &format!("in{i}"),
            TensorShape::Vector { features: *w as u32 + 1 },
        ));
    }
    b.modality(None);
    for (k, g) in grows.iter().enumerate() {
        match g {
            Grow::Fc { from, width } => {
                let src = nodes[from % nodes.len()];
                let id = b
                    .fc(&format!("fc{k}"), src, *width as u32 + 1)
                    .expect("fc always shape-valid");
                nodes.push(id);
            }
            Grow::Concat { a, b: bb } => {
                let na = nodes[a % nodes.len()];
                let nb = nodes[bb % nodes.len()];
                if na == nb {
                    continue;
                }
                // Duplicate edges are rejected; skip those combinations.
                if let Ok(id) = b.concat(&format!("cat{k}"), &[na, nb]) {
                    nodes.push(id);
                }
            }
        }
    }
    // A head depending on the last node keeps the graph connected-ish.
    let last = *nodes.last().expect("at least one input");
    b.fc("head", last, 8).expect("head fc");
    b.finish().expect("random models are valid by construction")
}

fn model_strategy() -> impl Strategy<Value = ModelGraph> {
    (
        1usize..=3,
        proptest::collection::vec(8u16..512, 3),
        proptest::collection::vec(grow_strategy(), 1..18),
    )
        .prop_map(|(inputs, widths, grows)| random_model(inputs, widths, grows))
}

/// The standard Low- system on a star whose host NIC (`classes[0]`)
/// and board links (`classes[1..]`) each run at an independently drawn
/// bandwidth class.
fn random_star(classes: &[usize]) -> SystemSpec {
    let rate = |i: usize| BandwidthClass::ALL[classes[i]].bandwidth();
    let base = SystemSpec::standard(BandwidthClass::LowMinus);
    let links = (0..base.num_accs()).map(|a| rate(1 + a)).collect();
    base.with_topology(h2h::system::Topology::star(rate(0), links))
}

/// One of four fixed full-size DAG recipes (`seed` 0–3), drawn from a
/// fixed xorshift stream so they cannot drift with the test RNG.
fn fixed_random_dag(seed: u64) -> ModelGraph {
    let mut next = xorshift(seed);
    let grows: Vec<Grow> = (0..18)
        .map(|_| match next() % 3 {
            0 => Grow::Concat {
                a: next(),
                b: next(),
            },
            _ => Grow::Fc {
                from: next(),
                width: (16 + next() % 2000) as u16,
            },
        })
        .collect();
    let widths = (0..3).map(|_| (8 + next() % 500) as u16).collect();
    random_model(1 + seed as usize % 3, widths, grows)
}

/// A fixed xorshift stream per seed.
fn xorshift(seed: u64) -> impl FnMut() -> usize {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as usize
    }
}

/// Random-but-valid mapping: every layer to a capable accelerator picked
/// by an index stream.
fn any_mapping(model: &ModelGraph, system: &SystemSpec, picks: &[usize]) -> Mapping {
    let ev = Evaluator::new(model, system);
    let mut mapping = Mapping::new(model);
    for (i, id) in model.topo_order().into_iter().enumerate() {
        let capable: Vec<AccId> = system
            .acc_ids()
            .filter(|a| ev.cache().time(id, *a).is_some())
            .collect();
        let pick = picks.get(i).copied().unwrap_or(0) % capable.len();
        mapping.set(id, capable[pick]);
    }
    mapping
}

/// Runs step 4's search walk on the delta engine — layers in
/// topological order, each one's neighbour boards in ascending order,
/// the first improving move taken, until a pass accepts nothing — and
/// asserts that every move the latency screen's split on fusion
/// outcomes rejects fails the accept rule when staged and scored
/// exactly. Returns the search counters.
fn split_search_is_sound(model: &ModelGraph, system: &SystemSpec) -> h2h::core::SearchStats {
    use h2h::core::compute_map::computation_prioritized;
    use h2h::core::preset::PinPreset;
    use h2h::core::DeltaEngine;
    let ev = Evaluator::new(model, system);
    let cfg = H2hConfig::default();
    let preset = PinPreset::new();
    let (mut mapping, _) = computation_prioritized(&ev, &cfg, &preset).unwrap();
    let mut engine = DeltaEngine::new(&ev, &cfg, &preset, &mapping);
    let mut accs: Vec<AccId> = Vec::new();
    for _ in 0..cfg.remap_max_passes {
        let mut improved = false;
        for layer in model.topo_order() {
            let here = mapping.acc_of(layer);
            accs.clear();
            accs.extend(
                model
                    .predecessors(layer)
                    .chain(model.successors(layer))
                    .map(|n| mapping.acc_of(n))
                    .filter(|a| *a != here && system.acc(*a).supports(model.layer(layer))),
            );
            accs.sort_unstable();
            accs.dedup();
            for &to in &accs {
                let split_before = engine.stats.split_screened;
                if engine.try_improving_move(&mut mapping, layer, to) {
                    improved = true;
                    break;
                }
                if engine.stats.split_screened > split_before {
                    let best = engine.score();
                    let exact = engine.stage_move(&mut mapping, layer, to);
                    let accepted = exact + ACCEPT_EPSILON < best;
                    assert!(
                        !accepted,
                        "split rejected {layer:?} -> {to:?}, whose exact score {exact} beats {best}"
                    );
                    engine.reject_staged(&mut mapping);
                }
            }
        }
        if !improved {
            break;
        }
    }
    engine.stats
}

#[test]
fn split_search_rejects_moves_on_fixed_random_dags() {
    // The property below holds vacuously if the split never rejects a
    // move. Pin that it does: four full-size DAG recipes on the uniform
    // Low- star.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let mut split = 0;
    for seed in 0..4u64 {
        split += split_search_is_sound(&fixed_random_dag(seed), &system).split_screened;
    }
    assert!(split > 0, "the split rejected no move on any recipe");
}

/// The objectives step 4 can search under.
const OBJECTIVES: [MapObjective; 4] = [
    MapObjective::Latency,
    MapObjective::Energy,
    MapObjective::EnergyDelayProduct,
    MapObjective::Throughput,
];

/// Stages a walk of moves on the delta engine under `objective` from
/// the step-1 mapping. Each step moves layer `pick_layer` (mod the
/// layer count, in topological order) to another capable board
/// (`pick_board` mod their count) and keeps or undoes the move as
/// `accept` says, whatever its score, as the annealer's Metropolis rule
/// may. Asserts that every staged score equals, bitwise, the
/// objective's score of a full locality rebuild and evaluation of the
/// moved mapping, and returns the engine's counters.
fn staged_walk_matches_full_evaluation(
    model: &ModelGraph,
    system: &SystemSpec,
    objective: MapObjective,
    walk: &[(usize, usize, bool)],
) -> h2h::core::SearchStats {
    use h2h::core::activation_fusion::rebuild_locality;
    use h2h::core::compute_map::computation_prioritized;
    use h2h::core::preset::PinPreset;
    use h2h::core::DeltaEngine;
    let ev = Evaluator::new(model, system);
    let cfg = H2hConfig {
        objective,
        ..H2hConfig::default()
    };
    let preset = PinPreset::new();
    let layers = model.topo_order();
    let (mut mapping, _) = computation_prioritized(&ev, &cfg, &preset).unwrap();
    let mut engine = DeltaEngine::new(&ev, &cfg, &preset, &mapping);
    let mut boards: Vec<AccId> = Vec::new();
    for &(pick_layer, pick_board, accept) in walk {
        let layer = layers[pick_layer % layers.len()];
        let here = mapping.acc_of(layer);
        boards.clear();
        boards.extend(
            system
                .acc_ids()
                .filter(|a| *a != here && ev.cache().time(layer, *a).is_some()),
        );
        if boards.is_empty() {
            continue;
        }
        let to = boards[pick_board % boards.len()];
        let staged = engine.stage_move(&mut mapping, layer, to);
        let loc = rebuild_locality(&ev, &mapping, &cfg, &preset);
        let full = objective.score(&ev.evaluate(&mapping, &loc));
        assert_eq!(
            staged.to_bits(),
            full.to_bits(),
            "{objective:?}: {layer:?} -> {to:?} staged {staged}, full evaluation {full}"
        );
        if accept {
            engine.accept_staged();
        } else {
            engine.reject_staged(&mut mapping);
        }
    }
    engine.stats
}

#[test]
fn staged_walks_reach_risky_guards_on_fixed_random_dags() {
    // The walk property below holds vacuously for the guard path if no
    // walk meets a risky guard. Pin that walks on the four fixed
    // recipes do, and that the dominance proof resolves some of them.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let mut stats = h2h::core::SearchStats::default();
    for seed in 0..4u64 {
        let model = fixed_random_dag(seed);
        let mut next = xorshift(seed + 100);
        let walk: Vec<(usize, usize, bool)> = (0..64)
            .map(|_| (next(), next(), next().is_multiple_of(2)))
            .collect();
        for objective in OBJECTIVES {
            stats.absorb(&staged_walk_matches_full_evaluation(
                &model, &system, objective, &walk,
            ));
        }
    }
    assert!(
        stats.guards_total > 0,
        "no walk met a risky guard: {stats:?}"
    );
    assert!(
        stats.guards_skipped > 0,
        "no guard resolved by dominance: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn schedules_respect_dependencies_on_random_models(
        model in model_strategy(),
        picks in proptest::collection::vec(0usize..12, 32),
    ) {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mapping = any_mapping(&model, &system, &picks);
        mapping.validate(&model, &system).unwrap();
        let ev = Evaluator::new(&model, &system);
        let sched = ev.evaluate(&mapping, &LocalityState::new(&system));
        let mut max_finish = Seconds::ZERO;
        for id in model.layer_ids() {
            let t = sched.timing(id).unwrap();
            prop_assert!(t.finish >= t.start);
            max_finish = max_finish.max(t.finish);
            for p in model.predecessors(id) {
                prop_assert!(t.start.as_f64() >= sched.timing(p).unwrap().finish.as_f64() - 1e-12);
            }
        }
        prop_assert!((sched.makespan().as_f64() - max_finish.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn locality_only_helps_on_random_models(
        model in model_strategy(),
        picks in proptest::collection::vec(0usize..12, 32),
    ) {
        use h2h::core::activation_fusion::rebuild_locality;
        use h2h::core::preset::PinPreset;
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mapping = any_mapping(&model, &system, &picks);
        let ev = Evaluator::new(&model, &system);
        let bare = ev.evaluate(&mapping, &LocalityState::new(&system));
        let loc = rebuild_locality(&ev, &mapping, &H2hConfig::default(), &PinPreset::new());
        let opt = ev.evaluate(&mapping, &loc);
        prop_assert!(
            opt.makespan().as_f64() <= bare.makespan().as_f64() + 1e-12,
            "locality increased latency: {} -> {}", bare.makespan(), opt.makespan()
        );
    }

    #[test]
    fn sim_agrees_with_analytic_on_random_instances(
        model in model_strategy(),
        picks in proptest::collection::vec(0usize..12, 32),
    ) {
        use h2h::core::activation_fusion::rebuild_locality;
        use h2h::core::preset::PinPreset;
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let mapping = any_mapping(&model, &system, &picks);
        let ev = Evaluator::new(&model, &system);
        let loc = rebuild_locality(&ev, &mapping, &H2hConfig::default(), &PinPreset::new());
        let analytic = ev.evaluate(&mapping, &loc).makespan().as_f64();
        let sim = simulate(&model, &system, &mapping, &loc, SimConfig::dedicated())
            .makespan()
            .as_f64();
        prop_assert!(
            (analytic - sim).abs() <= analytic.max(1e-12) * 1e-6,
            "analytic {analytic} vs sim {sim}"
        );
    }

    #[test]
    fn delta_search_matches_reference_on_random_star_fabrics(
        model in model_strategy(),
        classes in proptest::collection::vec(0usize..BandwidthClass::ALL.len(), 13),
    ) {
        // Host NIC and every board link at an independently drawn
        // bandwidth class: per-route rates make a move re-price its
        // neighbours' transfers, which the delta engine must refresh.
        use h2h::core::compute_map::computation_prioritized;
        use h2h::core::preset::PinPreset;
        use h2h::core::remap::{data_locality_remapping, data_locality_remapping_reference};
        let system = random_star(&classes);
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        let (seed, _) = computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
        let mut map_delta = seed.clone();
        let mut map_ref = seed;
        let delta = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut map_delta);
        let reference =
            data_locality_remapping_reference(&ev, &cfg, &PinPreset::new(), &mut map_ref);
        prop_assert_eq!(map_delta, map_ref);
        prop_assert_eq!(
            delta.schedule.makespan().as_f64().to_bits(),
            reference.schedule.makespan().as_f64().to_bits()
        );
    }

    #[test]
    fn floor_schedule_bounds_the_rebuilt_makespan_on_random_star_fabrics(
        model in model_strategy(),
        classes in proptest::collection::vec(0usize..BandwidthClass::ALL.len(), 13),
        picks in proptest::collection::vec(0usize..3, 32),
    ) {
        // The step-4 latency screen's soundness at schedule level: under
        // the pins and fusions steps 2-3 actually choose, the floor
        // schedule's makespan never exceeds the exact one.
        use h2h::core::activation_fusion::rebuild_locality;
        use h2h::core::preset::PinPreset;
        use h2h::system::{FusionOutcome, IncrementalSchedule};
        let system = random_star(&classes);
        let mapping = any_mapping(&model, &system, &picks);
        let ev = Evaluator::new(&model, &system);
        let loc = rebuild_locality(&ev, &mapping, &H2hConfig::default(), &PinPreset::new());
        let free = vec![FusionOutcome::Free; model.id_bound()];
        let floor = IncrementalSchedule::from_costs(&ev, &mapping, |id| {
            ev.layer_cost_floor(&mapping, &loc, &free, id)
        });
        let exact = ev.evaluate(&mapping, &loc).makespan();
        prop_assert!(floor.makespan() <= exact, "floor {} above exact {}", floor.makespan(), exact);
    }

    #[test]
    fn split_rejections_fail_the_accept_rule_on_random_star_fabrics(
        model in model_strategy(),
        classes in proptest::collection::vec(0usize..BandwidthClass::ALL.len(), 13),
    ) {
        // Host NIC and every board link at an independently drawn
        // bandwidth class: the producers the split branches on, and
        // the routes its unfused class charges, vary with the fabric.
        split_search_is_sound(&model, &random_star(&classes));
    }

    #[test]
    fn staged_scores_match_full_evaluation_on_random_star_fabrics(
        model in model_strategy(),
        classes in proptest::collection::vec(0usize..BandwidthClass::ALL.len(), 13),
        walk in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 1..40),
    ) {
        // However small the model, and whether or not a move leaves a
        // risky fusion candidate, the engine scores every staged move on
        // its one fusion replay; each score must be the full
        // evaluation's, bitwise, under every objective.
        let system = random_star(&classes);
        for objective in OBJECTIVES {
            staged_walk_matches_full_evaluation(&model, &system, objective, &walk);
        }
    }

    #[test]
    fn pipeline_invariants_on_random_models(model in model_strategy()) {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        out.mapping.validate(&model, &system).unwrap();
        let l: Vec<f64> = out.snapshots.iter().map(|s| s.latency.as_f64()).collect();
        for w in l.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12, "step increased latency: {l:?}");
        }
        for acc in system.acc_ids() {
            prop_assert!(out.locality.dram_used(acc) <= system.acc(acc).dram_capacity());
        }
    }
}
