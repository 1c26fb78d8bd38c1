//! Equivalence and coherence properties of the step-4 search core: the
//! delta-engine remapping loop must reproduce the per-candidate
//! full-re-evaluation reference (`data_locality_remapping_reference`)
//! bit-exactly — same final mapping and locality, bitwise-equal
//! makespan — on non-uniform fabrics, on synthetic models past the zoo
//! and on boards too small for their weights, and its `SearchStats`
//! counters must stay coherent. (The zoo-wide check on the uniform
//! fabric lives next to the loop, in `remap.rs`.)

use h2h_core::compute_map::computation_prioritized;
use h2h_core::config::KnapsackKind;
use h2h_core::remap::{data_locality_remapping, data_locality_remapping_reference, RemapOutcome};
use h2h_core::{H2hConfig, PinPreset};
use h2h_model::graph::ModelGraph;
use h2h_model::synth::{synthetic_mmmt, SyntheticConfig};
use h2h_model::tensor::DataType;
use h2h_model::units::Bytes;
use h2h_system::schedule::Evaluator;
use h2h_system::system::{BandwidthClass, SystemSpec};
use h2h_system::testutil::{const_system, ConstAccel};
use h2h_system::topology::Topology;

/// Runs the delta loop and the reference from the same step-1 seed,
/// asserts they agree bit-exactly, and returns the delta outcome.
fn assert_delta_matches_reference(
    model: &ModelGraph,
    system: &SystemSpec,
    tag: &str,
) -> RemapOutcome {
    assert_delta_matches_reference_under(model, system, &H2hConfig::default(), tag)
}

/// [`assert_delta_matches_reference`] under `cfg`.
fn assert_delta_matches_reference_under(
    model: &ModelGraph,
    system: &SystemSpec,
    cfg: &H2hConfig,
    tag: &str,
) -> RemapOutcome {
    let ev = Evaluator::new(model, system);
    let (seed, _) = computation_prioritized(&ev, cfg, &PinPreset::new()).unwrap();
    let mut map_ref = seed.clone();
    let reference = data_locality_remapping_reference(&ev, cfg, &PinPreset::new(), &mut map_ref);
    let mut mapping = seed;
    let out = data_locality_remapping(&ev, cfg, &PinPreset::new(), &mut mapping);
    assert_eq!(
        mapping, map_ref,
        "{tag}: diverged from the reference mapping"
    );
    assert!(
        out.locality == reference.locality,
        "{tag}: diverged from the reference locality"
    );
    assert_eq!(
        out.schedule.makespan().as_f64().to_bits(),
        reference.schedule.makespan().as_f64().to_bits(),
        "{tag}: makespan must be bitwise equal to the reference"
    );
    assert_eq!(
        out.stats.attempted_moves, reference.stats.attempted_moves,
        "{tag}: attempts"
    );
    assert_eq!(
        out.stats.accepted_moves, reference.stats.accepted_moves,
        "{tag}: accepts"
    );
    out
}

fn remap_from_step1(model: &ModelGraph, system: &SystemSpec) -> RemapOutcome {
    let ev = Evaluator::new(model, system);
    let cfg = H2hConfig::default();
    let (mut mapping, _) = computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
    data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut mapping)
}

#[test]
fn delta_search_matches_reference_on_non_uniform_topologies() {
    // Per-route path bandwidths make a layer's transfer terms depend on
    // its neighbours' placements; the delta engine compensates by
    // refreshing the moved layer's graph neighbours. On a skewed star, a
    // partitioned switch and an explicit star the search must still
    // reproduce the reference bit-exactly.
    let bw = BandwidthClass::LowMinus;
    for spec in ["skewed", "switched", "star:host=0.125;links=0.125,0.05,0.2"] {
        let base = SystemSpec::standard(bw);
        let topo = Topology::parse(spec, bw.bandwidth(), base.num_accs()).unwrap();
        let system = base.with_topology(topo);
        for model in [
            h2h_model::zoo::mocap(),
            h2h_model::zoo::cnn_lstm(),
            h2h_model::zoo::casia_surf(),
        ] {
            assert_delta_matches_reference(
                &model,
                &system,
                &format!("{} on `{spec}`", model.name()),
            );
        }
    }
}

#[test]
fn delta_search_matches_reference_on_synthetic_models() {
    // Synthetic MMMT models with 8 branches of depth 12 (~165 layers),
    // past the zoo's sizes: their replays meet many risky guards, and
    // the delay walk must prove some of them.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for seed in [4u64, 6] {
        let model = synthetic_mmmt(&SyntheticConfig {
            modalities: 8,
            depth: 12,
            seed,
            ..Default::default()
        });
        let tag = format!("synthetic 8x12 seed {seed} ({} layers)", model.num_layers());
        let out = assert_delta_matches_reference(&model, &system, &tag);
        assert!(
            out.stats.accepted_moves > 0,
            "{tag}: the search accepted nothing"
        );
        assert!(
            out.stats.guards_skipped > 0,
            "{tag}: the delay walk proved no risky guard ({:?})",
            out.stats
        );
    }
}

#[test]
fn delta_search_matches_reference_on_boards_too_small_for_their_weights() {
    // On the standard boards every layer's weights fit, so step 4 only
    // ever moves one pin at a time. Boards holding 5-30% of a synthetic
    // model's weight bytes make the per-board knapsack choose, so moves
    // take the scoped step 2's strip and rerun instead, under every
    // knapsack solver.
    let kinds = [KnapsackKind::Dp, KnapsackKind::Greedy, KnapsackKind::Auto];
    let mut accepted = [0; 3];
    for seed in 1..=5u64 {
        let model = synthetic_mmmt(&SyntheticConfig {
            seed,
            ..Default::default()
        });
        let weights: u64 = model
            .layers()
            .map(|(_, l)| l.weight_bytes(DataType::F32).as_u64())
            .sum();
        for frac in [0.05, 0.15, 0.3] {
            let dram = Bytes::new((weights as f64 * frac) as u64);
            let system = const_system(
                [1.0e-3, 1.2e-3, 1.5e-3, 2.0e-3]
                    .iter()
                    .enumerate()
                    .map(|(i, t)| ConstAccel::universal(&format!("b{i}"), *t).with_dram(dram))
                    .collect(),
                1e8,
            );
            for (k, &knapsack) in kinds.iter().enumerate() {
                let cfg = H2hConfig {
                    knapsack,
                    ..H2hConfig::default()
                };
                let tag =
                    format!("synthetic seed {seed}, boards at {frac} of weights, {knapsack:?}");
                let out = assert_delta_matches_reference_under(&model, &system, &cfg, &tag);
                accepted[k] += out.stats.accepted_moves;
                let weighted = model.layers().filter(|(_, l)| l.has_weights()).count();
                assert!(
                    out.locality.num_pinned() < weighted,
                    "{tag}: every weight fit, so no move left the pin diff"
                );
            }
        }
    }
    for (kind, accepted) in kinds.iter().zip(accepted) {
        assert!(accepted > 0, "{kind:?}: no search accepted a move");
    }
}

#[test]
fn dominance_resolves_most_guards_on_resnet_like_models() {
    // The risky large models (ResNet-like: CASIA-SURF, FaceBag) must
    // resolve most of their guards by the delay walk's proof instead of
    // the toggle/revert replay.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in [h2h_model::zoo::casia_surf(), h2h_model::zoo::facebag()] {
        let stats = remap_from_step1(&model, &system).stats;
        assert!(
            stats.guards_skipped * 2 > stats.guards_total,
            "{}: the delay walk should prove most guards, got {}/{}",
            model.name(),
            stats.guards_skipped,
            stats.guards_total
        );
    }
}

#[test]
fn guard_counters_are_coherent() {
    // Skip/revert counters must stay within the guard population, and
    // fast reverts can only come from guards the pruning did *not*
    // resolve (a proven guard never toggles, so it has nothing to
    // revert). Every model that reaches a guard proves some without a
    // toggle.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in h2h_model::zoo::all_models() {
        let stats = remap_from_step1(&model, &system).stats;
        assert!(
            stats.guards_skipped <= stats.guards_total,
            "{}: skipped {} > total {}",
            model.name(),
            stats.guards_skipped,
            stats.guards_total
        );
        assert!(
            stats.guard_reverts_fast <= stats.guards_total - stats.guards_skipped,
            "{}: {} fast reverts exceed the {} unresolved guards",
            model.name(),
            stats.guard_reverts_fast,
            stats.guards_total - stats.guards_skipped
        );
        if stats.guards_total > 0 {
            assert!(
                stats.guards_skipped > 0,
                "{}: the delay walk proved none of {} guards",
                model.name(),
                stats.guards_total
            );
        }
    }
}

#[test]
fn screen_counters_are_coherent() {
    // Every attempted move is either rejected by the latency screen or
    // staged on the delta replay — never both, never neither — and no
    // move pays a full evaluation: the only one is the finalization (the
    // seed is a step-3 replay), on every zoo model, chain or risky, small
    // or large.
    // The moves only the split on fusion outcomes rejected are screened
    // moves.
    for spec in ["uniform", "skewed"] {
        let system =
            SystemSpec::standard_with_topology(BandwidthClass::LowMinus, Some(spec)).unwrap();
        for model in h2h_model::zoo::all_models() {
            let s = remap_from_step1(&model, &system).stats;
            let tag = format!("{} on `{spec}`: {s:?}", model.name());
            assert_eq!(s.screened + s.delta_evals, s.attempted_moves, "{tag}");
            assert_eq!(s.full_evals, 1, "{tag}");
            assert!(s.split_screened <= s.screened, "{tag}");
            if ["CASIA-SURF", "FaceBag", "VLocNet"].contains(&model.name()) {
                assert!(s.screened > 0, "{tag}: the screen rejected nothing");
                assert!(s.split_screened > 0, "{tag}: the split rejected nothing");
            }
        }
    }
}

#[test]
fn propagation_stats_are_coherent() {
    // The regression this guards: `mean_propagated` was once normalized
    // by delta evaluations instead of propagation rounds, reporting a
    // "mean" ~20x larger than the largest possible cone.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in h2h_model::zoo::all_models() {
        let stats = remap_from_step1(&model, &system).stats;
        assert!(
            stats.mean_propagated() <= stats.max_propagated as f64,
            "{}: mean cone {} exceeds max cone {}",
            model.name(),
            stats.mean_propagated(),
            stats.max_propagated
        );
        assert!(
            stats.max_propagated <= model.num_layers(),
            "{}: propagation cone cannot exceed the graph",
            model.name()
        );
        // Every delta-scored candidate flushes at least one round (the
        // moved layer is always in the deferred batch), and every
        // screened one ran its floor round.
        assert!(stats.propagations >= stats.delta_evals + stats.screened);
    }
}
