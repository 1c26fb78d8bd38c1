//! Step 2 — weight-locality optimization (paper §4.2).
//!
//! For each accelerator, a knapsack packs layer weights into the local
//! DRAM budget (`M_acc`); pinned layers stop streaming weights over
//! the interconnect. Item value is the saved transfer time
//! `bytes · (1/BW_link − 1/BW_dram)` where `BW_link` is the board's
//! host-route bandwidth (the paper's single `BW_eth` on a uniform
//! star), so at equal density the solver maximizes pinned bytes — the
//! paper's "as much as possible" objective — and boards behind slow
//! links value their pins proportionally higher.
//! A [`PinPreset`] (dynamic modality change, §4.5) force-pins carried-
//! over weights before the knapsack packs what remains.

use h2h_model::tensor::DataType;
use h2h_model::units::Bytes;
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::Evaluator;
use h2h_system::system::AccId;
use h2h_system::topology::Endpoint;

use crate::config::KnapsackKind;
use crate::knapsack::{solve_auto, solve_dp, solve_greedy, Item};
use crate::preset::PinPreset;

/// Runs the weight-locality pass on top of `base` (usually a fresh
/// zero-locality state) and returns the updated state.
pub fn weight_locality_opt(
    ev: &Evaluator<'_>,
    mapping: &Mapping,
    base: LocalityState,
    kind: KnapsackKind,
    preset: &PinPreset,
) -> LocalityState {
    let mut loc = base;
    let accs: Vec<AccId> = ev.system().acc_ids().collect();
    weight_locality_pass(ev, mapping, &mut loc, kind, preset, &accs);
    loc
}

/// The step-2 pass body, restricted to `accs`: forced preset pins for
/// layers mapped there, then the per-accelerator knapsack. Because both
/// stages are strictly per-accelerator, running this over a subset of
/// accelerators reproduces exactly what the full pass would decide for
/// them — the property the incremental search core's scoped rebuild
/// relies on, which is why both share this one body.
pub fn weight_locality_pass(
    ev: &Evaluator<'_>,
    mapping: &Mapping,
    loc: &mut LocalityState,
    kind: KnapsackKind,
    preset: &PinPreset,
    accs: &[AccId],
) {
    let model = ev.model();
    let system = ev.system();

    // Forced pins first: weights already resident from a previous
    // configuration keep their slot as long as the layer still maps to
    // that accelerator.
    for (layer, acc) in preset.iter() {
        if accs.contains(&acc)
            && mapping.get(layer) == Some(acc)
            && model.layer(layer).has_weights()
        {
            // Capacity can refuse if the new configuration shrank the
            // budget; the knapsack below then competes for the slot.
            let _ = loc.try_pin(model, system, layer, acc);
        }
    }

    let mut ids = Vec::new();
    let mut items: Vec<Item> = Vec::new();
    for &acc in accs {
        let saved_per_byte = pin_saving_per_byte(ev, acc);
        if saved_per_byte <= 0.0 {
            // Every item would be priced at zero-or-negative value, and
            // all three solvers ignore those: nothing to pin.
            continue;
        }
        ids.clear();
        items.clear();
        let mut total: u64 = 0;
        // `weighted_layers` is the precomputed has-weights subset in
        // graph iteration order — the same items, in the same order,
        // the historical `model.layers()` filter produced.
        for &(id, bytes) in ev.weighted_layers() {
            if mapping.get(id) != Some(acc) || loc.is_pinned(id) {
                continue;
            }
            let bytes = bytes.as_u64();
            total += bytes;
            ids.push(id);
            items.push(Item {
                id: ids.len() - 1,
                weight: bytes,
                value: bytes as f64 * saved_per_byte,
            });
        }
        if items.is_empty() {
            continue;
        }
        let capacity = loc.dram_free(acc, system).as_u64();
        if pins_every_item(kind, total, capacity) {
            // Everything fits: pin directly, skipping the density sort.
            for idx in 0..ids.len() {
                let ok = loc.try_pin_bytes(system, ids[idx], acc, Bytes::new(items[idx].weight));
                debug_assert!(ok, "all-fit fast path: every pin fits by construction");
            }
            continue;
        }
        let chosen = match kind {
            KnapsackKind::Dp => solve_dp(&items, capacity),
            KnapsackKind::Greedy => solve_greedy(&items, capacity),
            KnapsackKind::Auto => solve_auto(&items, capacity),
        };
        for idx in chosen {
            // The item's knapsack weight *is* the layer's F32 weight
            // bytes, so the pin skips the model lookup.
            let ok = loc.try_pin_bytes(system, ids[idx], acc, Bytes::new(items[idx].weight));
            debug_assert!(ok, "knapsack selections must fit the DRAM budget");
        }
    }
}

/// Host-route seconds one byte pinned on `acc` saves, the knapsack's
/// value density there. Weights stream from the host, so the saving is
/// priced at this board's host-route bandwidth: boards behind slow links
/// value their pins proportionally higher. At zero or below the pass
/// packs nothing on the board beyond its preset pins.
pub(crate) fn pin_saving_per_byte(ev: &Evaluator<'_>, acc: AccId) -> f64 {
    let system = ev.system();
    let dram = system.acc(acc).dram_bandwidth().as_f64();
    let eth = system
        .topology()
        .path_bw(Endpoint::Host, Endpoint::Acc(acc))
        .as_f64();
    1.0 / eth - 1.0 / dram
}

/// The per-board knapsack's all-fit test: `total` candidate bytes fit
/// the board's free `capacity`, so the pass pins every item without
/// solving. The greedy solver (which Auto picks here — all items share
/// the same exact density) would select every item anyway. DP is
/// excluded: its grid rounds weights up, so "fits raw" does not imply
/// "fits scaled". The step-4 search core's pin diff takes the same test,
/// so the two cannot drift.
pub(crate) fn pins_every_item(kind: KnapsackKind, total: u64, capacity: u64) -> bool {
    total <= capacity && !matches!(kind, KnapsackKind::Dp)
}

/// Total weight bytes mapped to `acc` (reporting helper).
pub fn weight_bytes_on(ev: &Evaluator<'_>, mapping: &Mapping, acc: AccId) -> Bytes {
    ev.model()
        .layers()
        .filter(|(id, _)| mapping.get(*id) == Some(acc))
        .map(|(_, l)| l.weight_bytes(DataType::F32))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_model::builder::ModelBuilder;
    use h2h_model::tensor::TensorShape;
    use h2h_system::system::AccId;
    use h2h_system::testutil::{const_system, ConstAccel};

    /// Three FC layers of 256 MiB each on a 512 MiB accelerator.
    fn setup() -> (h2h_model::ModelGraph, h2h_system::SystemSpec, Mapping) {
        let mut b = ModelBuilder::new("w");
        let i = b.input("i", TensorShape::Vector { features: 8192 });
        let f1 = b.fc("f1", i, 8192).unwrap();
        let f2 = b.fc("f2", f1, 8192).unwrap();
        b.fc("f3", f2, 8192).unwrap();
        let m = b.finish().unwrap();
        let sys = const_system(
            vec![ConstAccel::universal("u", 1e-3).with_dram(Bytes::from_mib(600))],
            1e6,
        );
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        (m, sys, map)
    }

    #[test]
    fn pins_as_much_as_fits() {
        let (m, sys, map) = setup();
        let ev = Evaluator::new(&m, &sys);
        for kind in [KnapsackKind::Dp, KnapsackKind::Greedy, KnapsackKind::Auto] {
            let loc =
                weight_locality_opt(&ev, &map, LocalityState::new(&sys), kind, &PinPreset::new());
            // 600 MiB budget, 256 MiB items -> exactly 2 pinned.
            assert_eq!(loc.num_pinned(), 2, "{kind:?}");
            assert!(loc.total_pinned_bytes(&m) <= Bytes::from_mib(600));
        }
    }

    #[test]
    fn pinning_never_hurts_latency() {
        let (m, sys, map) = setup();
        let ev = Evaluator::new(&m, &sys);
        let before = ev.evaluate(&map, &LocalityState::new(&sys));
        let loc = weight_locality_opt(
            &ev,
            &map,
            LocalityState::new(&sys),
            KnapsackKind::Auto,
            &PinPreset::new(),
        );
        let after = ev.evaluate(&map, &loc);
        assert!(after.makespan() < before.makespan());
    }

    #[test]
    fn preset_pins_take_priority() {
        let (m, sys, map) = setup();
        let ev = Evaluator::new(&m, &sys);
        let ids = m.topo_order();
        // Force-pin f3 (which the plain knapsack would not prefer over
        // f1/f2 — all equal value, ties broken by order).
        let mut preset = PinPreset::new();
        preset.insert(ids[3], AccId::new(0));
        let loc = weight_locality_opt(
            &ev,
            &map,
            LocalityState::new(&sys),
            KnapsackKind::Auto,
            &preset,
        );
        assert!(loc.is_pinned(ids[3]), "preset layer must stay pinned");
        assert_eq!(loc.num_pinned(), 2);
    }

    #[test]
    fn zoo_boards_fit_their_weights_so_every_knapsack_pins_the_same_set() {
        // On the step-1 mapping and on the final H2H mapping of every
        // zoo model at every bandwidth class, each board's DRAM holds all
        // the weight bytes mapped to it, with room to spare for the DP
        // grid's rounding: every solver then pins every weighted layer,
        // so `KnapsackKind` cannot change a zoo mapping.
        use crate::compute_map::computation_prioritized;
        use crate::config::H2hConfig;
        use crate::pipeline::H2hMapper;
        use h2h_system::system::{BandwidthClass, SystemSpec};
        let kinds = [KnapsackKind::Dp, KnapsackKind::Greedy, KnapsackKind::Auto];
        for bw in BandwidthClass::ALL {
            let system = SystemSpec::standard(bw);
            for model in h2h_model::zoo::all_models() {
                let ev = Evaluator::new(&model, &system);
                let preset = PinPreset::new();
                let (step1, _) =
                    computation_prioritized(&ev, &H2hConfig::default(), &preset).unwrap();
                let last = H2hMapper::new(&model, &system).run().unwrap().mapping;
                for (step, mapping) in [("step 1", step1), ("final", last)] {
                    let tag = format!("{} at {}, {step} mapping", model.name(), bw.label());
                    for acc in system.acc_ids() {
                        assert!(
                            weight_bytes_on(&ev, &mapping, acc) <= system.acc(acc).dram_capacity(),
                            "{tag}: board {acc:?} holds less than its weights"
                        );
                    }
                    for kind in kinds {
                        let loc = weight_locality_opt(
                            &ev,
                            &mapping,
                            LocalityState::new(&system),
                            kind,
                            &preset,
                        );
                        assert_eq!(
                            loc.num_pinned(),
                            ev.weighted_layers().len(),
                            "{tag}: {kind:?} left a weighted layer unpinned"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn preset_ignored_when_layer_moved_away() {
        let (m, sys, mut map) = setup();
        let sys2 = const_system(
            vec![
                ConstAccel::universal("u0", 1e-3).with_dram(Bytes::from_mib(600)),
                ConstAccel::universal("u1", 1e-3).with_dram(Bytes::from_mib(600)),
            ],
            1e6,
        );
        let ids = m.topo_order();
        // Preset says f3's weights live on acc 0, but f3 now maps to 1.
        for id in m.layer_ids() {
            map.set(id, AccId::new(1));
        }
        let ev = Evaluator::new(&m, &sys2);
        let mut preset = PinPreset::new();
        preset.insert(ids[3], AccId::new(0));
        let loc = weight_locality_opt(
            &ev,
            &map,
            LocalityState::new(&sys2),
            KnapsackKind::Auto,
            &preset,
        );
        // Nothing pinned on acc 0; knapsack fills acc 1 normally.
        assert_eq!(loc.dram_used(AccId::new(0)), Bytes::ZERO);
        assert_eq!(loc.num_pinned(), 2);
        let _ = sys;
    }
}
