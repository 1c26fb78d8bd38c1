//! Step 1 — computation-prioritized mapping (paper §4.1).
//!
//! Walks the model frontier by frontier ("nodes without predecessors"),
//! enumerating the group's accelerator assignments and keeping the one
//! with the smallest system-latency increment `ΔSys_latency`, under the
//! zero-data-locality assumption: every weight and activation streams
//! through the host's main memory.
//!
//! The frontier waves are the ASAP-rank buckets
//! ([`h2h_model::ModelGraph::asap_waves`]), taken once, each in index
//! order. Because waves coincide with ASAP rank levels, the incremental
//! schedule state maintained here reproduces exactly what the full
//! [`Evaluator`] computes for the same mapping — a property the tests
//! assert. No layer reads another of its own wave, so each member's
//! dependency time (the latest finish among its predecessors, all
//! committed in earlier waves) is fixed for the wave and computed once.
//! Group enumeration is exact up to [`H2hConfig::enumeration_cap`]
//! combinations, in odometer order over reused buffers; wider groups
//! fall back to per-node greedy with the same objective.

use h2h_model::graph::LayerId;
use h2h_model::layer::LayerOp;
use h2h_model::tensor::DataType;
use h2h_model::units::{Bytes, Seconds};
use h2h_system::mapping::Mapping;
use h2h_system::schedule::Evaluator;
use h2h_system::system::AccId;
use h2h_system::topology::Endpoint;

use crate::config::H2hConfig;
use crate::pipeline::H2hError;
use crate::preset::PinPreset;

/// Recomputes the zero-locality duration rows of `group` —
/// `weights/link + Σ ifm/route + compute + ofm/link`, every transfer at
/// its topology route's effective bandwidth — against the
/// already-committed predecessor placements in `mapping` (unmapped
/// predecessors charge the host route, matching
/// [`Evaluator::layer_cost`]'s partial-mapping rule).
/// [`computation_prioritized`] calls this once per frontier wave, so
/// the table is filled lazily, each row exactly once, just before its
/// first read.
///
/// Weights and the OFM upload are charged on the accelerator's *host*
/// route (zero locality: weights stream from the host, results publish
/// back to it — on a non-uniform fabric the final evaluator may charge
/// a slower consumer route for the OFM, which remapping then corrects).
/// IFM edges are charged at the *actual* producer→consumer route —
/// predecessors are always placed before their consumers' frontier
/// wave — which is what steers transfer-heavy layers away from slow
/// links in step 1. The arithmetic shape — `weight + (ifm + comp +
/// ofm) * b`, IFM summed in predecessor order — is exactly the
/// historical scalar-table formula, so uniform fabrics reproduce it
/// bitwise.
///
/// With a [`PinPreset`] (dynamic modality change, §4.5), layers whose
/// weights are already buffered on an accelerator see a zero weight-
/// transfer term there — that is the "prioritize the layer mapping if
/// the layer's weights are already buffered" rule.
fn refresh_wave_durations(
    ev: &Evaluator<'_>,
    preset: &PinPreset,
    mapping: &Mapping,
    group: &[LayerId],
    dur: &mut [Vec<Option<Seconds>>],
) {
    let model = ev.model();
    let system = ev.system();
    let topo = system.topology();
    let b = ev.batch() as f64;
    for &id in group {
        let layer = model.layer(id);
        let is_input = matches!(layer.op(), LayerOp::Input { .. });
        let wbytes = layer.weight_bytes(DataType::F32);
        let obytes = layer.ofm_bytes(DataType::F32);
        for acc in system.acc_ids() {
            let Some(comp) = ev.cache().time(id, acc) else {
                dur[id.index()][acc.index()] = None;
                continue;
            };
            let here = Endpoint::Acc(acc);
            let host_bw = topo.path_bw(Endpoint::Host, here);
            let ifm: Seconds = model
                .predecessors(id)
                .map(|p| {
                    let src = if matches!(model.layer(p).op(), LayerOp::Input { .. }) {
                        Endpoint::Host
                    } else {
                        match mapping.get(p) {
                            Some(pa) => Endpoint::Acc(pa),
                            None => Endpoint::Host,
                        }
                    };
                    topo.path_bw(src, here)
                        .transfer_time(model.edge_bytes(p, id).expect("edge"))
                })
                .sum();
            let ofm = if is_input {
                Seconds::ZERO
            } else {
                host_bw.transfer_time(obytes)
            };
            let weight = if wbytes == Bytes::ZERO || preset.is_buffered(id, acc) {
                Seconds::ZERO
            } else {
                host_bw.transfer_time(wbytes)
            };
            // Weights amortize over the batch; activations and compute
            // repeat per request (matches Evaluator::with_batch).
            dur[id.index()][acc.index()] = Some(weight + (ifm + comp + ofm) * b);
        }
    }
}

/// Incremental schedule state shared by enumeration and greedy modes.
struct WaveState {
    finish: Vec<Seconds>,
    acc_ready: Vec<Seconds>,
    makespan: Seconds,
}

impl WaveState {
    /// Simulates assigning `group[i] → combo[i]` (in order) on top of the
    /// committed state, with `deps[i]` the dependency time of
    /// `group[i]`; returns `(makespan, sum_of_finish)` without mutating
    /// anything. `ready` is scratch.
    fn peek(
        &self,
        dur: &[Vec<Option<Seconds>>],
        group: &[LayerId],
        deps: &[Seconds],
        combo: &[AccId],
        ready: &mut Vec<(usize, Seconds)>,
    ) -> (Seconds, Seconds) {
        ready.clear();
        let mut makespan = self.makespan;
        let mut sum = Seconds::ZERO;
        for ((layer, acc), deps) in group.iter().zip(combo).zip(deps) {
            let d = dur[layer.index()][acc.index()].expect("candidate filtered to supported");
            // Accelerator availability includes earlier group members
            // placed on the same accelerator within this wave.
            let mut avail = self.acc_ready[acc.index()];
            for &(a, f) in ready.iter() {
                if a == acc.index() {
                    avail = avail.max(f);
                }
            }
            let fin = deps.max(avail) + d;
            ready.push((acc.index(), fin));
            makespan = makespan.max(fin);
            sum += fin;
        }
        (makespan, sum)
    }

    /// Commits an assignment.
    fn commit(
        &mut self,
        dur: &[Vec<Option<Seconds>>],
        group: &[LayerId],
        deps: &[Seconds],
        combo: &[AccId],
        mapping: &mut Mapping,
    ) {
        for ((layer, acc), deps) in group.iter().zip(combo).zip(deps) {
            let d = dur[layer.index()][acc.index()].expect("supported");
            let start = deps.max(self.acc_ready[acc.index()]);
            let fin = start + d;
            self.finish[layer.index()] = fin;
            self.acc_ready[acc.index()] = fin;
            self.makespan = self.makespan.max(fin);
            mapping.set(*layer, *acc);
        }
    }
}

/// Whether `(mk, sum)` beats the best so far: smaller makespan, then
/// smaller sum of finishes.
fn beats(mk: Seconds, sum: Seconds, best: Option<(Seconds, Seconds)>) -> bool {
    best.is_none_or(|(bmk, bsum)| mk < bmk || (mk == bmk && sum < bsum))
}

/// Runs step 1 and returns the mapping together with the modeled
/// zero-locality makespan (kept for consistency assertions).
///
/// # Errors
///
/// Returns [`H2hError::NoCapableAccelerator`] if some layer cannot run
/// anywhere in the system.
pub fn computation_prioritized(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
    preset: &PinPreset,
) -> Result<(Mapping, Seconds), H2hError> {
    let model = ev.model();
    let system = ev.system();
    // Filled lazily, one frontier wave at a time (see
    // `refresh_wave_durations`); rows are only ever read after their
    // group's refresh.
    let mut dur: Vec<Vec<Option<Seconds>>> = vec![vec![None; system.num_accs()]; model.id_bound()];

    let mut mapping = Mapping::new(model);
    let mut state = WaveState {
        finish: vec![Seconds::ZERO; model.id_bound()],
        acc_ready: vec![Seconds::ZERO; system.num_accs()],
        makespan: Seconds::ZERO,
    };
    // Per-wave buffers, reused across waves and combinations.
    let mut candidates: Vec<Vec<AccId>> = Vec::new();
    let mut deps: Vec<Seconds> = Vec::new();
    let mut idx: Vec<usize> = Vec::new();
    let mut combo: Vec<AccId> = Vec::new();
    let mut chosen: Vec<AccId> = Vec::new();
    let mut ready: Vec<(usize, Seconds)> = Vec::new();

    for group in model.asap_waves() {
        // Fill the wave's duration rows against the now-committed
        // predecessor placements (per-route bandwidths).
        refresh_wave_durations(ev, preset, &mapping, &group, &mut dur);

        // Candidate accelerators per group member.
        candidates.resize_with(group.len(), Vec::new);
        for (layer, accs) in group.iter().zip(&mut candidates) {
            accs.clear();
            accs.extend(
                system
                    .acc_ids()
                    .filter(|a| dur[layer.index()][a.index()].is_some()),
            );
            if accs.is_empty() {
                return Err(H2hError::NoCapableAccelerator {
                    layer: model.layer(*layer).name().to_owned(),
                });
            }
        }
        let candidates = &candidates[..group.len()];
        deps.clear();
        deps.extend(group.iter().map(|layer| {
            model
                .predecessors(*layer)
                .map(|p| state.finish[p.index()])
                .fold(Seconds::ZERO, Seconds::max)
        }));

        let combos: usize = candidates
            .iter()
            .map(|c| c.len())
            .try_fold(1usize, |acc, n| acc.checked_mul(n))
            .unwrap_or(usize::MAX);

        if combos <= cfg.enumeration_cap {
            // Exhaustive enumeration (odometer order → deterministic).
            idx.clear();
            idx.resize(group.len(), 0);
            let mut best = None;
            loop {
                combo.clear();
                combo.extend(idx.iter().zip(candidates).map(|(i, c)| c[*i]));
                let (mk, sum) = state.peek(&dur, &group, &deps, &combo, &mut ready);
                if beats(mk, sum, best) {
                    best = Some((mk, sum));
                    chosen.clone_from(&combo);
                }
                // Advance the odometer.
                let mut pos = 0;
                loop {
                    if pos == idx.len() {
                        break;
                    }
                    idx[pos] += 1;
                    if idx[pos] < candidates[pos].len() {
                        break;
                    }
                    idx[pos] = 0;
                    pos += 1;
                }
                if pos == idx.len() {
                    break;
                }
            }
        } else {
            // Greedy per node with the same Δ-latency objective.
            chosen.clear();
            for (i, accs) in candidates.iter().enumerate() {
                let mut best = None;
                let mut pick = accs[0];
                for &acc in accs {
                    chosen.push(acc);
                    let (mk, sum) =
                        state.peek(&dur, &group[..=i], &deps[..=i], &chosen, &mut ready);
                    chosen.pop();
                    if beats(mk, sum, best) {
                        best = Some((mk, sum));
                        pick = acc;
                    }
                }
                chosen.push(pick);
            }
        }

        state.commit(&dur, &group, &deps, &chosen, &mut mapping);
    }

    Ok((mapping, state.makespan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_model::builder::ModelBuilder;
    use h2h_model::tensor::TensorShape;
    use h2h_system::locality::LocalityState;
    use h2h_system::system::{BandwidthClass, SystemSpec};
    use h2h_system::testutil::{const_system, ConstAccel};

    /// Step 1 as it was before waves were taken once: a `HashSet`
    /// frontier rescan per wave, a combination and a scratch `Vec` per
    /// enumerated combination, and every member's predecessors walked
    /// per combination. The per-wave enumerator must match it bitwise.
    fn computation_prioritized_reference(
        ev: &Evaluator<'_>,
        cfg: &H2hConfig,
        preset: &PinPreset,
    ) -> (Mapping, Seconds) {
        use std::collections::HashSet;
        let model = ev.model();
        let system = ev.system();
        let peek = |finish: &[Seconds],
                    acc_ready: &[Seconds],
                    makespan: Seconds,
                    group: &[LayerId],
                    combo: &[AccId],
                    dur: &[Vec<Option<Seconds>>]| {
            let mut ready_scratch: Vec<(usize, Seconds)> = Vec::with_capacity(group.len());
            let mut makespan = makespan;
            let mut sum = Seconds::ZERO;
            for (layer, acc) in group.iter().zip(combo) {
                let d = dur[layer.index()][acc.index()].unwrap();
                let deps = model
                    .predecessors(*layer)
                    .map(|p| finish[p.index()])
                    .fold(Seconds::ZERO, Seconds::max);
                let mut avail = acc_ready[acc.index()];
                for &(a, f) in &ready_scratch {
                    if a == acc.index() {
                        avail = avail.max(f);
                    }
                }
                let fin = deps.max(avail) + d;
                ready_scratch.push((acc.index(), fin));
                makespan = makespan.max(fin);
                sum += fin;
            }
            (makespan, sum)
        };
        let mut dur: Vec<Vec<Option<Seconds>>> =
            vec![vec![None; system.num_accs()]; model.id_bound()];
        let mut mapping = Mapping::new(model);
        let mut mapped: HashSet<LayerId> = HashSet::new();
        let mut finish = vec![Seconds::ZERO; model.id_bound()];
        let mut acc_ready = vec![Seconds::ZERO; system.num_accs()];
        let mut makespan = Seconds::ZERO;
        while mapped.len() < model.num_layers() {
            let mut group: Vec<LayerId> = model
                .layer_ids()
                .filter(|id| !mapped.contains(id))
                .filter(|id| model.predecessors(*id).all(|p| mapped.contains(&p)))
                .collect();
            group.sort_by_key(|id| id.index());
            refresh_wave_durations(ev, preset, &mapping, &group, &mut dur);
            let candidates: Vec<Vec<AccId>> = group
                .iter()
                .map(|l| {
                    system
                        .acc_ids()
                        .filter(|a| dur[l.index()][a.index()].is_some())
                        .collect()
                })
                .collect();
            let combos: usize = candidates
                .iter()
                .map(|c| c.len())
                .try_fold(1usize, |acc, n| acc.checked_mul(n))
                .unwrap_or(usize::MAX);
            let chosen: Vec<AccId> = if combos <= cfg.enumeration_cap {
                let mut idx = vec![0usize; group.len()];
                let mut best: Option<(Seconds, Seconds, Vec<AccId>)> = None;
                loop {
                    let combo: Vec<AccId> =
                        idx.iter().zip(&candidates).map(|(i, c)| c[*i]).collect();
                    let (mk, sum) = peek(&finish, &acc_ready, makespan, &group, &combo, &dur);
                    let better = match &best {
                        None => true,
                        Some((bmk, bsum, _)) => mk < *bmk || (mk == *bmk && sum < *bsum),
                    };
                    if better {
                        best = Some((mk, sum, combo));
                    }
                    let mut pos = 0;
                    loop {
                        if pos == idx.len() {
                            break;
                        }
                        idx[pos] += 1;
                        if idx[pos] < candidates[pos].len() {
                            break;
                        }
                        idx[pos] = 0;
                        pos += 1;
                    }
                    if pos == idx.len() {
                        break;
                    }
                }
                best.unwrap().2
            } else {
                let mut combo: Vec<AccId> = Vec::with_capacity(group.len());
                for i in 0..group.len() {
                    let mut best: Option<(Seconds, Seconds, AccId)> = None;
                    for &acc in &candidates[i] {
                        let mut trial = combo.clone();
                        trial.push(acc);
                        let (mk, sum) =
                            peek(&finish, &acc_ready, makespan, &group[..=i], &trial, &dur);
                        let better = match &best {
                            None => true,
                            Some((bmk, bsum, _)) => mk < *bmk || (mk == *bmk && sum < *bsum),
                        };
                        if better {
                            best = Some((mk, sum, acc));
                        }
                    }
                    combo.push(best.unwrap().2);
                }
                combo
            };
            for (layer, acc) in group.iter().zip(&chosen) {
                let d = dur[layer.index()][acc.index()].unwrap();
                let deps = model
                    .predecessors(*layer)
                    .map(|p| finish[p.index()])
                    .fold(Seconds::ZERO, Seconds::max);
                let fin = deps.max(acc_ready[acc.index()]) + d;
                finish[layer.index()] = fin;
                acc_ready[acc.index()] = fin;
                makespan = makespan.max(fin);
                mapping.set(*layer, *acc);
            }
            mapped.extend(group);
        }
        (mapping, makespan)
    }

    #[test]
    fn per_wave_enumeration_matches_the_per_combination_reference_bitwise() {
        use h2h_model::synth::{synthetic_mmmt, SyntheticConfig};
        let mut models = h2h_model::zoo::all_models();
        models.extend((1..=19).map(|seed| {
            synthetic_mmmt(&SyntheticConfig {
                seed,
                ..Default::default()
            })
        }));
        // The paper grid's seven fabrics: the five standard bandwidth
        // classes and the skewed preset at Low- and Mid.
        let mut systems: Vec<SystemSpec> = BandwidthClass::ALL
            .iter()
            .map(|bw| SystemSpec::standard(*bw))
            .collect();
        for bw in [BandwidthClass::LowMinus, BandwidthClass::Mid] {
            systems.push(SystemSpec::standard_with_topology(bw, Some("skewed")).unwrap());
        }
        let preset = PinPreset::new();
        for model in &models {
            for system in &systems {
                let ev = Evaluator::new(model, system);
                for enumeration_cap in [0, 16, 4096] {
                    let cfg = H2hConfig {
                        enumeration_cap,
                        ..Default::default()
                    };
                    let (mapping, makespan) = computation_prioritized(&ev, &cfg, &preset).unwrap();
                    let (ref_mapping, ref_makespan) =
                        computation_prioritized_reference(&ev, &cfg, &preset);
                    let at = format!("{} cap {enumeration_cap}", model.name());
                    assert_eq!(
                        makespan.as_f64().to_bits(),
                        ref_makespan.as_f64().to_bits(),
                        "{at}"
                    );
                    for id in model.layer_ids() {
                        assert_eq!(mapping.acc_of(id), ref_mapping.acc_of(id), "{at}: {id:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn internal_makespan_matches_full_evaluator() {
        // The incremental wave state must agree with the authoritative
        // scheduler for every zoo model.
        let sys = SystemSpec::standard(BandwidthClass::LowMinus);
        for model in h2h_model::zoo::all_models() {
            let ev = Evaluator::new(&model, &sys);
            let (mapping, internal) =
                computation_prioritized(&ev, &H2hConfig::default(), &PinPreset::new()).unwrap();
            mapping.validate(&model, &sys).unwrap();
            let full = ev.evaluate(&mapping, &LocalityState::new(&sys));
            let a = internal.as_f64();
            let b = full.makespan().as_f64();
            assert!(
                (a - b).abs() / b < 1e-9,
                "{}: incremental {a} vs evaluator {b}",
                model.name()
            );
        }
    }

    #[test]
    fn picks_the_faster_accelerator_for_compute() {
        // Two universal accelerators, one 10x faster; a single chain must
        // land entirely on the fast one (communication is identical).
        let mut b = ModelBuilder::new("chain");
        let i = b.input("i", TensorShape::Vector { features: 64 });
        let f1 = b.fc("f1", i, 64).unwrap();
        let f2 = b.fc("f2", f1, 64).unwrap();
        let _ = f2;
        let m = b.finish().unwrap();
        let sys = const_system(
            vec![
                ConstAccel::universal("slow", 1.0),
                ConstAccel::universal("fast", 0.1),
            ],
            1e9,
        );
        let ev = Evaluator::new(&m, &sys);
        let (mapping, _) =
            computation_prioritized(&ev, &H2hConfig::default(), &PinPreset::new()).unwrap();
        for id in m.layer_ids() {
            assert_eq!(mapping.acc_of(id).index(), 1, "layer {id} not on fast acc");
        }
    }

    #[test]
    fn parallel_branches_spread_for_overlap() {
        // Two equal-cost accelerators and two independent heavy branches:
        // minimizing ΔSys_latency must use both accelerators.
        let mut b = ModelBuilder::new("par");
        let ia = b.input("ia", TensorShape::Vector { features: 8 });
        let ib = b.input("ib", TensorShape::Vector { features: 8 });
        let fa = b.fc("fa", ia, 8).unwrap();
        let fb = b.fc("fb", ib, 8).unwrap();
        let _ = (fa, fb);
        let m = b.finish().unwrap();
        let sys = const_system(
            vec![
                ConstAccel::universal("u0", 1.0),
                ConstAccel::universal("u1", 1.0),
            ],
            1e9,
        );
        let ev = Evaluator::new(&m, &sys);
        let (mapping, makespan) =
            computation_prioritized(&ev, &H2hConfig::default(), &PinPreset::new()).unwrap();
        let used: std::collections::HashSet<usize> =
            m.layer_ids().map(|id| mapping.acc_of(id).index()).collect();
        assert_eq!(used.len(), 2, "both accelerators should be used");
        // Perfect overlap: 2 layers deep, 1 s each ≈ 2 s (+ tiny comm).
        assert!(makespan.as_f64() < 2.1, "makespan {makespan}");
    }

    #[test]
    fn greedy_fallback_matches_enumeration_on_small_groups() {
        let m = h2h_model::zoo::cnn_lstm();
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let ev = Evaluator::new(&m, &sys);
        let exhaustive = {
            let cfg = H2hConfig {
                enumeration_cap: 1_000_000,
                ..Default::default()
            };
            computation_prioritized(&ev, &cfg, &PinPreset::new())
                .unwrap()
                .1
        };
        let greedy = {
            let cfg = H2hConfig {
                enumeration_cap: 0,
                ..Default::default()
            };
            computation_prioritized(&ev, &cfg, &PinPreset::new())
                .unwrap()
                .1
        };
        // Greedy is a heuristic: allowed to be equal or slightly worse,
        // never better than the exhaustive optimum of the same objective.
        assert!(greedy.as_f64() >= exhaustive.as_f64() - 1e-9);
        assert!(
            greedy.as_f64() <= exhaustive.as_f64() * 1.25,
            "greedy {greedy} too far from exhaustive {exhaustive}"
        );
    }

    #[test]
    fn unmappable_layer_reports_error() {
        use h2h_model::layer::LayerClass;
        let mut b = ModelBuilder::new("lstm-only");
        let i = b.input(
            "i",
            TensorShape::Sequence {
                steps: 8,
                features: 8,
            },
        );
        b.lstm("l", i, 16, 1, false).unwrap();
        let m = b.finish().unwrap();
        // System whose only accelerator cannot run LSTM.
        let sys = const_system(
            vec![ConstAccel::universal("convs", 1.0)
                .with_classes(&[LayerClass::Conv, LayerClass::Aux])],
            1e9,
        );
        let ev = Evaluator::new(&m, &sys);
        let err = computation_prioritized(&ev, &H2hConfig::default(), &PinPreset::new());
        assert!(matches!(err, Err(H2hError::NoCapableAccelerator { .. })));
    }

    #[test]
    fn preset_pulls_layer_toward_buffered_weights() {
        // Two identical accelerators; a weighted layer whose weights are
        // buffered on acc 1 should map there (weight transfer saved).
        let mut b = ModelBuilder::new("buf");
        let i = b.input("i", TensorShape::Vector { features: 4096 });
        let f = b.fc("f", i, 4096).unwrap();
        let m = b.finish().unwrap();
        let sys = const_system(
            vec![
                ConstAccel::universal("u0", 0.5),
                ConstAccel::universal("u1", 0.5),
            ],
            1e6, // slow ethernet: weight transfer dominates
        );
        let ev = Evaluator::new(&m, &sys);
        let mut preset = PinPreset::new();
        preset.insert(f, h2h_system::system::AccId::new(1));
        let (mapping, _) = computation_prioritized(&ev, &H2hConfig::default(), &preset).unwrap();
        assert_eq!(mapping.acc_of(f).index(), 1);
    }
}
