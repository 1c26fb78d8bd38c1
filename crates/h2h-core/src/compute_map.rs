//! Step 1 — computation-prioritized mapping (paper §4.1).
//!
//! Walks the model frontier by frontier ("nodes without predecessors"),
//! choosing each group's accelerator assignment with the smallest
//! system-latency increment `ΔSys_latency`, under the zero-data-locality
//! assumption: every weight and activation streams through the host's
//! main memory.
//!
//! The frontier waves are the ASAP-rank buckets
//! ([`h2h_model::ModelGraph::asap_waves`]), taken once, each in index
//! order. Because waves coincide with ASAP rank levels, the incremental
//! schedule state maintained here reproduces exactly what the full
//! [`Evaluator`] computes for the same mapping — a property the tests
//! assert. No layer reads another of its own wave, so each member's
//! dependency time (the latest finish among its predecessors, all
//! committed in earlier waves) is fixed for the wave and computed once.
//!
//! An assignment of a wave is scored by placing its members in index
//! order on the committed schedule: a member finishes at the later of
//! its dependency time and its board's availability (raised by the
//! earlier members placed there), plus its duration; the score is the
//! makespan, then the sum of the members' finishes. A wave of at most
//! [`H2hConfig::enumeration_cap`] combinations is searched exactly, by a
//! depth-first walk over its members (member 0 outermost, candidates in
//! ascending board id). Each prefix hands its per-board availability,
//! makespan and sum to its children, so a complete assignment is scored
//! by the same operations, in the same order, as a from-scratch
//! simulation of it. Finishes are never negative, so neither part of a
//! prefix's score falls as members are added: a prefix whose score is
//! already worse than the best complete assignment is cut with all its
//! completions, and one that only ties the best is walked on, since a
//! completion could tie too. Among exactly tied assignments the walk
//! keeps the one an odometer over the same candidates (member 0 varying
//! fastest) meets first: the smaller index tuple compared from the last
//! member down. Every assignment that could win is therefore scored
//! bitwise as by a full enumeration, and the walk returns the full
//! enumeration's choice. Wider waves descend the same walk greedily:
//! each member takes its first strictly best child in candidate order.

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

/// One wave member's candidate boards, in ascending id order, each with
/// the member's zero-locality duration there.
type Candidates = Vec<(AccId, Seconds)>;

/// Fills `out[i]` with the candidate boards of `group[i]`: every board
/// that supports it, with its zero-locality duration — `weights/link +
/// Σ ifm/route + compute + ofm/link`, every transfer at its topology
/// route's effective bandwidth — against the already-committed
/// predecessor placements in `mapping` (unmapped predecessors charge the
/// host route, matching [`Evaluator::layer_cost`]'s partial-mapping
/// rule). [`computation_prioritized`] calls this once per frontier wave,
/// just before the wave is searched.
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
fn wave_candidates(
    ev: &Evaluator<'_>,
    preset: &PinPreset,
    mapping: &Mapping,
    group: &[LayerId],
    out: &mut Vec<Candidates>,
) {
    let model = ev.model();
    let system = ev.system();
    let topo = system.topology();
    let b = ev.batch() as f64;
    out.resize_with(group.len(), Vec::new);
    for (&id, cands) in group.iter().zip(out.iter_mut()) {
        cands.clear();
        let layer = model.layer(id);
        let is_input = matches!(layer.op(), LayerOp::Input { .. });
        let wbytes = layer.weight_bytes(DataType::F32);
        let obytes = layer.ofm_bytes(DataType::F32);
        for acc in system.acc_ids() {
            let Some(comp) = ev.cache().time(id, acc) else {
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
            cands.push((acc, weight + (ifm + comp + ofm) * b));
        }
    }
}

/// The committed schedule of the waves mapped so far.
struct WaveState {
    finish: Vec<Seconds>,
    acc_ready: Vec<Seconds>,
    makespan: Seconds,
}

impl WaveState {
    /// Commits `group[i] → candidates[i][pick[i]]`, in member order.
    fn commit(
        &mut self,
        group: &[LayerId],
        deps: &[Seconds],
        candidates: &[Candidates],
        pick: &[usize],
        mapping: &mut Mapping,
    ) {
        for (((layer, dep), cands), &k) in group.iter().zip(deps).zip(candidates).zip(pick) {
            let (acc, d) = cands[k];
            let fin = dep.max(self.acc_ready[acc.index()]) + d;
            self.finish[layer.index()] = fin;
            self.acc_ready[acc.index()] = fin;
            self.makespan = self.makespan.max(fin);
            mapping.set(*layer, acc);
        }
    }
}

/// Whether `(mk, sum)` beats the best so far: smaller makespan, then
/// smaller sum of finishes.
fn beats(mk: Seconds, sum: Seconds, best: Option<(Seconds, Seconds)>) -> bool {
    best.is_none_or(|(bmk, bsum)| mk < bmk || (mk == bmk && sum < bsum))
}

/// One wave's depth-first walk, its buffers reused across waves. The
/// prefix of depth `i` places each member `j < i` on
/// `candidates[j][idx[j]]`.
#[derive(Default)]
struct Walk {
    /// Per-board availability under the current prefix: the committed
    /// availability raised by the prefix's finishes on that board.
    avail: Vec<Seconds>,
    /// `undo[i]`: the availability member `i`'s board had before it.
    undo: Vec<Seconds>,
    /// `score[i]`: makespan and sum of finishes of the prefix of depth
    /// `i` (`score[0]` is the committed makespan and zero).
    score: Vec<(Seconds, Seconds)>,
    /// Each member's current candidate index.
    idx: Vec<usize>,
    /// Each member's chosen candidate index.
    pick: Vec<usize>,
}

impl Walk {
    /// Resets the walk to the empty prefix of an `n`-member wave.
    fn start(&mut self, state: &WaveState, n: usize) {
        self.avail.clone_from(&state.acc_ready);
        self.undo.resize(n, Seconds::ZERO);
        self.score.resize(n + 1, (Seconds::ZERO, Seconds::ZERO));
        self.score[0] = (state.makespan, Seconds::ZERO);
        for v in [&mut self.idx, &mut self.pick] {
            v.clear();
            v.resize(n, 0);
        }
    }

    /// Finish, makespan and sum of finishes once member `i`, with
    /// dependency time `dep`, runs `d` on `acc` after the prefix of
    /// depth `i`.
    fn child(&self, i: usize, dep: Seconds, (acc, d): (AccId, Seconds)) -> [Seconds; 3] {
        let fin = dep.max(self.avail[acc.index()]) + d;
        let (mk, sum) = self.score[i];
        [fin, mk.max(fin), sum + fin]
    }

    /// Extends the prefix of depth `i` by member `i` on `acc`.
    fn push(&mut self, i: usize, acc: AccId, [fin, mk, sum]: [Seconds; 3]) {
        let avail = &mut self.avail[acc.index()];
        self.undo[i] = *avail;
        *avail = avail.max(fin);
        self.score[i + 1] = (mk, sum);
    }

    /// Sets `pick` to the wave's best assignment, with the odometer's
    /// tie rule (see the module doc).
    fn exhaustive(&mut self, candidates: &[Candidates], deps: &[Seconds]) {
        let last = candidates.len() - 1;
        let mut best: Option<(Seconds, Seconds)> = None;
        let mut i = 0;
        loop {
            let Some(&cand) = candidates[i].get(self.idx[i]) else {
                // Every child of this prefix walked: back up one member.
                if i == 0 {
                    return;
                }
                i -= 1;
                let acc = candidates[i][self.idx[i]].0;
                self.avail[acc.index()] = self.undo[i];
                self.idx[i] += 1;
                continue;
            };
            let child = self.child(i, deps[i], cand);
            let [_, mk, sum] = child;
            // No completion of a prefix the best already beats can score
            // better: cut it.
            let cut = best.is_some_and(|(bmk, bsum)| beats(bmk, bsum, Some((mk, sum))));
            if !cut && i < last {
                self.push(i, cand.0, child);
                i += 1;
                self.idx[i] = 0;
                continue;
            }
            // A complete assignment that scores better, or ties the best
            // and comes first in odometer order.
            if !cut && (beats(mk, sum, best) || self.idx.iter().rev().lt(self.pick.iter().rev())) {
                best = Some((mk, sum));
                self.pick.copy_from_slice(&self.idx);
            }
            self.idx[i] += 1;
        }
    }

    /// Sets `pick` member by member: each takes its first strictly best
    /// child in candidate order.
    fn greedy(&mut self, candidates: &[Candidates], deps: &[Seconds]) {
        for (i, (cands, &dep)) in candidates.iter().zip(deps).enumerate() {
            let mut best = None;
            for (k, &cand) in cands.iter().enumerate() {
                let [_, mk, sum] = self.child(i, dep, cand);
                if beats(mk, sum, best) {
                    best = Some((mk, sum));
                    self.pick[i] = k;
                }
            }
            let cand = cands[self.pick[i]];
            self.push(i, cand.0, self.child(i, dep, cand));
        }
    }
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
    let mut mapping = Mapping::new(model);
    let mut state = WaveState {
        finish: vec![Seconds::ZERO; model.id_bound()],
        acc_ready: vec![Seconds::ZERO; system.num_accs()],
        makespan: Seconds::ZERO,
    };
    // Per-wave buffers, reused across waves.
    let mut candidates: Vec<Candidates> = Vec::new();
    let mut deps: Vec<Seconds> = Vec::new();
    let mut walk = Walk::default();

    for group in model.asap_waves() {
        // The wave's candidate boards and durations, against the
        // now-committed predecessor placements (per-route bandwidths).
        wave_candidates(ev, preset, &mapping, &group, &mut candidates);
        if let Some(i) = candidates.iter().position(Vec::is_empty) {
            return Err(H2hError::NoCapableAccelerator {
                layer: model.layer(group[i]).name().to_owned(),
            });
        }
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

        walk.start(&state, group.len());
        if combos <= cfg.enumeration_cap {
            walk.exhaustive(&candidates, &deps);
        } else {
            walk.greedy(&candidates, &deps);
        }
        state.commit(&group, &deps, &candidates, &walk.pick, &mut mapping);
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

    /// Step 1 as it was before waves were taken once and walked depth
    /// first: a `HashSet` frontier rescan per wave, and every
    /// combination of a wave within the cap scored from scratch in
    /// odometer order, each with its own combination and scratch `Vec`
    /// and every member's predecessors walked again. The depth-first
    /// walk must match it bitwise.
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
            let mut rows = Vec::new();
            wave_candidates(ev, preset, &mapping, &group, &mut rows);
            for (l, row) in group.iter().zip(&rows) {
                for &(a, d) in row {
                    dur[l.index()][a.index()] = Some(d);
                }
            }
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
        for model in &models {
            for system in &systems {
                assert_matches_reference(&Evaluator::new(model, system), &[0, 16, 4096]);
            }
        }
    }

    /// Asserts that step 1 at each cap in `caps` returns the reference's
    /// mapping and makespan, bit for bit.
    fn assert_matches_reference(ev: &Evaluator<'_>, caps: &[usize]) {
        let preset = PinPreset::new();
        for &enumeration_cap in caps {
            let cfg = H2hConfig {
                enumeration_cap,
                ..Default::default()
            };
            let (mapping, makespan) = computation_prioritized(ev, &cfg, &preset).unwrap();
            let (ref_mapping, ref_makespan) = computation_prioritized_reference(ev, &cfg, &preset);
            let at = format!(
                "{} on {} boards, cap {enumeration_cap}",
                ev.model().name(),
                ev.system().num_accs()
            );
            assert_eq!(
                makespan.as_f64().to_bits(),
                ref_makespan.as_f64().to_bits(),
                "{at}"
            );
            for id in ev.model().layer_ids() {
                assert_eq!(mapping.acc_of(id), ref_mapping.acc_of(id), "{at}: {id:?}");
            }
        }
    }

    /// `n` identical universal boards on a uniform star.
    fn identical_boards(n: usize) -> SystemSpec {
        let boards = (0..n)
            .map(|k| ConstAccel::universal(&format!("u{k}"), 1e-3))
            .collect();
        const_system(boards, 1e9)
    }

    /// `width` inputs, each feeding a chain of `depth` equal FC layers,
    /// joined by a concat and one FC head: all but the last two waves
    /// are `width` layers wide.
    fn fan_in(width: usize, depth: usize) -> h2h_model::graph::ModelGraph {
        let mut b = ModelBuilder::new(format!("fan-in {width}x{depth}"));
        let tails: Vec<LayerId> = (0..width)
            .map(|m| {
                let mut x = b.input(&format!("i{m}"), TensorShape::Vector { features: 64 });
                for d in 0..depth {
                    x = b.fc(&format!("f{m}.{d}"), x, 64).unwrap();
                }
                x
            })
            .collect();
        let joined = b.concat("cat", &tails).unwrap();
        b.fc("head", joined, 16).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn exact_ties_go_to_the_combination_the_odometer_meets_first() {
        // On identical boards any permutation of an assignment's boards
        // scores the same, bit for bit, so most assignments of a wide
        // wave tie exactly, and the walk must keep the one the
        // reference's odometer meets first. In the two-class mix only
        // the fast pair runs FC layers: input and concat waves have 2
        // candidates and FC waves 4, so at cap 16 the 3- and 4-wide
        // input waves are enumerated and every FC wave is greedy.
        use h2h_model::layer::LayerClass;
        let fc_only = |id: &str| ConstAccel::universal(id, 5e-4).with_classes(&[LayerClass::Fc]);
        let mix = const_system(
            vec![
                ConstAccel::universal("a0", 1e-3),
                ConstAccel::universal("a1", 1e-3),
                fc_only("f0"),
                fc_only("f1"),
            ],
            1e9,
        );
        for system in [identical_boards(4), mix] {
            for width in 3..=6 {
                for depth in 1..=2 {
                    let model = fan_in(width, depth);
                    assert_matches_reference(&Evaluator::new(&model, &system), &[1, 16, 4096]);
                }
            }
        }
    }

    #[test]
    #[ignore = "a release-mode sweep; CI runs it with --ignored"]
    fn the_walk_matches_the_reference_on_seeded_synthetic_models() {
        // 200 seeded models of 2-6 modalities and depth 2-6, on a
        // standard fabric (bandwidth class by seed), the skewed preset
        // at Low- or Mid, and identical boards.
        use h2h_model::synth::{synthetic_mmmt, SyntheticConfig};
        for seed in 1..=200u64 {
            let model = synthetic_mmmt(&SyntheticConfig {
                modalities: 2 + (seed % 5) as usize,
                depth: 2 + (seed / 5 % 5) as usize,
                seed,
                ..Default::default()
            });
            let skewed_bw = [BandwidthClass::LowMinus, BandwidthClass::Mid][seed as usize % 2];
            let systems = [
                SystemSpec::standard(BandwidthClass::ALL[seed as usize % 5]),
                SystemSpec::standard_with_topology(skewed_bw, Some("skewed")).unwrap(),
                identical_boards(4),
            ];
            for system in &systems {
                assert_matches_reference(&Evaluator::new(&model, system), &[1, 16, 256, 4096]);
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
