//! Step 3 — activation-transfer optimization (paper §4.3).
//!
//! When two adjacent layers share an accelerator, the intermediate
//! IFM/OFM can stay in the accelerator's local DRAM ("activation
//! fusion") and the Ethernet round-trip through the host disappears.
//! Fusion buffers compete with pinned weights for DRAM capacity, so
//! candidates are processed largest-saving-first.

use h2h_model::graph::LayerId;
use h2h_model::layer::LayerOp;
use h2h_model::units::Bytes;
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::Evaluator;

use crate::config::H2hConfig;
use crate::preset::PinPreset;
use crate::weight_locality::weight_locality_opt;

/// Marks capacity-feasible same-accelerator edges as fused, biggest
/// activation first. Edges from model inputs are skipped (the raw
/// modality tensor always streams from the host once).
///
/// Fusion is *makespan-guarded*: most fusions provably cannot hurt (the
/// consumer's Ethernet download becomes a DRAM read, and the producer
/// either already pays a DRAM write or drops its Ethernet upload
/// entirely), but an edge whose producer keeps other remote consumers
/// gains a fresh DRAM-write term on the — possibly critical — producer
/// while the saving lands on the consumer. Those risky candidates are
/// accepted only if the evaluated system latency does not increase,
/// preserving the pipeline's step-monotonicity invariant.
pub fn activation_fusion_opt(ev: &Evaluator<'_>, mapping: &Mapping, loc: &mut LocalityState) {
    let candidates = sorted_fusion_candidates(ev, mapping);
    fusion_pass(
        ev,
        mapping,
        loc,
        &candidates,
        &mut FullEvalOracle { ev, mapping },
    );
}

/// Every fusable edge (non-input producer) in the pass's canonical
/// global order: activation bytes descending, ties by endpoint
/// indices. Mapping-independent — the incremental search core computes
/// it once and filters per candidate mapping;
/// [`sorted_fusion_candidates`] filters it for one mapping. Both share
/// this single definition of the order so they can never drift apart.
pub fn sorted_fusable_edges(model: &h2h_model::ModelGraph) -> Vec<(LayerId, LayerId, Bytes)> {
    let mut edges: Vec<(Bytes, LayerId, LayerId)> = model
        .edges()
        .filter(|(from, _, _)| !matches!(model.layer(*from).op(), LayerOp::Input { .. }))
        .map(|(from, to, e)| (e.bytes(), from, to))
        .collect();
    edges.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then(a.1.index().cmp(&b.1.index()))
            .then(a.2.index().cmp(&b.2.index()))
    });
    // The byte volume rides along: capacity checks on the replay
    // hot path read it from the candidate instead of re-scanning the
    // graph's edge storage per `try_fuse`.
    edges.into_iter().map(|(b, f, t)| (f, t, b)).collect()
}

/// The colocated fusion candidates of `mapping`, in the canonical
/// global order of [`sorted_fusable_edges`].
pub fn sorted_fusion_candidates(
    ev: &Evaluator<'_>,
    mapping: &Mapping,
) -> Vec<(LayerId, LayerId, Bytes)> {
    sorted_fusable_edges(ev.model())
        .into_iter()
        .filter(|(from, to, _)| {
            mapping.get(*from).is_some() && mapping.get(*from) == mapping.get(*to)
        })
        .collect()
}

/// How a [`fusion_pass`] run observes the schedule it is mutating.
///
/// The pass body is shared between the one-shot optimizer (guards
/// answered by full evaluations) and the incremental search core
/// (guards answered by the delta schedule, which is bitwise-equal), so
/// the two can never drift apart in candidate order or accept logic.
pub trait FusionOracle {
    /// Called after a non-risky fusion is accepted (capacity permitting).
    fn fused(&mut self, loc: &LocalityState, from: LayerId, to: LayerId);
    /// Called after a risky fusion is applied or reverted, so the
    /// oracle can resynchronize its schedule state.
    fn toggled(&mut self, loc: &LocalityState, from: LayerId, to: LayerId);
    /// Exact makespan of the mapping under `loc`.
    fn makespan(&mut self, loc: &LocalityState) -> h2h_model::units::Seconds;

    /// Offers the oracle the chance to resolve a risky candidate's
    /// makespan guard without the toggle/measure/maybe-revert replay.
    /// On `Some(accepted)` the guard is settled: the oracle has left
    /// `loc` in the decided state (edge fused on accept — with its cost
    /// refreshes staged — untouched on reject) and the pass moves on.
    /// On `None` the oracle must leave `loc` unchanged and the pass
    /// runs the full guard. Any resolution must reproduce the exact
    /// accept/reject decision the full guard would have made — prove
    /// it, or return `None`. The default (used by the one-shot
    /// full-evaluation optimizer, which has no incremental schedule to
    /// prove against) never resolves.
    fn resolve_guard(
        &mut self,
        loc: &mut LocalityState,
        from: LayerId,
        to: LayerId,
        acc: h2h_system::system::AccId,
        bytes: Bytes,
    ) -> Option<bool> {
        let _ = (loc, from, to, acc, bytes);
        None
    }

    /// Called right before a risky candidate's toggle is applied (after
    /// the `before` makespan read), so the oracle can mark a restore
    /// point for [`FusionOracle::guard_revert`].
    fn guard_begin(&mut self) {}

    /// Reverts the toggle applied since [`FusionOracle::guard_begin`]
    /// (the guard rejected; `loc` is already unfused). The default
    /// resynchronizes like any other toggle; oracles with a restore
    /// point can do better.
    fn guard_revert(&mut self, loc: &LocalityState, from: LayerId, to: LayerId) {
        self.toggled(loc, from, to);
    }

    /// The guard accepted: the toggle applied since
    /// [`FusionOracle::guard_begin`] stands; drop the restore point.
    fn guard_commit(&mut self) {}
}

struct FullEvalOracle<'e, 'm, 'a> {
    ev: &'e Evaluator<'m>,
    mapping: &'a Mapping,
}

impl FusionOracle for FullEvalOracle<'_, '_, '_> {
    fn fused(&mut self, _loc: &LocalityState, _from: LayerId, _to: LayerId) {}
    fn toggled(&mut self, _loc: &LocalityState, _from: LayerId, _to: LayerId) {}
    fn makespan(&mut self, loc: &LocalityState) -> h2h_model::units::Seconds {
        self.ev.evaluate(self.mapping, loc).makespan()
    }
}

/// The step-3 pass body over pre-ordered `candidates` (see module docs
/// for the accept rules). `oracle` supplies exact makespans for the
/// risky-candidate guard and observes every fusion toggle.
pub fn fusion_pass(
    ev: &Evaluator<'_>,
    mapping: &Mapping,
    loc: &mut LocalityState,
    candidates: &[(LayerId, LayerId, Bytes)],
    oracle: &mut dyn FusionOracle,
) {
    let system = ev.system();
    for &(from, to, bytes) in candidates {
        let acc = mapping.acc_of(from);
        let local = |s: &LayerId, loc: &LocalityState| {
            loc.is_fused(from, *s) && mapping.get(*s) == Some(acc)
        };
        // Producer-side cost analysis (see doc comment). The consumer
        // list comes from the evaluator's flat CSR row — the search
        // core replays this loop per scored candidate, and walking the
        // model graph's successors per edge dominated the pass body.
        let succs = ev.successors_flat(from);
        let already_pays_dram_write = succs.iter().any(|s| local(s, loc));
        let all_local_after = succs.iter().all(|s| *s == to || local(s, loc));
        let risky = !already_pays_dram_write && !all_local_after;
        if !risky {
            // Capacity-checked; refusal is fine (budget exhausted).
            if loc.try_fuse_bytes(system, from, to, acc, bytes) {
                oracle.fused(loc, from, to);
            }
            continue;
        }
        // Guard pruning: when the oracle can prove the outcome (the
        // delta engine's delay walk proves accepts), the whole
        // toggle/measure/maybe-revert replay below is skipped (same
        // decision, by proof).
        if oracle.resolve_guard(loc, from, to, acc, bytes).is_some() {
            continue;
        }
        let before = oracle.makespan(loc);
        if loc.try_fuse_bytes(system, from, to, acc, bytes) {
            oracle.guard_begin();
            oracle.toggled(loc, from, to);
            let after = oracle.makespan(loc);
            if after > before {
                loc.unfuse(from, to, acc);
                oracle.guard_revert(loc, from, to);
            } else {
                oracle.guard_commit();
            }
        }
    }
}

/// Rebuilds the full locality state for a mapping: forced pins + weight
/// knapsack (step 2), then activation fusion (step 3). This is the
/// "re-execute steps 2 and 3" primitive that every remapping attempt of
/// step 4 calls (paper §4.4).
pub fn rebuild_locality(
    ev: &Evaluator<'_>,
    mapping: &Mapping,
    cfg: &H2hConfig,
    preset: &PinPreset,
) -> LocalityState {
    let zero = LocalityState::new(ev.system());
    let mut loc = weight_locality_opt(ev, mapping, zero, cfg.knapsack, preset);
    activation_fusion_opt(ev, mapping, &mut loc);
    loc
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_model::builder::ModelBuilder;
    use h2h_model::tensor::TensorShape;
    use h2h_system::system::AccId;
    use h2h_system::testutil::{const_system, ConstAccel};

    fn chain() -> h2h_model::ModelGraph {
        let mut b = ModelBuilder::new("c");
        let i = b.input("i", TensorShape::Vector { features: 1024 });
        let f1 = b.fc("f1", i, 1024).unwrap();
        let f2 = b.fc("f2", f1, 1024).unwrap();
        b.fc("f3", f2, 1024).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn fuses_colocated_edges_only() {
        let m = chain();
        let sys = const_system(
            vec![
                ConstAccel::universal("u0", 1e-3),
                ConstAccel::universal("u1", 1e-3),
            ],
            1e6,
        );
        let ids = m.topo_order();
        let mut map = Mapping::new(&m);
        map.set(ids[0], AccId::new(0));
        map.set(ids[1], AccId::new(0));
        map.set(ids[2], AccId::new(0));
        map.set(ids[3], AccId::new(1));
        let ev = Evaluator::new(&m, &sys);
        let mut loc = LocalityState::new(&sys);
        activation_fusion_opt(&ev, &map, &mut loc);
        // f1->f2 co-located and fusable; input->f1 skipped (input edge);
        // f2->f3 crosses accelerators.
        assert!(loc.is_fused(ids[1], ids[2]));
        assert!(!loc.is_fused(ids[0], ids[1]));
        assert!(!loc.is_fused(ids[2], ids[3]));
        assert_eq!(loc.num_fused(), 1);
    }

    #[test]
    fn fusion_never_hurts_latency() {
        let m = chain();
        let sys = const_system(vec![ConstAccel::universal("u", 1e-3)], 1e6);
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let ev = Evaluator::new(&m, &sys);
        let before = ev.evaluate(&map, &LocalityState::new(&sys));
        let mut loc = LocalityState::new(&sys);
        activation_fusion_opt(&ev, &map, &mut loc);
        let after = ev.evaluate(&map, &loc);
        assert!(after.makespan() < before.makespan());
    }

    #[test]
    fn capacity_pressure_prefers_biggest_edges() {
        // Two fusable edges (4 KiB each) but DRAM room for ~one after a
        // big pinned weight: the larger edge (equal here -> first by id)
        // wins; with a tiny board, at least one fusion must be refused.
        let m = chain();
        let sys = const_system(
            vec![ConstAccel::universal("u", 1e-3).with_dram(Bytes::new(6 * 1024))],
            1e6,
        );
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let ev = Evaluator::new(&m, &sys);
        let mut loc = LocalityState::new(&sys);
        activation_fusion_opt(&ev, &map, &mut loc);
        // Edges f1->f2 and f2->f3 are 4 KiB each; 6 KiB budget fits one.
        assert_eq!(loc.num_fused(), 1);
    }

    #[test]
    fn rebuild_combines_both_passes() {
        let m = chain();
        let sys = const_system(vec![ConstAccel::universal("u", 1e-3)], 1e6);
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let ev = Evaluator::new(&m, &sys);
        let cfg = H2hConfig::default();
        let loc = rebuild_locality(&ev, &map, &cfg, &PinPreset::new());
        assert!(loc.num_pinned() > 0, "weights pinned");
        assert!(loc.num_fused() > 0, "activations fused");
    }
}
