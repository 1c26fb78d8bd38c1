//! Simulated-annealing mapper — a generic stochastic rival to H2H's greedy search.
//!
//! The paper positions H2H's greedy pipeline as finding good mappings
//! "within seconds". A natural question a reviewer asks: what does a
//! generic stochastic search achieve with a comparable or larger budget?
//! This module provides a deterministic (seeded) SA over the same
//! objective (end-to-end modeled latency with steps 2–3 re-applied per
//! candidate). It is one of the rival searchers that ROADMAP.md's
//! mapping-quality item measures H2H against, and the golden snapshot
//! `tests/golden/anneal_cnn_lstm_lowminus.txt` pins one seeded walk.
//!
//! Each iteration draws three uniforms from the seeded stream (layer,
//! destination, acceptance) and cools the temperature once, whether or
//! not the drawn layer has an alternative placement. Proposals are
//! staged on the [`DeltaEngine`]'s fusion replay exactly as in the
//! greedy loop (see [`crate::delta`]), so their makespans are
//! bitwise-equal to full evaluations and no proposal pays one. The seed
//! is step 3 replayed on the engine's own schedule, so a walk's only
//! full evaluation is its result, which is evaluated exactly and
//! guarded to never lose to the seed mapping.

use h2h_model::graph::LayerId;
use h2h_system::schedule::Evaluator;
use h2h_system::system::AccId;

use crate::activation_fusion::rebuild_locality;
use crate::baseline::{BaselineOutcome, XorShift};
use crate::compute_map::computation_prioritized;
use crate::config::H2hConfig;
use crate::delta::DeltaEngine;
use crate::pipeline::H2hError;
use crate::preset::PinPreset;

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Iteration count; each draws one proposal, scored unless the
    /// drawn layer has a single capable accelerator.
    pub iterations: usize,
    /// Initial temperature as a fraction of the initial latency (e.g.
    /// `0.05` = accept ~5% regressions early).
    pub initial_temp: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
    /// RNG seed (xorshift64*; the crate stays dependency-free). Every
    /// non-zero seed gives its own walk.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 2000,
            initial_temp: 0.05,
            cooling: 0.9985,
            seed: 1,
        }
    }
}

/// Runs simulated annealing from the computation-prioritized seed
/// mapping. Deterministic per configuration. The caller's [`PinPreset`]
/// (dynamic modality change, §4.5) participates in every locality
/// rebuild, exactly as in the greedy pipeline.
///
/// # Errors
///
/// Returns [`H2hError::NoCapableAccelerator`] if some layer cannot run
/// anywhere.
pub fn simulated_annealing(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
    anneal: &AnnealConfig,
    preset: &PinPreset,
) -> Result<BaselineOutcome, H2hError> {
    let model = ev.model();
    let system = ev.system();

    let layers: Vec<LayerId> = model.topo_order();
    let capable: Vec<Vec<AccId>> = layers
        .iter()
        .map(|id| {
            system
                .acc_ids()
                .filter(|a| ev.cache().time(*id, *a).is_some())
                .collect()
        })
        .collect();

    let (mut mapping, _) = computation_prioritized(ev, cfg, preset)?;
    let seed_mapping = mapping.clone();
    let mut engine = DeltaEngine::new(ev, cfg, preset, &mapping);
    let seed_makespan = engine.seed_makespan();
    let mut best_mapping = mapping.clone();
    let mut best_makespan = seed_makespan.as_f64();

    let mut rng = XorShift::new(anneal.seed);
    let mut current_makespan = best_makespan;
    let mut temp = current_makespan * anneal.initial_temp;
    for _ in 0..anneal.iterations {
        // Three draws and one cooling step per iteration, skipped or
        // not, so the proposal stream depends on the seed alone.
        let u_layer = rng.uniform();
        let u_pick = rng.uniform();
        let u_accept = rng.uniform();
        let this_temp = temp;
        temp *= anneal.cooling;
        let layer_idx = (u_layer * layers.len() as f64) as usize % layers.len();
        let options = &capable[layer_idx];
        if options.len() < 2 {
            continue;
        }
        let layer = layers[layer_idx];
        let old = mapping.acc_of(layer);
        let mut to = options[(u_pick * options.len() as f64) as usize % options.len()];
        if to == old {
            let at = options
                .iter()
                .position(|a| *a == old)
                .expect("old is capable");
            to = options[(at + 1) % options.len()];
        }
        engine.stats.attempted_moves += 1;
        engine.stage_move(&mut mapping, layer, to);
        let makespan = engine.staged_makespan();
        let delta = makespan - current_makespan;
        if delta <= 0.0 || (this_temp > 0.0 && u_accept < (-delta / this_temp).exp()) {
            engine.accept_staged();
            current_makespan = makespan;
            if current_makespan < best_makespan {
                best_makespan = current_makespan;
                best_mapping.clone_from(&mapping);
            }
        } else {
            engine.reject_staged(&mut mapping);
        }
    }

    let mut stats = engine.stats;
    let mut locality = rebuild_locality(ev, &best_mapping, cfg, preset);
    let mut schedule = ev.evaluate(&best_mapping, &locality);
    stats.full_rebuilds += 1;
    stats.full_evals += 1;
    if schedule.makespan() > seed_makespan {
        // Safety net (never expected to trigger): the walk may not lose
        // to its own seed.
        best_mapping = seed_mapping;
        locality = rebuild_locality(ev, &best_mapping, cfg, preset);
        schedule = ev.evaluate(&best_mapping, &locality);
        stats.full_rebuilds += 1;
        stats.full_evals += 1;
    }
    Ok(BaselineOutcome {
        mapping: best_mapping,
        locality,
        schedule,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::computation_prioritized_baseline;
    use h2h_system::system::{BandwidthClass, SystemSpec};

    #[test]
    fn sa_never_worse_than_its_seed() {
        let model = h2h_model::zoo::mocap();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        let seed = computation_prioritized_baseline(&ev, &cfg).unwrap();
        // Note: the SA objective includes fusion (steps 2-3), the seed
        // baseline does not — compare against seed + rebuild.
        let seed_full = {
            let loc = rebuild_locality(&ev, &seed.mapping, &cfg, &PinPreset::new());
            ev.evaluate(&seed.mapping, &loc).makespan()
        };
        let sa = simulated_annealing(
            &ev,
            &cfg,
            &AnnealConfig {
                iterations: 200,
                ..Default::default()
            },
            &PinPreset::new(),
        )
        .unwrap();
        assert!(
            sa.schedule.makespan() <= seed_full,
            "SA {} must not lose to its seed {}",
            sa.schedule.makespan(),
            seed_full
        );
        sa.mapping.validate(&model, &system).unwrap();
    }

    #[test]
    fn sa_is_deterministic_per_seed() {
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        let a = simulated_annealing(
            &ev,
            &cfg,
            &AnnealConfig {
                iterations: 150,
                seed: 42,
                ..Default::default()
            },
            &PinPreset::new(),
        )
        .unwrap();
        let b = simulated_annealing(
            &ev,
            &cfg,
            &AnnealConfig {
                iterations: 150,
                seed: 42,
                ..Default::default()
            },
            &PinPreset::new(),
        )
        .unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.schedule.makespan(), b.schedule.makespan());
    }

    #[test]
    fn zero_iterations_returns_the_seed() {
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        let sa = simulated_annealing(
            &ev,
            &cfg,
            &AnnealConfig {
                iterations: 0,
                ..Default::default()
            },
            &PinPreset::new(),
        )
        .unwrap();
        let (seed_mapping, _) = computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
        assert_eq!(sa.mapping, seed_mapping);
    }

    #[test]
    fn sa_honours_the_callers_preset() {
        // A preset pin must survive into the SA result's locality: the
        // regression this test guards is `simulated_annealing`
        // hard-coding `PinPreset::new()` and silently dropping
        // pre-buffered weights.
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        // Find a weighted layer and pre-buffer it where SA's seed maps it.
        let (seed_mapping, _) = computation_prioritized(&ev, &cfg, &PinPreset::new()).unwrap();
        let weighted = model
            .topo_order()
            .into_iter()
            .find(|id| model.layer(*id).has_weights())
            .expect("zoo model has weighted layers");
        let mut preset = PinPreset::new();
        preset.insert(weighted, seed_mapping.acc_of(weighted));
        let sa = simulated_annealing(
            &ev,
            &cfg,
            &AnnealConfig {
                iterations: 40,
                ..Default::default()
            },
            &preset,
        )
        .unwrap();
        // If SA kept the layer where the weights already live, they must
        // be pinned (forced pins precede the knapsack).
        if sa.mapping.acc_of(weighted) == seed_mapping.acc_of(weighted) {
            assert!(
                sa.locality.is_pinned(weighted),
                "preset pin dropped by the annealer"
            );
        }
        assert!(
            sa.stats.delta_evals > 0,
            "SA must route through the delta engine"
        );
    }

    #[test]
    fn sa_spends_fewer_full_evals_than_proposals() {
        // A small model with risky fusion candidates, whose proposals
        // the delta replay scores like any other's: the walk's only full
        // evaluation is its result (its seed is a step-3 replay).
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        let sa = simulated_annealing(
            &ev,
            &cfg,
            &AnnealConfig {
                iterations: 300,
                ..Default::default()
            },
            &PinPreset::new(),
        )
        .unwrap();
        assert_eq!(
            sa.stats.full_evals, 1,
            "only the result may evaluate fully ({} proposals)",
            sa.stats.attempted_moves
        );
        assert_eq!(sa.stats.delta_evals, sa.stats.attempted_moves);
        // The Metropolis rule needs exact scores: no proposal is screened.
        assert_eq!(sa.stats.screened, 0);
    }
}
