//! The four-step H2H mapping pipeline (paper Algorithm 1).
//!
//! ```text
//! (1) computation-prioritized mapping   — zero locality, ΔSys_latency
//! (2) weight-locality optimization      — knapsack into M_acc
//! (3) activation-transfer optimization  — fuse co-located edges
//! (4) data-locality-aware remapping     — greedy accept-if-better
//! ```
//!
//! The paper's evaluation baseline is the state after step 2 ("existing
//! works can also assume local DRAM", §5.2); [`H2hOutcome`] keeps one
//! snapshot per step so Fig. 4 / Table 4 style reductions can be read
//! off directly.
//!
//! Step 3 runs on the step-4 search engine: [`DeltaEngine`] replays the
//! fusion pass on its own pins-only schedule, bitwise the one-shot
//! `activation_fusion_opt`, and the search starts from that engine. A
//! map therefore runs steps 2–3 once and makes four full evaluations:
//! one per step-1, step-2 and step-3 snapshot, and step 4's result.

use std::fmt;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use h2h_model::graph::ModelGraph;
use h2h_model::units::{Joules, Seconds};
use h2h_system::locality::LocalityState;
use h2h_system::mapping::{Mapping, MappingError};
use h2h_system::schedule::{EnergyBreakdown, Evaluator, Schedule};
use h2h_system::system::SystemSpec;

use crate::compute_map::computation_prioritized;
use crate::config::H2hConfig;
use crate::delta::{DeltaEngine, SearchStats};
use crate::preset::PinPreset;
use crate::remap::remap_seeded;
use crate::weight_locality::weight_locality_opt;

/// Errors of the H2H pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum H2hError {
    /// No accelerator in the system can execute this layer's class.
    NoCapableAccelerator {
        /// Layer name.
        layer: String,
    },
    /// A produced mapping failed validation (internal invariant).
    Mapping(MappingError),
}

impl fmt::Display for H2hError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H2hError::NoCapableAccelerator { layer } => {
                write!(f, "no accelerator in the system can run layer `{layer}`")
            }
            H2hError::Mapping(e) => write!(f, "mapping invalid: {e}"),
        }
    }
}

impl std::error::Error for H2hError {}

impl From<MappingError> for H2hError {
    fn from(e: MappingError) -> Self {
        H2hError::Mapping(e)
    }
}

/// The four pipeline steps, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Step {
    /// Step 1: computation-prioritized mapping.
    ComputePrioritized,
    /// Step 2: weight-locality optimization (the evaluation baseline).
    WeightLocality,
    /// Step 3: activation-transfer optimization.
    ActivationFusion,
    /// Step 4: data-locality-aware remapping.
    Remapping,
}

impl Step {
    /// All steps in pipeline order.
    pub const ALL: [Step; 4] = [
        Step::ComputePrioritized,
        Step::WeightLocality,
        Step::ActivationFusion,
        Step::Remapping,
    ];

    /// 1-based index as used in the paper's figures.
    pub fn number(self) -> usize {
        match self {
            Step::ComputePrioritized => 1,
            Step::WeightLocality => 2,
            Step::ActivationFusion => 3,
            Step::Remapping => 4,
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Step::ComputePrioritized => "computation-prioritized",
            Step::WeightLocality => "weight locality",
            Step::ActivationFusion => "activation fusion",
            Step::Remapping => "remapping",
        };
        write!(f, "step {} ({name})", self.number())
    }
}

/// System state recorded after one pipeline step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepSnapshot {
    /// Which step this snapshot follows.
    pub step: Step,
    /// Modeled `Sys_latency`.
    pub latency: Seconds,
    /// Modeled energy decomposition.
    pub energy: EnergyBreakdown,
    /// Computation share of busy time (Fig. 5a).
    pub compute_ratio: f64,
    /// Wall-clock time this step took to search/optimize.
    pub elapsed: Duration,
}

impl StepSnapshot {
    fn record(step: Step, schedule: &Schedule, elapsed: Duration) -> Self {
        StepSnapshot {
            step,
            latency: schedule.makespan(),
            energy: *schedule.energy(),
            compute_ratio: schedule.compute_ratio(),
            elapsed,
        }
    }

    /// Total modeled energy.
    pub fn total_energy(&self) -> Joules {
        self.energy.total()
    }
}

/// Result of a full H2H pipeline run.
#[derive(Debug)]
pub struct H2hOutcome {
    /// One snapshot per step of Algorithm 1, in order (always 4).
    pub snapshots: Vec<StepSnapshot>,
    /// The final mapping.
    pub mapping: Mapping,
    /// The final locality state.
    pub locality: LocalityState,
    /// The final schedule.
    pub schedule: Schedule,
    /// Total mapper wall-clock ("search time", Fig. 5b).
    pub search_time: Duration,
    /// Search counters and delta-vs-full evaluation counts of step 4.
    pub remap_stats: SearchStats,
}

impl H2hOutcome {
    /// Snapshot after a given step.
    pub fn after(&self, step: Step) -> &StepSnapshot {
        &self.snapshots[step.number() - 1]
    }

    /// The paper's baseline latency: after step 2 (computation-
    /// prioritized mapping + weight locality, like \[10\] with DRAM).
    pub fn baseline_latency(&self) -> Seconds {
        self.after(Step::WeightLocality).latency
    }

    /// The paper's baseline energy.
    pub fn baseline_energy(&self) -> Joules {
        self.after(Step::WeightLocality).total_energy()
    }

    /// Final latency after all four steps.
    pub fn final_latency(&self) -> Seconds {
        self.after(Step::Remapping).latency
    }

    /// Final energy after all four steps.
    pub fn final_energy(&self) -> Joules {
        self.after(Step::Remapping).total_energy()
    }

    /// Latency reduction vs the baseline, in `[0, 1)`.
    pub fn latency_reduction(&self) -> f64 {
        let base = self.baseline_latency().as_f64();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.final_latency().as_f64() / base
    }

    /// Energy reduction vs the baseline, in `[0, 1)`.
    pub fn energy_reduction(&self) -> f64 {
        let base = self.baseline_energy().as_f64();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.final_energy().as_f64() / base
    }
}

/// The H2H mapper: binds a model and a system, runs Algorithm 1.
///
/// # Examples
///
/// ```
/// use h2h_core::pipeline::H2hMapper;
/// use h2h_system::system::{BandwidthClass, SystemSpec};
///
/// let model = h2h_model::zoo::mocap();
/// let system = SystemSpec::standard(BandwidthClass::LowMinus);
/// let outcome = H2hMapper::new(&model, &system).run()?;
/// assert!(outcome.final_latency() <= outcome.baseline_latency());
/// # Ok::<(), h2h_core::pipeline::H2hError>(())
/// ```
#[derive(Debug)]
pub struct H2hMapper<'a> {
    evaluator: Evaluator<'a>,
    config: H2hConfig,
    preset: PinPreset,
}

impl<'a> H2hMapper<'a> {
    /// Binds a mapper with the default configuration.
    pub fn new(model: &'a ModelGraph, system: &'a SystemSpec) -> Self {
        H2hMapper {
            evaluator: Evaluator::new(model, system),
            config: H2hConfig::default(),
            preset: PinPreset::new(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: H2hConfig) -> Self {
        self.config = config;
        self
    }

    /// Supplies pre-buffered weights (dynamic modality change, §4.5).
    pub fn with_preset(mut self, preset: PinPreset) -> Self {
        self.preset = preset;
        self
    }

    /// Sets the serving batch size: `batch` requests stream through
    /// back-to-back, weights are fetched once per batch, activations
    /// and compute repeat per request.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn with_serving_batch(mut self, batch: u32) -> Self {
        // Preserve the already-built evaluator state (memoized cost
        // cache, topological order) — only the batch factor changes.
        self.evaluator = self.evaluator.with_batch(batch);
        self
    }

    /// The bound evaluator (exposed for diagnostics and tests).
    pub fn evaluator(&self) -> &Evaluator<'a> {
        &self.evaluator
    }

    /// Runs the full pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`H2hError::NoCapableAccelerator`] when a layer class has
    /// no home in the system.
    pub fn run(&self) -> Result<H2hOutcome, H2hError> {
        let ev = &self.evaluator;
        let cfg = &self.config;
        let total_start = Instant::now();
        let mut snapshots = Vec::with_capacity(4);

        // Step 1: computation-prioritized mapping, zero locality.
        let t = Instant::now();
        let (mut mapping, _) = computation_prioritized(ev, cfg, &self.preset)?;
        let zero = LocalityState::new(ev.system());
        let s1 = ev.evaluate(&mapping, &zero);
        snapshots.push(StepSnapshot::record(
            Step::ComputePrioritized,
            &s1,
            t.elapsed(),
        ));

        // Step 2: weight locality.
        let t = Instant::now();
        let loc2 = weight_locality_opt(ev, &mapping, zero, cfg.knapsack, &self.preset);
        let s2 = ev.evaluate(&mapping, &loc2);
        snapshots.push(StepSnapshot::record(Step::WeightLocality, &s2, t.elapsed()));

        // Step 3: activation fusion, replayed on the step-4 engine's own
        // schedule (see the module docs).
        let t = Instant::now();
        let engine = DeltaEngine::from_pins(ev, cfg, &self.preset, &mapping, loc2);
        let s3 = ev.evaluate(&mapping, engine.locality());
        snapshots.push(StepSnapshot::record(
            Step::ActivationFusion,
            &s3,
            t.elapsed(),
        ));

        // Step 4: remapping (delta-scored, exact at accept time).
        let t = Instant::now();
        let remap = remap_seeded(engine, &mut mapping);
        snapshots.push(StepSnapshot::record(
            Step::Remapping,
            &remap.schedule,
            t.elapsed(),
        ));

        mapping.validate(ev.model(), ev.system())?;
        Ok(H2hOutcome {
            snapshots,
            mapping,
            locality: remap.locality,
            schedule: remap.schedule,
            search_time: total_start.elapsed(),
            remap_stats: remap.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_system::system::BandwidthClass;

    #[test]
    fn four_snapshots_in_order() {
        let model = h2h_model::zoo::mocap();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        assert_eq!(out.snapshots.len(), 4);
        for (snap, step) in out.snapshots.iter().zip(Step::ALL) {
            assert_eq!(snap.step, step);
        }
    }

    #[test]
    fn steps_monotonically_improve_latency() {
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        let l: Vec<f64> = out.snapshots.iter().map(|s| s.latency.as_f64()).collect();
        assert!(l[1] <= l[0] + 1e-12, "weight locality must not hurt: {l:?}");
        assert!(l[2] <= l[1] + 1e-12, "fusion must not hurt: {l:?}");
        assert!(l[3] <= l[2] + 1e-12, "remapping must not hurt: {l:?}");
    }

    #[test]
    fn a_map_evaluates_fully_only_for_its_snapshots_and_its_result() {
        // One full evaluation per step-1, step-2 and step-3 snapshot and
        // one for step 4's result: step 3 runs once, on the step-4
        // engine's own schedule, and none of its guards evaluates fully.
        for bw in [BandwidthClass::LowMinus, BandwidthClass::Mid] {
            let system = SystemSpec::standard(bw);
            for model in h2h_model::zoo::all_models() {
                let mapper = H2hMapper::new(&model, &system);
                let out = mapper.run().unwrap();
                let tag = format!("{} @ {}", model.name(), bw.label());
                assert_eq!(mapper.evaluator().evals_performed(), 4, "{tag}");
                assert_eq!(out.remap_stats.full_evals, 1, "{tag}");
            }
        }
    }

    #[test]
    fn h2h_beats_baseline_on_communication_bound_model() {
        let model = h2h_model::zoo::mocap();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        assert!(
            out.latency_reduction() > 0.15,
            "MoCap at Low- should gain >15%, got {:.1}%",
            out.latency_reduction() * 100.0
        );
        assert!(out.energy_reduction() > 0.0);
    }

    #[test]
    fn search_time_is_subsecond_for_small_models() {
        // Paper Fig. 5b: search completes in under a second; our models
        // under 30 layers finish far faster even in CI.
        let model = h2h_model::zoo::mocap();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        assert!(
            out.search_time < Duration::from_secs(5),
            "search took {:?}",
            out.search_time
        );
    }

    #[test]
    fn batched_serving_amortizes_weights_end_to_end() {
        // CNN-LSTM is weight-transfer-bound at batch 1; at batch 16 the
        // per-request latency must drop well below the batch-1 latency,
        // and the relative H2H gain must grow (activations dominate).
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let b1 = H2hMapper::new(&model, &system).run().unwrap();
        let b16 = H2hMapper::new(&model, &system)
            .with_serving_batch(16)
            .run()
            .unwrap();
        let per_request = b16.final_latency().as_f64() / 16.0;
        assert!(
            per_request < b1.final_latency().as_f64(),
            "batching must amortize: {per_request} vs {}",
            b1.final_latency()
        );
        assert!(
            b16.latency_reduction() >= b1.latency_reduction() - 0.02,
            "communication awareness should matter at least as much under batching: {:.3} vs {:.3}",
            b16.latency_reduction(),
            b1.latency_reduction()
        );
    }

    #[test]
    fn compute_ratio_rises_after_h2h() {
        // Fig. 5a: the computation share of busy time grows once
        // communication is optimized away.
        let model = h2h_model::zoo::mocap();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        let before = out.after(Step::WeightLocality).compute_ratio;
        let after = out.after(Step::Remapping).compute_ratio;
        assert!(
            after > before,
            "compute ratio should rise: {before:.3} -> {after:.3}"
        );
    }
}
