//! Experiment runner: executes the H2H pipeline over the evaluation
//! grid (6 zoo models × 5 bandwidth classes) and records everything the
//! paper's figures and tables report.

use std::thread;

use serde::{Deserialize, Serialize};

use h2h_core::pipeline::{H2hMapper, Step};
use h2h_model::graph::ModelGraph;
use h2h_model::zoo;
use h2h_system::system::{BandwidthClass, SystemSpec};

/// Everything recorded for one (model, bandwidth) pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRun {
    /// Model name (Table 2).
    pub model: String,
    /// Bandwidth class label (`"Low-"` … `"High"`).
    pub bandwidth: String,
    /// `BW_acc` in GB/s.
    pub bandwidth_gbps: f64,
    /// Modeled latency after each of the four steps, seconds.
    pub latency: [f64; 4],
    /// Modeled total energy after each step, joules.
    pub energy: [f64; 4],
    /// Computation share of busy time after step 2 (the baseline).
    pub baseline_compute_ratio: f64,
    /// Computation share of busy time after step 4 (H2H).
    pub h2h_compute_ratio: f64,
    /// Mapper wall-clock, seconds (Fig. 5b).
    pub search_seconds: f64,
}

impl ModelRun {
    /// Latency reduction of the full pipeline vs the step-2 baseline.
    pub fn latency_reduction(&self) -> f64 {
        1.0 - self.latency[3] / self.latency[1]
    }

    /// Energy reduction vs the step-2 baseline.
    pub fn energy_reduction(&self) -> f64 {
        1.0 - self.energy[3] / self.energy[1]
    }

    /// Step-3 latency as a fraction of the baseline (Table 4 column 3).
    pub fn step3_fraction(&self) -> f64 {
        self.latency[2] / self.latency[1]
    }

    /// Step-4 latency as a fraction of the baseline (Table 4 column 4).
    pub fn step4_fraction(&self) -> f64 {
        self.latency[3] / self.latency[1]
    }
}

/// Runs the full H2H pipeline, default configuration, for one model at
/// one bandwidth class.
///
/// # Panics
///
/// Panics if the pipeline fails — the standard system supports every
/// zoo layer class, so this indicates a bug.
pub fn run_model(model: &ModelGraph, bw: BandwidthClass) -> ModelRun {
    let system = SystemSpec::standard(bw);
    let outcome = H2hMapper::new(model, &system)
        .run()
        .unwrap_or_else(|e| panic!("{} at {}: {e}", model.name(), bw.label()));
    let latency = Step::ALL.map(|s| outcome.after(s).latency.as_f64());
    let energy = Step::ALL.map(|s| outcome.after(s).total_energy().as_f64());
    ModelRun {
        model: model.name().to_owned(),
        bandwidth: bw.label().to_owned(),
        bandwidth_gbps: bw.bandwidth().as_f64() / 1e9,
        latency,
        energy,
        baseline_compute_ratio: outcome.after(Step::WeightLocality).compute_ratio,
        h2h_compute_ratio: outcome.after(Step::Remapping).compute_ratio,
        search_seconds: outcome.search_time.as_secs_f64(),
    }
}

/// The full evaluation grid (6 models × 5 bandwidths), parallelized
/// across models. Results are ordered: model-major (Table 2 order),
/// bandwidth-minor (Low- → High).
pub fn run_sweep() -> Vec<ModelRun> {
    let models = zoo::all_models();
    let mut results: Vec<Vec<ModelRun>> = Vec::new();
    thread::scope(|scope| {
        let handles: Vec<_> = models
            .iter()
            .map(|model| {
                scope.spawn(move || {
                    BandwidthClass::ALL
                        .iter()
                        .map(|bw| run_model(model, *bw))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("experiment thread panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// Selects the runs of one bandwidth class, in Table 2 model order.
pub fn at_bandwidth(runs: &[ModelRun], bw: BandwidthClass) -> Vec<&ModelRun> {
    runs.iter().filter(|r| r.bandwidth == bw.label()).collect()
}

/// Selects the runs of one model, in bandwidth order.
pub fn of_model<'r>(runs: &'r [ModelRun], model: &str) -> Vec<&'r ModelRun> {
    runs.iter().filter(|r| r.model == model).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_model_records_all_steps() {
        let model = zoo::mocap();
        let run = run_model(&model, BandwidthClass::LowMinus);
        assert_eq!(run.model, "MoCap");
        assert_eq!(run.bandwidth, "Low-");
        assert!(run.latency.iter().all(|l| *l > 0.0));
        assert!(run.energy.iter().all(|e| *e > 0.0));
        assert!(run.latency_reduction() > 0.0);
        assert!(run.search_seconds > 0.0);
        assert!(run.h2h_compute_ratio > run.baseline_compute_ratio);
    }

    #[test]
    fn selectors_partition_the_sweep() {
        // A reduced grid (2 models × 5 bw) keeps the test quick while
        // checking ordering and the selector helpers.
        let models = [zoo::mocap(), zoo::cnn_lstm()];
        let runs: Vec<ModelRun> = models
            .iter()
            .flat_map(|m| {
                BandwidthClass::ALL
                    .iter()
                    .map(|bw| run_model(m, *bw))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(runs.len(), 10);
        assert_eq!(at_bandwidth(&runs, BandwidthClass::High).len(), 2);
        assert_eq!(of_model(&runs, "MoCap").len(), 5);
        // JSON roundtrip: serde_json's default float parse may drift by
        // 1 ULP, so compare with a relative tolerance.
        let json = serde_json::to_string(&runs).unwrap();
        let back: Vec<ModelRun> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), runs.len());
        for (a, b) in back.iter().zip(&runs) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.bandwidth, b.bandwidth);
            for i in 0..4 {
                assert!((a.latency[i] - b.latency[i]).abs() / b.latency[i] < 1e-12);
                assert!((a.energy[i] - b.energy[i]).abs() / b.energy[i] < 1e-12);
            }
        }
    }
}
