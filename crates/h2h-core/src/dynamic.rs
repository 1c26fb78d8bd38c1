//! Dynamic modality change (paper §4.5).
//!
//! Multi-sensor systems switch modalities on and off at runtime — a
//! health monitor disabling its motion stream, an AR headset muting
//! audio — sometimes several times per second. Remapping from scratch
//! would reload every pinned weight over Ethernet. The extension keeps a
//! session: each remap (a) *prioritizes* placing a layer on the
//! accelerator already buffering its weights (zero weight-transfer in
//! the step-1 objective) and (b) runs the *modified knapsack* whose
//! allocation is partially pre-determined by the carried-over weights.
//! The payoff metric is avoided reload traffic.

use std::collections::HashMap;

use h2h_model::graph::ModelGraph;
use h2h_model::tensor::DataType;
use h2h_model::units::{Bytes, Seconds};
use h2h_system::system::{AccId, SystemSpec};

use crate::config::H2hConfig;
use crate::pipeline::{H2hError, H2hMapper, H2hOutcome};
use crate::preset::PinPreset;

/// One dynamic remap result.
#[derive(Debug)]
pub struct DynamicOutcome {
    /// The full pipeline outcome for the new modality configuration.
    pub outcome: H2hOutcome,
    /// Weight bytes reused in place (no reload needed).
    pub reused: Bytes,
    /// Reused weight bytes per accelerator (indexed by
    /// `AccId::index()`), for per-link reload-time accounting.
    pub reused_by_acc: Vec<Bytes>,
    /// Weight bytes newly loaded into some accelerator's DRAM.
    pub reloaded: Bytes,
}

impl DynamicOutcome {
    /// Reconfiguration time avoided by weight reuse, with each board's
    /// share charged at that board's host-link rate (one scalar-rate
    /// transfer on a uniform star, bitwise).
    pub fn reload_time_saved(&self, system: &SystemSpec) -> Seconds {
        system.topology().host_stream_time(
            self.reused_by_acc
                .iter()
                .enumerate()
                .filter(|(_, b)| **b > Bytes::ZERO)
                .map(|(a, b)| (AccId::new(a), *b)),
        )
    }
}

/// A long-running mapping session that carries buffered weights across
/// modality changes. Layers are identified by *name* (stable across the
/// sub-models that [`ModelGraph::retain_modalities`] produces).
#[derive(Debug)]
pub struct DynamicSession<'s> {
    system: &'s SystemSpec,
    config: H2hConfig,
    /// layer name → (acc, weight bytes) currently resident.
    buffered: HashMap<String, (AccId, Bytes)>,
}

impl<'s> DynamicSession<'s> {
    /// Starts a session with nothing buffered.
    pub fn new(system: &'s SystemSpec, config: H2hConfig) -> Self {
        DynamicSession {
            system,
            config,
            buffered: HashMap::new(),
        }
    }

    /// Bytes currently buffered across the system.
    pub fn buffered_bytes(&self) -> Bytes {
        self.buffered.values().map(|(_, b)| *b).sum()
    }

    /// Number of layers with resident weights.
    pub fn buffered_layers(&self) -> usize {
        self.buffered.len()
    }

    /// Maps a (new) modality configuration, reusing buffered weights
    /// where possible, and updates the session's residency state.
    ///
    /// # Errors
    ///
    /// Returns [`H2hError`] if the model cannot be mapped on the system.
    pub fn remap(&mut self, model: &ModelGraph) -> Result<DynamicOutcome, H2hError> {
        // Build the preset from carried-over residencies.
        let mut preset = PinPreset::new();
        for (id, layer) in model.layers() {
            if let Some((acc, _)) = self.buffered.get(layer.name()) {
                preset.insert(id, *acc);
            }
        }

        let outcome = H2hMapper::new(model, self.system)
            .with_config(self.config)
            .with_preset(preset.clone())
            .run()?;

        // Account reuse vs reload over the *new* pinned set.
        let mut reused = Bytes::ZERO;
        let mut reused_by_acc = vec![Bytes::ZERO; self.system.num_accs()];
        let mut reloaded = Bytes::ZERO;
        let mut next: HashMap<String, (AccId, Bytes)> = HashMap::new();
        for id in outcome.locality.pinned_layers() {
            let layer = model.layer(id);
            let acc = outcome.mapping.acc_of(id);
            let bytes = layer.weight_bytes(DataType::F32);
            if preset.is_buffered(id, acc) {
                reused += bytes;
                reused_by_acc[acc.index()] += bytes;
            } else {
                reloaded += bytes;
            }
            next.insert(layer.name().to_owned(), (acc, bytes));
        }
        self.buffered = next;

        Ok(DynamicOutcome {
            outcome,
            reused,
            reused_by_acc,
            reloaded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_system::system::BandwidthClass;

    #[test]
    fn first_remap_loads_everything() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut session = DynamicSession::new(&system, H2hConfig::default());
        let model = h2h_model::zoo::cnn_lstm();
        let out = session.remap(&model).unwrap();
        assert_eq!(out.reused, Bytes::ZERO, "cold start has nothing to reuse");
        assert!(out.reloaded > Bytes::ZERO);
        assert!(session.buffered_layers() > 0);
    }

    #[test]
    fn repeat_remap_reuses_weights() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut session = DynamicSession::new(&system, H2hConfig::default());
        let model = h2h_model::zoo::cnn_lstm();
        session.remap(&model).unwrap();
        let again = session.remap(&model).unwrap();
        assert!(
            again.reused > Bytes::ZERO,
            "identical configuration must reuse buffered weights"
        );
        assert_eq!(
            again.reloaded,
            Bytes::ZERO,
            "identical configuration needs no reload"
        );
        assert!(again.reload_time_saved(&system) > Seconds::ZERO);
    }

    #[test]
    fn modality_toggle_reuses_surviving_streams() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let mut session = DynamicSession::new(&system, H2hConfig::default());
        let full = h2h_model::zoo::cnn_lstm();
        // Start without the EMG sensor, then switch it on.
        let reduced = full.retain_modalities(&["video", "imu_wrist", "imu_ankle"]);
        reduced.validate().unwrap();
        session.remap(&reduced).unwrap();
        let grown = session.remap(&full).unwrap();
        assert!(
            grown.reused > Bytes::ZERO,
            "video/imu weights should survive the modality change"
        );
        // The EMG stream is new: something must load.
        assert!(grown.reloaded > Bytes::ZERO);
    }

    #[test]
    fn dynamic_latency_matches_static_quality() {
        // Reusing weights must not cost steady-state latency: the final
        // mapping should be as good as a cold H2H run (within 5%).
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let model = h2h_model::zoo::mocap();
        let cold = H2hMapper::new(&model, &system).run().unwrap();
        let mut session = DynamicSession::new(&system, H2hConfig::default());
        session.remap(&model).unwrap();
        let warm = session.remap(&model).unwrap();
        let c = cold.final_latency().as_f64();
        let w = warm.outcome.final_latency().as_f64();
        assert!(w <= c * 1.05, "warm {w} vs cold {c}");
    }
}
