//! The six heterogeneous MMMT evaluation models (paper Table 2).
//!
//! | Domain | Model | Backbones | Params |
//! |--------|-------|-----------|--------|
//! | Augmented Reality | VLocNet | ResNet-50 variants | 192M |
//! | Face Recognition | CASIA-SURF | ResNet-18 variants | 13.2M |
//! | Sentiment Analysis | VFS | VGG and VD-CNN variants | 365M |
//! | Face Recognition | FaceBag | ResNet variants | 25M |
//! | Activity Recognition | CNN-LSTM | ConvNet and LSTM variants | 16M |
//! | Emotion Recognition | MoCap | Convolution and LSTM units | 8M |
//!
//! The paper does not publish the layer-by-layer definitions; these
//! generators reconstruct each model from its cited architecture and are
//! calibrated (see each module's tests) to the paper's reported parameter
//! counts (±10%) and layer counts (VLocNet ≈ 141 layers, CNN-LSTM and
//! MoCap < 30 layers). See DESIGN.md §3 for the substitution rationale.

mod casia_surf;
mod cnn_lstm;
mod facebag;
mod mocap;
mod vfs;
mod vlocnet;

pub use casia_surf::casia_surf;
pub use cnn_lstm::cnn_lstm;
pub use facebag::facebag;
pub use mocap::mocap;
pub use vfs::vfs;
pub use vlocnet::vlocnet;

use crate::graph::ModelGraph;

/// All six evaluation models, in the paper's Table 2 / Figure 4 order.
pub fn all_models() -> Vec<ModelGraph> {
    vec![
        vlocnet(),
        casia_surf(),
        vfs(),
        facebag(),
        cnn_lstm(),
        mocap(),
    ]
}

/// Resolves a zoo model from its Table-2 name, case-insensitively
/// (`"VLocNet"`, `"casia-surf"`, …) — the one lookup every bench/CLI
/// front end shares. (The `h2h` CLI additionally accepts its own short
/// aliases like `casia`; those stay CLI-local.)
pub fn by_name(name: &str) -> Option<ModelGraph> {
    all_models()
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModelStats;

    #[test]
    fn zoo_order_matches_table2() {
        let names: Vec<String> = all_models().iter().map(|m| m.name().to_owned()).collect();
        assert_eq!(
            names,
            vec![
                "VLocNet",
                "CASIA-SURF",
                "VFS",
                "FaceBag",
                "CNN-LSTM",
                "MoCap"
            ]
        );
    }

    #[test]
    fn all_models_validate_and_are_multimodal() {
        for m in all_models() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            let s = ModelStats::of(&m);
            assert!(
                s.modalities.len() >= 2,
                "{} should be multi-modal, found {:?}",
                m.name(),
                s.modalities
            );
            assert!(s.edges >= s.layers - 1, "{} suspiciously sparse", m.name());
        }
    }

    #[test]
    fn table2_parameter_calibration() {
        // Paper Table 2 Para. column, in millions, with ±10% tolerance
        // (we fold batch-norm and biases differently than the authors).
        let expect = [
            ("VLocNet", 192.0),
            ("CASIA-SURF", 13.2),
            ("VFS", 365.0),
            ("FaceBag", 25.0),
            ("CNN-LSTM", 16.0),
            ("MoCap", 8.0),
        ];
        for (model, (name, target)) in all_models().iter().zip(expect) {
            assert_eq!(model.name(), name);
            let got = ModelStats::of(model).params_m();
            let lo = target * 0.9;
            let hi = target * 1.1;
            assert!(
                (lo..=hi).contains(&got),
                "{name}: {got:.2}M params outside [{lo:.1}, {hi:.1}]"
            );
        }
    }

    #[test]
    fn every_zoo_model_has_cross_talk() {
        // MMMT models exchange data across modalities (paper Fig. 1);
        // every zoo graph must contain at least one fusion point reading
        // from ≥2 modalities.
        for m in all_models() {
            let stats = ModelStats::of(&m);
            assert!(
                stats.cross_modality_edges > 0 || stats.modalities.len() >= 2,
                "{} has no cross-modality structure",
                m.name()
            );
        }
    }
}
