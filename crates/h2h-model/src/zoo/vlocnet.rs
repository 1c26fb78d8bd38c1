//! VLocNet (Valada et al., ICRA'18): visual localization + odometry for
//! augmented reality. ResNet-50 variants, ≈192M parameters, 141 layers
//! (paper Table 2 / §5.2).
//!
//! Reconstruction: two ResNet-50 trunks-to-stage-3 encode the previous
//! and current frame; the odometry stream concatenates both and runs its
//! own stage 4 + regression head; the global pose stream reuses the
//! current-frame trunk (hard parameter sharing, as in the original
//! paper), runs a separate stage 4, and — the auxiliary-learning
//! cross-talk — consumes the odometry head's embedding in its own
//! regressor. The giant flattened-feature FC layers carry most of the
//! 192M parameters, exactly the weight-locality pressure the H2H paper
//! exploits.

use crate::blocks::{image_input, resnet50_stages, resnet_stem};
use crate::builder::ModelBuilder;
use crate::graph::{LayerId, ModelError, ModelGraph};

/// ResNet-50 stem and stages 1–3, emitting the `1024 × side/16 ×
/// side/16` feature map.
fn r50_to_stage3(b: &mut ModelBuilder, prefix: &str, from: LayerId) -> Result<LayerId, ModelError> {
    let stem = resnet_stem(b, prefix, from, 1.0)?;
    resnet50_stages(b, prefix, stem, 1.0, 1..=3)
}

/// Builds VLocNet.
///
/// # Panics
///
/// Panics only on internal shape-rule violations, which the unit tests
/// rule out; the generator is deterministic.
pub fn vlocnet() -> ModelGraph {
    try_build().expect("vlocnet generator is shape-consistent")
}

fn try_build() -> Result<ModelGraph, ModelError> {
    let mut b = ModelBuilder::new("VLocNet");

    // Odometry modality: previous frame trunk.
    b.modality(Some("odometry"));
    let img_prev = image_input(&mut b, "img_prev", 224);
    let feat_prev = r50_to_stage3(&mut b, "odo_prev", img_prev)?;

    // Shared current-frame trunk (serves both tasks → untagged).
    b.modality(Some("pose"));
    let img_cur = image_input(&mut b, "img_cur", 224);
    b.modality(None);
    let feat_cur = r50_to_stage3(&mut b, "shared_cur", img_cur)?;

    // Odometry stream: concat(prev, cur) -> stage4 -> FC regressor.
    b.modality(Some("odometry"));
    let odo_cat = b.concat("odo.cat", &[feat_prev, feat_cur])?;
    let odo_s4 = resnet50_stages(&mut b, "odo", odo_cat, 1.0, 4..=4)?;
    let odo_fc1 = b.fc("odo.fc1", odo_s4, 448)?;
    let odo_out = b.fc("odo.fc2", odo_fc1, 6)?; // SE(3) twist

    // Global pose stream: cur trunk -> stage4 -> FC regressor that also
    // consumes the odometry embedding (auxiliary-learning cross-talk).
    b.modality(Some("pose"));
    let pose_s4 = resnet50_stages(&mut b, "pose", feat_cur, 1.0, 4..=4)?;
    let pose_cat = b.concat("pose.cat", &[pose_s4, odo_fc1])?;
    let pose_fc1 = b.fc("pose.fc1", pose_cat, 960)?;
    let pose_out = b.fc("pose.fc2", pose_fc1, 7)?; // xyz + quaternion

    let _ = (odo_out, pose_out);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModelStats;

    #[test]
    fn layer_count_near_paper_141() {
        let m = vlocnet();
        let s = ModelStats::of(&m);
        assert!(
            (130..=155).contains(&s.layers),
            "VLocNet layer count {} (paper: 141)",
            s.layers
        );
    }

    #[test]
    fn params_near_192m() {
        let s = ModelStats::of(&vlocnet());
        assert!(
            (172.0..=212.0).contains(&s.params_m()),
            "VLocNet params {:.1}M (paper: 192M)",
            s.params_m()
        );
    }

    #[test]
    fn conv_dominated_with_fc_heads() {
        let s = ModelStats::of(&vlocnet());
        assert!(s.conv_layers > 90, "conv layers {}", s.conv_layers);
        assert_eq!(s.fc_layers, 4);
        assert_eq!(s.lstm_layers, 0);
    }

    #[test]
    fn has_odometry_to_pose_cross_talk() {
        let m = vlocnet();
        let s = ModelStats::of(&m);
        assert!(
            s.cross_modality_edges >= 1,
            "odometry embedding must feed pose head"
        );
        assert_eq!(s.modalities, vec!["odometry".to_owned(), "pose".to_owned()]);
    }

    #[test]
    fn two_image_inputs() {
        let m = vlocnet();
        assert_eq!(m.sources().len(), 2);
    }
}
