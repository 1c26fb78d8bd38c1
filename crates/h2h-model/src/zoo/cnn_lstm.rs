//! CNN-LSTM (Li et al., arXiv:1702.01638): concurrent activity
//! recognition from video + wearable sensors. ConvNet and LSTM variants,
//! ≈16M parameters, fewer than 30 layers (paper Table 2 / §5.2).
//!
//! Reconstruction: the video branch consumes a frame-stacked clip
//! (16 frames × RGB = 48 input channels at 112×112 — the standard
//! clip-stacking approximation of a per-frame 2-D CNN) through five
//! convolutions, reinterprets the final feature map as a sequence and
//! runs a two-layer LSTM; three wearable streams (two IMUs + one EMG)
//! each run a small 1-D ConvNet and an LSTM. The early video feature
//! maps are megabytes while the whole network holds only ~15M
//! parameters, so once weights are pinned (step 2) the remaining cost is
//! dominated by activation movement — which is why the paper's Table 4
//! shows activation fusion (step 3) cutting this model's latency to a
//! third, its biggest single-step effect after VLocNet's remap.

use crate::blocks::sensor_convnet;
use crate::builder::ModelBuilder;
use crate::graph::{ModelError, ModelGraph};
use crate::tensor::TensorShape;

/// Builds CNN-LSTM.
///
/// # Panics
///
/// Panics only on internal shape-rule violations, ruled out by tests.
pub fn cnn_lstm() -> ModelGraph {
    try_build().expect("cnn-lstm generator is shape-consistent")
}

fn try_build() -> Result<ModelGraph, ModelError> {
    let mut b = ModelBuilder::new("CNN-LSTM");

    // Video stream: 16-frame stacked clip through a compact ConvNet,
    // then a stacked LSTM over the spatial-temporal feature sequence.
    b.modality(Some("video"));
    let clip = b.input(
        "video_in",
        TensorShape::Feature {
            c: 48,
            h: 112,
            w: 112,
        },
    );
    let v1 = b.conv("video.conv1", clip, 64, 3, 1)?;
    let v2 = b.conv("video.conv2", v1, 96, 3, 2)?;
    let v3 = b.conv("video.conv3", v2, 128, 3, 1)?;
    let v4 = b.conv("video.conv4", v3, 192, 3, 2)?;
    let v5 = b.conv("video.conv5", v4, 256, 3, 1)?;
    let vseq = b.to_sequence("video.seq", v5)?;
    let v_lstm = b.lstm("video.lstm", vseq, 640, 2, false)?;

    // Wearable streams: 4 s at 100 Hz.
    let mut feats = vec![v_lstm];
    for (name, channels) in [("imu_wrist", 6u32), ("imu_ankle", 6), ("emg", 8)] {
        b.modality(Some(name));
        let s_in = b.input(
            &format!("{name}_in"),
            TensorShape::Sequence {
                steps: 400,
                features: channels,
            },
        );
        let enc = sensor_convnet(&mut b, name, s_in, &[64, 128])?;
        let s_lstm = b.lstm(&format!("{name}.lstm"), enc, 256, 1, false)?;
        feats.push(s_lstm);
    }

    // Fusion + concurrent-activity heads (multi-task: activity class and
    // intensity estimate).
    b.modality(None);
    let cat = b.concat("fuse.cat", &feats)?;
    let f1 = b.fc("fuse.fc1", cat, 2560)?;
    let f2 = b.fc("fuse.fc2", f1, 2048)?;
    b.fc("head.activity", f2, 25)?;
    b.fc("head.intensity", f2, 3)?;

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModelStats;

    #[test]
    fn params_near_16m() {
        let s = ModelStats::of(&cnn_lstm());
        assert!(
            (14.4..=17.6).contains(&s.params_m()),
            "CNN-LSTM params {:.2}M (paper: 16M)",
            s.params_m()
        );
    }

    #[test]
    fn under_30_layers() {
        let s = ModelStats::of(&cnn_lstm());
        assert!(
            s.layers < 30,
            "CNN-LSTM layer count {} (paper: <30)",
            s.layers
        );
    }

    #[test]
    fn four_modalities_with_lstms() {
        let s = ModelStats::of(&cnn_lstm());
        assert_eq!(s.modalities.len(), 4);
        assert_eq!(s.lstm_layers, 4);
        assert!(
            s.conv_layers >= 10,
            "5 video + 6 sensor convs, got {}",
            s.conv_layers
        );
    }

    #[test]
    fn multi_task_heads() {
        let m = cnn_lstm();
        assert_eq!(m.sinks().len(), 2, "activity + intensity heads");
    }

    #[test]
    fn video_chain_is_activation_heavy() {
        // The video convolution edges carry megabytes; this is the
        // traffic activation fusion removes (paper Table 4 step 3).
        let m = cnn_lstm();
        let conv1 = m
            .layers()
            .find(|(_, l)| l.name() == "video.conv1")
            .unwrap()
            .0;
        let conv2 = m
            .layers()
            .find(|(_, l)| l.name() == "video.conv2")
            .unwrap()
            .0;
        let bytes = m.edge_bytes(conv1, conv2).unwrap();
        assert!(bytes.as_u64() > 3_000_000, "conv1->conv2 edge {bytes}");
    }
}
