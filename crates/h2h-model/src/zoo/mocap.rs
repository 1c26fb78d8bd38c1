//! MoCap (Tripathi et al., arXiv:1804.05788): multi-modal emotion
//! recognition on IEMOCAP — motion-capture, speech and text streams.
//! Convolution and LSTM units, ≈8M parameters, fewer than 30 layers
//! (paper Table 2 / §5.2).
//!
//! Reconstruction: IEMOCAP dialogues run minutes, so the motion-capture
//! and speech streams arrive as very long frame sequences. Their 1-D
//! convolutional frontends *expand* the channel dimension (64→512)
//! before temporal pooling, so the first intermediate activation of each
//! stream is ~50 MB against a total weight footprint of ~30 MB — the
//! communication-dominated extreme of the zoo. The H2H paper reports the
//! matching signature: a computation share of only 21% before mapping
//! rising to 94% after (Fig. 5a), and the largest end-to-end gain
//! (≈74%, Table 4).

use crate::builder::ModelBuilder;
use crate::graph::{ModelError, ModelGraph};
use crate::tensor::TensorShape;

/// Builds MoCap.
///
/// # Panics
///
/// Panics only on internal shape-rule violations, ruled out by tests.
pub fn mocap() -> ModelGraph {
    try_build().expect("mocap generator is shape-consistent")
}

fn try_build() -> Result<ModelGraph, ModelError> {
    let mut b = ModelBuilder::new("MoCap");

    // Motion-capture stream: 4 min at 100 Hz, 64-d marker/rotation frame.
    b.modality(Some("mocap"));
    let mc = b.input(
        "mocap_in",
        TensorShape::Sequence {
            steps: 24_000,
            features: 64,
        },
    );
    let mc1 = b.conv1d("mocap.conv1", mc, 512, 5, 1)?;
    let mc2 = b.conv1d("mocap.conv2", mc1, 128, 5, 4)?;
    let mc_lstm = b.lstm("mocap.lstm", mc2, 256, 1, false)?;

    // Speech stream: frame-level spectral features at the same rate.
    b.modality(Some("speech"));
    let sp = b.input(
        "speech_in",
        TensorShape::Sequence {
            steps: 24_000,
            features: 32,
        },
    );
    let sp1 = b.conv1d("speech.conv1", sp, 512, 5, 1)?;
    let sp2 = b.conv1d("speech.conv2", sp1, 128, 5, 4)?;
    let sp_lstm = b.lstm("speech.lstm", sp2, 256, 1, false)?;

    // Text stream: transcribed dialogue, 300-d word embeddings.
    b.modality(Some("text"));
    let tx = b.input(
        "text_in",
        TensorShape::Sequence {
            steps: 2_000,
            features: 300,
        },
    );
    let tx_lstm = b.lstm("text.lstm", tx, 256, 2, false)?;

    // Fusion and emotion head.
    b.modality(None);
    let cat = b.concat("fuse.cat", &[mc_lstm, sp_lstm, tx_lstm])?;
    let f1 = b.fc("fuse.fc1", cat, 3072)?;
    let f2 = b.fc("fuse.fc2", f1, 768)?;
    b.fc("head.emotion", f2, 4)?; // angry / happy / sad / neutral

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModelStats;
    use crate::units::Bytes;

    #[test]
    fn params_near_8m() {
        let s = ModelStats::of(&mocap());
        assert!(
            (7.2..=8.8).contains(&s.params_m()),
            "MoCap params {:.2}M (paper: 8M)",
            s.params_m()
        );
    }

    #[test]
    fn under_30_layers() {
        let s = ModelStats::of(&mocap());
        assert!(s.layers < 30, "MoCap layer count {} (paper: <30)", s.layers);
    }

    #[test]
    fn activations_dwarf_weights() {
        // The communication-dominated regime: total activation traffic
        // must exceed the full weight footprint by a wide margin.
        let s = ModelStats::of(&mocap());
        assert!(
            s.activation_bytes > Bytes::new(s.weight_bytes.as_u64() * 3),
            "activations {} vs weights {}",
            s.activation_bytes,
            s.weight_bytes
        );
    }

    #[test]
    fn inputs_are_small_relative_to_internal_edges() {
        // The big transfers must be *internal* (optimizable by fusion),
        // not raw inputs (which always cross Ethernet once).
        let m = mocap();
        let input_bytes: u64 = m
            .sources()
            .iter()
            .flat_map(|s| {
                m.successors(*s)
                    .map(|t| m.edge_bytes(*s, t).unwrap().as_u64())
            })
            .sum();
        let total: u64 = m.edges().map(|(_, _, e)| e.bytes().as_u64()).sum();
        assert!(
            input_bytes * 4 < total,
            "inputs {input_bytes} should be <25% of total activation traffic {total}"
        );
    }

    #[test]
    fn three_modalities_conv_plus_lstm() {
        let s = ModelStats::of(&mocap());
        assert_eq!(
            s.modalities,
            vec!["mocap".to_owned(), "speech".to_owned(), "text".to_owned()]
        );
        assert_eq!(s.lstm_layers, 3);
        assert_eq!(s.conv_layers, 4);
    }
}
