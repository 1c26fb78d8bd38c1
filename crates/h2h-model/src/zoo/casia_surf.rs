//! CASIA-SURF (Zhang et al., CVPR'19; spelled "CASUA-SURF" in the H2H
//! paper): multi-modal face anti-spoofing over RGB + Depth + IR streams.
//! ResNet-18 variants, ≈13.2M parameters (paper Table 2).
//!
//! Reconstruction: three half-width ResNet-18 branches (one per imaging
//! modality) fused at two scales — after stage 3 (squeeze-and-fuse, as
//! in the original's multi-scale fusion) and after stage 4 — followed by
//! a shared classification trunk.

use crate::blocks::{basic_block, image_input, resnet_stem, scale_channels};
use crate::builder::ModelBuilder;
use crate::graph::{LayerId, ModelError, ModelGraph};

const WIDTH: f64 = 0.5;

/// Half-width ResNet-18 trunk split at stage 3 so the fusion points can
/// tap both scales. Returns `(stage3_out, stage4_out)`.
fn branch(
    b: &mut ModelBuilder,
    prefix: &str,
    from: LayerId,
) -> Result<(LayerId, LayerId), ModelError> {
    let mut x = resnet_stem(b, prefix, from, WIDTH)?;
    for (stage, channels) in [64u32, 128, 256].into_iter().enumerate() {
        let c = scale_channels(channels, WIDTH);
        for blk in 0..2u32 {
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            x = basic_block(
                b,
                &format!("{prefix}.s{}b{}", stage + 1, blk + 1),
                x,
                c,
                stride,
            )?;
        }
    }
    let stage3 = x;
    let c4 = scale_channels(512, WIDTH);
    let mut y = stage3;
    for blk in 0..2u32 {
        let stride = if blk == 0 { 2 } else { 1 };
        y = basic_block(b, &format!("{prefix}.s4b{}", blk + 1), y, c4, stride)?;
    }
    Ok((stage3, y))
}

/// Builds CASIA-SURF.
///
/// # Panics
///
/// Panics only on internal shape-rule violations, ruled out by tests.
pub fn casia_surf() -> ModelGraph {
    try_build().expect("casia-surf generator is shape-consistent")
}

fn try_build() -> Result<ModelGraph, ModelError> {
    let mut b = ModelBuilder::new("CASIA-SURF");

    let mut mids = Vec::new();
    let mut lates = Vec::new();
    for modality in ["rgb", "depth", "ir"] {
        b.modality(Some(modality));
        let input = image_input(&mut b, &format!("{modality}_in"), 112);
        let (s3, s4) = branch(&mut b, modality, input)?;
        mids.push(s3);
        lates.push(s4);
    }

    // Shared fusion trunk (untagged).
    b.modality(None);
    // Mid-level fusion: concat stage-3 maps, squeeze, then downsample to
    // stage-4 scale.
    let mid_cat = b.concat("fuse.mid_cat", &mids)?;
    let mid_sq = b.conv(
        "fuse.mid_squeeze",
        mid_cat,
        scale_channels(256, WIDTH),
        1,
        1,
    )?;
    let mid_down = b.conv("fuse.mid_down", mid_sq, scale_channels(512, WIDTH), 3, 2)?;

    // Late fusion: concat stage-4 maps with the fused mid-level path.
    let mut late_inputs = lates.clone();
    late_inputs.push(mid_down);
    let late_cat = b.concat("fuse.late_cat", &late_inputs)?;
    let fused = b.conv("fuse.late_conv", late_cat, 512, 3, 1)?;
    let gap = b.global_pool("fuse.gap", fused)?;
    let fc1 = b.fc("head.fc1", gap, 512)?;
    b.fc("head.fc2", fc1, 2)?; // live / spoof

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModelStats;

    #[test]
    fn params_near_13_2m() {
        let s = ModelStats::of(&casia_surf());
        assert!(
            (11.8..=14.6).contains(&s.params_m()),
            "CASIA-SURF params {:.2}M (paper: 13.2M)",
            s.params_m()
        );
    }

    #[test]
    fn three_modalities() {
        let s = ModelStats::of(&casia_surf());
        assert_eq!(
            s.modalities,
            vec!["depth".to_owned(), "ir".to_owned(), "rgb".to_owned()]
        );
        assert_eq!(casia_surf().sources().len(), 3);
    }

    #[test]
    fn pure_cnn_model() {
        let s = ModelStats::of(&casia_surf());
        assert_eq!(s.lstm_layers, 0);
        assert_eq!(s.fc_layers, 2);
        assert!(s.conv_layers >= 60, "conv layers {}", s.conv_layers);
    }

    #[test]
    fn dropping_a_modality_keeps_fusion_trunk() {
        let m = casia_surf();
        let sub = m.retain_modalities(&["rgb", "depth"]);
        sub.validate().unwrap();
        let s = ModelStats::of(&sub);
        assert_eq!(s.modalities, vec!["depth".to_owned(), "rgb".to_owned()]);
        // Fusion layers (untagged) survive.
        assert!(sub.layers().any(|(_, l)| l.name() == "fuse.late_cat"));
    }
}
