//! VFS (Thuseethan et al., WI-IAT'20): visual-textual sentiment analysis
//! from web data. VGG and VD-CNN variants, ≈365M parameters — the
//! heaviest model in the zoo (paper Table 2).
//!
//! Reconstruction: three backbones (the paper notes 3–5 backbones per
//! MMMT model): a VGG-16 on the main web image, a second
//! VGG-13-variant on the detected face/salient region, and a
//! VD-CNN-style character-level text stream, fused through wide FC
//! layers. VGG-style FC heads put ~2/3 of the parameters in a handful of
//! layers, which stresses the knapsack weight-locality step.

use crate::blocks::{image_input, vdcnn_trunk, vgg16_trunk, vgg_head};
use crate::builder::ModelBuilder;
use crate::graph::{LayerId, ModelError, ModelGraph};
use crate::tensor::TensorShape;

/// VGG-13 variant trunk (two convs per stage).
fn vgg13_trunk(b: &mut ModelBuilder, prefix: &str, from: LayerId) -> Result<LayerId, ModelError> {
    let cfg: &[(u32, u32)] = &[(64, 2), (128, 2), (256, 2), (512, 2), (512, 2)];
    let mut x = from;
    for (stage, &(channels, convs)) in cfg.iter().enumerate() {
        for i in 0..convs {
            x = b.conv(
                &format!("{prefix}.s{}c{}", stage + 1, i + 1),
                x,
                channels,
                3,
                1,
            )?;
        }
        x = b.max_pool(&format!("{prefix}.pool{}", stage + 1), x, 2, 2)?;
    }
    Ok(x)
}

/// Builds VFS.
///
/// # Panics
///
/// Panics only on internal shape-rule violations, ruled out by tests.
pub fn vfs() -> ModelGraph {
    try_build().expect("vfs generator is shape-consistent")
}

fn try_build() -> Result<ModelGraph, ModelError> {
    let mut b = ModelBuilder::new("VFS");

    // Visual stream 1: whole web image through VGG-16.
    b.modality(Some("image"));
    let img = image_input(&mut b, "img_in", 224);
    let v1 = vgg16_trunk(&mut b, "vgg16", img, 1.0)?;
    let v1_head = vgg_head(&mut b, "vgg16.head", v1, 4096, 1024)?;

    // Visual stream 2: salient/face region through a VGG-13 variant.
    b.modality(Some("region"));
    let region = image_input(&mut b, "region_in", 224);
    let v2 = vgg13_trunk(&mut b, "vgg13", region)?;
    let v2_fc1 = b.fc("vgg13.fc1", v2, 4096)?;
    let v2_head = b.fc("vgg13.fc2", v2_fc1, 1024)?;

    // Text stream: character-level VD-CNN (depth 29 flavour: 4 blocks
    // per stage → 2 convs each + downsampling).
    b.modality(Some("text"));
    let text = b.input(
        "text_in",
        TensorShape::Sequence {
            steps: 1024,
            features: 16,
        },
    );
    let t = vdcnn_trunk(&mut b, "vdcnn", text, 1.0, 3)?;
    let t_fc1 = b.fc("vdcnn.fc1", t, 2048)?;
    let t_head = b.fc("vdcnn.fc2", t_fc1, 1024)?;

    // Fusion head.
    b.modality(None);
    let cat = b.concat("fuse.cat", &[v1_head, v2_head, t_head])?;
    let f1 = b.fc("fuse.fc1", cat, 4096)?;
    let f2 = b.fc("fuse.fc2", f1, 4096)?;
    b.fc("fuse.out", f2, 3)?; // positive / neutral / negative

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModelStats;

    #[test]
    fn params_near_365m() {
        let s = ModelStats::of(&vfs());
        assert!(
            (328.0..=402.0).contains(&s.params_m()),
            "VFS params {:.1}M (paper: 365M)",
            s.params_m()
        );
    }

    #[test]
    fn three_backbones_three_modalities() {
        let s = ModelStats::of(&vfs());
        assert_eq!(
            s.modalities,
            vec!["image".to_owned(), "region".to_owned(), "text".to_owned()]
        );
        assert_eq!(vfs().sources().len(), 3);
    }

    #[test]
    fn fc_layers_carry_most_parameters() {
        let m = vfs();
        let fc_params: u64 = m
            .layers()
            .filter(|(_, l)| l.class() == crate::layer::LayerClass::Fc)
            .map(|(_, l)| l.weight_elems())
            .sum();
        assert!(
            fc_params * 2 > m.param_count(),
            "FC layers should hold > half the parameters ({fc_params} of {})",
            m.param_count()
        );
    }

    #[test]
    fn text_stream_is_conv1d() {
        let m = vfs();
        let embed = m
            .layers()
            .find(|(_, l)| l.name() == "vdcnn.embed")
            .expect("vdcnn embed layer")
            .1;
        match embed.op() {
            crate::layer::LayerOp::Conv(p) => {
                assert_eq!(p.kernel_w, 1, "text convs are K×1");
                assert_eq!(p.kernel_h, 3);
            }
            other => panic!("unexpected op {other:?}"),
        }
    }
}
