//! Reusable backbone generators for the MMMT model zoo.
//!
//! The paper's six models (Table 2) are built from ResNet-18/50, VGG,
//! VD-CNN and ConvNet+LSTM variants. These helpers emit those backbones
//! through a [`ModelBuilder`], parameterized by a channel-width multiplier
//! so the zoo generators can calibrate total parameter counts to the
//! figures the paper reports.

use std::ops::RangeInclusive;

use crate::builder::ModelBuilder;
use crate::graph::{LayerId, ModelError};
use crate::tensor::TensorShape;

/// Scales a channel count by `width`, staying ≥ 8 and 8-aligned (hardware
/// friendly channel counts).
pub fn scale_channels(c: u32, width: f64) -> u32 {
    let scaled = (c as f64 * width).round() as u32;
    scaled.max(8).div_ceil(8) * 8
}

/// ResNet stem: 7×7 stride-2 convolution + 3×3 stride-2 max pool.
///
/// # Errors
///
/// Propagates shape errors from the builder (input must be spatial).
pub fn resnet_stem(
    b: &mut ModelBuilder,
    prefix: &str,
    from: LayerId,
    width: f64,
) -> Result<LayerId, ModelError> {
    let c = b.conv(
        &format!("{prefix}.stem"),
        from,
        scale_channels(64, width),
        7,
        2,
    )?;
    b.max_pool(&format!("{prefix}.stem_pool"), c, 3, 2)
}

/// A ResNet *basic* block (two 3×3 convs + identity/projection skip).
///
/// # Errors
///
/// Propagates shape errors from the builder.
pub fn basic_block(
    b: &mut ModelBuilder,
    prefix: &str,
    from: LayerId,
    out_channels: u32,
    stride: u32,
) -> Result<LayerId, ModelError> {
    let c1 = b.conv(&format!("{prefix}.conv1"), from, out_channels, 3, stride)?;
    let c2 = b.conv(&format!("{prefix}.conv2"), c1, out_channels, 3, 1)?;
    let skip = if b.shape(from).same_as(&b.shape(c2)) {
        from
    } else {
        b.conv(&format!("{prefix}.proj"), from, out_channels, 1, stride)?
    };
    b.add(&format!("{prefix}.add"), &[c2, skip])
}

/// A ResNet *bottleneck* block (1×1 reduce, 3×3, 1×1 expand ×4 + skip).
///
/// # Errors
///
/// Propagates shape errors from the builder.
pub fn bottleneck_block(
    b: &mut ModelBuilder,
    prefix: &str,
    from: LayerId,
    mid_channels: u32,
    stride: u32,
) -> Result<LayerId, ModelError> {
    let out_channels = mid_channels * 4;
    let c1 = b.conv(&format!("{prefix}.conv1"), from, mid_channels, 1, 1)?;
    let c2 = b.conv(&format!("{prefix}.conv2"), c1, mid_channels, 3, stride)?;
    let c3 = b.conv(&format!("{prefix}.conv3"), c2, out_channels, 1, 1)?;
    let skip = if b.shape(from).same_as(&b.shape(c3)) {
        from
    } else {
        b.conv(&format!("{prefix}.proj"), from, out_channels, 1, stride)?
    };
    b.add(&format!("{prefix}.add"), &[c3, skip])
}

/// ResNet-18 trunk: stem + 4 stages of 2 basic blocks. Emits the final
/// spatial feature map (`512·width × H/32 × W/32`).
///
/// # Errors
///
/// Propagates shape errors from the builder.
pub fn resnet18_trunk(
    b: &mut ModelBuilder,
    prefix: &str,
    from: LayerId,
    width: f64,
) -> Result<LayerId, ModelError> {
    let mut x = resnet_stem(b, prefix, from, width)?;
    for (stage, (channels, blocks)) in [(64u32, 2u32), (128, 2), (256, 2), (512, 2)]
        .into_iter()
        .enumerate()
    {
        let c = scale_channels(channels, width);
        for blk in 0..blocks {
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
    Ok(x)
}

/// ResNet-50's bottleneck stages as `(mid channels, blocks)`: `[3, 4, 6,
/// 3]` blocks, ending in a `2048·width` feature map.
const RESNET50_STAGES: [(u32, u32); 4] = [(64, 3), (128, 4), (256, 6), (512, 3)];

/// ResNet-50 bottleneck stages `stages` (numbered 1–4; `1..=4` after
/// [`resnet_stem`] is the whole trunk). The first block of every stage
/// after the first has stride 2, and blocks are named
/// `{prefix}.s{stage}b{block}`.
///
/// # Errors
///
/// Propagates shape errors from the builder.
///
/// # Panics
///
/// Panics if `stages` reaches outside `1..=4`.
pub fn resnet50_stages(
    b: &mut ModelBuilder,
    prefix: &str,
    from: LayerId,
    width: f64,
    stages: RangeInclusive<usize>,
) -> Result<LayerId, ModelError> {
    let mut x = from;
    for stage in stages {
        let (mid, blocks) = RESNET50_STAGES[stage - 1];
        let m = scale_channels(mid, width);
        for blk in 1..=blocks {
            let stride = if stage > 1 && blk == 1 { 2 } else { 1 };
            x = bottleneck_block(b, &format!("{prefix}.s{stage}b{blk}"), x, m, stride)?;
        }
    }
    Ok(x)
}

/// VGG-16 convolutional trunk (13 convs + 5 pools). Emits the
/// `512·width × H/32 × W/32` feature map; FC heads are the caller's
/// responsibility (they carry most of VGG's 138M parameters).
///
/// # Errors
///
/// Propagates shape errors from the builder.
pub fn vgg16_trunk(
    b: &mut ModelBuilder,
    prefix: &str,
    from: LayerId,
    width: f64,
) -> Result<LayerId, ModelError> {
    let cfg: &[(u32, u32)] = &[(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    let mut x = from;
    for (stage, &(channels, convs)) in cfg.iter().enumerate() {
        let c = scale_channels(channels, width);
        for i in 0..convs {
            x = b.conv(&format!("{prefix}.s{}c{}", stage + 1, i + 1), x, c, 3, 1)?;
        }
        x = b.max_pool(&format!("{prefix}.pool{}", stage + 1), x, 2, 2)?;
    }
    Ok(x)
}

/// Classic VGG classifier head: two hidden FC layers + output FC.
///
/// # Errors
///
/// Propagates shape errors from the builder.
pub fn vgg_head(
    b: &mut ModelBuilder,
    prefix: &str,
    from: LayerId,
    hidden: u32,
    out: u32,
) -> Result<LayerId, ModelError> {
    let f1 = b.fc(&format!("{prefix}.fc1"), from, hidden)?;
    let f2 = b.fc(&format!("{prefix}.fc2"), f1, hidden)?;
    b.fc(&format!("{prefix}.fc3"), f2, out)
}

/// VD-CNN-style character-level text trunk: an embedding-width 1-D conv
/// followed by `blocks_per_stage` pairs of 1-D convs per channel stage,
/// halving the sequence between stages. Emits a sequence
/// (`steps/2^4 × 512·width`).
///
/// # Errors
///
/// Propagates shape errors from the builder (input must be a sequence).
pub fn vdcnn_trunk(
    b: &mut ModelBuilder,
    prefix: &str,
    from: LayerId,
    width: f64,
    blocks_per_stage: u32,
) -> Result<LayerId, ModelError> {
    let mut x = b.conv1d(
        &format!("{prefix}.embed"),
        from,
        scale_channels(64, width),
        3,
        1,
    )?;
    for (stage, channels) in [64u32, 128, 256, 512].into_iter().enumerate() {
        let c = scale_channels(channels, width);
        for blk in 0..blocks_per_stage {
            x = b.conv1d(&format!("{prefix}.s{}a{}", stage + 1, blk + 1), x, c, 3, 1)?;
            x = b.conv1d(&format!("{prefix}.s{}b{}", stage + 1, blk + 1), x, c, 3, 1)?;
        }
        // Stage transition halves the temporal extent.
        x = b.conv1d(&format!("{prefix}.down{}", stage + 1), x, c, 3, 2)?;
    }
    Ok(x)
}

/// Small sensor ConvNet frontend over a sequence: `depth` strided 1-D
/// convolutions (the per-sensor encoder in CNN-LSTM activity
/// recognition). Emits a sequence.
///
/// # Errors
///
/// Propagates shape errors from the builder.
pub fn sensor_convnet(
    b: &mut ModelBuilder,
    prefix: &str,
    from: LayerId,
    channels: &[u32],
) -> Result<LayerId, ModelError> {
    let mut x = from;
    for (i, &c) in channels.iter().enumerate() {
        let stride = if i == 0 { 1 } else { 2 };
        x = b.conv1d(&format!("{prefix}.conv{}", i + 1), x, c, 5, stride)?;
    }
    Ok(x)
}

/// Convenience: standard image input (`3 × side × side`).
pub fn image_input(b: &mut ModelBuilder, name: &str, side: u32) -> LayerId {
    b.input(
        name,
        TensorShape::Feature {
            c: 3,
            h: side,
            w: side,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerClass;

    fn count_class(m: &crate::graph::ModelGraph, class: LayerClass) -> usize {
        m.layers().filter(|(_, l)| l.class() == class).count()
    }

    #[test]
    fn resnet18_param_count_near_reference() {
        let mut b = ModelBuilder::new("r18");
        let i = image_input(&mut b, "in", 224);
        let t = resnet18_trunk(&mut b, "r18", i, 1.0).unwrap();
        let g = b.global_pool("gap", t).unwrap();
        b.fc("fc", g, 1000).unwrap();
        let m = b.finish().unwrap();
        let params = m.param_count();
        // torchvision resnet18: 11.69M (we fold BN, so slightly less).
        assert!(
            (10_500_000..12_500_000).contains(&params),
            "resnet18 params {params}"
        );
    }

    #[test]
    fn resnet50_param_count_near_reference() {
        let mut b = ModelBuilder::new("r50");
        let i = image_input(&mut b, "in", 224);
        let stem = resnet_stem(&mut b, "r50", i, 1.0).unwrap();
        let t = resnet50_stages(&mut b, "r50", stem, 1.0, 1..=4).unwrap();
        let g = b.global_pool("gap", t).unwrap();
        b.fc("fc", g, 1000).unwrap();
        let m = b.finish().unwrap();
        let params = m.param_count();
        // torchvision resnet50: 25.56M.
        assert!(
            (23_000_000..27_000_000).contains(&params),
            "resnet50 params {params}"
        );
    }

    #[test]
    fn vgg16_param_count_near_reference() {
        let mut b = ModelBuilder::new("vgg");
        let i = image_input(&mut b, "in", 224);
        let t = vgg16_trunk(&mut b, "vgg", i, 1.0).unwrap();
        vgg_head(&mut b, "head", t, 4096, 1000).unwrap();
        let m = b.finish().unwrap();
        let params = m.param_count();
        // Reference VGG-16: 138.36M.
        assert!(
            (132_000_000..145_000_000).contains(&params),
            "vgg16 params {params}"
        );
    }

    #[test]
    fn width_multiplier_shrinks_models() {
        let full = {
            let mut b = ModelBuilder::new("r18");
            let i = image_input(&mut b, "in", 224);
            resnet18_trunk(&mut b, "r18", i, 1.0).unwrap();
            b.finish().unwrap().param_count()
        };
        let half = {
            let mut b = ModelBuilder::new("r18h");
            let i = image_input(&mut b, "in", 224);
            resnet18_trunk(&mut b, "r18h", i, 0.5).unwrap();
            b.finish().unwrap().param_count()
        };
        // Half width ≈ quarter params.
        assert!(half < full / 3, "half {half} vs full {full}");
    }

    #[test]
    fn basic_block_uses_projection_only_when_needed() {
        let mut b = ModelBuilder::new("bb");
        let i = b.input(
            "in",
            TensorShape::Feature {
                c: 64,
                h: 56,
                w: 56,
            },
        );
        basic_block(&mut b, "same", i, 64, 1).unwrap();
        let m1 = b.finish().unwrap();
        assert_eq!(
            count_class(&m1, LayerClass::Conv),
            2,
            "identity skip needs no proj"
        );

        let mut b = ModelBuilder::new("bb2");
        let i = b.input(
            "in",
            TensorShape::Feature {
                c: 64,
                h: 56,
                w: 56,
            },
        );
        basic_block(&mut b, "down", i, 128, 2).unwrap();
        let m2 = b.finish().unwrap();
        assert_eq!(
            count_class(&m2, LayerClass::Conv),
            3,
            "downsample needs projection"
        );
    }

    #[test]
    fn vdcnn_trunk_is_sequence_out() {
        let mut b = ModelBuilder::new("vd");
        let i = b.input(
            "in",
            TensorShape::Sequence {
                steps: 256,
                features: 16,
            },
        );
        let t = vdcnn_trunk(&mut b, "vd", i, 1.0, 2).unwrap();
        match b.shape(t) {
            TensorShape::Sequence { steps, features } => {
                assert_eq!(steps, 16); // 256 / 2^4
                assert_eq!(features, 512);
            }
            other => panic!("unexpected {other:?}"),
        }
        b.finish().unwrap();
    }

    #[test]
    fn sensor_convnet_strides_halve_sequence() {
        let mut b = ModelBuilder::new("sc");
        let i = b.input(
            "in",
            TensorShape::Sequence {
                steps: 400,
                features: 6,
            },
        );
        let t = sensor_convnet(&mut b, "imu", i, &[32, 64, 128]).unwrap();
        assert_eq!(
            b.shape(t),
            TensorShape::Sequence {
                steps: 100,
                features: 128
            }
        );
        b.finish().unwrap();
    }
}
