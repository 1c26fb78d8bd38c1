//! Layer formalism: the vertex payload of the heterogeneous model graph.
//!
//! Mirrors the paper's Table 1:
//!
//! | Acc type | parameters | meaning |
//! |----------|------------|---------|
//! | Conv | `<N, M, R, C, K, S>` | ofm channels, ifm channels, ofm height, ofm width, kernel, stride |
//! | FC   | `<N, M>` | in features, out features |
//! | LSTM | `<N, H, L>` | in size, hidden size, layers |
//!
//! plus the auxiliary glue ops (pooling, residual add, concatenation,
//! model inputs) that real MMMT graphs need. Auxiliary ops carry no
//! weights and negligible compute; they can execute on any accelerator.

use serde::{Deserialize, Serialize};

use crate::tensor::{DataType, TensorShape};
use crate::units::{Bytes, Macs};

/// Convolution layer parameters `<N, M, R, C, K, S>` (Table 1).
///
/// Table 1 uses a single square kernel size `K`; this struct keeps the
/// height/width extents separate so that the 1-D convolutions in text and
/// speech backbones (VD-CNN in VFS, the MoCap speech stream) are counted
/// correctly (`K×1` kernels). For 2-D convs use [`ConvParams::square`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvParams {
    /// `N`: output channels.
    pub out_channels: u32,
    /// `M`: input channels.
    pub in_channels: u32,
    /// `R`: output height.
    pub out_h: u32,
    /// `C`: output width.
    pub out_w: u32,
    /// Kernel extent along the height axis.
    pub kernel_h: u32,
    /// Kernel extent along the width axis (`1` for 1-D convolutions).
    pub kernel_w: u32,
    /// `S`: stride.
    pub stride: u32,
}

impl ConvParams {
    /// Standard square-kernel 2-D convolution (`K = kernel_h = kernel_w`).
    pub fn square(
        out_channels: u32,
        in_channels: u32,
        out_h: u32,
        out_w: u32,
        k: u32,
        s: u32,
    ) -> Self {
        ConvParams {
            out_channels,
            in_channels,
            out_h,
            out_w,
            kernel_h: k,
            kernel_w: k,
            stride: s,
        }
    }

    /// True for square `K×K` kernels of size `k` (dataflow specialization
    /// checks, e.g. Winograd only accelerates 3×3 stride-1 convs).
    pub fn is_square(&self, k: u32) -> bool {
        self.kernel_h == k && self.kernel_w == k
    }

    /// MAC count: `N·M·R·C·Kh·Kw`.
    pub fn macs(&self) -> Macs {
        Macs::new(
            self.out_channels as u64
                * self.in_channels as u64
                * self.out_h as u64
                * self.out_w as u64
                * self.kernel_h as u64
                * self.kernel_w as u64,
        )
    }

    /// Weight element count: `N·M·Kh·Kw + N` (bias).
    pub fn weight_elems(&self) -> u64 {
        self.out_channels as u64
            * self.in_channels as u64
            * self.kernel_h as u64
            * self.kernel_w as u64
            + self.out_channels as u64
    }

    /// Output feature-map shape.
    pub fn ofm_shape(&self) -> TensorShape {
        TensorShape::Feature {
            c: self.out_channels,
            h: self.out_h,
            w: self.out_w,
        }
    }
}

/// Fully-connected layer parameters `<N, M>` (Table 1: in, out features).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FcParams {
    /// `N`: input features.
    pub in_features: u32,
    /// `M`: output features.
    pub out_features: u32,
}

impl FcParams {
    /// MAC count: `N·M`.
    pub fn macs(&self) -> Macs {
        Macs::new(self.in_features as u64 * self.out_features as u64)
    }

    /// Weight element count: `N·M + M` (bias).
    pub fn weight_elems(&self) -> u64 {
        self.in_features as u64 * self.out_features as u64 + self.out_features as u64
    }

    /// Output shape.
    pub fn ofm_shape(&self) -> TensorShape {
        TensorShape::Vector {
            features: self.out_features,
        }
    }
}

/// LSTM stack parameters `<N, H, L>` (Table 1) plus the sequence length
/// needed to turn the recurrence into a compute volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LstmParams {
    /// `N`: input feature size.
    pub in_size: u32,
    /// `H`: hidden size.
    pub hidden: u32,
    /// `L`: stacked layers.
    pub layers: u32,
    /// `T`: sequence length processed per inference.
    pub seq_len: u32,
    /// Whether the full output sequence (`T×H`) or only the final hidden
    /// state (`H`) is emitted.
    pub return_sequences: bool,
}

impl LstmParams {
    /// Weight element count: four gates per layer, input + recurrent +
    /// bias: `4·(N·H + H² + H)` for layer 0, `4·(H² + H² + H)` after.
    pub fn weight_elems(&self) -> u64 {
        let n = self.in_size as u64;
        let h = self.hidden as u64;
        let first = 4 * (n * h + h * h + h);
        let rest = 4 * (2 * h * h + h);
        first + rest * (self.layers as u64).saturating_sub(1)
    }

    /// MAC count: weights (minus biases) applied once per time step.
    pub fn macs(&self) -> Macs {
        let n = self.in_size as u64;
        let h = self.hidden as u64;
        let first = 4 * (n * h + h * h);
        let rest = 4 * (2 * h * h);
        let per_step = first + rest * (self.layers as u64).saturating_sub(1);
        Macs::new(per_step * self.seq_len as u64)
    }

    /// Output shape.
    pub fn ofm_shape(&self) -> TensorShape {
        if self.return_sequences {
            TensorShape::Sequence {
                steps: self.seq_len,
                features: self.hidden,
            }
        } else {
            TensorShape::Vector {
                features: self.hidden,
            }
        }
    }
}

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Pooling layer over spatial feature maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolParams {
    /// Pooling window.
    pub kernel: u32,
    /// Stride.
    pub stride: u32,
    /// Max or average.
    pub kind: PoolKind,
    /// Channels (pass-through).
    pub channels: u32,
    /// Output height.
    pub out_h: u32,
    /// Output width.
    pub out_w: u32,
}

impl PoolParams {
    /// Comparison/add count — bookkept as MACs for uniformity.
    pub fn macs(&self) -> Macs {
        Macs::new(
            self.channels as u64
                * self.out_h as u64
                * self.out_w as u64
                * (self.kernel as u64).pow(2),
        )
    }

    /// Output shape.
    pub fn ofm_shape(&self) -> TensorShape {
        TensorShape::Feature {
            c: self.channels,
            h: self.out_h,
            w: self.out_w,
        }
    }
}

/// The operation computed by a layer vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerOp {
    /// A model input: zero compute, emits the raw modality tensor (which
    /// always streams in from the host over Ethernet).
    Input {
        /// The tensor this input produces.
        shape: TensorShape,
    },
    /// Convolution (Table 1 `<N,M,R,C,K,S>`).
    Conv(ConvParams),
    /// Fully connected (Table 1 `<N,M>`).
    Fc(FcParams),
    /// LSTM stack (Table 1 `<N,H,L>` + sequence length).
    Lstm(LstmParams),
    /// Spatial pooling.
    Pool(PoolParams),
    /// Global average pooling: `C×H×W → C`.
    GlobalPool {
        /// Input channels (= output features).
        channels: u32,
        /// Input height.
        in_h: u32,
        /// Input width.
        in_w: u32,
    },
    /// Elementwise residual addition of equal-shaped tensors.
    Add {
        /// Shape of all inputs and the output.
        shape: TensorShape,
    },
    /// Feature concatenation (modality fusion point).
    Concat {
        /// Resulting concatenated shape.
        out: TensorShape,
    },
}

/// Coarse layer classification used for accelerator capability matching.
///
/// Matches the paper's three accelerator types; `Aux` covers the glue ops
/// every accelerator can execute (pool/add/concat/input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerClass {
    /// Convolution.
    Conv,
    /// Fully connected.
    Fc,
    /// Recurrent (LSTM).
    Lstm,
    /// Auxiliary glue (pooling, add, concat, inputs).
    Aux,
}

impl LayerOp {
    /// Classification for accelerator capability checks.
    pub fn class(&self) -> LayerClass {
        match self {
            LayerOp::Conv(_) => LayerClass::Conv,
            LayerOp::Fc(_) => LayerClass::Fc,
            LayerOp::Lstm(_) => LayerClass::Lstm,
            LayerOp::Input { .. }
            | LayerOp::Pool(_)
            | LayerOp::GlobalPool { .. }
            | LayerOp::Add { .. }
            | LayerOp::Concat { .. } => LayerClass::Aux,
        }
    }

    /// MAC volume of the op.
    pub fn macs(&self) -> Macs {
        match self {
            LayerOp::Conv(p) => p.macs(),
            LayerOp::Fc(p) => p.macs(),
            LayerOp::Lstm(p) => p.macs(),
            LayerOp::Pool(p) => p.macs(),
            LayerOp::GlobalPool {
                channels,
                in_h,
                in_w,
            } => Macs::new(*channels as u64 * *in_h as u64 * *in_w as u64),
            LayerOp::Add { shape } => Macs::new(shape.elements()),
            LayerOp::Concat { .. } | LayerOp::Input { .. } => Macs::ZERO,
        }
    }

    /// Weight element count (zero for all auxiliary ops).
    pub fn weight_elems(&self) -> u64 {
        match self {
            LayerOp::Conv(p) => p.weight_elems(),
            LayerOp::Fc(p) => p.weight_elems(),
            LayerOp::Lstm(p) => p.weight_elems(),
            _ => 0,
        }
    }

    /// Output tensor shape.
    pub fn ofm_shape(&self) -> TensorShape {
        match self {
            LayerOp::Input { shape } => *shape,
            LayerOp::Conv(p) => p.ofm_shape(),
            LayerOp::Fc(p) => p.ofm_shape(),
            LayerOp::Lstm(p) => p.ofm_shape(),
            LayerOp::Pool(p) => p.ofm_shape(),
            LayerOp::GlobalPool { channels, .. } => TensorShape::Vector {
                features: *channels,
            },
            LayerOp::Add { shape } => *shape,
            LayerOp::Concat { out } => *out,
        }
    }
}

/// A vertex of the heterogeneous model graph: a named, modality-tagged op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    name: String,
    op: LayerOp,
    modality: Option<String>,
}

impl Layer {
    /// Creates a layer with no modality tag.
    pub fn new(name: impl Into<String>, op: LayerOp) -> Self {
        Layer {
            name: name.into(),
            op,
            modality: None,
        }
    }

    /// Creates a layer tagged with the modality (sub-network) it belongs
    /// to; used by the dynamic-modality extension (paper §4.5).
    pub fn with_modality(
        name: impl Into<String>,
        op: LayerOp,
        modality: impl Into<String>,
    ) -> Self {
        Layer {
            name: name.into(),
            op,
            modality: Some(modality.into()),
        }
    }

    /// Layer name (unique within a model by construction in the builder).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operation.
    pub fn op(&self) -> &LayerOp {
        &self.op
    }

    /// The modality tag, if any.
    pub fn modality(&self) -> Option<&str> {
        self.modality.as_deref()
    }

    /// Classification for accelerator capability checks.
    pub fn class(&self) -> LayerClass {
        self.op.class()
    }

    /// MAC volume.
    pub fn macs(&self) -> Macs {
        self.op.macs()
    }

    /// Weight element count.
    pub fn weight_elems(&self) -> u64 {
        self.op.weight_elems()
    }

    /// Weight byte volume at `dtype` precision.
    pub fn weight_bytes(&self, dtype: DataType) -> Bytes {
        Bytes::new(self.weight_elems() * dtype.bytes_per_elem())
    }

    /// Output feature-map shape.
    pub fn ofm_shape(&self) -> TensorShape {
        self.op.ofm_shape()
    }

    /// Output feature-map byte volume at `dtype` precision.
    pub fn ofm_bytes(&self, dtype: DataType) -> Bytes {
        self.ofm_shape().bytes(dtype)
    }

    /// True for layers that carry trainable weights.
    pub fn has_weights(&self) -> bool {
        self.weight_elems() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> ConvParams {
        ConvParams::square(64, 3, 112, 112, 7, 2)
    }

    #[test]
    fn conv_macs_and_weights() {
        let p = conv();
        assert_eq!(p.macs().as_u64(), 64 * 3 * 112 * 112 * 49);
        assert_eq!(p.weight_elems(), 64 * 3 * 49 + 64);
        assert_eq!(
            p.ofm_shape(),
            TensorShape::Feature {
                c: 64,
                h: 112,
                w: 112
            }
        );
    }

    #[test]
    fn conv1d_counts_linear_kernel() {
        let p = ConvParams {
            out_channels: 128,
            in_channels: 64,
            out_h: 100,
            out_w: 1,
            kernel_h: 3,
            kernel_w: 1,
            stride: 1,
        };
        assert_eq!(p.macs().as_u64(), 128 * 64 * 100 * 3);
        assert_eq!(p.weight_elems(), 128 * 64 * 3 + 128);
        assert!(!p.is_square(3));
        assert!(conv().is_square(7));
    }

    #[test]
    fn fc_macs_and_weights() {
        let p = FcParams {
            in_features: 2048,
            out_features: 1000,
        };
        assert_eq!(p.macs().as_u64(), 2048 * 1000);
        assert_eq!(p.weight_elems(), 2048 * 1000 + 1000);
    }

    #[test]
    fn lstm_weight_formula() {
        // Single layer: 4*(N*H + H^2 + H).
        let p = LstmParams {
            in_size: 128,
            hidden: 256,
            layers: 1,
            seq_len: 10,
            return_sequences: true,
        };
        assert_eq!(p.weight_elems(), 4 * (128 * 256 + 256 * 256 + 256));
        // Two layers add 4*(2H^2 + H).
        let p2 = LstmParams { layers: 2, ..p };
        assert_eq!(
            p2.weight_elems(),
            4 * (128 * 256 + 256 * 256 + 256) + 4 * (2 * 256 * 256 + 256)
        );
    }

    #[test]
    fn lstm_macs_scale_with_seq_len() {
        let p = LstmParams {
            in_size: 64,
            hidden: 64,
            layers: 1,
            seq_len: 1,
            return_sequences: false,
        };
        let p10 = LstmParams { seq_len: 10, ..p };
        assert_eq!(p10.macs().as_u64(), 10 * p.macs().as_u64());
    }

    #[test]
    fn lstm_output_shape_follows_return_sequences() {
        let p = LstmParams {
            in_size: 64,
            hidden: 32,
            layers: 1,
            seq_len: 7,
            return_sequences: true,
        };
        assert_eq!(
            p.ofm_shape(),
            TensorShape::Sequence {
                steps: 7,
                features: 32
            }
        );
        let p2 = LstmParams {
            return_sequences: false,
            ..p
        };
        assert_eq!(p2.ofm_shape(), TensorShape::Vector { features: 32 });
    }

    #[test]
    fn aux_ops_have_no_weights() {
        let add = LayerOp::Add {
            shape: TensorShape::Vector { features: 10 },
        };
        assert_eq!(add.weight_elems(), 0);
        assert_eq!(add.class(), LayerClass::Aux);
        let cat = LayerOp::Concat {
            out: TensorShape::Vector { features: 10 },
        };
        assert_eq!(cat.macs(), Macs::ZERO);
        let inp = LayerOp::Input {
            shape: TensorShape::Vector { features: 10 },
        };
        assert_eq!(inp.class(), LayerClass::Aux);
    }

    #[test]
    fn layer_byte_accessors() {
        let l = Layer::with_modality("c1", LayerOp::Conv(conv()), "rgb");
        assert_eq!(l.modality(), Some("rgb"));
        assert_eq!(
            l.weight_bytes(DataType::F32).as_u64(),
            (64 * 3 * 49 + 64) * 4
        );
        assert!(l.has_weights());
        assert_eq!(l.ofm_bytes(DataType::F32).as_u64(), 64 * 112 * 112 * 4);
        assert_eq!(l.class(), LayerClass::Conv);
    }

    #[test]
    fn global_pool_shape() {
        let op = LayerOp::GlobalPool {
            channels: 512,
            in_h: 7,
            in_w: 7,
        };
        assert_eq!(op.ofm_shape(), TensorShape::Vector { features: 512 });
        assert_eq!(op.macs().as_u64(), 512 * 49);
    }
}
