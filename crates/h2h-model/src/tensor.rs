//! Tensor shapes flowing along the edges of a heterogeneous model graph.
//!
//! The H2H formulation (paper §3, Table 1) needs just enough shape
//! information to derive three quantities per layer: weight volume,
//! input-feature-map (IFM) volume and output-feature-map (OFM) volume.
//! Three shape families cover the MMMT zoo: spatial feature maps
//! (convolutional backbones), flat vectors (FC heads) and sequences
//! (LSTM branches).

use serde::{Deserialize, Serialize};

use crate::units::Bytes;

/// Element width of tensors and weights.
///
/// The reproduction transfers all inter-accelerator data in `F32`
/// (the paper does not model quantized transfers); narrower types exist so
/// custom accelerator plug-ins can model quantized local storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DataType {
    /// 32-bit float (default model precision).
    #[default]
    F32,
    /// 16-bit float.
    F16,
    /// 8-bit integer.
    I8,
}

impl DataType {
    /// Bytes per element.
    pub const fn bytes_per_elem(self) -> u64 {
        match self {
            DataType::F32 => 4,
            DataType::F16 => 2,
            DataType::I8 => 1,
        }
    }
}

/// Logical shape of an activation tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorShape {
    /// A `C × H × W` spatial feature map (vision backbones).
    Feature {
        /// Channel count.
        c: u32,
        /// Height.
        h: u32,
        /// Width.
        w: u32,
    },
    /// A flat feature vector (FC layers, pooled embeddings).
    Vector {
        /// Feature count.
        features: u32,
    },
    /// A `T × F` sequence (LSTM branches, text/speech/motion streams).
    Sequence {
        /// Time steps.
        steps: u32,
        /// Features per step.
        features: u32,
    },
}

impl TensorShape {
    /// Total element count of the tensor.
    ///
    /// ```
    /// use h2h_model::tensor::TensorShape;
    /// assert_eq!(TensorShape::Feature { c: 3, h: 4, w: 5 }.elements(), 60);
    /// assert_eq!(TensorShape::Vector { features: 128 }.elements(), 128);
    /// assert_eq!(TensorShape::Sequence { steps: 10, features: 8 }.elements(), 80);
    /// ```
    pub fn elements(&self) -> u64 {
        match *self {
            TensorShape::Feature { c, h, w } => c as u64 * h as u64 * w as u64,
            TensorShape::Vector { features } => features as u64,
            TensorShape::Sequence { steps, features } => steps as u64 * features as u64,
        }
    }

    /// Byte volume at the given precision.
    pub fn bytes(&self, dtype: DataType) -> Bytes {
        Bytes::new(self.elements() * dtype.bytes_per_elem())
    }

    /// The "feature dimension" used when this tensor feeds an FC or LSTM
    /// layer: channels×H×W flatten, vectors pass through, sequences expose
    /// their per-step feature width.
    pub fn flat_features(&self) -> u64 {
        match *self {
            TensorShape::Feature { c, h, w } => c as u64 * h as u64 * w as u64,
            TensorShape::Vector { features } => features as u64,
            TensorShape::Sequence { steps, features } => steps as u64 * features as u64,
        }
    }

    /// True if two shapes can be summed elementwise (residual adds).
    pub fn same_as(&self, other: &TensorShape) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_widths() {
        assert_eq!(DataType::F32.bytes_per_elem(), 4);
        assert_eq!(DataType::F16.bytes_per_elem(), 2);
        assert_eq!(DataType::I8.bytes_per_elem(), 1);
        assert_eq!(DataType::default(), DataType::F32);
    }

    #[test]
    fn byte_volume() {
        let fm = TensorShape::Feature {
            c: 64,
            h: 56,
            w: 56,
        };
        assert_eq!(fm.bytes(DataType::F32).as_u64(), 64 * 56 * 56 * 4);
        assert_eq!(fm.bytes(DataType::I8).as_u64(), 64 * 56 * 56);
    }

    #[test]
    fn flat_features_flattens_spatial() {
        let fm = TensorShape::Feature { c: 512, h: 7, w: 7 };
        assert_eq!(fm.flat_features(), 512 * 49);
        let seq = TensorShape::Sequence {
            steps: 20,
            features: 128,
        };
        assert_eq!(seq.flat_features(), 20 * 128);
    }

    #[test]
    fn shape_equality_for_residuals() {
        let a = TensorShape::Feature { c: 64, h: 8, w: 8 };
        let b = TensorShape::Feature { c: 64, h: 8, w: 8 };
        let c = TensorShape::Feature { c: 32, h: 8, w: 8 };
        assert!(a.same_as(&b));
        assert!(!a.same_as(&c));
    }
}
