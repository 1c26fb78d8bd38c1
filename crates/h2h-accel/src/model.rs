//! The plug-in accelerator interface.
//!
//! The H2H paper's infrastructure "takes arbitrary accelerators with
//! user-defined performance models in a plug-in manner" (§1). This module
//! is that plug-in point: anything implementing [`AccelModel`] can join a
//! heterogeneous system — the catalog's twelve analytical models, or a
//! user's own (see the `custom_accelerator` example in the workspace
//! root).

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use h2h_model::layer::{Layer, LayerClass};
use h2h_model::units::{Bytes, BytesPerSec, Joules, Seconds};

use crate::dataflow::Dataflow;

/// Static description of an accelerator (identity + board parameters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelMeta {
    /// Short identifier, e.g. `"CZ"` (first-author initials, as in the
    /// paper's Table 3).
    pub id: String,
    /// Human-readable description, e.g. `"C.Z [19] conv accelerator"`.
    pub name: String,
    /// FPGA board, e.g. `"VC707"`.
    pub fpga: String,
    /// The dataflow style the design implements.
    pub dataflow: Dataflow,
}

/// A pluggable accelerator performance model (`P_acc` in the paper):
/// given a layer, report compute latency and energy; expose the board's
/// local-DRAM parameters (`M_acc`) used by the locality optimizations.
///
/// Implementations must be deterministic: the mapper calls these methods
/// many times per layer while searching.
pub trait AccelModel: fmt::Debug + Send + Sync {
    /// Identity and board description.
    fn meta(&self) -> &AccelMeta;

    /// Layer classes this design can execute. Auxiliary glue ops
    /// ([`LayerClass::Aux`]) are implicitly supported by every design.
    fn supported_classes(&self) -> &[LayerClass];

    /// Pure compute latency of `layer` on this accelerator (excluding
    /// all weight/activation movement, which the system scheduler owns),
    /// or `None` if the layer class is unsupported.
    fn compute_time(&self, layer: &Layer) -> Option<Seconds>;

    /// Dynamic compute energy of `layer`, or `None` if unsupported.
    fn compute_energy(&self, layer: &Layer) -> Option<Joules>;

    /// Local DRAM capacity (`M_acc`, paper Table 1).
    fn dram_capacity(&self) -> Bytes;

    /// Local DRAM bandwidth (pinned weights and fused activations move
    /// at this rate instead of over Ethernet).
    fn dram_bandwidth(&self) -> BytesPerSec;

    /// Board power draw while executing, in watts (energy model input).
    fn active_power_w(&self) -> f64;

    /// Convenience: can this design execute `layer`?
    fn supports(&self, layer: &Layer) -> bool {
        layer.class() == LayerClass::Aux || self.supported_classes().contains(&layer.class())
    }
}

/// Shared handle to a plugged-in accelerator.
pub type AccelRef = Arc<dyn AccelModel>;

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_model::layer::LayerOp;
    use h2h_model::tensor::TensorShape;

    #[derive(Debug)]
    struct Fake;

    impl AccelModel for Fake {
        fn meta(&self) -> &AccelMeta {
            static META: std::sync::OnceLock<AccelMeta> = std::sync::OnceLock::new();
            META.get_or_init(|| AccelMeta {
                id: "FAKE".into(),
                name: "fake".into(),
                fpga: "none".into(),
                dataflow: Dataflow::Generality { eff: 0.5 },
            })
        }
        fn supported_classes(&self) -> &[LayerClass] {
            &[LayerClass::Conv]
        }
        fn compute_time(&self, _layer: &Layer) -> Option<Seconds> {
            Some(Seconds::new(1.0))
        }
        fn compute_energy(&self, _layer: &Layer) -> Option<Joules> {
            Some(Joules::new(1.0))
        }
        fn dram_capacity(&self) -> Bytes {
            Bytes::from_mib(512)
        }
        fn dram_bandwidth(&self) -> BytesPerSec {
            BytesPerSec::from_gbps(10.0)
        }
        fn active_power_w(&self) -> f64 {
            10.0
        }
    }

    #[test]
    fn aux_layers_always_supported() {
        let acc = Fake;
        let aux = Layer::new(
            "add",
            LayerOp::Add {
                shape: TensorShape::Vector { features: 4 },
            },
        );
        assert!(acc.supports(&aux));
        let fc = Layer::new(
            "fc",
            LayerOp::Fc(h2h_model::layer::FcParams {
                in_features: 4,
                out_features: 4,
            }),
        );
        assert!(!acc.supports(&fc), "FC not in supported_classes");
    }

    #[test]
    fn trait_is_object_safe() {
        let acc: AccelRef = Arc::new(Fake);
        assert_eq!(acc.meta().id, "FAKE");
    }
}
