//! The mapping `G*_model → G*_sys`: which accelerator runs each layer,
//! and in what order.
//!
//! Execution order is induced by a single global topological priority
//! (ASAP rank, ties by creation index): each accelerator runs its layers
//! in that order. This keeps every mapping's schedule valid by
//! construction — no cross-accelerator wait cycles — and deterministic
//! across remapping moves (paper §4.4 keeps the source accelerator's
//! remaining layers in order for the same reason).

use std::fmt;

use serde::{Deserialize, Serialize};

use h2h_model::graph::{LayerId, ModelGraph};
use h2h_model::layer::LayerClass;

use crate::system::{AccId, SystemSpec};

/// Errors raised when a mapping is inconsistent with its model/system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// A layer has not been assigned to any accelerator.
    Unmapped(String),
    /// A layer was assigned to an accelerator that cannot execute it.
    Unsupported {
        /// Layer name.
        layer: String,
        /// Offending accelerator (catalog id).
        acc: String,
        /// The layer's class.
        class: LayerClass,
    },
    /// An accelerator id outside the system was referenced.
    BadAccId(usize),
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::Unmapped(l) => write!(f, "layer `{l}` is unmapped"),
            MappingError::Unsupported { layer, acc, class } => {
                write!(
                    f,
                    "layer `{layer}` ({class:?}) mapped to `{acc}` which cannot run it"
                )
            }
            MappingError::BadAccId(i) => write!(f, "accelerator id {i} out of range"),
        }
    }
}

impl std::error::Error for MappingError {}

/// A (possibly partial) assignment of layers to accelerators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    assign: Vec<Option<AccId>>,
}

impl Mapping {
    /// An empty mapping sized for `model`.
    pub fn new(model: &ModelGraph) -> Self {
        Mapping {
            assign: vec![None; model.id_bound()],
        }
    }

    /// Assigns (or re-assigns) a layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` does not belong to the model this mapping was
    /// sized for.
    pub fn set(&mut self, layer: LayerId, acc: AccId) {
        self.assign[layer.index()] = Some(acc);
    }

    /// The accelerator a layer is mapped to, if any.
    pub fn get(&self, layer: LayerId) -> Option<AccId> {
        self.assign.get(layer.index()).copied().flatten()
    }

    /// The accelerator a layer is mapped to.
    ///
    /// # Panics
    ///
    /// Panics if the layer is unmapped; use [`Mapping::get`] during
    /// construction phases.
    pub fn acc_of(&self, layer: LayerId) -> AccId {
        self.get(layer).expect("layer must be mapped")
    }

    /// True once every layer of `model` is assigned.
    pub fn is_complete(&self, model: &ModelGraph) -> bool {
        model.layer_ids().all(|id| self.get(id).is_some())
    }

    /// Count of layers per accelerator, indexed by `AccId::index()`.
    pub fn load_histogram(&self, num_accs: usize) -> Vec<usize> {
        let mut h = vec![0usize; num_accs];
        for a in self.assign.iter().flatten() {
            if a.index() < num_accs {
                h[a.index()] += 1;
            }
        }
        h
    }

    /// Validates completeness and capability support.
    ///
    /// # Errors
    ///
    /// Returns the first [`MappingError`] found.
    pub fn validate(&self, model: &ModelGraph, system: &SystemSpec) -> Result<(), MappingError> {
        for (id, layer) in model.layers() {
            let Some(acc) = self.get(id) else {
                return Err(MappingError::Unmapped(layer.name().to_owned()));
            };
            if acc.index() >= system.num_accs() {
                return Err(MappingError::BadAccId(acc.index()));
            }
            if !system.acc(acc).supports(layer) {
                return Err(MappingError::Unsupported {
                    layer: layer.name().to_owned(),
                    acc: system.acc(acc).meta().id.clone(),
                    class: layer.class(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::BandwidthClass;
    use h2h_model::builder::ModelBuilder;
    use h2h_model::tensor::TensorShape;

    fn toy() -> ModelGraph {
        let mut b = ModelBuilder::new("toy");
        let i = b.input("i", TensorShape::Feature { c: 3, h: 8, w: 8 });
        let c = b.conv("c", i, 8, 3, 1).unwrap();
        let g = b.global_pool("g", c).unwrap();
        b.fc("f", g, 4).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn incomplete_mapping_detected() {
        let m = toy();
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let mut map = Mapping::new(&m);
        assert!(!map.is_complete(&m));
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        assert!(map.is_complete(&m));
        let _ = sys;
    }

    #[test]
    fn validate_rejects_unsupported_class() {
        let m = toy();
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let mut map = Mapping::new(&m);
        // JZ (acc 0) is conv-only; the FC layer must be rejected.
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        match map.validate(&m, &sys) {
            Err(MappingError::Unsupported { layer, class, .. }) => {
                assert_eq!(layer, "f");
                assert_eq!(class, LayerClass::Fc);
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn validate_accepts_capable_assignment() {
        let m = toy();
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let jq = sys.find_by_meta_id("JQ").unwrap(); // conv+fc+lstm
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, jq);
        }
        map.validate(&m, &sys).unwrap();
    }

    #[test]
    fn load_histogram_counts_layers_per_board() {
        let m = toy();
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let jq = sys.find_by_meta_id("JQ").unwrap();
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, jq);
        }
        let histogram = map.load_histogram(sys.num_accs());
        assert_eq!(histogram[jq.index()], 4);
        assert_eq!(histogram.iter().sum::<usize>(), 4);
    }

    #[test]
    fn remapping_overwrites() {
        let m = toy();
        let mut map = Mapping::new(&m);
        let l = m.layer_ids().next().unwrap();
        map.set(l, AccId::new(1));
        map.set(l, AccId::new(2));
        assert_eq!(map.get(l), Some(AccId::new(2)));
    }
}
