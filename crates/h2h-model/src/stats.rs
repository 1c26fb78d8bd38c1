//! Aggregate model statistics (layer census, parameter and compute
//! volume), used by the zoo calibration tests and the reporting harness.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::graph::ModelGraph;
use crate::layer::LayerClass;
use crate::tensor::DataType;
use crate::units::{Bytes, Macs};

/// A census of a model graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelStats {
    /// Model name.
    pub name: String,
    /// Total layer count (all vertices, including aux ops).
    pub layers: usize,
    /// Convolution layer count.
    pub conv_layers: usize,
    /// FC layer count.
    pub fc_layers: usize,
    /// LSTM layer count.
    pub lstm_layers: usize,
    /// Auxiliary op count (inputs, pools, adds, concats).
    pub aux_layers: usize,
    /// Edge count.
    pub edges: usize,
    /// Trainable parameters.
    pub params: u64,
    /// Total compute volume.
    pub macs: Macs,
    /// Total weight bytes at F32.
    pub weight_bytes: Bytes,
    /// Sum of all edge activation volumes at F32.
    pub activation_bytes: Bytes,
    /// Edges that cross modality boundaries (MMMT cross-talk).
    pub cross_modality_edges: usize,
    /// Distinct modalities.
    pub modalities: Vec<String>,
}

impl ModelStats {
    /// Computes the census for `model`.
    pub fn of(model: &ModelGraph) -> Self {
        let mut conv = 0;
        let mut fc = 0;
        let mut lstm = 0;
        let mut aux = 0;
        for (_, l) in model.layers() {
            match l.class() {
                LayerClass::Conv => conv += 1,
                LayerClass::Fc => fc += 1,
                LayerClass::Lstm => lstm += 1,
                LayerClass::Aux => aux += 1,
            }
        }
        let weight_bytes = model
            .layers()
            .map(|(_, l)| l.weight_bytes(DataType::F32))
            .sum();
        let activation_bytes = model.edges().map(|(_, _, e)| e.bytes()).sum();
        let cross_modality_edges = model
            .edges()
            .filter(|(a, b, _)| {
                let ma = model.layer(*a).modality();
                let mb = model.layer(*b).modality();
                ma.is_some() && mb.is_some() && ma != mb
            })
            .count();
        ModelStats {
            name: model.name().to_owned(),
            layers: model.num_layers(),
            conv_layers: conv,
            fc_layers: fc,
            lstm_layers: lstm,
            aux_layers: aux,
            edges: model.num_edges(),
            params: model.param_count(),
            macs: model.total_macs(),
            weight_bytes,
            activation_bytes,
            cross_modality_edges,
            modalities: model.modalities(),
        }
    }

    /// Parameters in millions (the unit of Table 2's `Para.` column).
    pub fn params_m(&self) -> f64 {
        self.params as f64 / 1e6
    }
}

impl fmt::Display for ModelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} layers ({} conv / {} fc / {} lstm / {} aux), {} edges",
            self.name,
            self.layers,
            self.conv_layers,
            self.fc_layers,
            self.lstm_layers,
            self.aux_layers,
            self.edges
        )?;
        write!(
            f,
            "  {:.1}M params ({}), {}, activations {}, {} modalities, {} cross-talk edges",
            self.params_m(),
            self.weight_bytes,
            self.macs,
            self.activation_bytes,
            self.modalities.len(),
            self.cross_modality_edges
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::tensor::TensorShape;

    #[test]
    fn stats_census_counts_classes() {
        let mut b = ModelBuilder::new("census");
        b.modality(Some("a"));
        let ia = b.input("ia", TensorShape::Feature { c: 3, h: 32, w: 32 });
        let ca = b.conv("ca", ia, 16, 3, 1).unwrap();
        let ga = b.global_pool("gpa", ca).unwrap();
        b.modality(Some("v"));
        let iv = b.input(
            "iv",
            TensorShape::Sequence {
                steps: 16,
                features: 8,
            },
        );
        let lv = b.lstm("lv", iv, 32, 1, false).unwrap();
        b.modality(None);
        let cat = b.concat("fuse", &[ga, lv]).unwrap();
        b.fc("head", cat, 4).unwrap();
        let m = b.finish().unwrap();
        let s = ModelStats::of(&m);
        assert_eq!(s.layers, 7);
        assert_eq!(s.conv_layers, 1);
        assert_eq!(s.fc_layers, 1);
        assert_eq!(s.lstm_layers, 1);
        assert_eq!(s.aux_layers, 4);
        assert_eq!(s.modalities, vec!["a".to_owned(), "v".to_owned()]);
        assert_eq!(s.cross_modality_edges, 0);
        assert_eq!(s.params, m.param_count());
        let shown = format!("{s}");
        assert!(shown.contains("census"));
    }

    #[test]
    fn cross_modality_edges_detected() {
        let mut b = ModelBuilder::new("xtalk");
        b.modality(Some("a"));
        let ia = b.input("ia", TensorShape::Vector { features: 8 });
        let fa = b.fc("fa", ia, 8).unwrap();
        b.modality(Some("v"));
        let iv = b.input("iv", TensorShape::Vector { features: 8 });
        // Cross-talk: modality "v" layer consumes modality "a" output.
        let xt = b.add("xadd", &[fa, iv]).unwrap();
        let m = b.finish().unwrap();
        let s = ModelStats::of(&m);
        assert_eq!(s.cross_modality_edges, 1, "fa(a) -> xadd(v)");
        let _ = xt;
    }
}
