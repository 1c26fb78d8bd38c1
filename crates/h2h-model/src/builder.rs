//! Shape-propagating builder for heterogeneous model graphs.
//!
//! The zoo generators (VLocNet, CASIA-SURF, …) chain hundreds of layers;
//! writing raw [`ConvParams`] for each would be error-prone. The builder
//! tracks every layer's output shape and derives the next layer's input
//! parameters, rejecting shape-inconsistent graphs at construction time
//! (dynamic enforcement per C-VALIDATE).
//!
//! # Examples
//!
//! ```
//! use h2h_model::builder::ModelBuilder;
//! use h2h_model::tensor::TensorShape;
//!
//! let mut b = ModelBuilder::new("demo");
//! let img = b.input("img", TensorShape::Feature { c: 3, h: 224, w: 224 });
//! let c1 = b.conv("c1", img, 64, 7, 2)?;
//! let p1 = b.max_pool("p1", c1, 3, 2)?;
//! let g = b.global_pool("gap", p1)?;
//! let logits = b.fc("fc", g, 1000)?;
//! let model = b.finish()?;
//! assert_eq!(model.num_layers(), 5);
//! # let _ = logits;
//! # Ok::<(), h2h_model::graph::ModelError>(())
//! ```

use std::collections::HashMap;

use crate::graph::{LayerId, ModelError, ModelGraph};
use crate::layer::{ConvParams, FcParams, Layer, LayerOp, LstmParams, PoolKind, PoolParams};
use crate::tensor::TensorShape;

/// Output spatial size under "same" padding: `ceil(in / stride)`. A
/// zero stride is refused by [`check_layer`] before the layer is added;
/// until then it divides as 1.
fn same_out(dim: u32, stride: u32) -> u32 {
    dim.div_ceil(stride.max(1))
}

/// Rejects a zero `value` for layer `name`'s size `what`.
///
/// # Errors
///
/// Returns [`ModelError::ZeroSize`] for `value == 0`.
fn nonzero(name: &str, what: &'static str, value: u32) -> Result<(), ModelError> {
    if value == 0 {
        return Err(ModelError::ZeroSize {
            layer: name.to_owned(),
            what,
        });
    }
    Ok(())
}

/// Rejects an input shape with a zero dimension. [`ModelBuilder::input`]
/// cannot fail, so [`ModelGraph::validate`] runs this over every input
/// (through [`check_layer`]), and the parser runs it on each input line.
///
/// # Errors
///
/// Returns [`ModelError::ZeroSize`] naming input `name`'s first zero
/// dimension.
pub(crate) fn check_input(name: &str, shape: &TensorShape) -> Result<(), ModelError> {
    match *shape {
        TensorShape::Feature { c, h, w } => {
            nonzero(name, "channels", c)?;
            nonzero(name, "height", h)?;
            nonzero(name, "width", w)
        }
        TensorShape::Vector { features } => nonzero(name, "features", features),
        TensorShape::Sequence { steps, features } => {
            nonzero(name, "steps", steps)?;
            nonzero(name, "features", features)
        }
    }
}

/// The size and stride checks every layer passes, whichever way it is
/// built: the builder runs them before it adds a layer,
/// [`ModelGraph::validate`] over every layer, and reading a model's JSON
/// on every layer it reads. A stride must be nonzero, and so must an
/// input's every dimension and a layer's output channels or features,
/// kernel, hidden units and stacked layers.
///
/// # Errors
///
/// Returns [`ModelError::ZeroStride`] or [`ModelError::ZeroSize`] naming
/// the layer, the stride first.
pub(crate) fn check_layer(layer: &Layer) -> Result<(), ModelError> {
    let name = layer.name();
    let stride = |s: u32| match s {
        0 => Err(ModelError::ZeroStride(name.to_owned())),
        _ => Ok(()),
    };
    match layer.op() {
        LayerOp::Input { shape } => check_input(name, shape),
        LayerOp::Conv(p) => {
            stride(p.stride)?;
            nonzero(name, "output channels", p.out_channels)?;
            nonzero(name, "kernel size", p.kernel_h)?;
            nonzero(name, "kernel size", p.kernel_w)
        }
        LayerOp::Pool(p) => {
            stride(p.stride)?;
            nonzero(name, "kernel size", p.kernel)
        }
        LayerOp::Fc(p) => nonzero(name, "output features", p.out_features),
        LayerOp::Lstm(p) => {
            nonzero(name, "hidden units", p.hidden)?;
            nonzero(name, "layers", p.layers)
        }
        LayerOp::GlobalPool { .. } | LayerOp::Add { .. } | LayerOp::Concat { .. } => Ok(()),
    }
}

/// A fluent, shape-checked builder for [`ModelGraph`].
#[derive(Debug)]
pub struct ModelBuilder {
    graph: ModelGraph,
    shapes: HashMap<LayerId, TensorShape>,
    modality: Option<String>,
}

impl ModelBuilder {
    /// Starts a new model.
    pub fn new(name: impl Into<String>) -> Self {
        ModelBuilder {
            graph: ModelGraph::new(name),
            shapes: HashMap::new(),
            modality: None,
        }
    }

    /// Sets the modality tag applied to subsequently created layers
    /// (`None` marks shared/fusion layers). Returns `&mut self` for
    /// chaining.
    pub fn modality(&mut self, tag: Option<&str>) -> &mut Self {
        self.modality = tag.map(str::to_owned);
        self
    }

    /// The output shape of a previously created layer.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this builder.
    pub fn shape(&self, id: LayerId) -> TensorShape {
        self.shapes[&id]
    }

    fn push(&mut self, name: &str, op: LayerOp, inputs: &[LayerId]) -> Result<LayerId, ModelError> {
        let layer = match &self.modality {
            Some(m) => Layer::with_modality(name, op, m.clone()),
            None => Layer::new(name, op),
        };
        // `input` cannot fail; `finish` refuses an input's zero
        // dimension instead.
        if !matches!(layer.op(), LayerOp::Input { .. }) {
            check_layer(&layer)?;
        }
        let shape = layer.ofm_shape();
        let id = self.graph.add_layer(layer);
        for &src in inputs {
            self.graph.connect(src, id)?;
        }
        self.shapes.insert(id, shape);
        Ok(id)
    }

    /// Adds a model input producing `shape`.
    pub fn input(&mut self, name: &str, shape: TensorShape) -> LayerId {
        self.push(name, LayerOp::Input { shape }, &[])
            .expect("input layers cannot fail shape checks")
    }

    /// Adds a 2-D convolution (`same` padding, square kernel `k`, stride
    /// `s`) reading from `from`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] unless `from` produces a
    /// spatial feature map, [`ModelError::ZeroStride`] for `s == 0` and
    /// [`ModelError::ZeroSize`] for no output channels or `k == 0`.
    pub fn conv(
        &mut self,
        name: &str,
        from: LayerId,
        out_channels: u32,
        k: u32,
        s: u32,
    ) -> Result<LayerId, ModelError> {
        match self.shape(from) {
            TensorShape::Feature { c, h, w } => {
                let p = ConvParams::square(out_channels, c, same_out(h, s), same_out(w, s), k, s);
                self.push(name, LayerOp::Conv(p), &[from])
            }
            other => Err(ModelError::ShapeMismatch(format!(
                "conv `{name}` needs a Feature input, got {other:?}"
            ))),
        }
    }

    /// Adds a 1-D convolution over a sequence (`K×1` kernel), the building
    /// block of VD-CNN-style text backbones and speech/motion frontends.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] unless `from` produces a
    /// sequence, [`ModelError::ZeroStride`] for `s == 0` and
    /// [`ModelError::ZeroSize`] for no output channels or `k == 0`.
    pub fn conv1d(
        &mut self,
        name: &str,
        from: LayerId,
        out_channels: u32,
        k: u32,
        s: u32,
    ) -> Result<LayerId, ModelError> {
        match self.shape(from) {
            TensorShape::Sequence { steps, features } => {
                let out_steps = same_out(steps, s);
                let p = ConvParams {
                    out_channels,
                    in_channels: features,
                    out_h: out_steps,
                    out_w: 1,
                    kernel_h: k,
                    kernel_w: 1,
                    stride: s,
                };
                // The op's natural OFM is a Feature map (C×T×1); re-expose
                // it as a sequence so LSTM/conv1d layers can follow.
                let id = self.push(name, LayerOp::Conv(p), &[from])?;
                self.shapes.insert(
                    id,
                    TensorShape::Sequence {
                        steps: out_steps,
                        features: out_channels,
                    },
                );
                Ok(id)
            }
            other => Err(ModelError::ShapeMismatch(format!(
                "conv1d `{name}` needs a Sequence input, got {other:?}"
            ))),
        }
    }

    /// Adds a fully-connected layer; any input shape is flattened.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if the flattened input width
    /// exceeds `u32::MAX`, and [`ModelError::ZeroSize`] for
    /// `out_features == 0`.
    pub fn fc(
        &mut self,
        name: &str,
        from: LayerId,
        out_features: u32,
    ) -> Result<LayerId, ModelError> {
        let inf = self.shape(from).flat_features();
        let in_features = u32::try_from(inf)
            .map_err(|_| ModelError::ShapeMismatch(format!("fc `{name}` input too wide: {inf}")))?;
        self.push(
            name,
            LayerOp::Fc(FcParams {
                in_features,
                out_features,
            }),
            &[from],
        )
    }

    /// Adds an LSTM stack reading a sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] unless `from` produces a
    /// sequence, and [`ModelError::ZeroSize`] for `hidden == 0` or
    /// `layers == 0`.
    pub fn lstm(
        &mut self,
        name: &str,
        from: LayerId,
        hidden: u32,
        layers: u32,
        return_sequences: bool,
    ) -> Result<LayerId, ModelError> {
        match self.shape(from) {
            TensorShape::Sequence { steps, features } => self.push(
                name,
                LayerOp::Lstm(LstmParams {
                    in_size: features,
                    hidden,
                    layers,
                    seq_len: steps,
                    return_sequences,
                }),
                &[from],
            ),
            other => Err(ModelError::ShapeMismatch(format!(
                "lstm `{name}` needs a Sequence input, got {other:?}"
            ))),
        }
    }

    fn pool(
        &mut self,
        name: &str,
        from: LayerId,
        k: u32,
        s: u32,
        kind: PoolKind,
    ) -> Result<LayerId, ModelError> {
        match self.shape(from) {
            TensorShape::Feature { c, h, w } => self.push(
                name,
                LayerOp::Pool(PoolParams {
                    kernel: k,
                    stride: s,
                    kind,
                    channels: c,
                    out_h: same_out(h, s),
                    out_w: same_out(w, s),
                }),
                &[from],
            ),
            other => Err(ModelError::ShapeMismatch(format!(
                "pool `{name}` needs a Feature input, got {other:?}"
            ))),
        }
    }

    /// Adds a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] unless `from` produces a
    /// spatial feature map, [`ModelError::ZeroStride`] for `s == 0` and
    /// [`ModelError::ZeroSize`] for `k == 0`.
    pub fn max_pool(
        &mut self,
        name: &str,
        from: LayerId,
        k: u32,
        s: u32,
    ) -> Result<LayerId, ModelError> {
        self.pool(name, from, k, s, PoolKind::Max)
    }

    /// Adds an average-pooling layer.
    ///
    /// # Errors
    ///
    /// See [`ModelBuilder::max_pool`].
    pub fn avg_pool(
        &mut self,
        name: &str,
        from: LayerId,
        k: u32,
        s: u32,
    ) -> Result<LayerId, ModelError> {
        self.pool(name, from, k, s, PoolKind::Avg)
    }

    /// Adds global average pooling (`C×H×W → C`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] unless `from` produces a
    /// spatial feature map.
    pub fn global_pool(&mut self, name: &str, from: LayerId) -> Result<LayerId, ModelError> {
        match self.shape(from) {
            TensorShape::Feature { c, h, w } => self.push(
                name,
                LayerOp::GlobalPool {
                    channels: c,
                    in_h: h,
                    in_w: w,
                },
                &[from],
            ),
            other => Err(ModelError::ShapeMismatch(format!(
                "global_pool `{name}` needs a Feature input, got {other:?}"
            ))),
        }
    }

    /// Adds an elementwise residual addition of two or more equal-shaped
    /// tensors.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if the input shapes differ or
    /// fewer than two inputs are given.
    pub fn add(&mut self, name: &str, inputs: &[LayerId]) -> Result<LayerId, ModelError> {
        let [first, rest @ ..] = inputs else {
            return Err(ModelError::ShapeMismatch(format!(
                "add `{name}` needs >= 2 inputs"
            )));
        };
        if rest.is_empty() {
            return Err(ModelError::ShapeMismatch(format!(
                "add `{name}` needs >= 2 inputs"
            )));
        }
        let shape = self.shape(*first);
        for id in rest {
            let s = self.shape(*id);
            if !shape.same_as(&s) {
                return Err(ModelError::ShapeMismatch(format!(
                    "add `{name}`: {shape:?} vs {s:?}"
                )));
            }
        }
        self.push(name, LayerOp::Add { shape }, inputs)
    }

    /// Adds a concatenation (modality-fusion point). Feature maps must
    /// agree on `H×W` and concatenate channels; sequences must agree on
    /// step count and concatenate features; anything else flattens to a
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] on incompatible spatial or
    /// temporal extents, or fewer than two inputs.
    pub fn concat(&mut self, name: &str, inputs: &[LayerId]) -> Result<LayerId, ModelError> {
        if inputs.len() < 2 {
            return Err(ModelError::ShapeMismatch(format!(
                "concat `{name}` needs >= 2 inputs"
            )));
        }
        let shapes: Vec<TensorShape> = inputs.iter().map(|id| self.shape(*id)).collect();
        let out = match shapes[0] {
            TensorShape::Feature { h, w, .. }
                if shapes.iter().all(
                    |s| matches!(s, TensorShape::Feature { h: h2, w: w2, .. } if *h2 == h && *w2 == w),
                ) =>
            {
                let c: u32 = shapes
                    .iter()
                    .map(|s| match s {
                        TensorShape::Feature { c, .. } => *c,
                        _ => unreachable!(),
                    })
                    .sum();
                TensorShape::Feature { c, h, w }
            }
            TensorShape::Sequence { steps, .. }
                if shapes
                    .iter()
                    .all(|s| matches!(s, TensorShape::Sequence { steps: t2, .. } if *t2 == steps)) =>
            {
                let features: u32 = shapes
                    .iter()
                    .map(|s| match s {
                        TensorShape::Sequence { features, .. } => *features,
                        _ => unreachable!(),
                    })
                    .sum();
                TensorShape::Sequence { steps, features }
            }
            _ => {
                let total: u64 = shapes.iter().map(TensorShape::flat_features).sum();
                let features = u32::try_from(total).map_err(|_| {
                    ModelError::ShapeMismatch(format!("concat `{name}` output too wide: {total}"))
                })?;
                TensorShape::Vector { features }
            }
        };
        self.push(name, LayerOp::Concat { out }, inputs)
    }

    /// Reinterprets a spatial feature map as a sequence (`C×H×W` →
    /// `steps=H·W, features=C`), the standard bridge from a CNN frontend
    /// into an LSTM (CNN-LSTM activity recognition).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] unless `from` produces a
    /// spatial feature map.
    pub fn to_sequence(&mut self, name: &str, from: LayerId) -> Result<LayerId, ModelError> {
        match self.shape(from) {
            TensorShape::Feature { c, h, w } => {
                let out = TensorShape::Sequence {
                    steps: h * w,
                    features: c,
                };
                self.push(name, LayerOp::Concat { out }, &[from])
                    .map_err(|e| match e {
                        ModelError::ShapeMismatch(m) => ModelError::ShapeMismatch(m),
                        other => other,
                    })
            }
            other => Err(ModelError::ShapeMismatch(format!(
                "to_sequence `{name}` needs a Feature input, got {other:?}"
            ))),
        }
    }

    /// Finalizes and validates the model.
    ///
    /// # Errors
    ///
    /// Propagates any [`ModelError`] found by [`ModelGraph::validate`],
    /// [`ModelError::ZeroSize`] for an input with a zero dimension
    /// among them.
    pub fn finish(self) -> Result<ModelGraph, ModelError> {
        self.graph.validate()?;
        Ok(self.graph)
    }
}

/// Replays `graph` through a [`ModelBuilder`], each layer with its own
/// free parameters (output size, kernel, stride, …) and its producers
/// in edge order, and checks that the builder derives exactly the
/// layer's op from its producers' output shapes. A convolution reading
/// a sequence replays as [`ModelBuilder::conv1d`], and a one-input
/// concatenation as [`ModelBuilder::to_sequence`], as the builder makes
/// them. Reading a model's JSON runs this once the edges are in.
///
/// # Errors
///
/// Returns [`ModelError::InputMismatch`] for a layer whose op or
/// producer count is not what the builder derives, or that reads a
/// layer after it, and the builder's own error (such as
/// [`ModelError::ShapeMismatch`]) when it refuses the producers.
pub(crate) fn check_producers(graph: &ModelGraph) -> Result<(), ModelError> {
    let mut b = ModelBuilder::new(graph.name());
    let mut built: Vec<LayerId> = Vec::with_capacity(graph.num_layers());
    for (id, layer) in graph.layers() {
        let name = layer.name();
        let mismatch = |detail: String| ModelError::InputMismatch {
            layer: name.to_owned(),
            detail,
        };
        let from = graph
            .predecessors(id)
            .map(|p| {
                built.get(p.index()).copied().ok_or_else(|| {
                    mismatch(format!(
                        "it reads `{}`, added after it",
                        graph.layer(p).name()
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let one = || match from[..] {
            [f] => Ok(f),
            _ => Err(mismatch(format!("it reads {} layers, not one", from.len()))),
        };
        let replayed = match *layer.op() {
            LayerOp::Input { shape } if from.is_empty() => b.input(name, shape),
            LayerOp::Input { .. } => return Err(mismatch("an input reads no layer".to_owned())),
            LayerOp::Conv(p) => {
                let f = one()?;
                match b.shape(f) {
                    TensorShape::Sequence { .. } => {
                        b.conv1d(name, f, p.out_channels, p.kernel_h, p.stride)?
                    }
                    _ => b.conv(name, f, p.out_channels, p.kernel_h, p.stride)?,
                }
            }
            LayerOp::Fc(p) => b.fc(name, one()?, p.out_features)?,
            LayerOp::Lstm(p) => b.lstm(name, one()?, p.hidden, p.layers, p.return_sequences)?,
            LayerOp::Pool(p) => b.pool(name, one()?, p.kernel, p.stride, p.kind)?,
            LayerOp::GlobalPool { .. } => b.global_pool(name, one()?)?,
            LayerOp::Add { .. } => b.add(name, &from)?,
            LayerOp::Concat { .. } if from.len() == 1 => b.to_sequence(name, from[0])?,
            LayerOp::Concat { .. } => b.concat(name, &from)?,
        };
        let derived = b.graph.layer(replayed).op();
        if derived != layer.op() {
            return Err(mismatch(format!(
                "it is {:?}, the builder derives {derived:?}",
                layer.op()
            )));
        }
        built.push(replayed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerClass;

    #[test]
    fn conv_shape_propagation_same_padding() {
        let mut b = ModelBuilder::new("t");
        let i = b.input(
            "i",
            TensorShape::Feature {
                c: 3,
                h: 224,
                w: 224,
            },
        );
        let c = b.conv("c", i, 64, 7, 2).unwrap();
        assert_eq!(
            b.shape(c),
            TensorShape::Feature {
                c: 64,
                h: 112,
                w: 112
            }
        );
        let p = b.max_pool("p", c, 3, 2).unwrap();
        assert_eq!(
            b.shape(p),
            TensorShape::Feature {
                c: 64,
                h: 56,
                w: 56
            }
        );
    }

    #[test]
    fn zero_strides_are_rejected_not_divided_by() {
        let mut b = ModelBuilder::new("t");
        let img = b.input("img", TensorShape::Feature { c: 3, h: 8, w: 8 });
        let seq = b.input(
            "seq",
            TensorShape::Sequence {
                steps: 8,
                features: 4,
            },
        );
        let zero = |r| matches!(r, Err(ModelError::ZeroStride(n)) if n == "z");
        assert!(zero(b.conv("z", img, 4, 3, 0)));
        assert!(zero(b.conv1d("z", seq, 4, 3, 0)));
        assert!(zero(b.max_pool("z", img, 2, 0)));
        assert!(zero(b.avg_pool("z", img, 2, 0)));
        assert_eq!(
            b.finish().unwrap().num_layers(),
            2,
            "no rejected layer was added"
        );
    }

    #[test]
    fn zero_sizes_are_rejected_naming_the_layer() {
        let mut b = ModelBuilder::new("t");
        let img = b.input("img", TensorShape::Feature { c: 3, h: 8, w: 8 });
        let seq = b.input(
            "seq",
            TensorShape::Sequence {
                steps: 8,
                features: 4,
            },
        );
        let zero = |r, size: &str| matches!(r, Err(ModelError::ZeroSize { layer, what }) if layer == "z" && what == size);
        assert!(zero(b.conv("z", img, 4, 0, 1), "kernel size"));
        assert!(zero(b.conv("z", img, 0, 3, 1), "output channels"));
        assert!(zero(b.conv1d("z", seq, 4, 0, 1), "kernel size"));
        assert!(zero(b.conv1d("z", seq, 0, 3, 1), "output channels"));
        assert!(zero(b.fc("z", img, 0), "output features"));
        assert!(zero(b.lstm("z", seq, 0, 1, false), "hidden units"));
        assert!(zero(b.lstm("z", seq, 8, 0, true), "layers"));
        assert!(zero(b.max_pool("z", img, 0, 1), "kernel size"));
        assert!(zero(b.avg_pool("z", img, 0, 1), "kernel size"));
        assert_eq!(
            b.finish().unwrap().num_layers(),
            2,
            "no rejected layer was added"
        );
    }

    #[test]
    fn inputs_with_a_zero_dimension_fail_at_finish() {
        for (shape, size) in [
            (TensorShape::Feature { c: 0, h: 8, w: 8 }, "channels"),
            (TensorShape::Feature { c: 3, h: 8, w: 0 }, "width"),
            (TensorShape::Vector { features: 0 }, "features"),
            (
                TensorShape::Sequence {
                    steps: 0,
                    features: 4,
                },
                "steps",
            ),
        ] {
            let mut b = ModelBuilder::new("t");
            let i = b.input("in", shape);
            b.fc("f", i, 2).unwrap();
            match b.finish() {
                Err(ModelError::ZeroSize { layer, what }) => {
                    assert_eq!((layer.as_str(), what), ("in", size), "{shape:?}")
                }
                other => panic!("{shape:?}: expected a zero-size error, got {other:?}"),
            }
        }
    }

    #[test]
    fn conv_rejects_vector_input() {
        let mut b = ModelBuilder::new("t");
        let i = b.input("i", TensorShape::Vector { features: 10 });
        assert!(matches!(
            b.conv("c", i, 8, 3, 1),
            Err(ModelError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn conv1d_keeps_sequence_shape() {
        let mut b = ModelBuilder::new("t");
        let i = b.input(
            "i",
            TensorShape::Sequence {
                steps: 128,
                features: 16,
            },
        );
        let c = b.conv1d("c", i, 64, 3, 2).unwrap();
        assert_eq!(
            b.shape(c),
            TensorShape::Sequence {
                steps: 64,
                features: 64
            }
        );
        // And it can feed an LSTM.
        let l = b.lstm("l", c, 128, 1, false).unwrap();
        assert_eq!(b.shape(l), TensorShape::Vector { features: 128 });
    }

    #[test]
    fn fc_flattens_feature_maps() {
        let mut b = ModelBuilder::new("t");
        let i = b.input("i", TensorShape::Feature { c: 512, h: 7, w: 7 });
        let f = b.fc("f", i, 4096).unwrap();
        assert_eq!(b.shape(f), TensorShape::Vector { features: 4096 });
        let model = b.finish().unwrap();
        let (_, fc_layer) = model.layers().find(|(_, l)| l.name() == "f").unwrap();
        assert_eq!(fc_layer.weight_elems(), 512 * 49 * 4096 + 4096);
    }

    #[test]
    fn lstm_rejects_feature_input() {
        let mut b = ModelBuilder::new("t");
        let i = b.input("i", TensorShape::Feature { c: 3, h: 8, w: 8 });
        assert!(matches!(
            b.lstm("l", i, 64, 1, true),
            Err(ModelError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn add_requires_matching_shapes() {
        let mut b = ModelBuilder::new("t");
        let i = b.input("i", TensorShape::Feature { c: 8, h: 4, w: 4 });
        let a = b.conv("a", i, 8, 3, 1).unwrap();
        let c = b.conv("c", i, 16, 3, 1).unwrap();
        assert!(matches!(
            b.add("bad", &[a, c]),
            Err(ModelError::ShapeMismatch(_))
        ));
        let d = b.conv("d", i, 8, 3, 1).unwrap();
        let ok = b.add("ok", &[a, d]).unwrap();
        assert_eq!(b.shape(ok), TensorShape::Feature { c: 8, h: 4, w: 4 });
    }

    #[test]
    fn add_requires_two_inputs() {
        let mut b = ModelBuilder::new("t");
        let i = b.input("i", TensorShape::Vector { features: 4 });
        assert!(matches!(
            b.add("one", &[i]),
            Err(ModelError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn concat_feature_maps_sums_channels() {
        let mut b = ModelBuilder::new("t");
        let i = b.input("i", TensorShape::Feature { c: 8, h: 4, w: 4 });
        let a = b.conv("a", i, 8, 3, 1).unwrap();
        let c = b.conv("c", i, 16, 3, 1).unwrap();
        let cat = b.concat("cat", &[a, c]).unwrap();
        assert_eq!(b.shape(cat), TensorShape::Feature { c: 24, h: 4, w: 4 });
    }

    #[test]
    fn concat_mixed_shapes_flattens() {
        let mut b = ModelBuilder::new("t");
        let v = b.input("v", TensorShape::Vector { features: 100 });
        let s = b.input(
            "s",
            TensorShape::Sequence {
                steps: 10,
                features: 8,
            },
        );
        let cat = b.concat("cat", &[v, s]).unwrap();
        assert_eq!(b.shape(cat), TensorShape::Vector { features: 180 });
    }

    #[test]
    fn concat_sequences_requires_same_steps() {
        let mut b = ModelBuilder::new("t");
        let a = b.input(
            "a",
            TensorShape::Sequence {
                steps: 10,
                features: 8,
            },
        );
        let c = b.input(
            "c",
            TensorShape::Sequence {
                steps: 10,
                features: 4,
            },
        );
        let cat = b.concat("cat", &[a, c]).unwrap();
        assert_eq!(
            b.shape(cat),
            TensorShape::Sequence {
                steps: 10,
                features: 12
            }
        );
    }

    #[test]
    fn modality_tags_apply_to_scope() {
        let mut b = ModelBuilder::new("t");
        b.modality(Some("rgb"));
        let i = b.input("i", TensorShape::Feature { c: 3, h: 8, w: 8 });
        b.modality(None);
        let g = b.global_pool("g", i).unwrap();
        let model = b.finish().unwrap();
        let by_name = |n: &str| {
            model
                .layers()
                .find(|(_, l)| l.name() == n)
                .unwrap()
                .1
                .clone()
        };
        assert_eq!(by_name("i").modality(), Some("rgb"));
        assert_eq!(by_name("g").modality(), None);
        let _ = g;
    }

    #[test]
    fn to_sequence_bridges_cnn_to_lstm() {
        let mut b = ModelBuilder::new("t");
        let i = b.input("i", TensorShape::Feature { c: 32, h: 4, w: 4 });
        let s = b.to_sequence("s", i).unwrap();
        assert_eq!(
            b.shape(s),
            TensorShape::Sequence {
                steps: 16,
                features: 32
            }
        );
        b.lstm("l", s, 64, 2, false).unwrap();
        b.finish().unwrap();
    }

    #[test]
    fn builder_classes_roundtrip() {
        let mut b = ModelBuilder::new("t");
        let i = b.input("i", TensorShape::Feature { c: 3, h: 16, w: 16 });
        let c = b.conv("c", i, 8, 3, 1).unwrap();
        let g = b.global_pool("g", c).unwrap();
        let f = b.fc("f", g, 10).unwrap();
        let m = b.finish().unwrap();
        let classes: Vec<LayerClass> = m
            .topo_order()
            .iter()
            .map(|id| m.layer(*id).class())
            .collect();
        assert_eq!(
            classes,
            vec![
                LayerClass::Aux,
                LayerClass::Conv,
                LayerClass::Aux,
                LayerClass::Fc
            ]
        );
        let _ = f;
    }
}
