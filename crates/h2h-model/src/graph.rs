//! The heterogeneous model graph `G_model = (V, E)` (paper §3).
//!
//! Vertices are [`Layer`]s; edges carry the producer's output feature map
//! (OFM) to its consumers. MMMT cross-talk (edges between modality
//! backbones) is just an ordinary edge — nothing distinguishes it
//! structurally, which is exactly why clustering-based mappers struggle
//! (paper §2) and why H2H reasons about per-edge transfer volumes instead.

use std::collections::HashSet;
use std::fmt;

use petgraph::stable_graph::{NodeIndex, StableDiGraph};
use petgraph::visit::{EdgeRef, IntoEdgeReferences, NodeIndexable};
use petgraph::Direction;
use serde::{Deserialize, Serialize};

use crate::layer::{Layer, LayerClass};
use crate::tensor::DataType;
use crate::units::{Bytes, Macs};

/// Opaque handle to a layer vertex inside a [`ModelGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LayerId(NodeIndex);

impl LayerId {
    /// Stable dense-ish index of the layer; usable as a map key or a
    /// vector slot (indices are never reused because the graph is
    /// append-only).
    pub fn index(self) -> usize {
        self.0.index()
    }

    /// Rebuilds the handle from [`LayerId::index`] — the inverse
    /// round-trip, for data-oriented code that stores layers as raw
    /// indices in flat arrays. The index must have come from a layer of
    /// the same graph; this is not checked.
    pub fn from_index(index: usize) -> Self {
        LayerId(NodeIndex::new(index))
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0.index())
    }
}

/// Payload of a dependency edge: the byte volume of the activation that
/// crosses it (the producer's OFM at model precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeData {
    bytes: Bytes,
}

impl EdgeData {
    /// Activation bytes transferred along this edge.
    pub fn bytes(&self) -> Bytes {
        self.bytes
    }
}

/// Errors raised while constructing or validating a model graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The graph contains a dependency cycle (layer names on the cycle).
    Cycle(String),
    /// `connect` was called with an unknown layer handle.
    UnknownLayer(String),
    /// The same edge was added twice.
    DuplicateEdge(String, String),
    /// A self-loop was requested.
    SelfLoop(String),
    /// A layer name is used twice.
    DuplicateName(String),
    /// A shape constraint is violated (builder-level detail inside).
    ShapeMismatch(String),
    /// A convolution or pooling layer was given stride 0 (layer name).
    ZeroStride(String),
    /// A layer was given a size of 0, such as a zero kernel, feature
    /// count or input dimension.
    ZeroSize {
        /// Layer name.
        layer: String,
        /// The size that is zero (e.g. `"kernel size"`).
        what: &'static str,
    },
    /// The graph has no layers.
    Empty,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Cycle(n) => write!(f, "dependency cycle through layer `{n}`"),
            ModelError::UnknownLayer(n) => write!(f, "unknown layer `{n}`"),
            ModelError::DuplicateEdge(a, b) => write!(f, "duplicate edge `{a}` -> `{b}`"),
            ModelError::SelfLoop(n) => write!(f, "self loop on layer `{n}`"),
            ModelError::DuplicateName(n) => write!(f, "duplicate layer name `{n}`"),
            ModelError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            ModelError::ZeroStride(n) => write!(f, "layer `{n}` has stride 0"),
            ModelError::ZeroSize { layer, what } => write!(f, "layer `{layer}` has zero {what}"),
            ModelError::Empty => write!(f, "model graph has no layers"),
        }
    }
}

impl std::error::Error for ModelError {}

/// The heterogeneous model graph: a DAG of layers with activation-volume
/// annotated edges.
///
/// # Examples
///
/// ```
/// use h2h_model::graph::ModelGraph;
/// use h2h_model::layer::{Layer, LayerOp, FcParams};
/// use h2h_model::tensor::TensorShape;
///
/// let mut g = ModelGraph::new("tiny");
/// let input = g.add_layer(Layer::new(
///     "in",
///     LayerOp::Input { shape: TensorShape::Vector { features: 128 } },
/// ));
/// let fc = g.add_layer(Layer::new(
///     "fc",
///     LayerOp::Fc(FcParams { in_features: 128, out_features: 10 }),
/// ));
/// g.connect(input, fc)?;
/// g.validate()?;
/// assert_eq!(g.num_layers(), 2);
/// # Ok::<(), h2h_model::graph::ModelError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelGraph {
    name: String,
    graph: StableDiGraph<Layer, EdgeData>,
}

impl ModelGraph {
    /// Creates an empty model graph.
    pub fn new(name: impl Into<String>) -> Self {
        ModelGraph {
            name: name.into(),
            graph: StableDiGraph::new(),
        }
    }

    /// Model name (e.g. `"VLocNet"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a layer vertex and returns its handle.
    pub fn add_layer(&mut self, layer: Layer) -> LayerId {
        LayerId(self.graph.add_node(layer))
    }

    /// Adds a dependency edge `from -> to`, annotated with `from`'s OFM
    /// byte volume at model precision (F32).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownLayer`], [`ModelError::SelfLoop`] or
    /// [`ModelError::DuplicateEdge`] on malformed requests. Cycles are
    /// detected later by [`ModelGraph::validate`].
    pub fn connect(&mut self, from: LayerId, to: LayerId) -> Result<(), ModelError> {
        if from == to {
            return Err(ModelError::SelfLoop(self.layer_name_or_id(from)));
        }
        let bytes = {
            let producer = self
                .graph
                .node_weight(from.0)
                .ok_or_else(|| ModelError::UnknownLayer(format!("{from}")))?;
            if self.graph.node_weight(to.0).is_none() {
                return Err(ModelError::UnknownLayer(format!("{to}")));
            }
            producer.ofm_bytes(DataType::F32)
        };
        if self.graph.find_edge(from.0, to.0).is_some() {
            return Err(ModelError::DuplicateEdge(
                self.layer_name_or_id(from),
                self.layer_name_or_id(to),
            ));
        }
        self.graph.add_edge(from.0, to.0, EdgeData { bytes });
        Ok(())
    }

    fn layer_name_or_id(&self, id: LayerId) -> String {
        self.graph
            .node_weight(id.0)
            .map(|l| l.name().to_owned())
            .unwrap_or_else(|| format!("{id}"))
    }

    /// Validates the graph: non-empty, acyclic, unique layer names.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.graph.node_count() == 0 {
            return Err(ModelError::Empty);
        }
        let mut names = HashSet::new();
        for id in self.layer_ids() {
            let name = self.layer(id).name();
            if !names.insert(name.to_owned()) {
                return Err(ModelError::DuplicateName(name.to_owned()));
            }
        }
        match petgraph::algo::toposort(&self.graph, None) {
            Ok(_) => Ok(()),
            Err(cycle) => Err(ModelError::Cycle(
                self.graph
                    .node_weight(cycle.node_id())
                    .map(|l| l.name().to_owned())
                    .unwrap_or_default(),
            )),
        }
    }

    /// Number of layer vertices.
    pub fn num_layers(&self) -> usize {
        self.graph.node_count()
    }

    /// Exclusive upper bound on [`LayerId::index`] values, for building
    /// dense per-layer tables (`Vec` indexed by layer).
    pub fn id_bound(&self) -> usize {
        self.graph.node_bound()
    }

    /// Number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.graph.edge_count()
    }

    /// Borrow a layer by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.graph[id.0]
    }

    /// Iterate over all layer handles (in insertion order).
    pub fn layer_ids(&self) -> impl Iterator<Item = LayerId> + '_ {
        self.graph.node_indices().map(LayerId)
    }

    /// Iterate over `(handle, layer)` pairs.
    pub fn layers(&self) -> impl Iterator<Item = (LayerId, &Layer)> + '_ {
        self.graph
            .node_indices()
            .map(move |n| (LayerId(n), &self.graph[n]))
    }

    /// Iterate over `(producer, consumer, edge)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (LayerId, LayerId, &EdgeData)> + '_ {
        self.graph
            .edge_references()
            .map(|e| (LayerId(e.source()), LayerId(e.target()), e.weight()))
    }

    /// Activation bytes crossing the `from -> to` edge, if it exists.
    pub fn edge_bytes(&self, from: LayerId, to: LayerId) -> Option<Bytes> {
        self.graph
            .find_edge(from.0, to.0)
            .and_then(|e| self.graph.edge_weight(e))
            .map(|d| d.bytes)
    }

    /// Direct predecessors of a layer.
    pub fn predecessors(&self, id: LayerId) -> impl Iterator<Item = LayerId> + '_ {
        self.graph
            .neighbors_directed(id.0, Direction::Incoming)
            .map(LayerId)
    }

    /// Direct successors of a layer.
    pub fn successors(&self, id: LayerId) -> impl Iterator<Item = LayerId> + '_ {
        self.graph
            .neighbors_directed(id.0, Direction::Outgoing)
            .map(LayerId)
    }

    /// Layers with no predecessors (model inputs).
    pub fn sources(&self) -> Vec<LayerId> {
        self.layer_ids()
            .filter(|id| self.predecessors(*id).next().is_none())
            .collect()
    }

    /// Layers with no successors (model outputs).
    pub fn sinks(&self) -> Vec<LayerId> {
        self.layer_ids()
            .filter(|id| self.successors(*id).next().is_none())
            .collect()
    }

    /// Deterministic topological order (stable across runs: ties broken
    /// by insertion index).
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic; call [`ModelGraph::validate`] first.
    pub fn topo_order(&self) -> Vec<LayerId> {
        let ranks = self.asap_ranks();
        let mut order: Vec<LayerId> = self.layer_ids().collect();
        order.sort_by_key(|id| (ranks[id.index()], id.index()));
        order
    }

    /// ASAP rank per layer (longest-path depth from any source), indexed
    /// by `LayerId::index()`. Sparse slots (never allocated ids) hold 0.
    pub fn asap_ranks(&self) -> Vec<u32> {
        let cap = self.graph.node_bound();
        let mut rank = vec![0u32; cap];
        let order = petgraph::algo::toposort(&self.graph, None)
            .expect("asap_ranks requires an acyclic graph (run validate() first)");
        for n in order {
            let r = self
                .graph
                .neighbors_directed(n, Direction::Incoming)
                .map(|p| rank[p.index()] + 1)
                .max()
                .unwrap_or(0);
            rank[n.index()] = r;
        }
        rank
    }

    /// The mapping waves of paper Algorithm 1, step 1: wave 0 holds the
    /// "nodes without predecessors", and each later wave the layers whose
    /// predecessors all sit in earlier waves. A layer's wave is its ASAP
    /// rank ([`ModelGraph::asap_ranks`]), so the waves are that rank's
    /// buckets, each in index order.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic; call [`ModelGraph::validate`] first.
    pub fn asap_waves(&self) -> Vec<Vec<LayerId>> {
        let ranks = self.asap_ranks();
        let mut waves: Vec<Vec<LayerId>> = Vec::new();
        for id in self.layer_ids() {
            let r = ranks[id.index()] as usize;
            if waves.len() <= r {
                waves.resize_with(r + 1, Vec::new);
            }
            waves[r].push(id);
        }
        waves
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> u64 {
        self.layers().map(|(_, l)| l.weight_elems()).sum()
    }

    /// Total MAC volume.
    pub fn total_macs(&self) -> Macs {
        self.layers().map(|(_, l)| l.macs()).sum()
    }

    /// All distinct modality tags present, sorted.
    pub fn modalities(&self) -> Vec<String> {
        let mut tags: Vec<String> = self
            .layers()
            .filter_map(|(_, l)| l.modality().map(str::to_owned))
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        tags.sort();
        tags
    }

    /// Builds the sub-model in which only `active` modalities (plus all
    /// untagged shared layers) remain — the workload shape produced by a
    /// dynamic modality change (paper §4.5). Edges touching removed layers
    /// disappear; fusion layers keep their remaining inputs.
    pub fn retain_modalities(&self, active: &[&str]) -> ModelGraph {
        let keep: HashSet<LayerId> = self
            .layers()
            .filter(|(_, l)| match l.modality() {
                None => true,
                Some(m) => active.contains(&m),
            })
            .map(|(id, _)| id)
            .collect();
        let mut out = ModelGraph::new(format!("{}[{}]", self.name, active.join("+")));
        // Preserve original indices order; remap ids.
        let mut remap = std::collections::HashMap::new();
        let mut ids: Vec<LayerId> = keep.iter().copied().collect();
        ids.sort_by_key(|id| id.index());
        for id in ids {
            let new_id = out.add_layer(self.layer(id).clone());
            remap.insert(id, new_id);
        }
        for (a, b, _) in self.edges() {
            if let (Some(&na), Some(&nb)) = (remap.get(&a), remap.get(&b)) {
                out.connect(na, nb)
                    .expect("remapped edges are unique and non-self");
            }
        }
        out
    }

    /// Graphviz DOT rendering (layers labelled `name\nclass`), for
    /// debugging model generators.
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph model {\n  rankdir=LR;\n");
        for (id, l) in self.layers() {
            let color = match l.class() {
                LayerClass::Conv => "lightblue",
                LayerClass::Fc => "lightyellow",
                LayerClass::Lstm => "lightpink",
                LayerClass::Aux => "lightgray",
            };
            s.push_str(&format!(
                "  n{} [label=\"{}\\n{:?}\" style=filled fillcolor={}];\n",
                id.index(),
                l.name(),
                l.class(),
                color
            ));
        }
        for (a, b, e) in self.edges() {
            s.push_str(&format!(
                "  n{} -> n{} [label=\"{}\"];\n",
                a.index(),
                b.index(),
                e.bytes()
            ));
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{FcParams, LayerOp};
    use crate::tensor::TensorShape;

    fn vec_input(g: &mut ModelGraph, name: &str, features: u32) -> LayerId {
        g.add_layer(Layer::new(
            name,
            LayerOp::Input {
                shape: TensorShape::Vector { features },
            },
        ))
    }

    fn fc(g: &mut ModelGraph, name: &str, inf: u32, outf: u32) -> LayerId {
        g.add_layer(Layer::new(
            name,
            LayerOp::Fc(FcParams {
                in_features: inf,
                out_features: outf,
            }),
        ))
    }

    fn diamond() -> (ModelGraph, [LayerId; 4]) {
        let mut g = ModelGraph::new("diamond");
        let a = vec_input(&mut g, "in", 16);
        let b = fc(&mut g, "left", 16, 32);
        let c = fc(&mut g, "right", 16, 32);
        let d = g.add_layer(Layer::new(
            "join",
            LayerOp::Add {
                shape: TensorShape::Vector { features: 32 },
            },
        ));
        g.connect(a, b).unwrap();
        g.connect(a, c).unwrap();
        g.connect(b, d).unwrap();
        g.connect(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn diamond_is_valid() {
        let (g, _) = diamond();
        g.validate().unwrap();
        assert_eq!(g.num_layers(), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn sources_and_sinks() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (g, ids) = diamond();
        let order = g.topo_order();
        let pos = |id: LayerId| order.iter().position(|x| *x == id).unwrap();
        assert!(pos(ids[0]) < pos(ids[1]));
        assert!(pos(ids[0]) < pos(ids[2]));
        assert!(pos(ids[1]) < pos(ids[3]));
        assert!(pos(ids[2]) < pos(ids[3]));
    }

    #[test]
    fn frontier_walk_covers_graph_in_waves() {
        let (g, ids) = diamond();
        assert_eq!(
            g.asap_waves(),
            vec![vec![ids[0]], vec![ids[1], ids[2]], vec![ids[3]]]
        );
    }

    #[test]
    fn cycle_detected() {
        let (mut g, ids) = diamond();
        g.connect(ids[3], ids[0]).unwrap();
        assert!(matches!(g.validate(), Err(ModelError::Cycle(_))));
    }

    #[test]
    fn rejects_self_loop_and_duplicate_edges() {
        let (mut g, ids) = diamond();
        assert!(matches!(
            g.connect(ids[1], ids[1]),
            Err(ModelError::SelfLoop(_))
        ));
        assert!(matches!(
            g.connect(ids[0], ids[1]),
            Err(ModelError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = ModelGraph::new("dups");
        vec_input(&mut g, "x", 4);
        vec_input(&mut g, "x", 4);
        assert!(matches!(g.validate(), Err(ModelError::DuplicateName(_))));
    }

    #[test]
    fn empty_graph_rejected() {
        let g = ModelGraph::new("empty");
        assert_eq!(g.validate(), Err(ModelError::Empty));
    }

    #[test]
    fn edge_bytes_match_producer_ofm() {
        let (g, ids) = diamond();
        // Producer "in" emits 16 f32 = 64 bytes.
        assert_eq!(g.edge_bytes(ids[0], ids[1]), Some(Bytes::new(64)));
        // left (32 features) -> join carries 128 bytes.
        assert_eq!(g.edge_bytes(ids[1], ids[3]), Some(Bytes::new(128)));
        assert_eq!(g.edge_bytes(ids[3], ids[0]), None);
    }

    #[test]
    fn asap_ranks_longest_path() {
        let (g, ids) = diamond();
        let ranks = g.asap_ranks();
        assert_eq!(ranks[ids[0].index()], 0);
        assert_eq!(ranks[ids[1].index()], 1);
        assert_eq!(ranks[ids[2].index()], 1);
        assert_eq!(ranks[ids[3].index()], 2);
    }

    #[test]
    fn modality_retention_drops_subgraph() {
        let mut g = ModelGraph::new("mm");
        let a = g.add_layer(Layer::with_modality(
            "rgb_in",
            LayerOp::Input {
                shape: TensorShape::Vector { features: 8 },
            },
            "rgb",
        ));
        let b = g.add_layer(Layer::with_modality(
            "depth_in",
            LayerOp::Input {
                shape: TensorShape::Vector { features: 8 },
            },
            "depth",
        ));
        let head = g.add_layer(Layer::new(
            "fuse",
            LayerOp::Concat {
                out: TensorShape::Vector { features: 16 },
            },
        ));
        g.connect(a, head).unwrap();
        g.connect(b, head).unwrap();
        let sub = g.retain_modalities(&["rgb"]);
        assert_eq!(sub.num_layers(), 2);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(sub.modalities(), vec!["rgb".to_owned()]);
        sub.validate().unwrap();
    }

    #[test]
    fn serde_roundtrip() {
        let (g, _) = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: ModelGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_layers(), g.num_layers());
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.param_count(), g.param_count());
        back.validate().unwrap();
    }

    #[test]
    fn dot_output_mentions_all_layers() {
        let (g, _) = diamond();
        let dot = g.to_dot();
        for (_, l) in g.layers() {
            assert!(dot.contains(l.name()));
        }
    }
}
