//! The heterogeneous model graph `G_model = (V, E)` (paper §3).
//!
//! Vertices are [`Layer`]s; edges carry the producer's output feature map
//! (OFM) to its consumers. MMMT cross-talk (edges between modality
//! backbones) is just an ordinary edge — nothing distinguishes it
//! structurally, which is exactly why clustering-based mappers struggle
//! (paper §2) and why H2H reasons about per-edge transfer volumes instead.
//!
//! The graph is append-only, and every order it hands out is fixed:
//! layers and edges come in insertion order; a layer's predecessors and
//! successors come in the order their edges were added; waves and
//! [`ModelGraph::topo_order`] are ordered by ASAP rank, then index.
//! The evaluator sums a layer's incoming transfers in predecessor order,
//! and a float sum taken in another order can round differently, so
//! these orders are part of the bit-identity contract of every record.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

use serde::{Deserialize, Error, Serialize, Value};

use crate::builder::{check_layer, check_producers};
use crate::layer::{Layer, LayerClass};
use crate::tensor::DataType;
use crate::units::{Bytes, Macs};

/// Opaque handle to a layer vertex inside a [`ModelGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LayerId(u32);

impl LayerId {
    /// Stable dense-ish index of the layer; usable as a map key or a
    /// vector slot (indices are never reused because the graph is
    /// append-only).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds the handle from [`LayerId::index`] — the inverse
    /// round-trip, for data-oriented code that stores layers as raw
    /// indices in flat arrays. The index must have come from a layer of
    /// the same graph; this is not checked.
    pub fn from_index(index: usize) -> Self {
        LayerId(index as u32)
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
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
    /// The graph contains a dependency cycle (the name of a layer on
    /// the cycle).
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
    /// A layer's input dimensions are not what the builder derives
    /// from its producers' output shapes.
    InputMismatch {
        /// Layer name.
        layer: String,
        /// What disagrees.
        detail: String,
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
            ModelError::InputMismatch { layer, detail } => {
                write!(f, "layer `{layer}` disagrees with its producers: {detail}")
            }
            ModelError::Empty => write!(f, "model graph has no layers"),
        }
    }
}

impl std::error::Error for ModelError {}

/// The heterogeneous model graph: a DAG of layers with activation-volume
/// annotated edges.
///
/// It stores its layers, its edges and, per layer, the positions of its
/// incoming and outgoing edges, all in insertion order. Nothing is ever
/// removed, so a [`LayerId`] stays valid for the graph's lifetime. Every
/// iteration order is fixed (see the module docs): layers and edges in
/// insertion order, a layer's predecessors and successors in the order
/// their edges were added, waves and [`ModelGraph::topo_order`] by ASAP
/// rank, then index.
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
#[derive(Debug, Clone)]
pub struct ModelGraph {
    name: String,
    layers: Vec<Layer>,
    /// `(from, to, data)` per edge, in insertion order.
    edges: Vec<(LayerId, LayerId, EdgeData)>,
    /// Per layer, the positions in `edges` of its incoming edges.
    incoming: Vec<Vec<u32>>,
    /// Per layer, the positions in `edges` of its outgoing edges.
    outgoing: Vec<Vec<u32>>,
}

impl ModelGraph {
    /// Creates an empty model graph.
    pub fn new(name: impl Into<String>) -> Self {
        ModelGraph {
            name: name.into(),
            layers: Vec::new(),
            edges: Vec::new(),
            incoming: Vec::new(),
            outgoing: Vec::new(),
        }
    }

    /// Model name (e.g. `"VLocNet"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a layer vertex and returns its handle.
    pub fn add_layer(&mut self, layer: Layer) -> LayerId {
        let id = LayerId::from_index(self.layers.len());
        self.layers.push(layer);
        self.incoming.push(Vec::new());
        self.outgoing.push(Vec::new());
        id
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
        for id in [from, to] {
            if id.index() >= self.layers.len() {
                return Err(ModelError::UnknownLayer(format!("{id}")));
            }
        }
        if self.edge_bytes(from, to).is_some() {
            return Err(ModelError::DuplicateEdge(
                self.layer_name_or_id(from),
                self.layer_name_or_id(to),
            ));
        }
        let bytes = self.layer(from).ofm_bytes(DataType::F32);
        let pos = self.edges.len() as u32;
        self.edges.push((from, to, EdgeData { bytes }));
        self.outgoing[from.index()].push(pos);
        self.incoming[to.index()].push(pos);
        Ok(())
    }

    fn layer_name_or_id(&self, id: LayerId) -> String {
        self.layers
            .get(id.index())
            .map(|l| l.name().to_owned())
            .unwrap_or_else(|| format!("{id}"))
    }

    /// Validates the graph: non-empty, every layer's sizes and stride
    /// nonzero as the builder requires, unique layer names, acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint, in that order. A cycle is
    /// reported by the name of one layer on it.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.layers.is_empty() {
            return Err(ModelError::Empty);
        }
        self.layers.iter().try_for_each(check_layer)?;
        let mut names = HashSet::new();
        for l in &self.layers {
            if !names.insert(l.name()) {
                return Err(ModelError::DuplicateName(l.name().to_owned()));
            }
        }
        match self.kahn() {
            Ok(_) => Ok(()),
            Err(unsorted) => Err(ModelError::Cycle(
                self.layer(self.layer_on_cycle(&unsorted)).name().to_owned(),
            )),
        }
    }

    /// Kahn's topological sort, ready layers taken lowest index first.
    /// Returns each layer's ASAP rank (longest-path depth from a
    /// source), or, if a cycle blocks the sort, which layers it left
    /// unsorted.
    fn kahn(&self) -> Result<Vec<u32>, Vec<bool>> {
        let mut waiting: Vec<usize> = self.incoming.iter().map(Vec::len).collect();
        let mut rank = vec![0u32; self.layers.len()];
        let mut ready: BinaryHeap<Reverse<usize>> = (0..self.layers.len())
            .filter(|&i| waiting[i] == 0)
            .map(Reverse)
            .collect();
        let mut sorted = 0;
        while let Some(Reverse(i)) = ready.pop() {
            sorted += 1;
            for s in self.successors(LayerId::from_index(i)) {
                let s = s.index();
                rank[s] = rank[s].max(rank[i] + 1);
                waiting[s] -= 1;
                if waiting[s] == 0 {
                    ready.push(Reverse(s));
                }
            }
        }
        if sorted == self.layers.len() {
            Ok(rank)
        } else {
            Err(waiting.iter().map(|&w| w > 0).collect())
        }
    }

    /// A layer on a cycle, given the layers Kahn's sort left unsorted.
    /// Each unsorted layer has an unsorted predecessor, so walking back
    /// from the lowest-index one through first unsorted predecessors
    /// must repeat a layer, and the first repeated layer is on a cycle.
    fn layer_on_cycle(&self, unsorted: &[bool]) -> LayerId {
        let mut seen = vec![false; self.layers.len()];
        let mut at = LayerId::from_index(
            unsorted
                .iter()
                .position(|&u| u)
                .expect("a cycle leaves layers unsorted"),
        );
        while !seen[at.index()] {
            seen[at.index()] = true;
            at = self
                .predecessors(at)
                .find(|p| unsorted[p.index()])
                .expect("an unsorted layer has an unsorted predecessor");
        }
        at
    }

    /// Number of layer vertices.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Exclusive upper bound on [`LayerId::index`] values, for building
    /// dense per-layer tables (`Vec` indexed by layer).
    pub fn id_bound(&self) -> usize {
        self.layers.len()
    }

    /// Number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Borrow a layer by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.index()]
    }

    /// Iterate over all layer handles (in insertion order).
    pub fn layer_ids(&self) -> impl Iterator<Item = LayerId> + '_ {
        (0..self.layers.len()).map(LayerId::from_index)
    }

    /// Iterate over `(handle, layer)` pairs, in insertion order.
    pub fn layers(&self) -> impl Iterator<Item = (LayerId, &Layer)> + '_ {
        self.layer_ids().zip(&self.layers)
    }

    /// Iterate over `(producer, consumer, edge)` triples, in insertion
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (LayerId, LayerId, &EdgeData)> + '_ {
        self.edges.iter().map(|(from, to, data)| (*from, *to, data))
    }

    /// Activation bytes crossing the `from -> to` edge, if it exists.
    pub fn edge_bytes(&self, from: LayerId, to: LayerId) -> Option<Bytes> {
        self.outgoing
            .get(from.index())?
            .iter()
            .map(|&e| &self.edges[e as usize])
            .find(|(_, t, _)| *t == to)
            .map(|(_, _, data)| data.bytes)
    }

    /// Direct predecessors of a layer, in the order their edges were
    /// added.
    pub fn predecessors(&self, id: LayerId) -> impl Iterator<Item = LayerId> + '_ {
        self.incoming[id.index()]
            .iter()
            .map(|&e| self.edges[e as usize].0)
    }

    /// Direct successors of a layer, in the order their edges were added.
    pub fn successors(&self, id: LayerId) -> impl Iterator<Item = LayerId> + '_ {
        self.outgoing[id.index()]
            .iter()
            .map(|&e| self.edges[e as usize].1)
    }

    /// Layers with no predecessors (model inputs).
    pub fn sources(&self) -> Vec<LayerId> {
        self.layer_ids()
            .filter(|id| self.incoming[id.index()].is_empty())
            .collect()
    }

    /// Layers with no successors (model outputs).
    pub fn sinks(&self) -> Vec<LayerId> {
        self.layer_ids()
            .filter(|id| self.outgoing[id.index()].is_empty())
            .collect()
    }

    /// Deterministic topological order: by ASAP rank, then index.
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
    /// by `LayerId::index()`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic; call [`ModelGraph::validate`] first.
    pub fn asap_ranks(&self) -> Vec<u32> {
        self.kahn()
            .expect("asap_ranks requires an acyclic graph (run validate() first)")
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

/// The JSON document is `{"name", "graph": {"nodes", "edges"}}`: the
/// layers in insertion order, then each edge as `[from, to, {"bytes"}]`
/// in insertion order.
impl Serialize for ModelGraph {
    fn to_value(&self) -> Value {
        let edges = self
            .edges
            .iter()
            .map(|(from, to, data)| (from, to, data).to_value())
            .collect();
        let graph = Value::Object(vec![
            ("nodes".to_owned(), self.layers.to_value()),
            ("edges".to_owned(), Value::Array(edges)),
        ]);
        Value::Object(vec![
            ("name".to_owned(), self.name.to_value()),
            ("graph".to_owned(), graph),
        ])
    }
}

/// Reading replays the document through [`ModelGraph::add_layer`] and
/// [`ModelGraph::connect`], so it refuses what `connect` refuses, a
/// layer with a zero size or stride (the builder's checks, with its
/// message), and an edge whose bytes are not its producer's OFM. It
/// then replays the layers through the builder, so it also refuses a
/// layer whose input dimensions are not what the builder derives from
/// its producers ([`ModelError::InputMismatch`], or the builder's own
/// [`ModelError::ShapeMismatch`]).
impl Deserialize for ModelGraph {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut g = ModelGraph::new(String::from_value(v.field("name"))?);
        let graph = v.field("graph");
        let nodes = graph
            .field("nodes")
            .as_array()
            .ok_or_else(|| Error::msg("graph: missing nodes array"))?;
        for node in nodes {
            let layer = Layer::from_value(node)?;
            check_layer(&layer).map_err(|e| Error::msg(format!("graph: {e}")))?;
            g.add_layer(layer);
        }
        let edges = graph
            .field("edges")
            .as_array()
            .ok_or_else(|| Error::msg("graph: missing edges array"))?;
        for edge in edges {
            let (from, to, data) = <(LayerId, LayerId, EdgeData)>::from_value(edge)?;
            g.connect(from, to)
                .map_err(|e| Error::msg(format!("graph: {e}")))?;
            if g.edge_bytes(from, to) != Some(data.bytes) {
                return Err(Error::msg(format!(
                    "graph: edge {from} -> {to} carries {} bytes, not its producer's OFM",
                    data.bytes.as_u64()
                )));
            }
        }
        check_producers(&g).map_err(|e| Error::msg(format!("graph: {e}")))?;
        Ok(g)
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
    fn iteration_follows_edge_insertion_order() {
        // The evaluator sums a layer's incoming transfers in
        // `predecessors` order, so that order is part of every pinned
        // record: edge insertion order, not layer index order.
        let mut g = ModelGraph::new("fan-in");
        let a = vec_input(&mut g, "a", 4);
        let b = vec_input(&mut g, "b", 4);
        let c = vec_input(&mut g, "c", 4);
        let d = fc(&mut g, "d", 12, 8);
        let e = fc(&mut g, "e", 8, 8);
        let f = vec_input(&mut g, "f", 4);
        g.connect(c, d).unwrap();
        g.connect(a, e).unwrap();
        g.connect(a, d).unwrap();
        g.connect(b, d).unwrap();
        g.connect(f, e).unwrap();
        g.validate().unwrap();
        let preds = |id| g.predecessors(id).collect::<Vec<_>>();
        let succs = |id| g.successors(id).collect::<Vec<_>>();
        assert_eq!(preds(d), vec![c, a, b]);
        assert_eq!(preds(e), vec![a, f]);
        assert_eq!(succs(a), vec![e, d]);
        assert_eq!(succs(c), vec![d]);
        assert!(succs(d).is_empty() && preds(a).is_empty());
        let edges: Vec<_> = g.edges().map(|(from, to, _)| (from, to)).collect();
        assert_eq!(edges, vec![(c, d), (a, e), (a, d), (b, d), (f, e)]);
        assert_eq!(g.asap_waves(), vec![vec![a, b, c, f], vec![d, e]]);
        assert_eq!(g.topo_order(), vec![a, b, c, f, d, e]);
    }

    #[test]
    fn cycle_detected() {
        let (mut g, ids) = diamond();
        g.connect(ids[3], ids[0]).unwrap();
        assert!(matches!(g.validate(), Err(ModelError::Cycle(_))));
    }

    #[test]
    fn cycle_error_names_a_layer_on_the_cycle() {
        // `x` hangs off the `y <-> z` cycle, so the sort leaves it
        // unsorted too, and it is the lowest-index layer it leaves.
        let mut g = ModelGraph::new("cycle");
        let x = fc(&mut g, "x", 4, 4);
        let y = fc(&mut g, "y", 4, 4);
        let z = fc(&mut g, "z", 4, 4);
        g.connect(y, z).unwrap();
        g.connect(z, y).unwrap();
        g.connect(z, x).unwrap();
        match g.validate() {
            Err(ModelError::Cycle(name)) => {
                assert!(name == "y" || name == "z", "`{name}` is not on the cycle")
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
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
    fn every_builder_made_model_reads_back() {
        // Conv1d chains, LSTMs, to_sequence bridges and multi-input
        // fusion layers all replay as the builder made them.
        let synth = crate::synth::synthetic_mmmt(&crate::synth::SyntheticConfig::default());
        for m in crate::zoo::all_models().into_iter().chain([synth]) {
            let json = serde_json::to_string(&m).unwrap();
            let back: ModelGraph = serde_json::from_str(&json)
                .unwrap_or_else(|e| panic!("{} does not read back: {e}", m.name()));
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn reading_refuses_what_connect_refuses() {
        let (g, _) = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let last = r#"[2,3,{"bytes":128}]"#;
        assert!(json.contains(last));
        for (edge, what) in [
            (r#"[2,4,{"bytes":128}]"#, "an out-of-range endpoint"),
            (r#"[2,2,{"bytes":128}]"#, "a self-loop"),
            (r#"[1,3,{"bytes":128}]"#, "a duplicate edge"),
            (
                r#"[2,3,{"bytes":64}]"#,
                "bytes that differ from the producer's OFM",
            ),
        ] {
            let bad = json.replace(last, edge);
            assert!(
                serde_json::from_str::<ModelGraph>(&bad).is_err(),
                "read a graph with {what}"
            );
        }
    }

    #[test]
    fn validate_refuses_what_the_builder_refuses() {
        let mut g = ModelGraph::new("t");
        let a = vec_input(&mut g, "in", 16);
        let b = fc(&mut g, "f", 16, 0);
        g.connect(a, b).unwrap();
        assert_eq!(
            g.validate(),
            Err(ModelError::ZeroSize {
                layer: "f".to_owned(),
                what: "output features"
            })
        );
        let mut g = ModelGraph::new("t");
        let a = vec_input(&mut g, "in", 0);
        let b = fc(&mut g, "f", 0, 4);
        g.connect(a, b).unwrap();
        assert_eq!(
            g.validate(),
            Err(ModelError::ZeroSize {
                layer: "in".to_owned(),
                what: "features"
            })
        );
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
