//! The append-only directed graph and its index types.

use serde::{Deserialize, Error, Serialize, Value};

use crate::Direction;

/// Index of a node within a [`StableDiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIndex(u32);

impl NodeIndex {
    /// Wraps a raw index.
    pub fn new(i: usize) -> Self {
        NodeIndex(i as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Serialize for NodeIndex {
    fn to_value(&self) -> Value {
        Value::U64(self.0 as u64)
    }
}

impl Deserialize for NodeIndex {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(NodeIndex(u32::from_value(v)?))
    }
}

/// Index of an edge within a [`StableDiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeIndex(u32);

impl EdgeIndex {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Edge<E> {
    source: u32,
    target: u32,
    weight: E,
}

/// A directed graph with stable (append-only) indices.
#[derive(Debug, Clone, Default)]
pub struct StableDiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    /// Outgoing edge ids per node, in insertion order.
    out_edges: Vec<Vec<u32>>,
    /// Incoming edge ids per node, in insertion order.
    in_edges: Vec<Vec<u32>>,
}

impl<N, E> StableDiGraph<N, E> {
    /// An empty graph.
    pub fn new() -> Self {
        StableDiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self, weight: N) -> NodeIndex {
        let idx = NodeIndex::new(self.nodes.len());
        self.nodes.push(weight);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        idx
    }

    /// Adds an edge `a → b`, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds.
    pub fn add_edge(&mut self, a: NodeIndex, b: NodeIndex, weight: E) -> EdgeIndex {
        assert!(a.index() < self.nodes.len() && b.index() < self.nodes.len());
        let id = self.edges.len() as u32;
        self.edges.push(Edge {
            source: a.0,
            target: b.0,
            weight,
        });
        self.out_edges[a.index()].push(id);
        self.in_edges[b.index()].push(id);
        EdgeIndex(id)
    }

    /// The node's weight, if the index is in bounds.
    pub fn node_weight(&self, n: NodeIndex) -> Option<&N> {
        self.nodes.get(n.index())
    }

    /// The edge's weight, if the index is in bounds.
    pub fn edge_weight(&self, e: EdgeIndex) -> Option<&E> {
        self.edges.get(e.index()).map(|e| &e.weight)
    }

    /// The first edge `a → b`, if present.
    pub fn find_edge(&self, a: NodeIndex, b: NodeIndex) -> Option<EdgeIndex> {
        self.out_edges
            .get(a.index())?
            .iter()
            .find(|id| self.edges[**id as usize].target == b.0)
            .map(|id| EdgeIndex(*id))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node indices, in insertion order.
    pub fn node_indices(&self) -> impl Iterator<Item = NodeIndex> + '_ {
        (0..self.nodes.len()).map(NodeIndex::new)
    }

    /// Neighbors of `n` along `dir` edges, in edge-insertion order.
    pub fn neighbors_directed(
        &self,
        n: NodeIndex,
        dir: Direction,
    ) -> impl Iterator<Item = NodeIndex> + '_ {
        let ids: &[u32] = match dir {
            Direction::Outgoing => &self.out_edges[n.index()],
            Direction::Incoming => &self.in_edges[n.index()],
        };
        ids.iter().map(move |id| {
            let e = &self.edges[*id as usize];
            match dir {
                Direction::Outgoing => NodeIndex(e.target),
                Direction::Incoming => NodeIndex(e.source),
            }
        })
    }

    pub(crate) fn raw_edge(&self, id: usize) -> (NodeIndex, NodeIndex, &E) {
        let e = &self.edges[id];
        (NodeIndex(e.source), NodeIndex(e.target), &e.weight)
    }
}

impl<N, E> std::ops::Index<NodeIndex> for StableDiGraph<N, E> {
    type Output = N;
    fn index(&self, n: NodeIndex) -> &N {
        &self.nodes[n.index()]
    }
}

impl<N: Serialize, E: Serialize> Serialize for StableDiGraph<N, E> {
    fn to_value(&self) -> Value {
        let nodes = Value::Array(self.nodes.iter().map(Serialize::to_value).collect());
        let edges = Value::Array(
            self.edges
                .iter()
                .map(|e| {
                    Value::Array(vec![
                        Value::U64(e.source as u64),
                        Value::U64(e.target as u64),
                        e.weight.to_value(),
                    ])
                })
                .collect(),
        );
        Value::Object(vec![
            ("nodes".to_owned(), nodes),
            ("edges".to_owned(), edges),
        ])
    }
}

impl<N: Deserialize, E: Deserialize> Deserialize for StableDiGraph<N, E> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut g = StableDiGraph::new();
        let nodes = v
            .field("nodes")
            .as_array()
            .ok_or_else(|| Error::msg("graph: missing nodes array"))?;
        for n in nodes {
            g.add_node(N::from_value(n)?);
        }
        let edges = v
            .field("edges")
            .as_array()
            .ok_or_else(|| Error::msg("graph: missing edges array"))?;
        for e in edges {
            let triple = e
                .as_array()
                .filter(|a| a.len() == 3)
                .ok_or_else(|| Error::msg("graph: bad edge triple"))?;
            let a = u32::from_value(&triple[0])? as usize;
            let b = u32::from_value(&triple[1])? as usize;
            if a >= g.node_count() || b >= g.node_count() {
                return Err(Error::msg("graph: edge endpoint out of bounds"));
            }
            g.add_edge(
                NodeIndex::new(a),
                NodeIndex::new(b),
                E::from_value(&triple[2])?,
            );
        }
        Ok(g)
    }
}
