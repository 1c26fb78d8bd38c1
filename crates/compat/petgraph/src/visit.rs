//! Visitor traits mirroring the petgraph names the workspace imports.

use crate::stable_graph::{NodeIndex, StableDiGraph};

/// A reference to one edge: endpoints plus weight.
#[derive(Debug, Clone, Copy)]
pub struct EdgeReference<'a, E> {
    pub(crate) source: NodeIndex,
    pub(crate) target: NodeIndex,
    pub(crate) weight: &'a E,
}

/// Accessors common to edge references.
pub trait EdgeRef {
    /// The edge weight type.
    type Weight;
    /// Source node.
    fn source(&self) -> NodeIndex;
    /// Target node.
    fn target(&self) -> NodeIndex;
    /// Edge payload.
    fn weight(&self) -> &Self::Weight;
}

impl<'a, E> EdgeReference<'a, E> {
    /// Edge payload, borrowing from the graph (not this reference), so
    /// the result outlives the `EdgeReference` — mirrors petgraph's
    /// inherent method that shadows the trait.
    pub fn weight(&self) -> &'a E {
        self.weight
    }
}

impl<'a, E> EdgeRef for EdgeReference<'a, E> {
    type Weight = E;
    fn source(&self) -> NodeIndex {
        self.source
    }
    fn target(&self) -> NodeIndex {
        self.target
    }
    fn weight(&self) -> &E {
        self.weight
    }
}

/// Graphs that can enumerate all their edges.
pub trait IntoEdgeReferences {
    /// The edge-reference type yielded.
    type EdgeRef;
    /// The iterator type.
    type EdgeReferences: Iterator<Item = Self::EdgeRef>;
    /// Iterate over all edges, in insertion order.
    fn edge_references(self) -> Self::EdgeReferences;
}

/// Iterator over a graph's edges.
#[derive(Debug)]
pub struct EdgeReferences<'a, N, E> {
    graph: &'a StableDiGraph<N, E>,
    next: usize,
}

impl<'a, N, E> Iterator for EdgeReferences<'a, N, E> {
    type Item = EdgeReference<'a, E>;
    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.graph.edge_count() {
            return None;
        }
        let (source, target, weight) = self.graph.raw_edge(self.next);
        self.next += 1;
        Some(EdgeReference {
            source,
            target,
            weight,
        })
    }
}

impl<'a, N, E> IntoEdgeReferences for &'a StableDiGraph<N, E> {
    type EdgeRef = EdgeReference<'a, E>;
    type EdgeReferences = EdgeReferences<'a, N, E>;
    fn edge_references(self) -> Self::EdgeReferences {
        EdgeReferences {
            graph: self,
            next: 0,
        }
    }
}

/// Graphs whose node indices map into a compact `usize` range.
pub trait NodeIndexable {
    /// Exclusive upper bound on node indices.
    fn node_bound(&self) -> usize;
}

impl<N, E> NodeIndexable for StableDiGraph<N, E> {
    fn node_bound(&self) -> usize {
        self.node_count()
    }
}
