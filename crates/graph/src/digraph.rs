//! The core arena digraph type and its typed indices.

use std::fmt;

/// Index of a node inside a [`Digraph`].
///
/// `NodeId`s are only meaningful for the graph that produced them; they are
/// dense (`0..node_count`) and stable — nodes are never removed, only masked
/// by taking [subgraphs](Digraph::induced_subgraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the dense index of this node (`0..node_count`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// This is the inverse of [`NodeId::index`]; callers are responsible for
    /// using it only with indices obtained from the same graph.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an edge inside a [`Digraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Returns the dense index of this edge (`0..edge_count`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a dense index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        EdgeId(index as u32)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A borrowed view of one edge: endpoints plus the edge weight.
#[derive(Debug, PartialEq, Eq)]
pub struct EdgeRef<'g, E> {
    /// Identifier of the edge.
    pub id: EdgeId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Edge payload.
    pub weight: &'g E,
}

// Manual impls: an `EdgeRef` is a bundle of ids plus a shared reference, so
// it is copyable regardless of whether `E` itself is.
impl<E> Clone for EdgeRef<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for EdgeRef<'_, E> {}

#[derive(Debug, Clone)]
struct EdgeRecord<E> {
    src: NodeId,
    dst: NodeId,
    weight: E,
}

/// A directed multigraph with node payloads `N` and edge payloads `E`.
///
/// Nodes and edges are stored in arenas and addressed by [`NodeId`] /
/// [`EdgeId`]. Parallel edges and self-loops are allowed (dataflow graphs
/// use parallel edges for operations consuming the same value twice).
///
/// # Examples
///
/// ```
/// use panorama_graph::Digraph;
///
/// let mut g = Digraph::new();
/// let x = g.add_node(1.5f64);
/// let y = g.add_node(2.5f64);
/// let e = g.add_edge(x, y, "dep");
/// assert_eq!(g.edge(e).src, x);
/// assert_eq!(g[y], 2.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Digraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeRecord<E>>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

impl<N, E> Digraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Digraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// Creates an empty graph with capacity for `nodes` nodes and `edges`
    /// edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Digraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_edges: Vec::with_capacity(nodes),
            in_edges: Vec::with_capacity(nodes),
        }
    }

    /// Number of nodes in the graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges in the graph.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node carrying `weight` and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(weight);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds a directed edge `src → dst` carrying `weight` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds for this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: E) -> EdgeId {
        assert!(
            src.index() < self.nodes.len() && dst.index() < self.nodes.len(),
            "edge endpoints must be nodes of this graph"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRecord { src, dst, weight });
        self.out_edges[src.index()].push(id);
        self.in_edges[dst.index()].push(id);
        id
    }

    /// Borrows the payload of `node`.
    #[inline]
    pub fn node(&self, node: NodeId) -> &N {
        &self.nodes[node.index()]
    }

    /// Mutably borrows the payload of `node`.
    #[inline]
    pub fn node_mut(&mut self, node: NodeId) -> &mut N {
        &mut self.nodes[node.index()]
    }

    /// Returns a borrowed view of `edge`.
    #[inline]
    pub fn edge(&self, edge: EdgeId) -> EdgeRef<'_, E> {
        let rec = &self.edges[edge.index()];
        EdgeRef {
            id: edge,
            src: rec.src,
            dst: rec.dst,
            weight: &rec.weight,
        }
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all edge views in insertion order.
    pub fn edge_refs(&self) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.edges.iter().enumerate().map(|(i, rec)| EdgeRef {
            id: EdgeId(i as u32),
            src: rec.src,
            dst: rec.dst,
            weight: &rec.weight,
        })
    }

    /// Iterates over the edges leaving `node`.
    pub fn outgoing(&self, node: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.out_edges[node.index()].iter().map(|&e| self.edge(e))
    }

    /// Iterates over the edges entering `node`.
    pub fn incoming(&self, node: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.in_edges[node.index()].iter().map(|&e| self.edge(e))
    }

    /// Iterates over the successor nodes of `node` (with multiplicity for
    /// parallel edges).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.outgoing(node).map(|e| e.dst)
    }

    /// Iterates over the predecessor nodes of `node` (with multiplicity for
    /// parallel edges).
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.incoming(node).map(|e| e.src)
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges[node.index()].len()
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edges[node.index()].len()
    }

    /// Total degree (in + out) of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.in_degree(node) + self.out_degree(node)
    }

    /// Maximum total degree over all nodes, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.node_ids().map(|n| self.degree(n)).max().unwrap_or(0)
    }

    /// Builds the subgraph induced by `keep`, renumbering nodes densely.
    ///
    /// Returns the subgraph plus the mapping from old node ids to new ones
    /// (`None` for dropped nodes).
    pub fn induced_subgraph(
        &self,
        keep: impl Fn(NodeId) -> bool,
    ) -> (Digraph<N, E>, Vec<Option<NodeId>>)
    where
        N: Clone,
        E: Clone,
    {
        let mut remap: Vec<Option<NodeId>> = vec![None; self.node_count()];
        let mut sub = Digraph::new();
        for n in self.node_ids() {
            if keep(n) {
                remap[n.index()] = Some(sub.add_node(self.node(n).clone()));
            }
        }
        for e in self.edge_refs() {
            if let (Some(s), Some(d)) = (remap[e.src.index()], remap[e.dst.index()]) {
                sub.add_edge(s, d, e.weight.clone());
            }
        }
        (sub, remap)
    }

    /// Returns the graph with every edge reversed (payloads preserved).
    pub fn reversed(&self) -> Digraph<N, E>
    where
        N: Clone,
        E: Clone,
    {
        let mut g = Digraph::with_capacity(self.node_count(), self.edge_count());
        for n in &self.nodes {
            g.add_node(n.clone());
        }
        for e in self.edge_refs() {
            g.add_edge(e.dst, e.src, e.weight.clone());
        }
        g
    }
}

impl<N, E> std::ops::Index<NodeId> for Digraph<N, E> {
    type Output = N;
    #[inline]
    fn index(&self, index: NodeId) -> &N {
        self.node(index)
    }
}

impl<N, E> std::ops::IndexMut<NodeId> for Digraph<N, E> {
    #[inline]
    fn index_mut(&mut self, index: NodeId) -> &mut N {
        self.node_mut(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Digraph<&'static str, ()>, [NodeId; 4]) {
        let mut g = Digraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        (g, [a, b, c, d])
    }

    #[test]
    fn counts_and_degrees() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn successors_and_predecessors() {
        let (g, [a, b, c, d]) = diamond();
        let succ: Vec<_> = g.successors(a).collect();
        assert_eq!(succ, vec![b, c]);
        let pred: Vec<_> = g.predecessors(d).collect();
        assert_eq!(pred, vec![b, c]);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g: Digraph<(), u8> = Digraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        g.add_edge(b, b, 3);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.degree(b), 4); // two in from a, one self in+out
    }

    #[test]
    fn index_operators() {
        let (mut g, [a, ..]) = diamond();
        assert_eq!(g[a], "a");
        g[a] = "z";
        assert_eq!(g[a], "z");
    }

    #[test]
    fn edge_refs_are_in_insertion_order() {
        let (g, [a, ..]) = diamond();
        let firsts: Vec<_> = g.edge_refs().map(|e| e.src).collect();
        assert_eq!(firsts[0], a);
        assert_eq!(g.edge_refs().count(), 4);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let (g, [a, b, _c, d]) = diamond();
        let (sub, remap) = g.induced_subgraph(|n| n != b);
        assert_eq!(sub.node_count(), 3);
        // only a→c and c→d survive
        assert_eq!(sub.edge_count(), 2);
        assert!(remap[b.index()].is_none());
        assert_eq!(remap[a.index()], Some(NodeId(0)));
        assert_eq!(remap[d.index()], Some(NodeId(2)));
    }

    #[test]
    fn reversed_flips_edges() {
        let (g, [a, b, ..]) = diamond();
        let r = g.reversed();
        assert_eq!(r.successors(b).collect::<Vec<_>>(), vec![a]);
        assert_eq!(r.in_degree(a), 2); // a gains the two edges it emitted
    }

    #[test]
    #[should_panic(expected = "endpoints")]
    fn foreign_node_panics() {
        let (mut g, _) = diamond();
        let bogus = NodeId(99);
        g.add_edge(bogus, NodeId(0), ());
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(EdgeId(7).to_string(), "e7");
    }
}
