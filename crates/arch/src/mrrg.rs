//! Modulo routing resource graph: the CGRA time-extended to II cycles.
//!
//! Every physical resource (FU slot, register, port, link) becomes II
//! nodes, one per cycle of the repeating schedule. Edges either stay within
//! a cycle (operand selection) or advance time by one cycle modulo II (link
//! traversal, register writes and holds). A mapped DFG occupies MRRG nodes;
//! PathFinder routing negotiates the per-node capacities.

use crate::{Cgra, PeId};
use std::fmt;

/// Index of one MRRG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MrrgNodeId(pub(crate) u32);

impl MrrgNodeId {
    /// Dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index; meaningful only for indices
    /// obtained from the same [`Mrrg`].
    pub fn from_index(index: usize) -> Self {
        MrrgNodeId(index as u32)
    }
}

impl fmt::Display for MrrgNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// What a node models physically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Functional-unit execution slot (capacity 1).
    Fu,
    /// Crossbar output / broadcast point (not a scarce resource).
    Out,
    /// PE input mux (capacity: operand + RF-write bandwidth).
    In,
    /// Register-file write port bundle.
    RegWrite,
    /// Register-file read port bundle.
    RegRead,
    /// One register holding a value for one cycle (capacity 1).
    Reg {
        /// Register index within the PE's register file.
        index: u8,
    },
    /// A physical link leaving a PE (capacity 1); carries data to the
    /// destination PE's input in the next cycle.
    Link {
        /// Index into [`Cgra::links`].
        index: u32,
    },
}

/// One outgoing MRRG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrrgEdge {
    /// Destination node.
    pub dst: MrrgNodeId,
    /// Whether traversing this edge advances time by one cycle.
    pub advance: bool,
}

/// The modulo routing resource graph of a [`Cgra`] at a fixed II.
///
/// # Examples
///
/// ```
/// use panorama_arch::{Cgra, CgraConfig, NodeKind};
///
/// let cgra = Cgra::new(CgraConfig::small_4x4())?;
/// let mrrg = cgra.mrrg(2);
/// let pe = cgra.pe_at(0, 0);
/// let fu = mrrg.fu(pe, 0);
/// assert_eq!(mrrg.kind(fu), NodeKind::Fu);
/// assert_eq!(mrrg.capacity(fu), 1);
/// # Ok::<(), panorama_arch::ArchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mrrg {
    ii: usize,
    num_pes: usize,
    num_links: usize,
    rf_size: usize,
    /// Nodes per time slice.
    slice: usize,
    kinds: Vec<NodeKind>,
    capacities: Vec<u16>,
    /// CSR adjacency.
    edge_offsets: Vec<u32>,
    edges: Vec<MrrgEdge>,
    /// PE owning each node-within-slice position (links map to their
    /// source PE).
    owner_pe: Vec<u32>,
}

/// Nodes per PE within one time slice: Fu, Out, In, RegWrite, RegRead,
/// then `rf_size` registers.
const PE_FIXED_NODES: usize = 5;

impl Mrrg {
    /// Time-extends `cgra` to `ii` cycles.
    ///
    /// # Panics
    ///
    /// Panics when `ii == 0`.
    pub(crate) fn build(cgra: &Cgra, ii: usize) -> Mrrg {
        assert!(ii > 0, "initiation interval must be at least 1");
        let cfg = cgra.config();
        let num_pes = cgra.num_pes();
        let num_links = cgra.links().len();
        let rf_size = cfg.rf_size;
        let per_pe = PE_FIXED_NODES + rf_size;
        let slice = num_pes * per_pe + num_links;
        let total = slice * ii;

        let mut kinds = Vec::with_capacity(total);
        let mut capacities = Vec::with_capacity(total);
        let mut owner_pe = Vec::with_capacity(slice);
        // node layout within a slice: all PE blocks, then all links
        for pe in 0..num_pes {
            let in_cap = (cfg.rf_write_ports + 2) as u16;
            for _ in 0..1 {
                owner_pe.push(pe as u32);
            }
            owner_pe.extend(std::iter::repeat_n(pe as u32, per_pe - 1));
            kinds.push(NodeKind::Fu);
            capacities.push(1);
            kinds.push(NodeKind::Out);
            capacities.push(u16::MAX);
            kinds.push(NodeKind::In);
            capacities.push(in_cap);
            kinds.push(NodeKind::RegWrite);
            capacities.push(cfg.rf_write_ports as u16);
            kinds.push(NodeKind::RegRead);
            capacities.push(cfg.rf_read_ports as u16);
            for r in 0..rf_size {
                kinds.push(NodeKind::Reg { index: r as u8 });
                capacities.push(1);
            }
        }
        for (i, link) in cgra.links().iter().enumerate() {
            owner_pe.push(link.src.index() as u32);
            kinds.push(NodeKind::Link { index: i as u32 });
            capacities.push(1);
        }
        // replicate the slice for every cycle
        let kinds: Vec<NodeKind> = (0..ii).flat_map(|_| kinds.iter().copied()).collect();
        let capacities: Vec<u16> = (0..ii).flat_map(|_| capacities.iter().copied()).collect();

        let mut mrrg = Mrrg {
            ii,
            num_pes,
            num_links,
            rf_size,
            slice,
            kinds,
            capacities,
            edge_offsets: Vec::new(),
            edges: Vec::new(),
            owner_pe,
        };
        mrrg.build_edges(cgra);
        mrrg
    }

    fn build_edges(&mut self, cgra: &Cgra) {
        let ii = self.ii;
        let mut adjacency: Vec<Vec<MrrgEdge>> = vec![Vec::new(); self.slice * ii];
        let mut push = |src: MrrgNodeId, dst: MrrgNodeId, advance: bool| {
            adjacency[src.index()].push(MrrgEdge { dst, advance });
        };
        for t in 0..ii {
            let next = (t + 1) % ii;
            for pe in cgra.pes() {
                let fu = self.fu(pe, t);
                let out = self.out(pe, t);
                let input = self.input(pe, t);
                let regw = self.reg_write(pe, t);
                let regr = self.reg_read(pe, t);
                // execution result broadcast
                push(fu, out, false);
                // operand consumption
                push(input, fu, false);
                // crossbar pass-through: an arriving value may leave again
                // in the same cycle (single-cycle single-hop forwarding)
                push(input, out, false);
                // spill into RF
                push(input, regw, false);
                for r in 0..self.rf_size {
                    push(regw, self.reg(pe, r, next), true);
                    push(self.reg(pe, r, t), self.reg(pe, r, next), true);
                    push(self.reg(pe, r, t), regr, false);
                }
                // RF read feeds execution or onward routing
                push(regr, fu, false);
                push(regr, out, false);
                // same-PE forwarding to the next cycle
                push(out, self.input(pe, next), true);
            }
            for (i, link) in cgra.links().iter().enumerate() {
                let link_node = self.link_node(i, t);
                push(self.out(link.src, t), link_node, false);
                push(link_node, self.input(link.dst, next), true);
            }
        }
        // CSR-pack
        let mut offsets = Vec::with_capacity(adjacency.len() + 1);
        let mut edges = Vec::new();
        offsets.push(0u32);
        for adj in &adjacency {
            edges.extend_from_slice(adj);
            offsets.push(edges.len() as u32);
        }
        self.edge_offsets = offsets;
        self.edges = edges;
    }

    /// The initiation interval this graph was unrolled to.
    pub fn ii(&self) -> usize {
        self.ii
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Total edge count.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of physical links represented per time slice.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    fn per_pe(&self) -> usize {
        PE_FIXED_NODES + self.rf_size
    }

    fn node(&self, slice_offset: usize, t: usize) -> MrrgNodeId {
        debug_assert!(t < self.ii && slice_offset < self.slice);
        MrrgNodeId((t * self.slice + slice_offset) as u32)
    }

    /// FU slot of `pe` at cycle `t`.
    pub fn fu(&self, pe: PeId, t: usize) -> MrrgNodeId {
        self.node(pe.index() * self.per_pe(), t)
    }

    /// Broadcast point of `pe` at cycle `t`.
    pub fn out(&self, pe: PeId, t: usize) -> MrrgNodeId {
        self.node(pe.index() * self.per_pe() + 1, t)
    }

    /// Input mux of `pe` at cycle `t`.
    pub fn input(&self, pe: PeId, t: usize) -> MrrgNodeId {
        self.node(pe.index() * self.per_pe() + 2, t)
    }

    /// RF write-port bundle of `pe` at cycle `t`.
    pub fn reg_write(&self, pe: PeId, t: usize) -> MrrgNodeId {
        self.node(pe.index() * self.per_pe() + 3, t)
    }

    /// RF read-port bundle of `pe` at cycle `t`.
    pub fn reg_read(&self, pe: PeId, t: usize) -> MrrgNodeId {
        self.node(pe.index() * self.per_pe() + 4, t)
    }

    /// Register `r` of `pe` at cycle `t`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rf_size`.
    pub fn reg(&self, pe: PeId, r: usize, t: usize) -> MrrgNodeId {
        assert!(r < self.rf_size, "register index out of range");
        self.node(pe.index() * self.per_pe() + PE_FIXED_NODES + r, t)
    }

    /// Node of physical link `index` at cycle `t`.
    pub fn link_node(&self, index: usize, t: usize) -> MrrgNodeId {
        self.node(self.num_pes * self.per_pe() + index, t)
    }

    /// Kind of `node`.
    pub fn kind(&self, node: MrrgNodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// Capacity (simultaneous users per cycle) of `node`.
    pub fn capacity(&self, node: MrrgNodeId) -> u16 {
        self.capacities[node.index()]
    }

    /// Cycle of `node` (`0..ii`).
    pub fn time_of(&self, node: MrrgNodeId) -> usize {
        node.index() / self.slice
    }

    /// The PE owning `node` (links belong to their source PE).
    pub fn pe_of(&self, node: MrrgNodeId) -> PeId {
        PeId(self.owner_pe[node.index() % self.slice])
    }

    /// Outgoing edges of `node`.
    pub fn out_edges(&self, node: MrrgNodeId) -> &[MrrgEdge] {
        let i = node.index();
        let start = self.edge_offsets[i] as usize;
        let end = self.edge_offsets[i + 1] as usize;
        &self.edges[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CgraConfig;

    fn small() -> (Cgra, Mrrg) {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mrrg = cgra.mrrg(3);
        (cgra, mrrg)
    }

    #[test]
    fn node_counts() {
        let (cgra, mrrg) = small();
        let per_pe = 5 + cgra.config().rf_size;
        let expected = 3 * (16 * per_pe + cgra.links().len());
        assert_eq!(mrrg.num_nodes(), expected);
        assert!(mrrg.num_edges() > 0);
        assert_eq!(mrrg.ii(), 3);
    }

    #[test]
    fn accessors_agree_with_kinds() {
        let (cgra, mrrg) = small();
        let pe = cgra.pe_at(2, 1);
        for t in 0..3 {
            assert_eq!(mrrg.kind(mrrg.fu(pe, t)), NodeKind::Fu);
            assert_eq!(mrrg.kind(mrrg.out(pe, t)), NodeKind::Out);
            assert_eq!(mrrg.kind(mrrg.input(pe, t)), NodeKind::In);
            assert_eq!(mrrg.kind(mrrg.reg_write(pe, t)), NodeKind::RegWrite);
            assert_eq!(mrrg.kind(mrrg.reg_read(pe, t)), NodeKind::RegRead);
            assert_eq!(mrrg.kind(mrrg.reg(pe, 7, t)), NodeKind::Reg { index: 7 });
            assert_eq!(mrrg.time_of(mrrg.fu(pe, t)), t);
            assert_eq!(mrrg.pe_of(mrrg.fu(pe, t)), pe);
        }
    }

    #[test]
    fn capacities_follow_config() {
        let (cgra, mrrg) = small();
        let pe = cgra.pe_at(0, 0);
        assert_eq!(mrrg.capacity(mrrg.fu(pe, 0)), 1);
        assert_eq!(mrrg.capacity(mrrg.reg_write(pe, 0)), 4);
        assert_eq!(mrrg.capacity(mrrg.reg_read(pe, 0)), 4);
        assert_eq!(mrrg.capacity(mrrg.reg(pe, 0, 0)), 1);
        assert_eq!(mrrg.capacity(mrrg.out(pe, 0)), u16::MAX);
    }

    #[test]
    fn edges_advance_time_correctly() {
        let (cgra, mrrg) = small();
        let pe = cgra.pe_at(1, 1);
        // out(pe, 2) wraps to input(pe, 0)
        let out = mrrg.out(pe, 2);
        let wrapped = mrrg
            .out_edges(out)
            .iter()
            .find(|e| mrrg.kind(e.dst) == NodeKind::In && mrrg.pe_of(e.dst) == pe)
            .expect("self-forwarding edge exists");
        assert!(wrapped.advance);
        assert_eq!(mrrg.time_of(wrapped.dst), 0);
    }

    #[test]
    fn link_topology_matches_cgra() {
        let (cgra, mrrg) = small();
        let pe = cgra.pe_at(0, 0);
        let out = mrrg.out(pe, 0);
        // out feeds: one link per outgoing physical link (same cycle)
        let link_edges = mrrg
            .out_edges(out)
            .iter()
            .filter(|e| matches!(mrrg.kind(e.dst), NodeKind::Link { .. }))
            .count();
        assert_eq!(link_edges, cgra.links_from(pe).count());
        // each link node advances into the destination input
        for e in mrrg.out_edges(out) {
            if let NodeKind::Link { index } = mrrg.kind(e.dst) {
                let link = cgra.links()[index as usize];
                let hop = mrrg.out_edges(e.dst)[0];
                assert!(hop.advance);
                assert_eq!(mrrg.pe_of(hop.dst), link.dst);
                assert_eq!(mrrg.kind(hop.dst), NodeKind::In);
            }
        }
    }

    #[test]
    fn register_holds_chain_through_time() {
        let (cgra, mrrg) = small();
        let pe = cgra.pe_at(3, 3);
        let reg = mrrg.reg(pe, 2, 0);
        let hold = mrrg
            .out_edges(reg)
            .iter()
            .find(|e| mrrg.kind(e.dst) == NodeKind::Reg { index: 2 })
            .expect("hold edge exists");
        assert!(hold.advance);
        assert_eq!(mrrg.time_of(hold.dst), 1);
    }

    #[test]
    fn no_same_cycle_cycles() {
        // same-cycle edges must form a DAG, otherwise routing could "travel
        // back in time": check by Kahn over non-advance edges of slice 0
        let (_, mrrg) = small();
        let n = mrrg.num_nodes();
        let mut indeg = vec![0usize; n];
        for v in 0..n {
            for e in mrrg.out_edges(MrrgNodeId(v as u32)) {
                if !e.advance {
                    indeg[e.dst.index()] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for e in mrrg.out_edges(MrrgNodeId(v as u32)) {
                if !e.advance {
                    indeg[e.dst.index()] -= 1;
                    if indeg[e.dst.index()] == 0 {
                        queue.push(e.dst.index());
                    }
                }
            }
        }
        assert_eq!(seen, n, "same-cycle edges contain a cycle");
    }

    #[test]
    fn ii_one_wraps_to_itself() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mrrg = cgra.mrrg(1);
        let pe = cgra.pe_at(0, 1);
        let out = mrrg.out(pe, 0);
        // forwarding edge wraps back into cycle 0
        let e = mrrg
            .out_edges(out)
            .iter()
            .find(|e| e.advance && mrrg.pe_of(e.dst) == pe)
            .unwrap();
        assert_eq!(mrrg.time_of(e.dst), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ii_panics() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let _ = cgra.mrrg(0);
    }
}
