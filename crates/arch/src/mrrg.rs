//! Modulo routing resource graph: the CGRA time-extended to II cycles.
//!
//! Every physical resource (FU slot, register, port, link) becomes II
//! nodes, one per cycle of the repeating schedule. Edges either stay within
//! a cycle (operand selection) or advance time by one cycle modulo II (link
//! traversal, register writes and holds). A mapped DFG occupies MRRG nodes;
//! PathFinder routing negotiates the per-node capacities.
//!
//! Every time slice is the same graph: the II only decides which slice an
//! advancing edge lands in. So one slice is stored — its node kinds,
//! capacities, owning PEs and out-edges — and the other II − 1 slices are
//! derived from it on every lookup.

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

/// One stored out-edge of a slice-0 node: where it lands within its
/// slice, and whether it advances into the next one.
#[derive(Debug, Clone, Copy)]
struct SliceEdge {
    local: u32,
    advance: bool,
}

/// The modulo routing resource graph of a [`Cgra`] at a fixed II.
///
/// Node `t · slice + p` is position `p` of time slice `t`. Only slice 0 is
/// stored: the kind, capacity and owning PE of a node are those of its
/// position, and its out-edges are slice 0's, landing in slice `t` (or
/// `(t + 1) % ii` when they advance).
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
    /// `⌈2^64 / slice⌉`, for [`Mrrg::split`].
    slice_inv: u64,
    /// Per position within a slice.
    kinds: Vec<NodeKind>,
    /// Per position within a slice.
    capacities: Vec<u16>,
    /// CSR adjacency of slice 0, per position.
    edge_offsets: Vec<u32>,
    edges: Vec<SliceEdge>,
    /// PE owning each position within a slice (links map to their source
    /// PE).
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

        let mut kinds = Vec::with_capacity(slice);
        let mut capacities = Vec::with_capacity(slice);
        let mut owner_pe = Vec::with_capacity(slice);
        // node layout within a slice: all PE blocks, then all links
        for pe in 0..num_pes {
            let in_cap = (cfg.rf_write_ports + 2) as u16;
            owner_pe.extend(std::iter::repeat_n(pe as u32, per_pe));
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

        let mut mrrg = Mrrg {
            ii,
            num_pes,
            num_links,
            rf_size,
            slice,
            slice_inv: u64::MAX / slice as u64 + 1,
            kinds,
            capacities,
            edge_offsets: Vec::new(),
            edges: Vec::new(),
            owner_pe,
        };
        mrrg.build_edges(cgra);
        mrrg
    }

    /// Slice 0's edges, pushed in the order every slice walks them.
    fn build_edges(&mut self, cgra: &Cgra) {
        let (t, next) = (0, 1 % self.ii);
        let slice = self.slice;
        let mut pushed: Vec<(u32, SliceEdge)> = Vec::new();
        let mut push = |src: MrrgNodeId, dst: MrrgNodeId, advance: bool| {
            let local = (dst.index() % slice) as u32;
            pushed.push((src.0, SliceEdge { local, advance }));
        };
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
        // CSR-pack; the stable sort keeps each source's push order
        pushed.sort_by_key(|&(src, _)| src);
        let mut offsets = vec![0u32; slice + 1];
        for &(src, _) in &pushed {
            offsets[src as usize + 1] += 1;
        }
        for i in 0..slice {
            offsets[i + 1] += offsets[i];
        }
        self.edge_offsets = offsets;
        self.edges = pushed.into_iter().map(|(_, e)| e).collect();
    }

    /// The initiation interval this graph was unrolled to.
    pub fn ii(&self) -> usize {
        self.ii
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.slice * self.ii
    }

    /// Total edge count.
    pub fn num_edges(&self) -> usize {
        self.edges.len() * self.ii
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

    /// `node`'s slice and its position within it: `node / slice` and
    /// `node % slice` by multiplication (Lemire, Kaser and Kurz, "Faster
    /// remainder by direct computation", 2019), exact for every `u32` id
    /// and `slice ≥ 2`. Every accessor below runs through it, and the
    /// router calls them per node and per path hop, where a hardware
    /// division would cost more than the load it serves.
    fn split(&self, node: MrrgNodeId) -> (usize, usize) {
        let low = self.slice_inv.wrapping_mul(u64::from(node.0));
        let t = (u128::from(self.slice_inv) * u128::from(node.0)) >> 64;
        let p = (u128::from(low) * self.slice as u128) >> 64;
        (t as usize, p as usize)
    }

    /// Kind of `node`.
    pub fn kind(&self, node: MrrgNodeId) -> NodeKind {
        self.kinds[self.split(node).1]
    }

    /// Capacity (simultaneous users per cycle) of `node`.
    pub fn capacity(&self, node: MrrgNodeId) -> u16 {
        self.capacities[self.split(node).1]
    }

    /// Cycle of `node` (`0..ii`).
    pub fn time_of(&self, node: MrrgNodeId) -> usize {
        self.split(node).0
    }

    /// The PE owning `node` (links belong to their source PE).
    pub fn pe_of(&self, node: MrrgNodeId) -> PeId {
        PeId(self.owner_pe[self.split(node).1])
    }

    /// Outgoing edges of `node`: its position's slice-0 edges, landing in
    /// `node`'s slice, or in the next one (mod II) when they advance.
    pub fn out_edges(&self, node: MrrgNodeId) -> impl ExactSizeIterator<Item = MrrgEdge> + '_ {
        let (t, local) = self.split(node);
        let next = if t + 1 == self.ii { 0 } else { t + 1 };
        let range = self.edge_offsets[local] as usize..self.edge_offsets[local + 1] as usize;
        self.edges[range].iter().map(move |e| MrrgEdge {
            dst: MrrgNodeId(
                ((if e.advance { next } else { t }) * self.slice + e.local as usize) as u32,
            ),
            advance: e.advance,
        })
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
            .filter(|e| matches!(mrrg.kind(e.dst), NodeKind::Link { .. }))
            .count();
        assert_eq!(link_edges, cgra.links_from(pe).count());
        // each link node advances into the destination input
        for e in mrrg.out_edges(out) {
            if let NodeKind::Link { index } = mrrg.kind(e.dst) {
                let link = cgra.links()[index as usize];
                let hop = mrrg.out_edges(e.dst).next().unwrap();
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
            .find(|e| e.advance && mrrg.pe_of(e.dst) == pe)
            .unwrap();
        assert_eq!(mrrg.time_of(e.dst), 0);
    }

    /// FNV-1a over every edge `(src, dst, advance)` in node order.
    fn edge_hash(mrrg: &Mrrg) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for n in 0..mrrg.num_nodes() {
            for e in mrrg.out_edges(MrrgNodeId::from_index(n)) {
                let bytes = (n as u32).to_le_bytes().into_iter();
                for b in bytes
                    .chain(e.dst.0.to_le_bytes())
                    .chain([u8::from(e.advance)])
                {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The whole graph, edge order included, as the II-fold build made it.
    #[test]
    fn edge_lists_are_pinned() {
        for (preset, ii, nodes, edges, hash) in [
            ("4x4", 1, 256, 592, 0xbae8_ff1f_d9a0_ccb7),
            ("4x4", 3, 768, 1776, 0xb580_2efa_46cc_3213),
            ("4x4", 8, 2048, 4736, 0x9ff0_416f_6b7d_9445),
            ("6x1", 2, 104, 196, 0xccaa_1eef_c597_b869),
            ("8x8", 5, 5360, 12320, 0x2bb2_e312_f3fd_1056_u64),
        ] {
            let cgra = Cgra::new(CgraConfig::preset(preset).unwrap()).unwrap();
            let mrrg = cgra.mrrg(ii);
            assert_eq!(
                (mrrg.num_nodes(), mrrg.num_edges()),
                (nodes, edges),
                "{preset} II {ii}"
            );
            assert_eq!(edge_hash(&mrrg), hash, "{preset} II {ii}");
        }
    }

    /// Every slice is slice 0 moved in time: an edge lands `advance`
    /// cycles later, and a node's kind, capacity, PE and edge count are
    /// those of its position in slice 0.
    #[test]
    fn every_slice_repeats_slice_zero() {
        for preset in ["4x4", "6x1"] {
            let cgra = Cgra::new(CgraConfig::preset(preset).unwrap()).unwrap();
            for ii in 1..=6 {
                let mrrg = cgra.mrrg(ii);
                for n in 0..mrrg.num_nodes() {
                    let node = MrrgNodeId::from_index(n);
                    let base = MrrgNodeId::from_index(n % mrrg.slice);
                    let t = mrrg.time_of(node);
                    assert_eq!(t, n / mrrg.slice);
                    assert_eq!(mrrg.kind(node), mrrg.kind(base));
                    assert_eq!(mrrg.capacity(node), mrrg.capacity(base));
                    assert_eq!(mrrg.pe_of(node), mrrg.pe_of(base));
                    assert_eq!(mrrg.out_edges(node).len(), mrrg.out_edges(base).len());
                    for e in mrrg.out_edges(node) {
                        assert_eq!(mrrg.time_of(e.dst), (t + usize::from(e.advance)) % ii);
                    }
                }
            }
        }
    }

    #[test]
    fn stored_tables_hold_one_slice() {
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let (one, nine) = (cgra.mrrg(1), cgra.mrrg(9));
        for mrrg in [&one, &nine] {
            let slice = mrrg.slice;
            assert_eq!(mrrg.kinds.len(), slice);
            assert_eq!(mrrg.capacities.len(), slice);
            assert_eq!(mrrg.owner_pe.len(), slice);
            assert_eq!(mrrg.edge_offsets.len(), slice + 1);
            assert_eq!(mrrg.edges.len(), one.num_edges());
        }
        assert_eq!(nine.num_nodes(), 9 * one.num_nodes());
        assert_eq!(nine.num_edges(), 9 * one.num_edges());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ii_panics() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let _ = cgra.mrrg(0);
    }
}
