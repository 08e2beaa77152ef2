//! Configuration generation: lowers a routed [`Mapping`] to the per-PE,
//! per-cycle control words held in each PE's configuration memory
//! (the paper's Figure 1 — "a predetermined sequence of configurations
//! stored in the configuration memory", cycled every II cycles).
//!
//! Each [`ConfigWord`] says what one PE does in one slot of the repeating
//! schedule: which operation the FU executes and where each of its
//! operands comes from ([`OperandSel`]), which physical links and local
//! forwarding slots it drives (and from which on-PE source), and which
//! registers latch a new value. The encoding is *executable*: the cycle
//! machine (`panorama_sim::run_machine`) replays the words cycle by cycle
//! without consulting the mapping or the DFG edges.
//! [`Configware::size_bits`] estimates the configuration-memory
//! footprint, the hardware cost that motivates small IIs.

use crate::mapping::Mapping;
use panorama_arch::{Cgra, NodeKind, PeId};
use panorama_dfg::{Dfg, OpId, OpKind};
use std::collections::BTreeMap;
use std::fmt;

/// An input latch of a PE: where an arriving value was latched at the
/// start of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InPort {
    /// Latched off physical link `index` (driven by a neighbour last cycle).
    Link(u32),
    /// Local forwarding slot `k`: this PE drove its own input latch last
    /// cycle (the MRRG's out→in self-forward edge). Slot indices are the
    /// positions in the driving word's [`ConfigWord::loop_drives`].
    Loop(u8),
}

impl fmt::Display for InPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InPort::Link(l) => write!(f, "L{l}"),
            InPort::Loop(k) => write!(f, "loop{k}"),
        }
    }
}

/// Where a value driven onto the crossbar (or latched into a register,
/// or consumed by the FU) comes from, within one PE and cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueSource {
    /// The FU result computed this cycle.
    FuResult,
    /// The value latched into the named input port at the start of this
    /// cycle.
    Input(InPort),
    /// Register `r` of the local register file (start-of-cycle contents).
    Register(u8),
}

impl fmt::Display for ValueSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueSource::FuResult => write!(f, "fu"),
            ValueSource::Input(port) => write!(f, "in:{port}"),
            ValueSource::Register(r) => write!(f, "r{r}"),
        }
    }
}

/// One FU operand select: which local source feeds the operand, plus the
/// dependence distance needed to substitute pre-loop initial values.
///
/// The first `skip` firings of the consumer read the producer's initial
/// value (the software-pipelining analog of a preloaded recurrence
/// register) instead of the port, because the producer's iteration
/// `j - skip` does not exist for `j < skip`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandSel {
    /// Local source feeding this operand.
    pub source: ValueSource,
    /// Dependence distance of the edge this operand carries.
    pub skip: u32,
    /// Producer op (used only to derive the initial value for skipped
    /// firings; execution never consults the DFG edges).
    pub producer: OpId,
}

/// One PE's control word for one slot of the modulo schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigWord {
    /// Operation the FU executes (`None` = FU idle this cycle).
    pub op: Option<(OpId, OpKind)>,
    /// Prologue mask: the first `phase` firings of this slot are masked
    /// (they would compute iterations before the first). Equal to
    /// `floor(schedule_time / II)` of the op.
    pub phase: u32,
    /// FU operand selects, in the op's incoming-edge order.
    pub operands: Vec<OperandSel>,
    /// Physical links this PE drives: `(link index, source)`.
    pub link_drives: Vec<(u32, ValueSource)>,
    /// Local forwarding-slot drives: position `k` feeds next cycle's
    /// [`InPort::Loop`]`(k)` latch of this same PE.
    pub loop_drives: Vec<ValueSource>,
    /// Registers latched at the end of the cycle: `(register, source)`.
    pub reg_writes: Vec<(u8, ValueSource)>,
}

impl ConfigWord {
    /// Whether this word encodes any activity.
    pub fn is_idle(&self) -> bool {
        self.op.is_none()
            && self.link_drives.is_empty()
            && self.loop_drives.is_empty()
            && self.reg_writes.is_empty()
    }
}

/// The full static configuration of a mapped CGRA: one word per PE per
/// slot, repeated cyclically at the mapping's II.
///
/// # Examples
///
/// ```
/// use panorama_arch::{Cgra, CgraConfig};
/// use panorama_dfg::{kernels, KernelId, KernelScale};
/// use panorama_mapper::{Configware, LowerLevelMapper, SprMapper};
///
/// let cgra = Cgra::new(CgraConfig::small_4x4())?;
/// let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
/// let mapping = SprMapper::default().map(&dfg, &cgra, None)?;
/// let cfg = Configware::generate(&dfg, &cgra, &mapping);
/// assert_eq!(cfg.ii(), mapping.ii());
/// assert!(cfg.size_bits() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Configware {
    ii: usize,
    words: BTreeMap<(PeId, usize), ConfigWord>,
}

impl Configware {
    /// Lowers `mapping` to configuration words.
    ///
    /// Generation needs only the route shape `panorama_sim::check_routes`
    /// guards: routes present, one per dependence edge, each leaving its
    /// producer's output port, MRRG-connected, and ending on a node that
    /// feeds its consumer's FU. Any other defect lowers to words the cycle
    /// machine rejects; two ops on one `(PE, slot)` share one word, which
    /// keeps the later op.
    ///
    /// # Panics
    ///
    /// Panics when the mapping has no routes (abstract mappers); a route
    /// that is not MRRG-connected fails a debug assertion.
    pub fn generate(dfg: &Dfg, cgra: &Cgra, mapping: &Mapping) -> Configware {
        let routes = mapping
            .routes()
            .expect("configuration needs concrete routes (SPR-style mapping)");
        let ii = mapping.ii();
        let mrrg = cgra.mrrg_shared(ii);
        let mut words: BTreeMap<(PeId, usize), ConfigWord> = BTreeMap::new();

        // FU operations and prologue phases
        for op in dfg.op_ids() {
            let time = mapping.time_of(op);
            let key = (mapping.pe_of(op), time % ii);
            let word = words.entry(key).or_default();
            word.op = Some((op, dfg.op(op).kind));
            word.phase = u32::try_from(time / ii).unwrap_or(u32::MAX);
        }

        // route plumbing: walk each path, tracking what drives the value
        // inside the current PE this cycle; the terminal source of route i
        // is the operand select for the DFG's i-th dependence edge
        let mut edge_source: Vec<ValueSource> = Vec::with_capacity(routes.len());
        for route in routes {
            let mut source = ValueSource::FuResult; // starts at the producer's Out
            for w in route.nodes.windows(2) {
                let (a, b) = (w[0], w[1]);
                debug_assert!(
                    mrrg.out_edges(a).any(|me| me.dst == b),
                    "verified route is MRRG-connected"
                );
                let pe = mrrg.pe_of(a);
                let slot = mrrg.time_of(a);
                match (mrrg.kind(a), mrrg.kind(b)) {
                    // driving a physical link from this PE's crossbar
                    (NodeKind::Out, NodeKind::Link { index }) => {
                        let word = words.entry((pe, slot)).or_default();
                        if !word.link_drives.contains(&(index, source)) {
                            word.link_drives.push((index, source));
                        }
                    }
                    // arriving off a physical link: latched at the In port
                    (NodeKind::Link { index }, NodeKind::In) => {
                        source = ValueSource::Input(InPort::Link(index));
                    }
                    // out→in self-forward: the PE re-latches a local value
                    // into its own input for next cycle. Allocate (or
                    // reuse) a forwarding slot in the driving word.
                    (NodeKind::Out, NodeKind::In) => {
                        let word = words.entry((pe, slot)).or_default();
                        let k = word
                            .loop_drives
                            .iter()
                            .position(|s| *s == source)
                            .unwrap_or_else(|| {
                                word.loop_drives.push(source);
                                word.loop_drives.len() - 1
                            });
                        source = ValueSource::Input(InPort::Loop(
                            u8::try_from(k).expect("forwarding slots fit in u8"),
                        ));
                    }
                    // latching into a register
                    (NodeKind::RegWrite, NodeKind::Reg { index }) => {
                        let word = words.entry((pe, slot)).or_default();
                        if !word.reg_writes.contains(&(index, source)) {
                            word.reg_writes.push((index, source));
                        }
                        source = ValueSource::Register(index);
                    }
                    // reading back from the file
                    (NodeKind::Reg { index }, NodeKind::RegRead) => {
                        source = ValueSource::Register(index);
                    }
                    _ => {}
                }
            }
            edge_source.push(source);
        }

        // FU operand selects, in each op's incoming-edge order (the order
        // both the reference interpreter and the machine agree on)
        for op in dfg.op_ids() {
            let key = (mapping.pe_of(op), mapping.time_of(op) % ii);
            let operands: Vec<OperandSel> = dfg
                .graph()
                .incoming(op)
                .map(|e| OperandSel {
                    source: edge_source[e.id.index()],
                    skip: e.weight.distance(),
                    producer: e.src,
                })
                .collect();
            words.entry(key).or_default().operands = operands;
        }

        Configware { ii, words }
    }

    /// The II this configuration repeats at.
    pub fn ii(&self) -> usize {
        self.ii
    }

    /// The control word of `pe` at `slot`, if any activity is programmed.
    pub fn word(&self, pe: PeId, slot: usize) -> Option<&ConfigWord> {
        self.words.get(&(pe, slot))
    }

    /// All programmed words, keyed by `(pe, slot)`, in deterministic order.
    pub fn words(&self) -> impl Iterator<Item = (&(PeId, usize), &ConfigWord)> {
        self.words.iter()
    }

    /// Number of non-idle control words.
    pub fn active_words(&self) -> usize {
        self.words.values().filter(|w| !w.is_idle()).count()
    }

    /// Rough configuration-memory footprint in bits: opcode (5) + one
    /// 4-bit select per operand (minimum two muxes are provisioned) per
    /// executing FU, link select (4) per driven link, forwarding select
    /// (3) per loop slot, register select + source (4+2) per latch.
    pub fn size_bits(&self) -> usize {
        self.words
            .values()
            .map(|w| {
                let fu = if w.op.is_some() {
                    5 + 4 * w.operands.len().max(2)
                } else {
                    0
                };
                fu + 4 * w.link_drives.len() + 3 * w.loop_drives.len() + 6 * w.reg_writes.len()
            })
            .sum()
    }

    /// Human-readable dump, one line per active (PE, slot).
    pub fn to_text(&self, cgra: &Cgra) -> String {
        let mut out = String::new();
        out.push_str(&format!("configware at II {}\n", self.ii));
        for ((pe, slot), w) in &self.words {
            if w.is_idle() {
                continue;
            }
            let (r, c) = cgra.pe_position(*pe);
            let op = w.op.map_or_else(
                || "-".into(),
                |(id, kind)| {
                    let sels: Vec<String> = w
                        .operands
                        .iter()
                        .map(|sel| {
                            if sel.skip > 0 {
                                format!("{}~{}", sel.source, sel.skip)
                            } else {
                                sel.source.to_string()
                            }
                        })
                        .collect();
                    format!("{kind}#{}({})", id.index(), sels.join(","))
                },
            );
            let mut drives: Vec<String> = w
                .link_drives
                .iter()
                .map(|(l, s)| format!("L{l}<={s}"))
                .collect();
            drives.extend(
                w.loop_drives
                    .iter()
                    .enumerate()
                    .map(|(k, s)| format!("loop{k}<={s}")),
            );
            let regs: Vec<String> = w
                .reg_writes
                .iter()
                .map(|(r, s)| format!("r{r}<={s}"))
                .collect();
            out.push_str(&format!(
                "pe({r},{c}) t{slot}: {op} {} {}\n",
                drives.join(","),
                regs.join(",")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LowerLevelMapper, SprMapper};
    use panorama_arch::CgraConfig;
    use panorama_dfg::{kernels, DfgBuilder, KernelId, KernelScale};

    fn mapped(dfg: &Dfg) -> (Cgra, Mapping) {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mapping = SprMapper::default().map(dfg, &cgra, None).unwrap();
        (cgra, mapping)
    }

    #[test]
    fn every_op_gets_a_word() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let (cgra, mapping) = mapped(&dfg);
        let cfg = Configware::generate(&dfg, &cgra, &mapping);
        for op in dfg.op_ids() {
            let word = cfg
                .word(mapping.pe_of(op), mapping.time_of(op) % mapping.ii())
                .expect("executing PE has a word");
            assert_eq!(word.op.map(|(id, _)| id), Some(op));
            assert_eq!(
                word.phase as usize,
                mapping.time_of(op) / mapping.ii(),
                "phase records the prologue depth"
            );
        }
        assert!(cfg.active_words() >= dfg.num_ops());
        assert!(cfg.size_bits() >= 13 * dfg.num_ops());
    }

    #[test]
    fn operand_selects_cover_every_dependence_edge() {
        let dfg = kernels::generate(KernelId::Edn, KernelScale::Tiny);
        let (cgra, mapping) = mapped(&dfg);
        let cfg = Configware::generate(&dfg, &cgra, &mapping);
        for op in dfg.op_ids() {
            let word = cfg
                .word(mapping.pe_of(op), mapping.time_of(op) % mapping.ii())
                .unwrap();
            let incoming: Vec<_> = dfg.graph().incoming(op).collect();
            assert_eq!(word.operands.len(), incoming.len());
            for (sel, e) in word.operands.iter().zip(&incoming) {
                assert_eq!(sel.producer, e.src, "operand order matches incoming order");
                assert_eq!(sel.skip, e.weight.distance());
                assert_ne!(
                    sel.source,
                    ValueSource::FuResult,
                    "an FU operand cannot be its own same-cycle result"
                );
            }
        }
    }

    #[test]
    fn links_are_driven_for_cross_pe_edges() {
        let mut b = DfgBuilder::new("pair");
        let x = b.op(panorama_dfg::OpKind::Add, "x");
        let y = b.op(panorama_dfg::OpKind::Add, "y");
        b.data(x, y);
        // force distance by many independent ops? simpler: accept whatever
        // placement; if same PE, no link drive is required.
        let dfg = b.build().unwrap();
        let (cgra, mapping) = mapped(&dfg);
        let cfg = Configware::generate(&dfg, &cgra, &mapping);
        if mapping.pe_of(x) != mapping.pe_of(y) {
            let total_drives: usize = (0..mapping.ii())
                .filter_map(|s| cfg.word(mapping.pe_of(x), s))
                .map(|w| w.link_drives.len())
                .sum();
            assert!(total_drives > 0, "cross-PE edge must drive a link");
        }
    }

    #[test]
    fn text_dump_mentions_ops() {
        let dfg = kernels::generate(KernelId::Cordic, KernelScale::Tiny);
        let (cgra, mapping) = mapped(&dfg);
        let cfg = Configware::generate(&dfg, &cgra, &mapping);
        let text = cfg.to_text(&cgra);
        assert!(text.contains("configware at II"));
        assert!(text.contains("ld#") || text.contains("add#") || text.contains("shl#"));
    }

    #[test]
    fn register_routes_imply_reg_write_words() {
        // consistency: whenever a route parks a value in a register, the
        // configuration must program the corresponding latch
        let dfg = kernels::generate(KernelId::Edn, KernelScale::Tiny);
        let (cgra, mapping) = mapped(&dfg);
        let mrrg = cgra.mrrg_shared(mapping.ii());
        let routes_use_regs = mapping
            .routes()
            .unwrap()
            .iter()
            .flat_map(|r| r.nodes.iter())
            .any(|&n| matches!(mrrg.kind(n), panorama_arch::NodeKind::Reg { .. }));
        let cfg = Configware::generate(&dfg, &cgra, &mapping);
        let total_reg_writes: usize = (0..cgra.num_pes())
            .flat_map(|p| (0..mapping.ii()).map(move |s| (p, s)))
            .filter_map(|(p, s)| cfg.word(panorama_arch::PeId::from_index(p), s))
            .map(|w| w.reg_writes.len())
            .sum();
        assert_eq!(
            routes_use_regs,
            total_reg_writes > 0,
            "register usage in routes must match programmed latches"
        );
    }

    #[test]
    fn value_source_display() {
        assert_eq!(ValueSource::FuResult.to_string(), "fu");
        assert_eq!(ValueSource::Input(InPort::Link(2)).to_string(), "in:L2");
        assert_eq!(ValueSource::Input(InPort::Loop(0)).to_string(), "in:loop0");
        assert_eq!(ValueSource::Register(3).to_string(), "r3");
    }
}
