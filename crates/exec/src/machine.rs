//! The cycle-accurate, data-carrying configware machine.
//!
//! Unlike `panorama_sim`'s structural simulator (which replays *routes*),
//! this machine executes only what the hardware would see: the per-PE
//! control words, cycled every II. It models the physical state —
//! register files, input latches, link latches — cycle by cycle and
//! never consults the mapping or the DFG's edges. The DFG serves purely
//! as a symbol table (op names and immediates for load/const/initial
//! values).
//!
//! ## Cycle model
//!
//! Within one cycle, in order:
//!
//! 1. **Latch** — values driven last cycle (onto links or local
//!    forwarding slots) appear in the destination PE's input latches.
//! 2. **Compute** — each PE whose word programs an op fires its FU,
//!    reading operands from input latches and register files
//!    (start-of-cycle state). The FU result is available to this PE's
//!    own drives in the same cycle (the MRRG's fu→out edge).
//! 3. **Drive** — link, forwarding-slot and register-write sources are
//!    resolved; link/forward values latch at their destination *next*
//!    cycle, register writes commit at end of cycle.
//!
//! Input latches hold a value for exactly one cycle; registers hold
//! until overwritten. A latch that nothing drove carries a *bubble*
//! (`None`), which propagates silently through routing but is an error
//! when a live FU firing consumes it.
//!
//! ## Firing indices
//!
//! An op scheduled at time `t = phase·II + slot` fires whenever
//! `cycle ≡ slot (mod II)`. The word's `phase` masks the first `phase`
//! firings (prologue), so post-mask firing `j` computes exactly loop
//! iteration `j`. An operand with dependence distance `d` reads the
//! producer's iteration `j − d`; for `j < d` the machine substitutes the
//! producer's pre-loop initial value (the preloaded recurrence
//! register), mirroring the reference interpreter.

use panorama_arch::{Cgra, PeId};
use panorama_dfg::Dfg;
use panorama_mapper::{Configware, InPort, ValueSource};
use panorama_sim::semantics::{initial_value, op_value, InputVectors};
use std::collections::HashMap;
use std::fmt;

/// Why the machine could not complete a run.
///
/// These are *execution-level* failures: a structurally verified mapping
/// whose configware still trips one of these has an encoder bug, which
/// is exactly what the differential oracle exists to catch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The mapping carries no concrete routes (abstract mapper), so no
    /// configware can be generated.
    NoRoutes,
    /// Route/op counts do not line up with the DFG.
    WrongShape(String),
    /// A control word encodes something unexecutable (e.g. an FU operand
    /// selecting the FU's own same-cycle result, or a link index outside
    /// the fabric).
    BadWord(String),
    /// A live FU firing consumed a bubble: no token was latched where an
    /// operand select points.
    MissingToken {
        /// Index of the starving op.
        op: usize,
        /// Loop iteration of the firing.
        iteration: usize,
        /// Which operand (position in the op's dependence order).
        operand: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoRoutes => {
                write!(f, "mapping has no concrete routes to execute")
            }
            ExecError::WrongShape(msg) => write!(f, "mapping shape mismatch: {msg}"),
            ExecError::BadWord(msg) => write!(f, "unexecutable control word: {msg}"),
            ExecError::MissingToken {
                op,
                iteration,
                operand,
            } => write!(
                f,
                "op #{op} iteration {iteration} operand {operand} read a bubble: \
                 no token was latched at the selected port"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-op, per-iteration tokens observed by replaying the configware.
#[derive(Debug, Clone)]
pub struct MachineRun {
    /// `values[op][iter]`; `None` = the op never produced that token.
    values: Vec<Vec<Option<u64>>>,
}

impl MachineRun {
    /// Token op `op_index` produced in iteration `iter`, if any.
    pub fn value(&self, op_index: usize, iter: usize) -> Option<u64> {
        self.values[op_index][iter]
    }

    /// Number of iterations executed.
    pub fn iterations(&self) -> usize {
        self.values.first().map_or(0, Vec::len)
    }
}

/// Replays `cfg` on the fabric for `iterations` loop iterations under
/// `inputs`, collecting every op's token stream.
///
/// `dfg` is used only as a symbol table (names and immediates); the
/// schedule, routing and operand wiring all come from the control words.
pub fn run_machine(
    dfg: &Dfg,
    cgra: &Cgra,
    cfg: &Configware,
    inputs: &InputVectors,
    iterations: usize,
) -> Result<MachineRun, ExecError> {
    let ii = cfg.ii();
    let mut values: Vec<Vec<Option<u64>>> = vec![vec![None; iterations]; dfg.num_ops()];
    if iterations == 0 || ii == 0 {
        return Ok(MachineRun { values });
    }

    // words grouped per modulo slot, in deterministic (BTreeMap) order
    let words: Vec<(PeId, usize, &panorama_mapper::ConfigWord)> =
        cfg.words().map(|(&(pe, slot), w)| (pe, slot, w)).collect();
    let mut by_slot: Vec<Vec<usize>> = vec![Vec::new(); ii];
    let mut max_time = 0usize;
    for (i, &(_, slot, w)) in words.iter().enumerate() {
        by_slot[slot].push(i);
        if w.op.is_some() {
            max_time = max_time.max(w.phase as usize * ii + slot);
        }
    }

    // steady-state horizon: the latest op completes iteration
    // `iterations - 1` at cycle max_time + (iterations - 1) * II
    let cycles = max_time + (iterations - 1) * ii + 1;

    let mut regs: HashMap<(PeId, u8), Option<u64>> = HashMap::new();
    let mut latch: HashMap<(PeId, InPort), Option<u64>> = HashMap::new();
    let mut next_latch: HashMap<(PeId, InPort), Option<u64>> = HashMap::new();

    for c in 0..cycles {
        let slot = c % ii;
        let mut link_out: Vec<(u32, Option<u64>)> = Vec::new();
        let mut reg_commits: Vec<((PeId, u8), Option<u64>)> = Vec::new();
        for &wi in &by_slot[slot] {
            let (pe, _, w) = words[wi];
            // 2. compute the FU
            let mut fu: Option<u64> = None;
            if let Some((op, _)) = w.op {
                let t = w.phase as usize * ii + slot;
                if c >= t {
                    let j = (c - t) / ii; // post-mask firing = loop iteration
                    let mut operands = Vec::with_capacity(w.operands.len());
                    let mut starved = None;
                    for (pos, sel) in w.operands.iter().enumerate() {
                        let v = if (j as u64) < u64::from(sel.skip) {
                            // pre-loop iteration: preloaded initial value
                            Some(initial_value(&dfg.op(sel.producer).name))
                        } else {
                            match sel.source {
                                ValueSource::Input(port) => {
                                    latch.get(&(pe, port)).copied().flatten()
                                }
                                ValueSource::Register(r) => regs.get(&(pe, r)).copied().flatten(),
                                ValueSource::FuResult => {
                                    return Err(ExecError::BadWord(format!(
                                        "op #{} operand {pos} selects the FU's own \
                                         same-cycle result",
                                        op.index()
                                    )))
                                }
                            }
                        };
                        match v {
                            Some(v) => operands.push(v),
                            None => starved = starved.or(Some(pos)),
                        }
                    }
                    if let Some(pos) = starved {
                        if j < iterations {
                            return Err(ExecError::MissingToken {
                                op: op.index(),
                                iteration: j,
                                operand: pos,
                            });
                        }
                    } else {
                        let v = op_value(dfg.op(op), j as u64, &operands, inputs);
                        fu = Some(v);
                        if j < iterations {
                            values[op.index()][j] = Some(v);
                        }
                    }
                }
            }
            // 3. resolve drives (bubbles propagate silently)
            let resolve = |src: ValueSource| -> Option<u64> {
                match src {
                    ValueSource::FuResult => fu,
                    ValueSource::Input(port) => latch.get(&(pe, port)).copied().flatten(),
                    ValueSource::Register(r) => regs.get(&(pe, r)).copied().flatten(),
                }
            };
            for &(l, src) in &w.link_drives {
                link_out.push((l, resolve(src)));
            }
            for (k, &src) in w.loop_drives.iter().enumerate() {
                let port = InPort::Loop(u8::try_from(k).expect("loop slots fit in u8"));
                next_latch.insert((pe, port), resolve(src));
            }
            for &(r, src) in &w.reg_writes {
                reg_commits.push(((pe, r), resolve(src)));
            }
        }
        // 1. (next cycle's latch step) deliver link drives to their sinks
        for (l, v) in link_out {
            let link = cgra
                .links()
                .get(l as usize)
                .ok_or_else(|| ExecError::BadWord(format!("link index {l} outside the fabric")))?;
            next_latch.insert((link.dst, InPort::Link(l)), v);
        }
        // end of cycle: register writes commit, latches roll over
        for (k, v) in reg_commits {
            regs.insert(k, v);
        }
        std::mem::swap(&mut latch, &mut next_latch);
        next_latch.clear();
    }
    Ok(MachineRun { values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{kernels, KernelId, KernelScale};
    use panorama_mapper::{LowerLevelMapper, SprMapper};
    use panorama_sim::semantics::VectorKind;

    #[test]
    fn machine_matches_reference_on_fir() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        let cfg = Configware::generate(&dfg, &cgra, &mapping);
        let inputs = InputVectors::new(VectorKind::Seeded, 42);
        let run = run_machine(&dfg, &cgra, &cfg, &inputs, 6).unwrap();
        let reference = panorama_sim::interpret(&dfg, &inputs, 6);
        for op in dfg.op_ids() {
            for iter in 0..6 {
                assert_eq!(
                    run.value(op.index(), iter),
                    Some(reference.value(op, iter)),
                    "op {} iter {iter}",
                    dfg.op(op).name
                );
            }
        }
    }

    #[test]
    fn zero_iterations_is_a_no_op() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        let cfg = Configware::generate(&dfg, &cgra, &mapping);
        let inputs = InputVectors::new(VectorKind::Zeros, 0);
        let run = run_machine(&dfg, &cgra, &cfg, &inputs, 0).unwrap();
        assert_eq!(run.iterations(), 0);
    }
}
