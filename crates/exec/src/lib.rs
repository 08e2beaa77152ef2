//! Data-level execution of PANORAMA configware, differentially checked
//! against the golden DFG reference.
//!
//! Structural oracles — `Mapping::verify` and `panorama_sim::simulate` —
//! certify placement, routing, arrival timing and port capacities. A
//! configware encoder that wires an FU to a same-producer operand of the
//! wrong value would pass them. This crate closes that gap: it runs the
//! cycle machine (`panorama_sim::run_machine`, the one `simulate` runs)
//! on the control words emitted by [`panorama_mapper::Configware`] under
//! concrete input vectors, and compares every produced value against
//! direct dataflow interpretation of the DFG. Both sides share one ALU
//! (`panorama_sim::semantics`) and the golden side is
//! `panorama_sim::interpret`; what differs is everything the fabric adds
//! — operand selection, latches, registers, firing masks.
//!
//! [`execute`] is the entry point: it runs one seeded pseudo-random
//! vector plus four boundary vectors (zeros, ones, `i32::MIN`,
//! `i32::MAX`) and reports per-vector agreement. The `panorama exec`
//! subcommand, the fifth `panorama fuzz` oracle and the exec-smoke CI
//! job all sit on top of it.

pub mod report;

pub use report::exec_report_json;

use panorama_arch::Cgra;
use panorama_dfg::{Dfg, OpId, OpKind};
use panorama_mapper::{Configware, Mapping};
use panorama_sim::semantics::{mix, InputVectors, VectorKind};
use panorama_sim::{check_routes, interpret, run_machine, Interpretation, MachineRun, SimError};

/// Knobs for one differential execution.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Loop iterations to execute and compare per vector.
    pub iterations: usize,
    /// Seed for the pseudo-random input vector.
    pub seed: u64,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            iterations: 8,
            seed: 42,
        }
    }
}

/// Outcome of executing one input-vector family.
#[derive(Debug, Clone)]
pub struct VectorRun {
    /// Stable vector name (`seeded`, `zeros`, ...).
    pub vector: &'static str,
    /// Number of (op, iteration) tokens that compared equal.
    pub checked: usize,
    /// Number of store tokens in the output stream.
    pub output_tokens: usize,
    /// Order-sensitive digest of the output token stream.
    pub output_digest: u64,
    /// First divergence observed, if any (machine vs. reference).
    pub divergence: Option<String>,
}

/// Outcome of a full differential execution (all vector families).
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// II the configware cycles at.
    pub ii: usize,
    /// Iterations executed per vector.
    pub iterations: usize,
    /// Seed of the pseudo-random vector.
    pub seed: u64,
    /// Ops in the kernel.
    pub ops: usize,
    /// Store ops (output stream width per iteration).
    pub stores: usize,
    /// Per-vector results, in [`VectorKind::ALL`] order.
    pub vectors: Vec<VectorRun>,
}

impl ExecOutcome {
    /// Whether every vector executed divergence-free.
    pub fn passed(&self) -> bool {
        self.vectors.iter().all(|v| v.divergence.is_none())
    }

    /// Total tokens compared equal across all vectors.
    pub fn checked_total(&self) -> usize {
        self.vectors.iter().map(|v| v.checked).sum()
    }

    /// The first recorded divergence, as `(vector, message)`.
    pub fn first_divergence(&self) -> Option<(&'static str, &str)> {
        self.vectors
            .iter()
            .find_map(|v| v.divergence.as_deref().map(|d| (v.vector, d)))
    }
}

/// Differentially executes `mapping`'s configware against the DFG
/// reference under every input-vector family.
///
/// Call [`Mapping::verify`] first: what execution checks on top is
/// *value* fidelity. Divergences — a machine error or a value that differs
/// from the reference — are reported in the returned [`ExecOutcome`]
/// (they are findings, not errors); `Err` means the mapping could not be
/// lowered at all.
///
/// # Errors
///
/// The route-shape guard's [`SimError::NoRoutes`],
/// [`SimError::WrongShape`] or [`SimError::Misrouted`].
pub fn execute(
    dfg: &Dfg,
    cgra: &Cgra,
    mapping: &Mapping,
    opts: &ExecOptions,
) -> Result<ExecOutcome, SimError> {
    check_routes(dfg, cgra, mapping)?;
    let cfg = Configware::generate(dfg, cgra, mapping);
    let stores: Vec<OpId> = dfg
        .op_ids()
        .filter(|&op| dfg.op(op).kind == OpKind::Store)
        .collect();

    let mut vectors = Vec::with_capacity(VectorKind::ALL.len());
    for kind in VectorKind::ALL {
        let inputs = InputVectors::new(kind, opts.seed);
        let golden = interpret(dfg, &inputs, opts.iterations);
        // output stream: store tokens, iteration-major, op order within
        let mut digest = 0u64;
        let mut tokens = 0usize;
        for iter in 0..opts.iterations {
            for &s in &stores {
                digest = mix(digest ^ golden.value(s, iter));
                tokens += 1;
            }
        }
        let (checked, divergence) = match run_machine(dfg, cgra, &cfg, &inputs, opts.iterations) {
            Err(e) => (0, Some(e.to_string())),
            Ok(run) => compare(dfg, &golden, &run, opts.iterations),
        };
        vectors.push(VectorRun {
            vector: kind.name(),
            checked,
            output_tokens: tokens,
            output_digest: digest,
            divergence,
        });
    }
    Ok(ExecOutcome {
        ii: mapping.ii(),
        iterations: opts.iterations,
        seed: opts.seed,
        ops: dfg.num_ops(),
        stores: stores.len(),
        vectors,
    })
}

fn compare(
    dfg: &Dfg,
    golden: &Interpretation,
    run: &MachineRun,
    iterations: usize,
) -> (usize, Option<String>) {
    let mut checked = 0;
    for iter in 0..iterations {
        for op in dfg.op_ids() {
            let want = golden.value(op, iter);
            let got = run.value(op.index(), iter);
            if got != want {
                return (
                    checked,
                    Some(format!(
                        "op #{} ({}) iteration {iter}: machine {got:#x} != \
                         reference {want:#x}",
                        op.index(),
                        dfg.op(op).name
                    )),
                );
            }
            checked += 1;
        }
    }
    (checked, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{kernels, KernelId, KernelScale};
    use panorama_mapper::{LowerLevelMapper, SprMapper};

    #[test]
    fn fir_executes_value_equal_under_all_vectors() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        mapping.verify(&dfg, &cgra).unwrap();
        let outcome = execute(&dfg, &cgra, &mapping, &ExecOptions::default()).unwrap();
        assert!(
            outcome.passed(),
            "divergence: {:?}",
            outcome.first_divergence()
        );
        assert_eq!(outcome.vectors.len(), 5);
        assert_eq!(outcome.checked_total(), 5 * dfg.num_ops() * 8);
    }

    #[test]
    fn abstract_mappings_cannot_execute() {
        use panorama_mapper::UltraFastMapper;
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mapping = UltraFastMapper::default().map(&dfg, &cgra, None).unwrap();
        let err = execute(&dfg, &cgra, &mapping, &ExecOptions::default()).unwrap_err();
        assert_eq!(err, SimError::NoRoutes);
    }
}
