//! The mappability prechecker: proves `cannot map at II < N` (or "at any
//! II") from static resource and recurrence bounds, before any mapper runs.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `MAP001` | error | kernel uses an op kind no PE of the target supports |
//! | `MAP002` | info | the computed static lower bound on the II |
//! | `MAP003` | error | requested II cap is below the static lower bound |
//! | `MAP004` | error/info | restriction-aware capacity bound (tightened or unmappable) |

use crate::{Diagnostic, Diagnostics, Entity, Severity};
use panorama_arch::Cgra;
use panorama_dfg::{Dfg, OpKind};
use panorama_mapper::{ii_floor, Restriction};

/// Outcome of [`precheck`]: the static bounds it derived plus the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecheckReport {
    /// Resource-constrained lower bound (Rau's ResMII).
    pub res_mii: usize,
    /// Recurrence-constrained lower bound (RecMII).
    pub rec_mii: usize,
    /// `max(res_mii, rec_mii)`: no mapper can beat this II.
    pub static_mii: usize,
    /// Capacity bound under the given restriction, when one was supplied.
    /// `usize::MAX` means some op group has no capable PE at all.
    pub restricted_mii: Option<usize>,
    /// `false` when the precheck proved the run infeasible (an error
    /// diagnostic was emitted).
    pub feasible: bool,
}

/// Statically checks that `dfg` can plausibly map onto `cgra`.
///
/// Emits `MAP...` diagnostics into `out` and returns the derived bounds —
/// [`ii_floor`]'s, the function every mapper's II search starts from.
/// `restriction` sharpens the capacity bound to per-cluster-group capacity;
/// `max_ii` is the caller's II cap (e.g. `--max-ii`), checked against the
/// bounds so provably hopeless searches are rejected up front.
pub fn precheck(
    dfg: &Dfg,
    cgra: &Cgra,
    restriction: Option<&Restriction>,
    max_ii: Option<usize>,
    out: &mut Diagnostics,
) -> PrecheckReport {
    let errors_before = out.num_errors();

    // MAP001: op kinds with zero supporting functional units. These are
    // unmappable at every II, so report them before talking about bounds.
    let mul_ops = dfg
        .op_ids()
        .filter(|&v| dfg.op(v).kind == OpKind::Mul)
        .count();
    if mul_ops > 0 && cgra.num_mul_pes() == 0 {
        out.push(
            Diagnostic::new(
                "MAP001",
                Severity::Error,
                Entity::Global,
                format!(
                    "kernel `{}` needs a multiplier for {mul_ops} op(s) but the target has none; unmappable at any II",
                    dfg.name()
                ),
            )
            .with_help("target an architecture with `mul all`, or strength-reduce the kernel"),
        );
    }
    if dfg.num_mem_ops() > 0 && cgra.num_mem_pes() == 0 {
        out.push(Diagnostic::new(
            "MAP001",
            Severity::Error,
            Entity::Global,
            format!(
                "kernel `{}` has {} memory op(s) but the target has no memory-capable PE; unmappable at any II",
                dfg.name(),
                dfg.num_mem_ops()
            ),
        ));
    }

    let floor = ii_floor(dfg, cgra, restriction);
    let report = floor.mii;
    let static_mii = report.mii();

    // MAP002: always report the bound — it tells the user what a "good" II
    // is for this kernel/architecture pair (QoM = MII / achieved II).
    out.push(Diagnostic::new(
        "MAP002",
        Severity::Info,
        Entity::Global,
        format!(
            "static lower bound: II >= {static_mii} (ResMII {}, RecMII {})",
            report.res_mii, report.rec_mii
        ),
    ));

    // MAP003: an II cap below the static bound makes the search provably
    // empty; reject instead of iterating.
    if let Some(cap) = max_ii {
        if cap < static_mii {
            out.push(
                Diagnostic::new(
                    "MAP003",
                    Severity::Error,
                    Entity::Global,
                    format!(
                        "II cap {cap} is below the static lower bound {static_mii}; no mapping can exist"
                    ),
                )
                .with_help(format!("raise the cap to at least {static_mii}")),
            );
        }
    }

    // MAP004: per-cluster-group capacity under the restriction. This is the
    // bound the II search actually starts from, so surface it when it is
    // tighter than the unrestricted MII — and error out when it proves the
    // partition unmappable outright.
    if let Some(bound) = floor.restricted {
        if bound == usize::MAX {
            out.push(
                Diagnostic::new(
                    "MAP004",
                    Severity::Error,
                    Entity::Global,
                    "restriction confines some ops to clusters with no capable PE; unmappable at any II"
                        .to_string(),
                )
                .with_help("re-partition the kernel or relax the restriction"),
            );
        } else {
            if bound > static_mii {
                out.push(Diagnostic::new(
                    "MAP004",
                    Severity::Info,
                    Entity::Global,
                    format!("restriction tightens the capacity bound to II >= {bound}"),
                ));
            }
            if let Some(cap) = max_ii {
                if cap >= static_mii && cap < bound {
                    out.push(
                        Diagnostic::new(
                            "MAP004",
                            Severity::Error,
                            Entity::Global,
                            format!(
                                "II cap {cap} is below the restricted capacity bound {bound}; no mapping can exist under this partition"
                            ),
                        )
                        .with_help(format!("raise the cap to at least {bound} or re-partition")),
                    );
                }
            }
        }
    }

    PrecheckReport {
        res_mii: report.res_mii,
        rec_mii: report.rec_mii,
        static_mii,
        restricted_mii: floor.restricted,
        feasible: out.num_errors() == errors_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::DfgBuilder;

    fn recurrence4() -> Dfg {
        // add chain of 4 closed by a distance-1 back edge: RecMII = 4.
        let mut b = DfgBuilder::new("loop4");
        let ops: Vec<_> = (0..4).map(|i| b.op(OpKind::Add, format!("a{i}"))).collect();
        for w in ops.windows(2) {
            b.data(w[0], w[1]);
        }
        b.back(ops[3], ops[0], 1);
        b.build().unwrap()
    }

    #[test]
    fn clean_kernel_reports_only_the_bound() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let dfg = recurrence4();
        let mut d = Diagnostics::new();
        let r = precheck(&dfg, &cgra, None, None, &mut d);
        assert!(r.feasible);
        assert_eq!(r.rec_mii, 4);
        assert_eq!(r.static_mii, 4);
        assert_eq!(d.num_errors(), 0);
        assert!(d
            .iter()
            .any(|x| x.code == "MAP002" && x.message.contains("II >= 4")));
    }

    #[test]
    fn cap_below_recurrence_bound_is_rejected() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let dfg = recurrence4();
        let mut d = Diagnostics::new();
        let r = precheck(&dfg, &cgra, None, Some(2), &mut d);
        assert!(!r.feasible);
        let hit = d.iter().find(|x| x.code == "MAP003").unwrap();
        assert_eq!(hit.severity, Severity::Error);
    }

    #[test]
    fn missing_multiplier_is_rejected_at_any_ii() {
        let cgra = Cgra::new(CgraConfig {
            mul_support: false,
            ..CgraConfig::small_4x4()
        })
        .unwrap();
        let mut b = DfgBuilder::new("mulk");
        let a = b.op(OpKind::Load, "a");
        let m = b.op(OpKind::Mul, "m");
        let s = b.op(OpKind::Store, "s");
        b.data(a, m);
        b.data(m, s);
        let dfg = b.build().unwrap();
        let mut d = Diagnostics::new();
        let r = precheck(&dfg, &cgra, None, None, &mut d);
        assert!(!r.feasible);
        assert!(d
            .iter()
            .any(|x| x.code == "MAP001" && x.severity == Severity::Error));
    }

    #[test]
    fn unrestricted_floor_matches_static_mii() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let dfg = recurrence4();
        let mut d = Diagnostics::new();
        let r = precheck(&dfg, &cgra, None, None, &mut d);
        assert_eq!(ii_floor(&dfg, &cgra, None).ii(), r.static_mii);
        assert_eq!(r.restricted_mii, None);
    }
}
