//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics, and the table that says which
//! end-to-end metric each layer metric is expected to move on which
//! workload. `BENCHMARK.json` at the repository root repeats the first
//! three for the acceptance driver; the tests below keep the two in step.

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why this workload was chosen.
    pub why: &'static str,
}

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "suite8x8-spr",
        why: "headline path: 12 scaled kernels, divide+scatter then SPR* (IMS, placement, PathFinder, SA) on 8x8; mapper is ~88% of the time and II is 1.5-4x MII, so time and quality can both move",
    },
    Workload {
        name: "divide16x16-plan",
        why: "higher-level mapping alone on 16x16 at paper scale: Jacobi eigen sweep ~70%, scattering ILPs ~30%, the lower-level mapper does nothing, so mapper changes must not move it",
    },
    Workload {
        name: "suite4x4-sat",
        why: "same pipeline through the exact SAT backend on one cluster: CNF encode + CDCL do the work, PathFinder/SA none, every kernel sits at MII, so only time can improve and any II loss shows",
    },
    Workload {
        name: "serve8x8-mix",
        why: "same compiler behind the daemon: 2 closed-loop clients, 2 workers, half real misses and half cache hits, memory+disk cache; shows parse/queue/cache cost and concurrent-compile contention",
    },
];

/// An end-to-end metric: something a user of the toolchain sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What it measures, for `--help` and the README.
    pub what: &'static str,
}

/// Every workload reports every one of these, and none is ever zero.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "pass_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median over passes of the time one pass over the workload's inputs takes: sum of the timed compile/plan calls, or wall time of the request mix",
    },
    EndToEnd {
        name: "op_geomean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "geomean over inputs of the latency of one cold operation (a compile, a plan, a cache-missing request), each input's latency being its median over passes: every kernel weighs the same",
    },
    EndToEnd {
        name: "qom_geomean",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
        what: "geomean over inputs of MII / II, II being the achieved II (for the plan workload: the II floor the chosen plan still permits)",
    },
    EndToEnd {
        name: "ii_sum",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.02,
        what: "sum over inputs of that II: cycles per loop iteration of the emitted configware",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        what: "VmHWM of the workload process when its first pass ends",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median time to get one pass ready: input generation, Cgra::new per input, request bodies and daemon start",
    },
];

/// A per-layer metric, reported by the traced run.
pub struct PerLayer {
    /// `<layer>.<metric>`; the layer is a workspace crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric. A workload on which a layer does no work
/// reports 0 for it, which is the "bypass" half of each prediction.
pub const PER_LAYER: [PerLayer; 98] = [
    layer("dfg.generate_s", "s", Lower),
    layer("dfg.text_roundtrip_s", "s", Lower),
    layer("dfg.ops", "count", Lower),
    layer("dfg.edges", "count", Lower),
    layer("lint.precheck_s", "s", Lower),
    layer("analyze.optimize_s", "s", Lower),
    layer("analyze.ops_removed", "count", Higher),
    layer("linalg.jacobi_probe_s", "s", Lower),
    layer("linalg.jacobi_probe_sweeps", "count", Lower),
    layer("cluster.embed_s", "s", Lower),
    layer("cluster.eigen_sweeps", "count", Lower),
    layer("cluster.partition_s", "s", Lower),
    layer("cluster.partitions", "count", Lower),
    layer("cluster.rank_s", "s", Lower),
    layer("cluster.best_imbalance_pm", "permille", Lower),
    layer("ilp.probe_solve_s", "s", Lower),
    layer("ilp.probe_pivots", "count", Lower),
    layer("ilp.probe_nodes", "count", Lower),
    layer("place.map_clusters_s", "s", Lower),
    layer("place.ilp_solves", "count", Lower),
    layer("place.bnb_nodes", "count", Lower),
    layer("place.simplex_pivots", "count", Lower),
    layer("place.zeta_sum", "count", Lower),
    layer("place.failed_candidates", "count", Lower),
    layer("place.routing_complexity", "count", Lower),
    layer("arch.cgra_new_s", "s", Lower),
    layer("arch.mrrg_build_s", "s", Lower),
    layer("arch.mrrg_nodes", "count", Lower),
    layer("arch.mrrg_cache_hits", "count", Higher),
    layer("arch.mrrg_cache_misses", "count", Lower),
    layer("mapper.restrict_s", "s", Lower),
    layer("mapper.spr_map_s", "s", Lower),
    layer("mapper.spr_candidates", "count", Lower),
    layer("mapper.spr_ii_attempts", "count", Lower),
    layer("mapper.spr_success_ratio", "ratio", Higher),
    layer("mapper.spr_place_s", "s", Lower),
    layer("mapper.spr_place_fail_s", "s", Lower),
    layer("mapper.spr_route_s", "s", Lower),
    layer("mapper.spr_anneal_s", "s", Lower),
    layer("mapper.sat_map_s", "s", Lower),
    layer("mapper.sat_ii_attempts", "count", Lower),
    layer("mapper.sat_refinements", "count", Lower),
    layer("mapper.sat_vars_peak", "count", Lower),
    layer("mapper.sat_clauses_peak", "count", Lower),
    layer("mapper.verify_s", "s", Lower),
    layer("mapper.configware_s", "s", Lower),
    layer("mapper.config_bits", "bits", Lower),
    layer("sat.solve_s", "s", Lower),
    layer("sat.conflicts", "count", Lower),
    layer("sat.propagations", "count", Lower),
    layer("sat.decisions", "count", Lower),
    layer("sat.restarts", "count", Lower),
    layer("sat.probe_solve_s", "s", Lower),
    layer("sat.probe_propagations", "count", Lower),
    layer("sim.simulate_s", "s", Lower),
    layer("exec.execute_s", "s", Lower),
    layer("exec.tokens_checked", "count", Higher),
    layer("core.plan_s", "s", Lower),
    layer("core.compile_s", "s", Lower),
    layer("core.staged_s", "s", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.unattributed_share", "ratio", Lower),
    layer("serve.rps", "1/s", Higher),
    layer("serve.miss_p50_ms", "ms", Lower),
    layer("serve.miss_p90_ms", "ms", Lower),
    layer("serve.miss_overhead_ms", "ms", Lower),
    layer("serve.hit_p50_us", "us", Lower),
    layer("serve.hit_p90_us", "us", Lower),
    layer("serve.healthz_p50_us", "us", Lower),
    layer("serve.result_cache_hits", "count", Higher),
    layer("serve.result_cache_misses", "count", Lower),
    layer("serve.disk_entries", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.failed", "count", Lower),
    layer("kernel.edn.compile_s", "s", Lower),
    layer("kernel.edn.ii", "cycles", Lower),
    layer("kernel.idctcols.compile_s", "s", Lower),
    layer("kernel.idctcols.ii", "cycles", Lower),
    layer("kernel.idctrows.compile_s", "s", Lower),
    layer("kernel.idctrows.ii", "cycles", Lower),
    layer("kernel.conv2d.compile_s", "s", Lower),
    layer("kernel.conv2d.ii", "cycles", Lower),
    layer("kernel.matchedfilter.compile_s", "s", Lower),
    layer("kernel.matchedfilter.ii", "cycles", Lower),
    layer("kernel.mmul.compile_s", "s", Lower),
    layer("kernel.mmul.ii", "cycles", Lower),
    layer("kernel.cordic.compile_s", "s", Lower),
    layer("kernel.cordic.ii", "cycles", Lower),
    layer("kernel.kmeans.compile_s", "s", Lower),
    layer("kernel.kmeans.ii", "cycles", Lower),
    layer("kernel.fir.compile_s", "s", Lower),
    layer("kernel.fir.ii", "cycles", Lower),
    layer("kernel.jpegfdct.compile_s", "s", Lower),
    layer("kernel.jpegfdct.ii", "cycles", Lower),
    layer("kernel.jpegidctfst.compile_s", "s", Lower),
    layer("kernel.jpegidctfst.ii", "cycles", Lower),
    layer("kernel.invertmat.compile_s", "s", Lower),
    layer("kernel.invertmat.ii", "cycles", Lower),
];

/// One row of the interaction table, written down before measuring:
/// per-layer metrics whose name starts with `prefix` are expected to move
/// `moves` on the workloads in `on`, and nothing on the others.
pub struct Interaction {
    /// Per-layer name prefix the row covers.
    pub prefix: &'static str,
    /// End-to-end metrics the layer should move.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them.
    pub on: &'static [&'static str],
    /// The prediction in words.
    pub note: &'static str,
}

const SPR: &str = "suite8x8-spr";
const PLAN: &str = "divide16x16-plan";
const SAT: &str = "suite4x4-sat";
const SERVE: &str = "serve8x8-mix";

/// The interaction table (also printed in `benchmark/README.md`).
pub const INTERACTIONS: [Interaction; 21] = [
    Interaction {
        prefix: "mapper.spr_",
        moves: &["pass_s", "op_geomean_ms", "qom_geomean", "ii_sum"],
        on: &[SPR, SERVE],
        note: "SPR* is ~88% of pass_s on suite8x8-spr and of every miss on serve8x8-mix; fewer failed II attempts (spr_success_ratio, spr_ii_attempts) is both less time and a lower II; no change on divide16x16-plan or suite4x4-sat",
    },
    Interaction {
        prefix: "arch.",
        moves: &["pass_s", "op_geomean_ms", "setup_s"],
        on: &[SPR, SERVE, SAT],
        note: "MRRG construction is paid once per II attempt on a cold Cgra; the daemon shares one Cgra per architecture so its hits rise with traffic; work moved into Cgra::new shows as setup_s",
    },
    Interaction {
        prefix: "linalg.",
        moves: &["pass_s", "op_geomean_ms"],
        on: &[PLAN, SPR],
        note: "the Jacobi eigensolve is ~45% of divide16x16-plan, <10% of suite8x8-spr, nothing on suite4x4-sat",
    },
    Interaction {
        prefix: "cluster.",
        moves: &["pass_s", "op_geomean_ms", "qom_geomean", "ii_sum"],
        on: &[PLAN, SPR],
        note: "embedding + k sweep are ~70% of divide16x16-plan and <=10% of suite8x8-spr; a different partition changes the restriction and so the II floor / achieved II",
    },
    Interaction {
        prefix: "ilp.",
        moves: &["pass_s", "op_geomean_ms"],
        on: &[PLAN],
        note: "simplex + branch&bound serve only the scattering ILPs: ~30% of divide16x16-plan, <1% elsewhere",
    },
    Interaction {
        prefix: "place.",
        moves: &["pass_s", "op_geomean_ms", "qom_geomean", "ii_sum"],
        on: &[PLAN, SPR],
        note: "scattering is ~30% of divide16x16-plan; zeta_sum / routing_complexity changes alter the restriction and may move II on suite8x8-spr",
    },
    Interaction {
        prefix: "mapper.restrict_s",
        moves: &["pass_s"],
        on: &[PLAN],
        note: "<1% everywhere; listed so the staged spans partition the root",
    },
    Interaction {
        prefix: "mapper.sat_",
        moves: &["pass_s", "op_geomean_ms", "qom_geomean", "ii_sum"],
        on: &[SAT],
        note: "CNF encode + CEGAR loop are all of suite4x4-sat's mapper time; 0 on every other workload",
    },
    Interaction {
        prefix: "sat.",
        moves: &["pass_s", "op_geomean_ms"],
        on: &[SAT],
        note: "CDCL search effort; incremental solving across II attempts shows here and nowhere else",
    },
    Interaction {
        prefix: "mapper.verify_s",
        moves: &["pass_s"],
        on: &[SERVE],
        note: "<1% of any compile; the daemon verifies before replying, the suites verify outside the timed call; gates `failed`, not time",
    },
    Interaction {
        prefix: "mapper.config",
        moves: &["ii_sum"],
        on: &[SPR, SAT, SERVE],
        note: "configware size follows II; emission is <1% of a compile",
    },
    Interaction {
        prefix: "sim.",
        moves: &[],
        on: &[],
        note: "outside every timed call; gates `failed`",
    },
    Interaction {
        prefix: "exec.",
        moves: &[],
        on: &[],
        note: "outside every timed call; the differential execution against the reference interpreter is the output check",
    },
    Interaction {
        prefix: "dfg.",
        moves: &["setup_s", "pass_s"],
        on: &[SERVE, SPR, PLAN, SAT],
        note: "generation is setup_s everywhere; text parse is on the request path of serve8x8-mix only",
    },
    Interaction {
        prefix: "lint.",
        moves: &["pass_s"],
        on: &[SPR, PLAN, SAT, SERVE],
        note: "pre-flight runs once unrestricted and once per surviving candidate; <1%",
    },
    Interaction {
        prefix: "analyze.",
        moves: &[],
        on: &[],
        note: "the optimizer is off in every workload (pipeline default); measured beside the pipeline so turning it on later has a before",
    },
    Interaction {
        prefix: "core.",
        moves: &["pass_s", "op_geomean_ms"],
        on: &[SPR, PLAN, SAT],
        note: "the untraced entry-point time the traced run compares its staged replay against",
    },
    Interaction {
        prefix: "trace.",
        moves: &[],
        on: &[],
        note: "harness cost only: staged replay vs entry point, and the share of the staged root no stage covers",
    },
    Interaction {
        prefix: "serve.",
        moves: &["pass_s", "op_geomean_ms", "peak_rss_mb"],
        on: &[SERVE],
        note: "hit/healthz latency and miss overhead are HTTP framing, JSON, queue and cache cost; with 2 workers on 2 cores time freed in mapper also shortens queue wait, so miss_p90 can fall by more than the compile saving",
    },
    Interaction {
        prefix: "kernel.",
        moves: &["pass_s", "op_geomean_ms", "qom_geomean", "ii_sum"],
        on: &[SPR, PLAN, SAT, SERVE],
        note: "per-kernel rows of the same totals: which kernel a change helped or hurt",
    },
    Interaction {
        prefix: "mapper.spr_candidates",
        moves: &["peak_rss_mb"],
        on: &[SPR, SERVE],
        note: "every surviving candidate holds its own placement and router state",
    },
];

/// The workload and metric dictionary with the interaction table, as
/// `run.sh --describe` prints it.
pub fn describe() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        let _ = writeln!(out, "  {}: {}", w.name, w.why);
    }
    out.push_str("end-to-end metrics (every workload reports each)\n");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {} [{}, {} is better, may worsen by {}%]: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    out.push_str("per-layer metrics (traced run) and what each group should move\n");
    for row in &INTERACTIONS {
        let names: Vec<String> = PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with(row.prefix))
            .map(|m| format!("{} [{}, {}]", m.name, m.unit, m.better.as_str()))
            .collect();
        let _ = writeln!(out, "  {}*: {}", row.prefix, names.join(", "));
        let moves = if row.moves.is_empty() {
            "no end-to-end metric".to_string()
        } else {
            format!("{} on {}", row.moves.join(", "), row.on.join(", "))
        };
        let _ = writeln!(out, "    moves {moves}\n    {}", row.note);
    }
    out
}

/// The end-to-end metric named `name`, if any.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Whether `name` is a workload.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// Names are letters, digits, `_`, `.` and `-`, start with a letter or
/// digit, and are at most 64 long (the acceptance driver's rule).
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama::trace::json::{parse, Json};
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn doc() -> Json {
        parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing `{key}`"))
    }

    #[test]
    fn names_use_the_allowed_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
    }

    #[test]
    fn metric_counts_stay_inside_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why",
                w.name
            );
        }
    }

    #[test]
    fn every_per_layer_metric_has_an_interaction_row_naming_real_metrics_and_workloads() {
        for row in &INTERACTIONS {
            // A row may move nothing (it gates correctness only), but then
            // it names no workload either.
            assert_eq!(row.moves.is_empty(), row.on.is_empty(), "{}", row.prefix);
            for m in row.moves {
                assert!(
                    end_to_end(m).is_some(),
                    "{}: unknown end-to-end metric {m}",
                    row.prefix
                );
            }
            for w in row.on {
                assert!(is_workload(w), "{}: unknown workload {w}", row.prefix);
            }
            assert!(
                PER_LAYER.iter().any(|m| m.name.starts_with(row.prefix)),
                "interaction `{}` covers no metric",
                row.prefix
            );
        }
        for m in &PER_LAYER {
            assert!(
                INTERACTIONS
                    .iter()
                    .any(|row| m.name.starts_with(row.prefix)),
                "per-layer metric {} has no interaction row",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_repeats_this_table_exactly() {
        let doc = doc();
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(entry.as_obj().expect("object").len(), 2);
            assert_eq!((field(entry, "name"), field(entry, "why")), (w.name, w.why));
        }

        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.as_obj().expect("object").len(), 4);
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.as_obj().expect("object").len(), 3);
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
        }
    }

    #[test]
    fn benchmark_json_command_and_paths_stay_inside_the_benchmark() {
        let doc = doc();
        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(Json::as_arr)
            .expect("paths")
            .iter()
            .map(|p| p.as_str().expect("string"))
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let command: Vec<&str> = doc
            .get("command")
            .and_then(Json::as_arr)
            .expect("command")
            .iter()
            .map(|p| p.as_str().expect("string"))
            .collect();
        assert_eq!(command, ["bash", "benchmark/run.sh"]);
    }
}
