//! End-to-end integration tests: the full PANORAMA pipeline across crates,
//! on real kernels, with independent mapping verification.

use panorama::{CompileContext, CompileMode, Panorama, PanoramaConfig, PanoramaError};
use panorama_arch::{Cgra, CgraConfig};
use panorama_cluster::{explore_partitions, top_balanced, Cdg, Partition};
use panorama_dfg::{kernels, Dfg, KernelId, KernelScale};
use panorama_lint::{lint_report, Diagnostics};
use panorama_mapper::{min_ii, restricted_min_ii, SprMapper, UltraFastMapper};
use panorama_place::{map_clusters, PlaceError, ScatterConfig};
use panorama_trace::{RecordingSink, TraceEvent, TraceReport, Tracer};
use std::time::Instant;

fn cgra() -> Cgra {
    Cgra::new(CgraConfig::scaled_8x8()).expect("preset is valid")
}

#[test]
fn every_kernel_compiles_guided_with_spr_at_tiny_scale() {
    let cgra = cgra();
    let compiler = Panorama::new(PanoramaConfig::default());
    let mapper = SprMapper::default();
    for id in KernelId::ALL {
        let dfg = kernels::generate(id, KernelScale::Tiny);
        let report = compiler
            .compile(&dfg, &cgra, &mapper)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        report
            .mapping()
            .verify(&dfg, &cgra)
            .unwrap_or_else(|e| panic!("{id}: invalid mapping: {e}"));
        assert!(report.mapping().qom() > 0.0, "{id}");
    }
}

#[test]
fn every_kernel_compiles_guided_with_ultrafast_at_tiny_scale() {
    let cgra = cgra();
    let compiler = Panorama::new(PanoramaConfig::default());
    let mapper = UltraFastMapper::default();
    for id in KernelId::ALL {
        let dfg = kernels::generate(id, KernelScale::Tiny);
        let report = compiler
            .compile(&dfg, &cgra, &mapper)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        report
            .mapping()
            .verify(&dfg, &cgra)
            .unwrap_or_else(|e| panic!("{id}: invalid mapping: {e}"));
    }
}

#[test]
fn pipeline_is_deterministic() {
    let cgra = cgra();
    let compiler = Panorama::new(PanoramaConfig::default());
    let dfg = kernels::generate(KernelId::Edn, KernelScale::Tiny);
    let a = compiler
        .compile(&dfg, &cgra, &SprMapper::default())
        .unwrap();
    let b = compiler
        .compile(&dfg, &cgra, &SprMapper::default())
        .unwrap();
    assert_eq!(a.mapping().ii(), b.mapping().ii());
    for op in dfg.op_ids() {
        assert_eq!(a.mapping().pe_of(op), b.mapping().pe_of(op));
        assert_eq!(a.mapping().time_of(op), b.mapping().time_of(op));
    }
}

#[test]
fn guided_mapping_respects_cluster_restriction() {
    let cgra = cgra();
    let compiler = Panorama::new(PanoramaConfig::default());
    let dfg = kernels::generate(KernelId::Conv2d, KernelScale::Tiny);
    let report = compiler
        .compile(&dfg, &cgra, &SprMapper::default())
        .unwrap();
    let plan = report.plan().expect("guided run has a plan");
    for op in dfg.op_ids() {
        let cluster = cgra.cluster_of(report.mapping().pe_of(op));
        assert!(
            plan.restriction().allows(op, cluster),
            "op {op} placed outside its allowed clusters"
        );
    }
}

#[test]
fn plan_partition_covers_every_op_exactly_once() {
    let cgra = cgra();
    let compiler = Panorama::new(PanoramaConfig::default());
    let dfg = kernels::generate(KernelId::KMeansClustering, KernelScale::Scaled);
    let plan = compiler.plan(&dfg, &cgra).unwrap();
    // every DFG op appears in exactly one CDG cluster's member list
    let mut seen = vec![false; dfg.num_ops()];
    for c in plan.cdg().cluster_ids() {
        for &op in plan.cdg().members(c) {
            assert!(!seen[op.index()], "op {op} in two clusters");
            seen[op.index()] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "some op not clustered");
}

#[test]
fn single_cluster_cgra_rejects_planning() {
    // a 1x1 cluster grid cannot host a divide step (needs >= 2 rows)
    let cgra = Cgra::new(CgraConfig::small_4x4()).expect("valid");
    let compiler = Panorama::new(PanoramaConfig::default());
    let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
    // planning still works by clamping r to 2 (two clusters on one row is
    // not expressible: grid is 1x1, so cluster mapping must fail)
    match compiler.plan(&dfg, &cgra) {
        Err(PanoramaError::ClusterMapping(_)) | Err(PanoramaError::Cluster(_)) => {}
        Ok(plan) => {
            // acceptable alternative: a degenerate but consistent plan
            assert_eq!(plan.cluster_map().grid(), (1, 1));
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn baseline_and_guided_both_verify_on_scaled_kernel() {
    let cgra = cgra();
    let compiler = Panorama::new(PanoramaConfig::default());
    let dfg = kernels::generate(KernelId::Cordic, KernelScale::Scaled);
    let mapper = SprMapper::default();
    let base = compiler.compile_baseline(&dfg, &cgra, &mapper).unwrap();
    base.mapping().verify(&dfg, &cgra).unwrap();
    let pan = compiler.compile(&dfg, &cgra, &mapper).unwrap();
    pan.mapping().verify(&dfg, &cgra).unwrap();
    // the divide step should never *hurt* cordic (the paper's headline)
    assert!(pan.mapping().ii() <= base.mapping().ii());
}

/// The top-balanced candidate partitions the divide scatters, in balance
/// rank order (the trace's candidate numbers).
fn candidates(dfg: &Dfg, cgra: &Cgra, config: &PanoramaConfig) -> Vec<Partition> {
    let ks = config.cluster_counts(dfg, cgra);
    let parts = explore_partitions(dfg, *ks.start(), *ks.end(), &config.spectral).unwrap();
    top_balanced(&parts, config.top_partitions)
        .into_iter()
        .map(|(_, part)| part.clone())
        .collect()
}

/// The plan an eager selection picks: both scattering stages on every
/// top-balanced candidate, then the least `(routing complexity, balance
/// rank)`. Returns its partition labels and rendered cluster map.
fn eager_plan(dfg: &Dfg, cgra: &Cgra, config: &PanoramaConfig) -> Option<(Vec<usize>, String)> {
    let (rows, cols) = cgra.cluster_grid();
    candidates(dfg, cgra, config)
        .into_iter()
        .enumerate()
        .filter_map(|(rank, part)| {
            let map = map_clusters(&Cdg::new(dfg, &part), rows, cols, &config.scatter).ok()?;
            Some(((map.routing_complexity(), rank), part, map))
        })
        .min_by_key(|(key, _, _)| *key)
        .map(|(_, part, map)| (part.labels().to_vec(), map.render()))
}

/// `plan()` row-scatters only until the first candidate in `(routing
/// complexity, rank)` order succeeds; that is the plan the eager selection
/// picks, on every Scaled kernel on 8x8 (2x2 cluster grid) and on three
/// on 16x16 (4x4 cluster grid, where row-wise scattering has rows to
/// spread).
#[test]
fn plan_equals_the_eager_selection() {
    let config = PanoramaConfig::default();
    let compiler = Panorama::new(config.clone());
    let on_8x8 = KernelId::ALL.map(|id| (id, CgraConfig::scaled_8x8()));
    let on_16x16 = [KernelId::Fir, KernelId::Cordic, KernelId::Conv2d]
        .map(|id| (id, CgraConfig::paper_16x16()));
    for (id, arch) in on_8x8.into_iter().chain(on_16x16) {
        let cgra = Cgra::new(arch).unwrap();
        let dfg = kernels::generate(id, KernelScale::Scaled);
        let plan = compiler
            .plan(&dfg, &cgra)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let (labels, map) = eager_plan(&dfg, &cgra, &config).expect("an eager plan");
        let grid = cgra.cluster_grid();
        assert_eq!(plan.partition().labels(), &labels[..], "{id} {grid:?}");
        assert_eq!(plan.cluster_map().render(), map, "{id} {grid:?}");
    }
}

/// Records a traced `plan()` that fails, and returns the error, the
/// trace's phases and the findings of `panorama lint --report` on it.
fn failed_plan_trace(
    compiler: &Panorama,
    dfg: &Dfg,
    cgra: &Cgra,
) -> (PanoramaError, Vec<String>, Diagnostics) {
    let sink = RecordingSink::shared();
    let start = Instant::now();
    let err = compiler
        .plan_traced(dfg, cgra, &Tracer::new(sink.clone()))
        .unwrap_err();
    let trace = TraceReport {
        kernel: dfg.name().to_string(),
        arch: "8x8".into(),
        mapper: "plan".into(),
        threads: 1,
        wall_ns: start.elapsed().as_nanos() as u64,
        events: sink.take(),
    };
    let phases = trace.events.iter().map(|e| e.phase.to_string()).collect();
    let mut diags = Diagnostics::new();
    lint_report(&trace.to_json(), &mut diags).unwrap();
    (err, phases, diags)
}

/// A `plan()` that fails after the divide still closes its `cluster_map`
/// span, so its trace covers the run (no TRACE006): when no candidate
/// cluster-maps, and when the restricted pre-flight refutes the chosen
/// plan.
#[test]
fn a_failed_plan_still_records_its_cluster_map_span() {
    let cgra = cgra();
    let dfg = kernels::generate(KernelId::Conv2d, KernelScale::Scaled);
    let base = PanoramaConfig {
        threads: 1,
        ..PanoramaConfig::default()
    };

    // ζ capped at 0: column-wise scattering fails on every candidate
    let no_zeta = Panorama::new(PanoramaConfig {
        scatter: ScatterConfig { max_zeta: 0 },
        ..base.clone()
    });
    let (err, phases, diags) = failed_plan_trace(&no_zeta, &dfg, &cgra);
    assert!(
        matches!(
            err,
            PanoramaError::ClusterMapping(PlaceError::ZetaExhausted { .. })
        ),
        "{err}"
    );
    assert!(phases.iter().any(|p| p == "cluster_map"), "{phases:?}");
    assert_eq!(diags.len(), 0, "{}", diags.render_human());

    // the II cap at the unrestricted floor, which the plan's restriction
    // raises: the pre-flight passes before the divide and fails after it
    let unrestricted = min_ii(&dfg, &cgra).mii();
    let plan = Panorama::new(base.clone()).plan(&dfg, &cgra).unwrap();
    assert!(restricted_min_ii(&dfg, &cgra, plan.restriction()) > unrestricted);
    let capped = Panorama::new(PanoramaConfig {
        max_ii: Some(unrestricted),
        ..base
    });
    let (err, phases, diags) = failed_plan_trace(&capped, &dfg, &cgra);
    assert!(matches!(err, PanoramaError::Infeasible(_)), "{err}");
    assert!(phases.iter().any(|p| p == "cluster_map"), "{phases:?}");
    assert_eq!(diags.len(), 0, "{}", diags.render_human());
}

/// The value of `event`'s counter `name`, if it has one.
fn counter(event: &TraceEvent, name: &str) -> Option<i64> {
    event
        .counters
        .iter()
        .find(|&&(k, _)| k == name)
        .map(|&(_, v)| v)
}

/// A `plan_traced` trace tells which candidates were row-scattered: each
/// candidate has one `cluster_map.scatter` span with `row_wise` 0
/// (column-wise scattering), and exactly the candidates keyed at or below
/// the chosen one have a second with `row_wise` 1, the last of them the
/// only success.
#[test]
fn a_plan_trace_marks_the_row_scattered_candidates() {
    let compiler = Panorama::new(PanoramaConfig::default());
    let cgra = Cgra::new(CgraConfig::paper_16x16()).unwrap();
    for id in [KernelId::Cordic, KernelId::Fir] {
        let dfg = kernels::generate(id, KernelScale::Scaled);
        let sink = RecordingSink::shared();
        compiler
            .plan_traced(&dfg, &cgra, &Tracer::new(sink.clone()))
            .unwrap();
        let events = sink.take();
        let scatters: Vec<_> = events
            .iter()
            .filter(|e| e.phase == "cluster_map.scatter")
            .collect();
        let column_wise: Vec<_> = scatters
            .iter()
            .filter(|e| counter(e, "row_wise") == Some(0))
            .map(|e| (counter(e, "routing_complexity").unwrap(), e.candidate))
            .collect();
        let row_wise: Vec<_> = scatters
            .iter()
            .filter(|e| counter(e, "row_wise") == Some(1))
            .map(|e| (e.candidate, counter(e, "success").unwrap()))
            .collect();
        assert_eq!(column_wise.len(), 3, "{id}: {scatters:?}");
        assert_eq!(column_wise.len() + row_wise.len(), scatters.len(), "{id}");
        let winners: Vec<_> = row_wise.iter().filter(|&&(_, ok)| ok == 1).collect();
        assert_eq!(winners.len(), 1, "{id}: {row_wise:?}");
        let key_of = |c: u32| column_wise.iter().find(|&&(_, cand)| cand == c).unwrap();
        let chosen = key_of(winners[0].0);
        let mut tried: Vec<u32> = row_wise.iter().map(|&(c, _)| c).collect();
        tried.sort_unstable();
        let mut expected: Vec<u32> = column_wise
            .iter()
            .filter(|&k| k <= chosen)
            .map(|&(_, c)| c)
            .collect();
        expected.sort_unstable();
        assert_eq!(tried, expected, "{id}");
    }
}

/// A guided compile of `dfg` traced at `threads` workers.
fn traced_compile(dfg: &Dfg, cgra: &Cgra, threads: usize) -> TraceReport {
    let sink = RecordingSink::shared();
    let tracer = Tracer::new(sink.clone());
    let ctx = CompileContext {
        tracer: Some(&tracer),
        ..CompileContext::default()
    };
    let compiler = Panorama::new(PanoramaConfig {
        threads,
        ..PanoramaConfig::default()
    });
    let mapper = UltraFastMapper::default();
    compiler
        .compile_with(dfg, cgra, &[&mapper], CompileMode::Guided, &ctx)
        .unwrap_or_else(|e| panic!("{}: {e}", dfg.name()));
    TraceReport {
        kernel: dfg.name().to_string(),
        arch: format!("{}x{}", cgra.config().rows, cgra.config().cols),
        mapper: "ultrafast".into(),
        threads,
        wall_ns: 0,
        events: sink.take(),
    }
}

/// A compile trace splits scattering by stage: every candidate has one
/// `cluster_map.scatter` span with `row_wise` 0 (column-wise scattering)
/// and, when that succeeded, one with `row_wise` 1 (row-wise scattering).
/// The two spans' effort counters sum to what `map_clusters` spends on
/// the candidate's partition, and the stable digest is the same at 1 and
/// 4 workers.
#[test]
fn a_compile_trace_splits_scattering_by_stage() {
    let config = PanoramaConfig::default();
    let effort_names = [
        "ilp_solves",
        "bnb_nodes",
        "node_limited",
        "simplex_pivots",
        "presolve_reductions",
    ];
    for (id, arch) in [
        (KernelId::Fir, CgraConfig::scaled_8x8()),
        (KernelId::Cordic, CgraConfig::scaled_8x8()),
        (KernelId::Fir, CgraConfig::paper_16x16()),
    ] {
        let cgra = Cgra::new(arch).unwrap();
        let (rows, cols) = cgra.cluster_grid();
        let dfg = kernels::generate(id, KernelScale::Scaled);
        let trace = traced_compile(&dfg, &cgra, 1);
        let parts = candidates(&dfg, &cgra, &config);
        assert_eq!(parts.len(), config.top_partitions, "{id} {rows}x{cols}");
        for (rank, part) in parts.iter().enumerate() {
            let spans: Vec<_> = trace
                .events
                .iter()
                .filter(|e| e.phase == "cluster_map.scatter" && e.candidate == rank as u32)
                .collect();
            let stage = |row_wise| {
                let found: Vec<_> = spans
                    .iter()
                    .filter(|e| counter(e, "row_wise") == Some(row_wise))
                    .collect();
                assert!(found.len() <= 1, "{id} candidate {rank}: {spans:?}");
                found.first().map(|&&e| e)
            };
            let column_wise = stage(0).expect("one column-wise span per candidate");
            let row_wise = stage(1);
            let passed = counter(column_wise, "success") == Some(1);
            assert_eq!(row_wise.is_some(), passed, "{id} candidate {rank}");
            assert_eq!(
                spans.len(),
                1 + usize::from(passed),
                "{id} candidate {rank}"
            );
            let Ok(map) = map_clusters(&Cdg::new(&dfg, part), rows, cols, &config.scatter) else {
                assert_ne!(row_wise.map(|e| counter(e, "success")), Some(Some(1)));
                continue;
            };
            let row_wise = row_wise.expect("a mapped candidate was row-scattered");
            let effort = map.ilp_effort();
            let expected = [
                effort.solves,
                effort.bnb_nodes,
                effort.node_limited,
                effort.simplex_pivots,
                effort.presolve_reductions,
            ];
            for (name, want) in effort_names.into_iter().zip(expected) {
                let sum = counter(column_wise, name).unwrap() + counter(row_wise, name).unwrap();
                assert_eq!(sum, want as i64, "{id} candidate {rank}: {name}");
            }
        }
        assert_eq!(
            trace.deterministic_signature(),
            traced_compile(&dfg, &cgra, 4).deterministic_signature(),
            "{id} {rows}x{cols}: stable trace digest diverged at 4 threads"
        );
    }
}
