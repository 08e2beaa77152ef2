//! Determinism tests for the parallel candidate portfolio (DESIGN.md §9).
//!
//! The pipeline's contract is that `PanoramaConfig::threads` only changes
//! wall-clock, never the result: the shared best-II bound prunes only
//! candidates that cannot win the final reduction, and the reduction key
//! `(II, routing complexity, candidate rank)` is unique per candidate. These
//! tests compile real kernels at thread counts 1, 2 and 4 and require the
//! resulting reports to be observably identical — same II, same per-op
//! placement and schedule, same winning partition.

use panorama::{
    BatchExecutor, CompileContext, CompileMode, CompileReport, Panorama, PanoramaConfig,
};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, Dfg, KernelId, KernelScale};
use panorama_mapper::{LowerLevelMapper, SprConfig, SprMapper, UltraFastMapper};
use panorama_trace::{RecordingSink, SpanCollector, TraceReport, Tracer};

/// Everything observable about a compile, flattened for equality checks.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    ii: usize,
    content_hash: u64,
    placement: Vec<(usize, usize)>,
    partition_labels: Vec<usize>,
}

fn fingerprint(dfg: &Dfg, report: &CompileReport) -> Fingerprint {
    let mapping = report.mapping();
    Fingerprint {
        ii: mapping.ii(),
        content_hash: mapping.content_hash(),
        placement: dfg
            .op_ids()
            .map(|op| (mapping.pe_of(op).index(), mapping.time_of(op)))
            .collect(),
        partition_labels: report
            .plan()
            .map(|plan| plan.partition().labels().to_vec())
            .unwrap_or_default(),
    }
}

fn compile_at<M: LowerLevelMapper>(
    dfg: &Dfg,
    cgra: &Cgra,
    mapper: &M,
    threads: usize,
) -> Fingerprint {
    let panorama = Panorama::new(PanoramaConfig {
        threads,
        ..PanoramaConfig::default()
    });
    let report = panorama
        .compile(dfg, cgra, mapper)
        .unwrap_or_else(|e| panic!("compile failed at {threads} threads: {e}"));
    fingerprint(dfg, &report)
}

#[test]
fn ultrafast_portfolio_is_thread_count_invariant_on_all_kernels() {
    for (name, config) in [
        ("4x4", CgraConfig::small_4x4()),
        ("8x8", CgraConfig::scaled_8x8()),
    ] {
        let cgra = Cgra::new(config).unwrap();
        let mapper = UltraFastMapper::default();
        for id in KernelId::ALL {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let base = compile_at(&dfg, &cgra, &mapper, 1);
            for threads in [2, 4] {
                let got = compile_at(&dfg, &cgra, &mapper, threads);
                assert_eq!(
                    base, got,
                    "{id} on {name}: report diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn spr_portfolio_is_thread_count_invariant() {
    // SPR* is the expensive mapper, so cover a representative subset: a
    // pipeline kernel, a recurrence-bound kernel and a wide one.
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let mapper = SprMapper::default();
    for id in [KernelId::Fir, KernelId::Cordic, KernelId::IdctRows] {
        let dfg = kernels::generate(id, KernelScale::Tiny);
        let base = compile_at(&dfg, &cgra, &mapper, 1);
        for threads in [2, 4] {
            let got = compile_at(&dfg, &cgra, &mapper, threads);
            assert_eq!(base, got, "{id}: report diverged at {threads} threads");
        }
    }
}

#[test]
fn batch_executor_is_thread_count_invariant_across_the_suite() {
    // The suite-level executor shares one pool between every kernel's
    // candidate portfolio; results must still be bit-identical to the
    // single-threaded compile at any worker count.
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let mapper = UltraFastMapper::default();
    let dfgs: Vec<Dfg> = KernelId::ALL
        .iter()
        .map(|&id| kernels::generate(id, KernelScale::Tiny))
        .collect();
    let base: Vec<Fingerprint> = dfgs
        .iter()
        .map(|d| compile_at(d, &cgra, &mapper, 1))
        .collect();
    for threads in [1, 2, 4, 8] {
        let got: Vec<Fingerprint> = BatchExecutor::scope(threads, |exec| {
            exec.run_batch(dfgs.len(), |exec, j| {
                let panorama = Panorama::new(PanoramaConfig {
                    threads,
                    ..PanoramaConfig::default()
                });
                let ctx = CompileContext {
                    executor: Some(exec),
                    ..CompileContext::default()
                };
                let report = panorama
                    .compile_with(&dfgs[j], &cgra, &[&mapper], CompileMode::Guided, &ctx)
                    .unwrap_or_else(|e| panic!("batch compile failed at {threads} threads: {e}"));
                fingerprint(&dfgs[j], &report)
            })
        });
        assert_eq!(base, got, "suite diverged at {threads} threads");
    }
}

/// Compiles with a recording tracer and returns both the mapping
/// fingerprint and the assembled trace report.
fn traced_compile_at<M: LowerLevelMapper>(
    dfg: &Dfg,
    cgra: &Cgra,
    mapper: &M,
    threads: usize,
) -> (Fingerprint, TraceReport) {
    let sink = RecordingSink::shared();
    let tracer = Tracer::new(sink.clone());
    let panorama = Panorama::new(PanoramaConfig {
        threads,
        ..PanoramaConfig::default()
    });
    let ctx = CompileContext {
        tracer: Some(&tracer),
        ..CompileContext::default()
    };
    let report = panorama
        .compile_with(dfg, cgra, &[mapper], CompileMode::Guided, &ctx)
        .unwrap_or_else(|e| panic!("traced compile failed at {threads} threads: {e}"));
    let trace = TraceReport {
        kernel: dfg.name().to_string(),
        arch: format!("{}x{}", cgra.config().rows, cgra.config().cols),
        mapper: mapper.name().to_string(),
        threads,
        wall_ns: report.total_time().as_nanos() as u64,
        events: sink.take(),
    };
    (fingerprint(dfg, &report), trace)
}

#[test]
fn tracing_is_thread_count_invariant_and_schema_valid() {
    // Recording must not perturb the portfolio (same fingerprint as the
    // untraced contract), the stable-event digest must be identical at 1, 2
    // and 4 threads, and the exported JSON must pass every TRACE* lint.
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let mapper = UltraFastMapper::default();
    for id in [KernelId::Fir, KernelId::Cordic, KernelId::IdctRows] {
        let dfg = kernels::generate(id, KernelScale::Tiny);
        let (base_fp, base_trace) = traced_compile_at(&dfg, &cgra, &mapper, 1);
        assert!(
            !base_trace.events.is_empty(),
            "{id}: recording tracer captured nothing"
        );
        let mut diags = panorama_lint::Diagnostics::new();
        panorama_lint::lint_trace_json(&base_trace.to_json(), &mut diags);
        assert!(!diags.has_errors(), "{id}:\n{}", diags.render_human());
        for threads in [2, 4] {
            let (fp, trace) = traced_compile_at(&dfg, &cgra, &mapper, threads);
            assert_eq!(
                base_fp, fp,
                "{id}: traced mapping diverged at {threads} threads"
            );
            assert_eq!(
                base_trace.deterministic_signature(),
                trace.deterministic_signature(),
                "{id}: stable trace digest diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn unbatched_compile_of_a_non_small_kernel_is_thread_count_invariant() {
    // Past the small-DFG cutoff a compile that is handed no executor opens
    // its own pool; II, mapping hash, plan and the stable-event digest must
    // not depend on how many workers that pool has.
    let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
    let mapper = UltraFastMapper::default();
    let dfg = kernels::generate(KernelId::Fir, KernelScale::Scaled);
    assert!(dfg.num_ops() > 48, "fir/scaled must take the pooled path");
    let (base_fp, base_trace) = traced_compile_at(&dfg, &cgra, &mapper, 1);
    let (fp, trace) = traced_compile_at(&dfg, &cgra, &mapper, 4);
    assert_eq!(base_fp, fp, "mapping diverged at 4 threads");
    assert_eq!(
        base_trace.deterministic_signature(),
        trace.deterministic_signature(),
        "stable trace digest diverged at 4 threads"
    );
}

#[test]
fn disabled_collector_adds_no_measurable_overhead() {
    // The disabled-path contract: start/record on a disabled collector are
    // single-branch no-ops — `start` is the constant zero start (it never
    // reads the clock) and `record` buffers and drops nothing. What those
    // branches cost is the benchmark's `trace.overhead_share`, not a
    // wall-clock assertion here.
    const ITERS: u64 = 2_000_000;
    let mut col = SpanCollector::disabled();
    for _ in 0..ITERS {
        let span = col.start();
        assert_eq!(format!("{span:?}"), "SpanStart(0)");
        col.record("hot", span, &[("i", 0)]);
    }
    assert!(!col.is_enabled());
    assert_eq!(col.dropped(), 0, "disabled collector must not drop");
    assert!(
        col.into_events().is_empty(),
        "disabled collector must not buffer"
    );
}

#[test]
fn bench_harness_reports_identical_results() {
    // The harness's own phase comparison (parallel vs sequential re-run)
    // must agree on every kernel; this is the check `panorama bench` exits
    // nonzero on.
    let report = panorama_bench::perf::run(&panorama_bench::BenchOptions {
        threads: 3,
        ..panorama_bench::BenchOptions::default()
    })
    .expect("bench suite compiles");
    report.check().unwrap();
    for k in &report.kernels {
        assert!(k.ii >= k.mii, "{} on {}: II below MII", k.kernel, k.preset);
    }
}

/// What one SA seed is worth on the 8×8 suite: II per kernel at the
/// committed `SprConfig::seed` and the seven after it. An II claim smaller
/// than the spread this prints is a claim about the seed (EXPERIMENTS.md,
/// "Seed spread").
#[test]
#[ignore = "96 scaled 8x8 SPR* compiles: ~15 s in a release build"]
fn sa_seed_spread() {
    let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
    let committed = SprConfig::default().seed;
    let seeds: Vec<u64> = (0..8).map(|k| committed + k).collect();
    let mut sums = vec![0usize; seeds.len()];
    print!("{:<18}", "kernel \\ seed");
    for seed in &seeds {
        print!("{seed:>#7x}");
    }
    println!();
    for id in KernelId::ALL {
        let dfg = kernels::generate(id, KernelScale::Scaled);
        print!("{:<18}", id.name());
        for (seed, sum) in seeds.iter().zip(&mut sums) {
            let mapper = SprMapper::new(SprConfig {
                seed: *seed,
                ..SprConfig::default()
            });
            let ii = compile_at(&dfg, &cgra, &mapper, 1).ii;
            print!("{ii:>7}");
            *sum += ii;
        }
        println!();
    }
    print!("{:<18}", "ii_sum");
    for sum in &sums {
        print!("{sum:>7}");
    }
    let mean = sums.iter().sum::<usize>() as f64 / sums.len() as f64;
    println!("\nmean {mean:.1}");
    assert!(sums[0] <= 103, "committed seed: ii_sum {}", sums[0]);
    assert!(mean <= 103.0, "8-seed mean ii_sum {mean:.1}");
}
