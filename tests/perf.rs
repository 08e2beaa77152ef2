//! Determinism tests for the parallel candidate portfolio (DESIGN.md §9).
//!
//! The pipeline's contract is that `PanoramaConfig::threads` only changes
//! wall-clock, never the result: the shared best-II bound prunes only
//! candidates that cannot win the final reduction, and the reduction key
//! `(II, routing complexity, candidate rank)` is unique per candidate. These
//! tests compile real kernels at thread counts 1, 2 and 4 and require the
//! resulting reports to be observably identical — same II, same mapping
//! hash, same per-op placement and schedule, same winning partition.
//!
//! The suite table ([`SuiteRow`]) is the suite determinism check: all twelve
//! kernels per row, batched on one shared pool at several worker counts,
//! against unbatched single-threaded compiles. The Ultra-Fast rows run in
//! every `cargo test`; the SPR\* rows are `#[ignore]`d and run in release
//! mode:
//!
//! ```text
//! cargo test --release --test perf -- --ignored spr_suite_batch_is_thread_count_invariant
//! ```

use panorama::{
    AnalyzeConfig, BackendId, BatchExecutor, CompileContext, CompileMode, CompileReport, Panorama,
    PanoramaConfig,
};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, Dep, Dfg, DfgBuilder, KernelId, KernelScale, OpId};
use panorama_mapper::{LowerLevelMapper, SprConfig, SprMapper, UltraFastMapper};
use panorama_trace::{RecordingSink, SpanCollector, TraceReport, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
        placement: report
            .mapped_dfg(dfg)
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

/// One row of the suite determinism table: all twelve kernels of a
/// preset, mapped by `backend`, with or without the DFG optimizer in front,
/// batched at each of `threads` workers.
struct SuiteRow {
    backend: BackendId,
    preset: Preset,
    analyze: bool,
    threads: &'static [usize],
}

/// An architecture preset and the kernel scale that fills it.
type Preset = (&'static str, KernelScale);
const TINY_4X4: Preset = ("4x4", KernelScale::Tiny);
const SCALED_8X8: Preset = ("8x8", KernelScale::Scaled);

/// One worker, fewer workers than kernels, more workers than cores.
const EVERY_POOL: &[usize] = &[1, 2, 4, 8];
/// Two pool sizes for the rows that cost seconds in a debug build.
const TWO_POOLS: &[usize] = &[2, 4];

const fn row(
    backend: BackendId,
    preset: Preset,
    analyze: bool,
    threads: &'static [usize],
) -> SuiteRow {
    SuiteRow {
        backend,
        preset,
        analyze,
        threads,
    }
}

/// The rows cheap enough for every `cargo test`.
const TIER1_ROWS: [SuiteRow; 4] = [
    row(BackendId::UltraFast, TINY_4X4, false, EVERY_POOL),
    row(BackendId::UltraFast, SCALED_8X8, false, TWO_POOLS),
    row(BackendId::UltraFast, TINY_4X4, true, EVERY_POOL),
    row(BackendId::UltraFast, SCALED_8X8, true, TWO_POOLS),
];

/// SPR\* with its default config: no wall-clock budget, so whether a
/// compile finishes cannot depend on how fast the host is.
const SPR_ROWS: [SuiteRow; 2] = [
    row(BackendId::Spr, TINY_4X4, false, EVERY_POOL),
    row(BackendId::Spr, SCALED_8X8, false, EVERY_POOL),
];

impl std::fmt::Display for SuiteRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (arch, scale) = self.preset;
        let analyze = if self.analyze { " --analyze" } else { "" };
        write!(f, "{} on {arch}/{scale:?}{analyze}", self.backend.name())
    }
}

/// One compile of a suite row, batched on `exec` when one is given.
fn suite_compile<'env>(
    row: &SuiteRow,
    dfg: &Dfg,
    cgra: &Cgra,
    mapper: &'env dyn LowerLevelMapper,
    threads: usize,
    exec: Option<&BatchExecutor<'env>>,
) -> Fingerprint {
    let panorama = Panorama::new(PanoramaConfig {
        threads,
        analyze: row.analyze.then(AnalyzeConfig::default),
        ..PanoramaConfig::default()
    });
    let ctx = CompileContext {
        executor: exec,
        ..CompileContext::default()
    };
    let report = panorama
        .compile_with(dfg, cgra, &[mapper], CompileMode::Guided, &ctx)
        .unwrap_or_else(|e| panic!("{row}: {} at {threads} threads: {e}", dfg.name()));
    fingerprint(dfg, &report)
}

/// The suite determinism check: every kernel of `row`, compiled on one
/// shared [`BatchExecutor`] pool at each of the row's worker counts, must
/// be bit-identical to its unbatched single-threaded compile.
fn check_suite_row(row: &SuiteRow) {
    let (arch, scale) = row.preset;
    let cgra = Cgra::new(CgraConfig::preset(arch).unwrap()).unwrap();
    let mapper = row.backend.mapper();
    let mapper = &*mapper;
    let dfgs: Vec<Dfg> = KernelId::ALL
        .iter()
        .map(|&id| kernels::generate(id, scale))
        .collect();
    let sequential: Vec<Fingerprint> = dfgs
        .iter()
        .map(|dfg| suite_compile(row, dfg, &cgra, mapper, 1, None))
        .collect();
    for &threads in row.threads {
        let batched: Vec<Fingerprint> = BatchExecutor::scope(threads, |exec| {
            exec.run_batch(dfgs.len(), |exec, j| {
                suite_compile(row, &dfgs[j], &cgra, mapper, threads, Some(exec))
            })
        });
        for ((dfg, seq), got) in dfgs.iter().zip(&sequential).zip(&batched) {
            assert_eq!(
                seq,
                got,
                "{row}: {} diverged batched at {threads} threads",
                dfg.name()
            );
        }
    }
}

#[test]
fn batch_executor_is_thread_count_invariant_across_the_suite() {
    for row in &TIER1_ROWS {
        check_suite_row(row);
    }
}

#[test]
#[ignore = "48 SPR* suite compiles on both presets: run in a release build"]
fn spr_suite_batch_is_thread_count_invariant() {
    for row in &SPR_ROWS {
        check_suite_row(row);
    }
}

/// Compiles with a recording tracer and returns both the mapping
/// fingerprint and the assembled trace report.
fn traced_compile_at(
    dfg: &Dfg,
    cgra: &Cgra,
    mappers: &[&dyn LowerLevelMapper],
    mode: CompileMode,
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
        .compile_with(dfg, cgra, mappers, mode, &ctx)
        .unwrap_or_else(|e| panic!("traced compile failed at {threads} threads: {e}"));
    let names: Vec<&str> = mappers.iter().map(|m| m.name()).collect();
    let trace = TraceReport {
        kernel: dfg.name().to_string(),
        arch: format!("{}x{}", cgra.config().rows, cgra.config().cols),
        mapper: names.join("+"),
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
        let (base_fp, base_trace) =
            traced_compile_at(&dfg, &cgra, &[&mapper], CompileMode::Guided, 1);
        assert!(
            !base_trace.events.is_empty(),
            "{id}: recording tracer captured nothing"
        );
        let mut diags = panorama_lint::Diagnostics::new();
        panorama_lint::lint_trace_json(&base_trace.to_json(), &mut diags);
        assert!(!diags.has_errors(), "{id}:\n{}", diags.render_human());
        for threads in [2, 4] {
            let (fp, trace) =
                traced_compile_at(&dfg, &cgra, &[&mapper], CompileMode::Guided, threads);
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
    let (base_fp, base_trace) = traced_compile_at(&dfg, &cgra, &[&mapper], CompileMode::Guided, 1);
    let (fp, trace) = traced_compile_at(&dfg, &cgra, &[&mapper], CompileMode::Guided, 4);
    assert_eq!(base_fp, fp, "mapping diverged at 4 threads");
    assert_eq!(
        base_trace.deterministic_signature(),
        trace.deterministic_signature(),
        "stable trace digest diverged at 4 threads"
    );
}

#[test]
fn a_traced_baseline_is_one_candidate_in_the_conquer_race() {
    // A baseline compile races its mappers on one unrestricted candidate:
    // candidate 0's collector holds one `map.candidate` span per mapper,
    // the `map` span names the winner's rank and the race's size, and the
    // stable events do not depend on the thread count. idctcols/tiny is
    // past the small-DFG cutoff, so at 4 threads the race runs on a pool.
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let (spr, ultrafast) = (SprMapper::default(), UltraFastMapper::default());
    let mappers: [&dyn LowerLevelMapper; 2] = [&spr, &ultrafast];
    let dfg = kernels::generate(KernelId::IdctCols, KernelScale::Tiny);
    assert!(
        dfg.num_ops() > 48,
        "idctcols/tiny must take the pooled path"
    );
    let (base_fp, base_trace) = traced_compile_at(&dfg, &cgra, &mappers, CompileMode::Baseline, 1);
    assert!(
        base_fp.partition_labels.is_empty(),
        "a baseline makes no plan"
    );
    let attempts: Vec<u32> = base_trace
        .events
        .iter()
        .filter(|e| e.phase == "map.candidate")
        .map(|e| e.candidate)
        .collect();
    assert_eq!(attempts, [0, 0], "one map.candidate span per mapper");
    let map: Vec<_> = base_trace
        .events
        .iter()
        .filter(|e| e.phase == "map")
        .collect();
    assert_eq!(map.len(), 1);
    assert_eq!(map[0].counters, [("winner_rank", 0), ("candidates", 2)]);
    let (fp, trace) = traced_compile_at(&dfg, &cgra, &mappers, CompileMode::Baseline, 4);
    assert_eq!(base_fp, fp, "baseline mapping diverged at 4 threads");
    assert_eq!(
        base_trace.deterministic_signature(),
        trace.deterministic_signature(),
        "baseline stable trace digest diverged at 4 threads"
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
            let mapper = SprMapper::new(SprConfig { seed: *seed });
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
    assert!(sums[0] <= 80, "committed seed: ii_sum {}", sums[0]);
    assert!(mean <= 80.0, "8-seed mean ii_sum {mean:.1}");
}

/// `dfg` under other labels: ops renumbered by a seeded permutation and
/// edges added in a seeded order. Each op keeps its operands in order, so
/// the result is the same loop, only numbered differently.
fn relabel(dfg: &Dfg, seed: u64) -> Dfg {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut shuffle = |n: usize| {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
    };
    // op `old_of[i]` becomes op `i`
    let old_of = shuffle(dfg.num_ops());
    let mut new_of = vec![OpId::from_index(0); old_of.len()];
    let mut b = DfgBuilder::new(dfg.name());
    for &old in &old_of {
        new_of[old] = b.push_op(dfg.op(OpId::from_index(old)).clone());
    }
    let deps: Vec<_> = dfg.deps().collect();
    let mut operands: Vec<_> = dfg.op_ids().map(|v| dfg.graph().incoming(v)).collect();
    // the shuffle picks which consumer's next operand is wired next
    for i in shuffle(deps.len()) {
        let e = operands[deps[i].dst.index()].next().expect("one per edge");
        let (src, dst) = (new_of[e.src.index()], new_of[e.dst.index()]);
        match e.weight {
            Dep::Data => b.data(src, dst),
            Dep::Back { distance } => b.back(src, dst, *distance),
        }
    }
    b.build().expect("a relabelled DFG is still valid")
}

/// What the op numbering is worth on the 8×8 suite: II per kernel for the
/// kernels as generated (labelling 0) and three seeded relabellings of
/// the same graphs, at the committed SA seed; `-` is a kernel SPR\* did
/// not map. The partition depends on the numbering, so an II claim has to
/// beat this spread as well as the seed's (EXPERIMENTS.md, "Labelling
/// spread").
#[test]
#[ignore = "48 scaled 8x8 SPR* compiles: ~10 s in a release build"]
fn labelling_spread() {
    let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
    let panorama = Panorama::new(PanoramaConfig {
        threads: 1,
        ..PanoramaConfig::default()
    });
    let mapper = SprMapper::default();
    let (mut sums, mut unmapped) = ([0usize; 4], [0usize; 4]);
    println!("{:<18}{:>7}{:>7}{:>7}{:>7}", "kernel \\ label", 0, 1, 2, 3);
    for id in KernelId::ALL {
        let dfg = kernels::generate(id, KernelScale::Scaled);
        print!("{:<18}", id.name());
        for labelling in 0..4 {
            let graph = match labelling {
                0 => dfg.clone(),
                seed => relabel(&dfg, seed as u64),
            };
            assert_eq!(graph.kind_histogram(), dfg.kind_histogram());
            assert_eq!(graph.num_deps(), dfg.num_deps());
            match panorama.compile(&graph, &cgra, &mapper) {
                Ok(report) => {
                    print!("{:>7}", report.mapping().ii());
                    sums[labelling] += report.mapping().ii();
                }
                Err(_) => {
                    print!("{:>7}", "-");
                    unmapped[labelling] += 1;
                }
            }
        }
        println!();
    }
    for (row, values) in [("ii_sum", sums), ("unmapped", unmapped)] {
        print!("{row:<18}");
        for value in values {
            print!("{value:>7}");
        }
        println!();
    }
}
