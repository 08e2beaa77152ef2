//! The `panorama bench` performance harness.
//!
//! Compiles the full 12-kernel suite on two architecture presets, twice:
//! once with the requested worker-thread count (all kernel × candidate
//! work shared on one [`BatchExecutor`] pool), once fully sequential
//! (`threads = 1` everywhere). It records per-kernel wall-clock and
//! achieved II for both phases, checks the two phases produced
//! bit-identical mappings (the portfolio's determinism guarantee, end to
//! end), and reports the suite-level speedup.
//!
//! With the SPR\* mapper the harness additionally runs a **delta-replay
//! scenario**: every suite kernel is perturbed by one extra op, the batch
//! phase replays the perturbed kernels through a [`WarmStartCache`] seeded
//! with the suite's winning mappings (modelling the serve daemon's warm
//! remap tier), while the sequential phase pays a full cold compile for
//! each. Every warm mapping is re-verified and cross-checked against the
//! cycle-accurate simulator.
//!
//! The report serialises to JSON (schema below) so a later run can be
//! gated against an earlier report and fail on II drift, per-kernel wall-clock ceiling
//! breaches, a suite speedup below 1.0, or a warm-start replay that never
//! hit the cache — see [`BenchReport::check_against_baseline`].
//!
//! ```json
//! {
//!   "schema": "panorama-bench-v1",
//!   "mapper": "SPR*",
//!   "threads": 4,
//!   "suite_wall_seconds": 14.9,
//!   "suite_wall_seconds_single": 24.6,
//!   "speedup": 1.65,
//!   "mrrg_cache": {"hits": 310, "misses": 22, "evictions": 0},
//!   "kernels": [
//!     {"kernel": "fir", "preset": "4x4", "ii": 3, "mii": 2,
//!      "wall_seconds": 0.04, "wall_seconds_single": 0.09,
//!      "speedup": 2.250, "identical": true}
//!   ],
//!   "warm_start": {
//!     "hits": 24, "misses": 0, "records": 48,
//!     "wall_seconds": 0.8, "wall_seconds_cold": 10.4,
//!     "replays": [
//!       {"kernel": "fir", "preset": "4x4", "ii": 3, "ii_cold": 3,
//!        "verified": true, "wall_seconds": 0.01, "wall_seconds_cold": 0.1}
//!     ]
//!   }
//! }
//! ```

use panorama::{
    BackendId, BatchExecutor, CompileContext, CompileMode, CompileReport, Panorama, PanoramaConfig,
};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, Dep, Dfg, DfgBuilder, KernelId, KernelScale, OpKind};
use panorama_mapper::{LowerLevelMapper, SprConfig, SprMapper, WarmStartCache};
use panorama_trace::json::{self, Json};
use panorama_trace::{phase_totals, RecordingSink, TraceEvent, TraceReport, Tracer};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Harness options.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Worker threads for the parallel phase (`0` = one per core).
    pub threads: usize,
    /// Lower-level mapper: Ultra-Fast (fast enough for CI smoke runs),
    /// SPR\* with a per-mapping time budget (representative, slower), or
    /// SAT (4×4/tiny preset only — the CNF encoding grows too fast for
    /// scaled kernels on the 8×8).
    pub mapper: BackendId,
    /// Per-SPR-mapping wall-clock budget.
    pub spr_budget: Duration,
    /// Trace the parallel-phase compiles: per-kernel phase summaries land
    /// in [`KernelResult::trace_phases`] and the suite timeline is
    /// exportable via [`BenchReport::to_trace_report`].
    pub trace: bool,
    /// Run the pre-mapping DFG optimizer before every compile. Off by
    /// default so checked-in baselines keep their exact IIs.
    pub analyze: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            threads: 0,
            mapper: BackendId::UltraFast,
            spr_budget: Duration::from_secs(60),
            trace: false,
            analyze: false,
        }
    }
}

/// One kernel × preset measurement.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name (paper Table 1 naming).
    pub kernel: String,
    /// Architecture preset (`"4x4"` / `"8x8"`).
    pub preset: String,
    /// Achieved initiation interval (identical across phases by
    /// construction; checked).
    pub ii: usize,
    /// Static minimum II.
    pub mii: usize,
    /// Wall-clock of the parallel-phase compile, seconds.
    pub wall_seconds: f64,
    /// Wall-clock of the sequential-phase compile, seconds.
    pub wall_seconds_single: f64,
    /// `wall_seconds_single / wall_seconds` for this kernel alone.
    pub speedup: f64,
    /// Whether the two phases produced bit-identical mappings and plans.
    pub identical: bool,
    /// Per-phase `(phase, event count, total ns)` rows from tracing the
    /// parallel-phase compile; empty when tracing was off.
    pub trace_phases: Vec<(String, u64, u64)>,
}

/// One perturbed-kernel replay: warm (cache-seeded direct remap) versus
/// cold (full pipeline compile from scratch).
#[derive(Debug, Clone)]
pub struct ReplayRow {
    /// Kernel name the perturbed graph was derived from.
    pub kernel: String,
    /// Architecture preset.
    pub preset: String,
    /// II achieved by the warm remap.
    pub ii: usize,
    /// II achieved by the cold full compile.
    pub ii_cold: usize,
    /// Whether the warm mapping passed [`panorama_mapper::Mapping::verify`]
    /// *and* the cycle-accurate simulator cross-check.
    pub verified: bool,
    /// Warm remap wall-clock, seconds.
    pub wall_seconds: f64,
    /// Cold full-compile wall-clock, seconds.
    pub wall_seconds_cold: f64,
}

/// Aggregate results of the delta-replay scenario (SPR\* runs only).
#[derive(Debug, Clone)]
pub struct WarmReplay {
    /// Warm-cache lookup hits across the replay.
    pub hits: u64,
    /// Warm-cache lookup misses across the replay.
    pub misses: u64,
    /// Mappings recorded into the cache (suite winners + replay results).
    pub records: u64,
    /// Total warm-replay wall-clock, seconds (part of the batch phase).
    pub wall_seconds: f64,
    /// Total cold-replay wall-clock, seconds (part of the sequential
    /// phase).
    pub wall_seconds_cold: f64,
    /// Per-kernel replay rows, in suite order.
    pub replays: Vec<ReplayRow>,
}

/// The full suite measurement.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Mapper driven by the harness.
    pub mapper: &'static str,
    /// Effective worker-thread count of the parallel phase.
    pub threads: usize,
    /// Parallel-phase suite wall-clock (batch compiles + warm replay),
    /// seconds.
    pub suite_wall_seconds: f64,
    /// Sequential-phase suite wall-clock (cold compiles + cold replay),
    /// seconds.
    pub suite_wall_seconds_single: f64,
    /// `suite_wall_seconds_single / suite_wall_seconds`.
    pub speedup: f64,
    /// MRRG cache hits across both phases (the per-preset caches are
    /// shared, so this covers every compile of the run).
    pub mrrg_hits: u64,
    /// MRRG cache misses across both phases.
    pub mrrg_misses: u64,
    /// MRRG cache evictions across both phases.
    pub mrrg_evictions: u64,
    /// Per-kernel rows, in suite order.
    pub kernels: Vec<KernelResult>,
    /// Delta-replay results; `None` unless the suite ran SPR\*.
    pub warm: Option<WarmReplay>,
}

/// The two architecture presets the suite runs on: a 4×4 with tiny
/// kernels and the scaled 8×8 with ~1/3-paper-size kernels. The SAT
/// mapper runs the 4×4/tiny preset only (scaled kernels exceed its CNF
/// budget by design).
fn presets(mapper: BackendId) -> Vec<(&'static str, CgraConfig, KernelScale)> {
    let mut presets = vec![("4x4", CgraConfig::small_4x4(), KernelScale::Tiny)];
    if mapper != BackendId::Sat {
        presets.push(("8x8", CgraConfig::scaled_8x8(), KernelScale::Scaled));
    }
    presets
}

fn spr_config(options: &BenchOptions) -> SprConfig {
    SprConfig {
        time_budget: Some(options.spr_budget),
        ..SprConfig::default()
    }
}

/// The suite's mapper instance, built once and shared by every job (batch
/// compiles borrow it for the executor scope's lifetime).
fn suite_mapper(options: &BenchOptions) -> Box<dyn LowerLevelMapper> {
    match options.mapper {
        BackendId::Spr => Box::new(SprMapper::new(spr_config(options))),
        other => other.mapper(),
    }
}

/// One finished compile: the report, its wall-clock seconds and the
/// per-phase trace summaries (`(phase, count, total_ns)`, empty untraced).
type JobResult = (CompileReport, f64, Vec<(String, u64, u64)>);

fn compile_job<'env>(
    dfg: &Dfg,
    cgra: &Cgra,
    threads: usize,
    options: &BenchOptions,
    trace: bool,
    mapper: &'env dyn LowerLevelMapper,
    exec: Option<&BatchExecutor<'env>>,
) -> Result<JobResult, String> {
    let compiler = Panorama::new(PanoramaConfig {
        threads,
        analyze: options.analyze.then(panorama::AnalyzeConfig::default),
        ..PanoramaConfig::default()
    });
    let sink = trace.then(RecordingSink::shared);
    let tracer = sink.as_ref().map(|sink| Tracer::new(sink.clone()));
    let ctx = CompileContext {
        tracer: tracer.as_ref(),
        cancel: None,
        executor: exec,
    };
    let t = Instant::now();
    let report = compiler.compile_with(dfg, cgra, &[mapper], CompileMode::Guided, &ctx);
    let wall = t.elapsed().as_secs_f64();
    let phases = sink.map_or_else(Vec::new, |sink| {
        phase_totals(&sink.take())
            .into_iter()
            .map(|(phase, count, total_ns)| (phase.to_string(), count, total_ns))
            .collect()
    });
    report
        .map(|r| (r, wall, phases))
        .map_err(|e| format!("{} on {}: {e}", dfg.name(), cgra.config().rows))
}

/// Rebuilds `dfg` with one extra `Add` consuming the first op's value —
/// the smallest structural delta the warm-start cache must tolerate
/// (kinds-length diff 1 + two added edges, well under the edit-distance
/// threshold for every suite kernel).
fn perturb(dfg: &Dfg) -> Dfg {
    let mut b = DfgBuilder::new(format!("{}_delta", dfg.name()));
    let copies: Vec<panorama_dfg::OpId> = dfg
        .op_ids()
        .map(|op| b.push_op(dfg.op(op).clone()))
        .collect();
    for e in dfg.deps() {
        let (src, dst) = (copies[e.src.index()], copies[e.dst.index()]);
        match *e.weight {
            Dep::Data => b.data(src, dst),
            Dep::Back { distance } => b.back(src, dst, distance),
        }
    }
    let extra = b.op(OpKind::Add, "warm_delta");
    b.data(copies[0], extra);
    b.data(copies[0], extra);
    b.build().expect("perturbed suite kernel stays well-formed")
}

/// Two compile reports describe bit-identical results: same II and
/// per-op placement/schedule, and the same winning partition labels.
fn reports_identical(a: &CompileReport, b: &CompileReport, dfg_ops: usize) -> bool {
    let (ma, mb) = (a.mapping(), b.mapping());
    if ma.ii() != mb.ii() {
        return false;
    }
    // With the analyzer on, both phases mapped the (deterministically)
    // optimized graph — compare over its op count, not the input's.
    let dfg_ops = a.analyzed_dfg().map_or(dfg_ops, panorama_dfg::Dfg::num_ops);
    if a.analyzed_dfg().map(panorama_dfg::Dfg::num_ops)
        != b.analyzed_dfg().map(panorama_dfg::Dfg::num_ops)
    {
        return false;
    }
    let ops_match = (0..dfg_ops).all(|i| {
        let op = panorama_dfg::OpId::from_index(i);
        ma.pe_of(op) == mb.pe_of(op) && ma.time_of(op) == mb.time_of(op)
    });
    let plans_match = match (a.plan(), b.plan()) {
        (Some(pa), Some(pb)) => pa.partition().labels() == pb.partition().labels(),
        (None, None) => true,
        _ => false,
    };
    ops_match && plans_match
}

/// Runs the suite. See the module docs for what is measured.
///
/// # Errors
///
/// Returns a human-readable message when any kernel fails to compile in
/// either phase, or when a warm replay fails to map.
pub fn run(options: &BenchOptions) -> Result<BenchReport, String> {
    let presets = presets(options.mapper);
    let jobs: Vec<(KernelId, usize)> = KernelId::ALL
        .iter()
        .flat_map(|&k| (0..presets.len()).map(move |p| (k, p)))
        .collect();
    let dfgs: Vec<Dfg> = jobs
        .iter()
        .map(|&(k, p)| kernels::generate(k, presets[p].2))
        .collect();
    let cgras: Vec<Cgra> = presets
        .iter()
        .map(|(_, config, _)| Cgra::new(config.clone()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let threads = panorama::effective_threads(options.threads, jobs.len());
    let mapper = suite_mapper(options);
    let mapper = &*mapper;

    // Delta-replay scenario (SPR* only): perturbed copies of every suite
    // kernel, remapped warm in the batch phase and cold in the sequential
    // phase. The warm mapper's cache is seeded from the batch winners.
    let replay: Option<Vec<Dfg>> =
        (options.mapper == BackendId::Spr).then(|| dfgs.iter().map(perturb).collect());
    let warm_cache = WarmStartCache::default();
    let warm_mapper = SprMapper::new(spr_config(options)).with_warm_cache(warm_cache.clone());

    // batch phase: every kernel's candidate portfolio shares ONE executor
    // pool, so the suite is never oversubscribed however many kernels and
    // candidates are in flight
    let t_par = Instant::now();
    let parallel: Vec<Result<JobResult, String>> = BatchExecutor::scope(threads, |exec| {
        exec.run_batch(jobs.len(), |exec, j| {
            let (_, p) = jobs[j];
            compile_job(
                &dfgs[j],
                &cgras[p],
                threads,
                options,
                options.trace,
                mapper,
                Some(exec),
            )
        })
    });
    // Warm replay, still on the batch phase's clock: record the winners,
    // then remap each perturbed kernel directly (no divide phase — this
    // models the serve daemon's warm remap tier). Sequential on purpose:
    // cache contents and hit counters stay deterministic at any thread
    // count.
    let mut warm_results: Vec<(panorama_mapper::Mapping, f64)> = Vec::new();
    if let Some(deltas) = &replay {
        for (j, result) in parallel.iter().enumerate() {
            if let Ok((report, _, _)) = result {
                let (_, p) = jobs[j];
                let recorded = report.analyzed_dfg().unwrap_or(&dfgs[j]);
                warm_cache.record(recorded, &cgras[p], report.mapping());
            }
        }
        for (j, delta) in deltas.iter().enumerate() {
            let (kernel, p) = jobs[j];
            let t = Instant::now();
            let mapping = warm_mapper
                .map(delta, &cgras[p], None)
                .map_err(|e| format!("warm replay of {kernel}/{}: {e}", presets[p].0))?;
            warm_results.push((mapping, t.elapsed().as_secs_f64()));
        }
    }
    let suite_wall_seconds = t_par.elapsed().as_secs_f64();

    // sequential phase: one job at a time, portfolio pinned to one thread,
    // never traced — its wall-clock feeds the speedup denominator; the
    // cold replay pays a full from-scratch pipeline compile per delta
    let t_seq = Instant::now();
    let sequential: Vec<Result<JobResult, String>> = jobs
        .iter()
        .enumerate()
        .map(|(j, &(_, p))| compile_job(&dfgs[j], &cgras[p], 1, options, false, mapper, None))
        .collect();
    let mut cold_results: Vec<(CompileReport, f64)> = Vec::new();
    if let Some(deltas) = &replay {
        for (j, delta) in deltas.iter().enumerate() {
            let (kernel, p) = jobs[j];
            let (report, wall, _) = compile_job(delta, &cgras[p], 1, options, false, mapper, None)
                .map_err(|e| format!("cold replay of {kernel}/{}: {e}", presets[p].0))?;
            cold_results.push((report, wall));
        }
    }
    let suite_wall_seconds_single = t_seq.elapsed().as_secs_f64();

    let mut rows = Vec::with_capacity(jobs.len());
    for (j, &(kernel, p)) in jobs.iter().enumerate() {
        let (par_report, par_wall, trace_phases) = parallel[j].clone()?;
        let (seq_report, seq_wall, _) = sequential[j].clone()?;
        rows.push(KernelResult {
            kernel: kernel.to_string(),
            preset: presets[p].0.to_string(),
            ii: par_report.mapping().ii(),
            mii: par_report.mapping().mii(),
            wall_seconds: par_wall,
            wall_seconds_single: seq_wall,
            speedup: if par_wall > 0.0 {
                seq_wall / par_wall
            } else {
                0.0
            },
            identical: reports_identical(&par_report, &seq_report, dfgs[j].num_ops()),
            trace_phases,
        });
    }

    // off the clock: verify every warm mapping independently and against
    // the cycle-accurate simulator (4 pipelined iterations)
    let warm = match &replay {
        None => None,
        Some(deltas) => {
            let mut replays = Vec::with_capacity(deltas.len());
            let (mut warm_wall, mut cold_wall) = (0.0, 0.0);
            for (j, delta) in deltas.iter().enumerate() {
                let (kernel, p) = jobs[j];
                let (mapping, wall) = &warm_results[j];
                let (cold_report, cold_sec) = &cold_results[j];
                let verified = mapping.verify(delta, &cgras[p]).is_ok()
                    && panorama::sim::simulate(delta, &cgras[p], mapping, 4).is_ok();
                warm_wall += wall;
                cold_wall += cold_sec;
                replays.push(ReplayRow {
                    kernel: kernel.to_string(),
                    preset: presets[p].0.to_string(),
                    ii: mapping.ii(),
                    ii_cold: cold_report.mapping().ii(),
                    verified,
                    wall_seconds: *wall,
                    wall_seconds_cold: *cold_sec,
                });
            }
            Some(WarmReplay {
                hits: warm_cache.hits(),
                misses: warm_cache.misses(),
                records: warm_cache.records(),
                wall_seconds: warm_wall,
                wall_seconds_cold: cold_wall,
                replays,
            })
        }
    };

    let (mut mrrg_hits, mut mrrg_misses, mut mrrg_evictions) = (0, 0, 0);
    for cgra in &cgras {
        let c = cgra.mrrg_cache();
        mrrg_hits += c.hits();
        mrrg_misses += c.misses();
        mrrg_evictions += c.evictions();
    }

    let speedup = if suite_wall_seconds > 0.0 {
        suite_wall_seconds_single / suite_wall_seconds
    } else {
        0.0
    };
    Ok(BenchReport {
        mapper: mapper.name(),
        threads,
        suite_wall_seconds,
        suite_wall_seconds_single,
        speedup,
        mrrg_hits,
        mrrg_misses,
        mrrg_evictions,
        kernels: rows,
        warm,
    })
}

impl BenchReport {
    /// Serialises the report with stable field order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"panorama-bench-v1\",\n");
        let _ = writeln!(out, "  \"mapper\": \"{}\",", json::escape(self.mapper));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(
            out,
            "  \"suite_wall_seconds\": {:.6},",
            self.suite_wall_seconds
        );
        let _ = writeln!(
            out,
            "  \"suite_wall_seconds_single\": {:.6},",
            self.suite_wall_seconds_single
        );
        let _ = writeln!(out, "  \"speedup\": {:.3},", self.speedup);
        let _ = writeln!(
            out,
            "  \"mrrg_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}},",
            self.mrrg_hits, self.mrrg_misses, self.mrrg_evictions
        );
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"kernel\": \"{}\", \"preset\": \"{}\", \"ii\": {}, \"mii\": {}, \
                 \"wall_seconds\": {:.6}, \"wall_seconds_single\": {:.6}, \"speedup\": {:.3}, \
                 \"identical\": {}",
                json::escape(&k.kernel),
                json::escape(&k.preset),
                k.ii,
                k.mii,
                k.wall_seconds,
                k.wall_seconds_single,
                k.speedup,
                k.identical
            );
            if !k.trace_phases.is_empty() {
                out.push_str(", \"trace_phases\": {");
                for (j, (phase, count, total_ns)) in k.trace_phases.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "\"{}\": {{\"count\": {count}, \"total_ns\": {total_ns}}}",
                        json::escape(phase)
                    );
                }
                out.push('}');
            }
            out.push('}');
            out.push_str(if i + 1 < self.kernels.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str(if self.warm.is_some() {
            "  ],\n"
        } else {
            "  ]\n"
        });
        if let Some(w) = &self.warm {
            out.push_str("  \"warm_start\": {\n");
            let _ = writeln!(
                out,
                "    \"hits\": {}, \"misses\": {}, \"records\": {},",
                w.hits, w.misses, w.records
            );
            let _ = writeln!(
                out,
                "    \"wall_seconds\": {:.6}, \"wall_seconds_cold\": {:.6},",
                w.wall_seconds, w.wall_seconds_cold
            );
            out.push_str("    \"replays\": [\n");
            for (i, r) in w.replays.iter().enumerate() {
                let _ = write!(
                    out,
                    "      {{\"kernel\": \"{}\", \"preset\": \"{}\", \"ii\": {}, \
                     \"ii_cold\": {}, \"verified\": {}, \"wall_seconds\": {:.6}, \
                     \"wall_seconds_cold\": {:.6}}}",
                    json::escape(&r.kernel),
                    json::escape(&r.preset),
                    r.ii,
                    r.ii_cold,
                    r.verified,
                    r.wall_seconds,
                    r.wall_seconds_cold
                );
                out.push_str(if i + 1 < w.replays.len() { ",\n" } else { "\n" });
            }
            out.push_str("    ]\n  }\n");
        }
        out.push_str("}\n");
        out
    }

    /// Deterministic projection of the report: every wall-clock field is
    /// dropped, so two runs of the same suite — at *any* thread count —
    /// must produce byte-identical output. CI runs the bench twice and
    /// `cmp`s the stable files to enforce end-to-end determinism.
    pub fn to_stable_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"panorama-bench-stable-v1\",\n");
        let _ = writeln!(out, "  \"mapper\": \"{}\",", json::escape(self.mapper));
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"kernel\": \"{}\", \"preset\": \"{}\", \"ii\": {}, \"mii\": {}, \
                 \"identical\": {}}}",
                json::escape(&k.kernel),
                json::escape(&k.preset),
                k.ii,
                k.mii,
                k.identical
            );
            out.push_str(if i + 1 < self.kernels.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str(if self.warm.is_some() {
            "  ],\n"
        } else {
            "  ]\n"
        });
        if let Some(w) = &self.warm {
            out.push_str("  \"warm_start\": {\n");
            let _ = writeln!(
                out,
                "    \"hits\": {}, \"misses\": {}, \"records\": {},",
                w.hits, w.misses, w.records
            );
            out.push_str("    \"replays\": [\n");
            for (i, r) in w.replays.iter().enumerate() {
                let _ = write!(
                    out,
                    "      {{\"kernel\": \"{}\", \"preset\": \"{}\", \"ii\": {}, \
                     \"ii_cold\": {}, \"verified\": {}}}",
                    json::escape(&r.kernel),
                    json::escape(&r.preset),
                    r.ii,
                    r.ii_cold,
                    r.verified
                );
                out.push_str(if i + 1 < w.replays.len() { ",\n" } else { "\n" });
            }
            out.push_str("    ]\n  }\n");
        }
        out.push_str("}\n");
        out
    }

    /// Packages the suite as a `panorama-trace-v1` report: one top-level
    /// `kernel` span per suite job, laid end-to-end from the sequential
    /// phase's wall-clocks (that phase genuinely runs jobs back-to-back,
    /// so the timeline is real). The `candidate` field carries the job's
    /// index into [`BenchReport::kernels`].
    pub fn to_trace_report(&self) -> TraceReport {
        let mut events = Vec::with_capacity(self.kernels.len());
        let mut offset = 0u64;
        for (i, k) in self.kernels.iter().enumerate() {
            let ns = (k.wall_seconds_single * 1e9) as u64;
            events.push(TraceEvent {
                phase: "kernel",
                candidate: i as u32,
                seq: 0,
                start_ns: offset,
                end_ns: offset + ns,
                counters: vec![
                    ("ii", k.ii as i64),
                    ("mii", k.mii as i64),
                    ("identical", i64::from(k.identical)),
                ],
                stable: true,
            });
            offset += ns;
        }
        TraceReport {
            kernel: "suite".into(),
            arch: "4x4+8x8".into(),
            mapper: self.mapper.into(),
            threads: self.threads,
            wall_ns: offset,
            events,
        }
    }

    /// Whether every kernel's parallel and sequential compiles agreed.
    pub fn all_identical(&self) -> bool {
        self.kernels.iter().all(|k| k.identical)
    }

    /// CI gate: compares this (fresh) report against a checked-in baseline
    /// JSON. Fails on
    ///
    /// * II drift — any kernel whose achieved II differs from the
    ///   baseline's;
    /// * missing kernels — a kernel present in the baseline but not here;
    /// * wall-clock ceiling — any kernel in *either* phase slower than
    ///   `max_kernel_seconds * max(ceiling_scale, 1.0)`;
    /// * a parallel/sequential mismatch (`identical == false`);
    /// * suite speedup below 1.0 — the batch + warm phase losing outright
    ///   to the sequential baseline;
    /// * a delta-replay that never hit the warm cache, or whose warm
    ///   mapping failed verification.
    ///
    /// Wall-clock values in the baseline are informational only — machines
    /// differ; the ceiling guards against pathological regressions, and
    /// `ceiling_scale` (normally [`calibration_scale`]) widens it on
    /// machines slower than the one the ceiling was tuned on. The II-drift,
    /// determinism, speedup and warm-start checks are never relaxed.
    ///
    /// # Errors
    ///
    /// Returns every violation, one per line.
    pub fn check_against_baseline(
        &self,
        baseline_json: &str,
        max_kernel_seconds: f64,
        ceiling_scale: f64,
    ) -> Result<(), String> {
        let max_kernel_seconds = max_kernel_seconds * ceiling_scale.max(1.0);
        let baseline = json::parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
        if baseline.get("schema").and_then(Json::as_str) != Some("panorama-bench-v1") {
            return Err("baseline: unknown or missing schema".into());
        }
        let mut violations = Vec::new();
        let rows = baseline
            .get("kernels")
            .and_then(Json::as_arr)
            .ok_or("baseline: missing kernels array")?;
        for row in rows {
            let kernel = row.get("kernel").and_then(Json::as_str).unwrap_or("?");
            let preset = row.get("preset").and_then(Json::as_str).unwrap_or("?");
            let baseline_ii = row.get("ii").and_then(Json::as_f64).unwrap_or(-1.0) as i64;
            match self
                .kernels
                .iter()
                .find(|k| k.kernel == kernel && k.preset == preset)
            {
                None => violations.push(format!("{kernel}/{preset}: missing from fresh run")),
                Some(fresh) => {
                    if fresh.ii as i64 != baseline_ii {
                        violations.push(format!(
                            "{kernel}/{preset}: II drift (baseline {baseline_ii}, got {})",
                            fresh.ii
                        ));
                    }
                }
            }
        }
        for k in &self.kernels {
            let worst = k.wall_seconds.max(k.wall_seconds_single);
            if worst > max_kernel_seconds {
                violations.push(format!(
                    "{}/{}: wall-clock {worst:.3}s exceeds ceiling {max_kernel_seconds:.3}s",
                    k.kernel, k.preset
                ));
            }
            if !k.identical {
                violations.push(format!(
                    "{}/{}: parallel and sequential compiles disagree",
                    k.kernel, k.preset
                ));
            }
        }
        if self.speedup < 1.0 {
            violations.push(format!(
                "suite speedup {:.3} < 1.0: the batch + warm phase lost to the sequential baseline",
                self.speedup
            ));
        }
        if let Some(w) = &self.warm {
            if w.hits == 0 {
                violations.push("warm-start replay never hit the cache".into());
            }
            for r in &w.replays {
                if !r.verified {
                    violations.push(format!(
                        "{}/{}: warm-start remapping failed verification",
                        r.kernel, r.preset
                    ));
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("\n"))
        }
    }
}

/// Single-core wall-clock of the calibration workload on the reference
/// machine the checked-in wall-clock ceilings were tuned on, seconds.
const PROBE_REF_SECONDS: f64 = 0.055;

/// Measures how much slower this machine is than the ceiling reference:
/// times a fixed integer workload and returns `elapsed / reference`,
/// clamped to `>= 1.0` (faster machines keep the strict ceiling; slower
/// runners widen it proportionally). Costs a few tens of milliseconds.
pub fn calibration_scale() -> f64 {
    // LCG churn: pure ALU work, no memory pressure, so the ratio tracks
    // scalar CPU speed — the resource the compile pipeline is bound by.
    let t = Instant::now();
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..40_000_000u64 {
        acc = acc
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i | 1);
    }
    std::hint::black_box(acc);
    (t.elapsed().as_secs_f64() / PROBE_REF_SECONDS).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        BenchReport {
            mapper: "Ultra-Fast",
            threads: 4,
            suite_wall_seconds: 1.0,
            suite_wall_seconds_single: 2.5,
            speedup: 2.5,
            mrrg_hits: 10,
            mrrg_misses: 2,
            mrrg_evictions: 0,
            kernels: vec![KernelResult {
                kernel: "fir".into(),
                preset: "4x4".into(),
                ii: 3,
                mii: 2,
                wall_seconds: 0.1,
                wall_seconds_single: 0.2,
                speedup: 2.0,
                identical: true,
                trace_phases: vec![("scatter".into(), 3, 1_500_000)],
            }],
            warm: None,
        }
    }

    fn warm_report() -> BenchReport {
        BenchReport {
            warm: Some(WarmReplay {
                hits: 1,
                misses: 0,
                records: 2,
                wall_seconds: 0.01,
                wall_seconds_cold: 0.2,
                replays: vec![ReplayRow {
                    kernel: "fir".into(),
                    preset: "4x4".into(),
                    ii: 3,
                    ii_cold: 3,
                    verified: true,
                    wall_seconds: 0.01,
                    wall_seconds_cold: 0.2,
                }],
            }),
            ..tiny_report()
        }
    }

    #[test]
    fn json_round_trip_parses() {
        let text = tiny_report().to_json();
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("panorama-bench-v1")
        );
        let rows = v.get("kernels").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("ii").and_then(Json::as_f64), Some(3.0));
        assert_eq!(rows[0].get("speedup").and_then(Json::as_f64), Some(2.0));
        let mrrg = v.get("mrrg_cache").unwrap();
        assert_eq!(mrrg.get("hits").and_then(Json::as_f64), Some(10.0));
    }

    #[test]
    fn json_emits_warm_start_section() {
        let v = json::parse(&warm_report().to_json()).unwrap();
        let w = v.get("warm_start").unwrap();
        assert_eq!(w.get("hits").and_then(Json::as_f64), Some(1.0));
        let rows = w.get("replays").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("ii_cold").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn stable_json_drops_wall_clocks() {
        let text = warm_report().to_stable_json();
        assert!(!text.contains("wall_seconds"), "{text}");
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("panorama-bench-stable-v1")
        );
        let rows = v.get("kernels").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("ii").and_then(Json::as_f64), Some(3.0));
        let w = v.get("warm_start").unwrap();
        assert_eq!(w.get("hits").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn baseline_check_flags_drift_and_ceiling() {
        let report = tiny_report();
        // identical baseline: clean
        report
            .check_against_baseline(&report.to_json(), 10.0, 1.0)
            .unwrap();
        // II drift
        let drifted = report.to_json().replace("\"ii\": 3", "\"ii\": 2");
        let err = report
            .check_against_baseline(&drifted, 10.0, 1.0)
            .unwrap_err();
        assert!(err.contains("II drift"), "{err}");
        // ceiling breach
        let err = report
            .check_against_baseline(&report.to_json(), 0.05, 1.0)
            .unwrap_err();
        assert!(err.contains("ceiling"), "{err}");
    }

    #[test]
    fn baseline_check_fails_on_speedup_below_one() {
        let mut report = tiny_report();
        let baseline = report.to_json();
        report.speedup = 0.875;
        let err = report
            .check_against_baseline(&baseline, 10.0, 1.0)
            .unwrap_err();
        assert!(err.contains("speedup 0.875 < 1.0"), "{err}");
    }

    #[test]
    fn baseline_check_fails_on_cold_warm_cache_or_bad_replay() {
        let mut report = warm_report();
        let baseline = report.to_json();
        report.check_against_baseline(&baseline, 10.0, 1.0).unwrap();
        report.warm.as_mut().unwrap().hits = 0;
        let err = report
            .check_against_baseline(&baseline, 10.0, 1.0)
            .unwrap_err();
        assert!(err.contains("never hit the cache"), "{err}");
        report.warm.as_mut().unwrap().hits = 1;
        report.warm.as_mut().unwrap().replays[0].verified = false;
        let err = report
            .check_against_baseline(&baseline, 10.0, 1.0)
            .unwrap_err();
        assert!(err.contains("failed verification"), "{err}");
    }

    #[test]
    fn ceiling_scale_widens_only_the_ceiling() {
        let report = tiny_report();
        // 0.05s ceiling breaches at scale 1, passes at scale 10
        assert!(report
            .check_against_baseline(&report.to_json(), 0.05, 1.0)
            .is_err());
        report
            .check_against_baseline(&report.to_json(), 0.05, 10.0)
            .unwrap();
        // scale below 1 is clamped: still as strict as scale 1
        assert!(report
            .check_against_baseline(&report.to_json(), 0.05, 0.1)
            .is_err());
        // II drift is never forgiven by scaling
        let drifted = report.to_json().replace("\"ii\": 3", "\"ii\": 2");
        let err = report
            .check_against_baseline(&drifted, 10.0, 100.0)
            .unwrap_err();
        assert!(err.contains("II drift"), "{err}");
    }

    #[test]
    fn baseline_check_flags_missing_kernels() {
        let mut fresh = tiny_report();
        let baseline = fresh.to_json();
        fresh.kernels.clear();
        let err = fresh
            .check_against_baseline(&baseline, 10.0, 1.0)
            .unwrap_err();
        assert!(err.contains("missing from fresh run"), "{err}");
    }

    #[test]
    fn calibration_scale_is_at_least_one() {
        let scale = calibration_scale();
        assert!(scale >= 1.0, "{scale}");
        assert!(scale.is_finite());
    }

    #[test]
    fn perturb_adds_one_op_and_two_edges() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let delta = perturb(&dfg);
        assert_eq!(delta.num_ops(), dfg.num_ops() + 1);
        assert_eq!(delta.num_deps(), dfg.num_deps() + 2);
        assert_eq!(delta.num_back_edges(), dfg.num_back_edges());
        delta.validate().unwrap();
    }

    #[test]
    fn trace_export_lays_kernels_end_to_end() {
        let report = tiny_report();
        let trace = report.to_trace_report();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].phase, "kernel");
        assert_eq!(trace.events[0].candidate, 0);
        assert_eq!(trace.wall_ns, trace.events[0].end_ns);
        assert_eq!(trace.top_level_ns(), trace.wall_ns);
        // schema-valid JSON
        let v = json::parse(&trace.to_json()).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("panorama-trace-v1")
        );
    }

    #[test]
    fn json_emits_trace_phase_summaries() {
        let v = json::parse(&tiny_report().to_json()).unwrap();
        let rows = v.get("kernels").and_then(Json::as_arr).unwrap();
        let phases = rows[0].get("trace_phases").and_then(Json::as_obj).unwrap();
        assert_eq!(phases[0].0, "scatter");
        assert_eq!(phases[0].1.get("count").and_then(Json::as_f64), Some(3.0));
    }
}
