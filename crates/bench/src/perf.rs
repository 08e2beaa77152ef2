//! The `panorama bench` suite determinism check.
//!
//! Compiles the full 12-kernel suite on two architecture presets, twice:
//! once with the requested worker-thread count (all kernel × candidate
//! work shared on one [`BatchExecutor`] pool), once fully sequential
//! (`threads = 1` everywhere), and checks the two phases produced
//! bit-identical mappings — the portfolio's determinism guarantee, end to
//! end.
//!
//! With the SPR\* mapper it additionally runs a **delta-replay scenario**:
//! every suite kernel is perturbed by one extra op, the batch phase remaps
//! the perturbed kernels through a [`WarmStartCache`] seeded with the
//! suite's winning mappings (modelling the serve daemon's warm remap
//! tier), while the sequential phase pays a full cold compile for each.
//! Every warm mapping is re-verified and cross-checked against the
//! cycle-accurate simulator.
//!
//! [`BenchReport::check`] holds the three invariants a run must satisfy,
//! and [`BenchReport::to_stable_json`] is the wall-clock-free
//! `panorama-bench-stable-v1` projection CI `cmp`s across thread counts.
//! The wall-clocks recorded here only feed the CLI's stdout table: time
//! and II are measured by `benchmark/run.sh`, one effect per number.

use panorama::{
    BackendId, BatchExecutor, CompileContext, CompileMode, CompileReport, Panorama, PanoramaConfig,
};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, Dep, Dfg, DfgBuilder, KernelId, KernelScale, OpKind};
use panorama_mapper::{LowerLevelMapper, SprConfig, SprMapper, WarmStartCache};
use panorama_trace::json::Writer;
use panorama_trace::schema;
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
    /// Run the pre-mapping DFG optimizer before every compile.
    pub analyze: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            threads: 0,
            mapper: BackendId::UltraFast,
            spr_budget: Duration::from_secs(60),
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
    /// Whether the two phases produced bit-identical mappings and plans.
    pub identical: bool,
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
    /// Total warm-replay wall-clock, seconds.
    pub wall_seconds: f64,
    /// Total cold-replay wall-clock, seconds.
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
    /// Batch-phase wall-clock of the suite compiles (replays excluded),
    /// seconds.
    pub suite_wall_seconds: f64,
    /// Sequential-phase wall-clock of the suite compiles (replays
    /// excluded), seconds.
    pub suite_wall_seconds_single: f64,
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

/// One finished compile: the report and its wall-clock seconds.
type JobResult = (CompileReport, f64);

fn compile_job<'env>(
    dfg: &Dfg,
    cgra: &Cgra,
    threads: usize,
    options: &BenchOptions,
    mapper: &'env dyn LowerLevelMapper,
    exec: Option<&BatchExecutor<'env>>,
) -> Result<JobResult, String> {
    let compiler = Panorama::new(PanoramaConfig {
        threads,
        analyze: options.analyze.then(panorama::AnalyzeConfig::default),
        ..PanoramaConfig::default()
    });
    let ctx = CompileContext {
        executor: exec,
        ..CompileContext::default()
    };
    let t = Instant::now();
    let report = compiler.compile_with(dfg, cgra, &[mapper], CompileMode::Guided, &ctx);
    let wall = t.elapsed().as_secs_f64();
    report
        .map(|r| (r, wall))
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

/// Runs the suite. See the module docs for what is checked.
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
    // kernel, remapped warm after the batch phase and cold after the
    // sequential phase. The warm mapper's cache is seeded from the batch
    // winners.
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
            compile_job(&dfgs[j], &cgras[p], threads, options, mapper, Some(exec))
        })
    });
    let suite_wall_seconds = t_par.elapsed().as_secs_f64();
    // Warm replay: record the winners, then remap each perturbed kernel
    // directly (no divide phase — this models the serve daemon's warm
    // remap tier). Sequential on purpose: cache contents and hit counters
    // stay deterministic at any thread count.
    let mut warm_results: Vec<(panorama_mapper::Mapping, f64)> = Vec::new();
    if let Some(deltas) = &replay {
        for (j, result) in parallel.iter().enumerate() {
            if let Ok((report, _)) = result {
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

    // sequential phase: one job at a time, portfolio pinned to one thread;
    // the cold replay pays a full from-scratch pipeline compile per delta
    let t_seq = Instant::now();
    let sequential: Vec<Result<JobResult, String>> = jobs
        .iter()
        .enumerate()
        .map(|(j, &(_, p))| compile_job(&dfgs[j], &cgras[p], 1, options, mapper, None))
        .collect();
    let suite_wall_seconds_single = t_seq.elapsed().as_secs_f64();
    let mut cold_results: Vec<JobResult> = Vec::new();
    if let Some(deltas) = &replay {
        for (j, delta) in deltas.iter().enumerate() {
            let (kernel, p) = jobs[j];
            let cold = compile_job(delta, &cgras[p], 1, options, mapper, None)
                .map_err(|e| format!("cold replay of {kernel}/{}: {e}", presets[p].0))?;
            cold_results.push(cold);
        }
    }

    let mut rows = Vec::with_capacity(jobs.len());
    for (j, &(kernel, p)) in jobs.iter().enumerate() {
        let (par_report, par_wall) = parallel[j].clone()?;
        let (seq_report, seq_wall) = sequential[j].clone()?;
        rows.push(KernelResult {
            kernel: kernel.to_string(),
            preset: presets[p].0.to_string(),
            ii: par_report.mapping().ii(),
            mii: par_report.mapping().mii(),
            wall_seconds: par_wall,
            wall_seconds_single: seq_wall,
            identical: reports_identical(&par_report, &seq_report, dfgs[j].num_ops()),
        });
    }

    // verify every warm mapping independently and against the
    // cycle-accurate simulator (4 pipelined iterations)
    let warm = replay.map(|deltas| {
        let replays = deltas
            .iter()
            .enumerate()
            .map(|(j, delta)| {
                let (kernel, p) = jobs[j];
                let mapping = &warm_results[j].0;
                ReplayRow {
                    kernel: kernel.to_string(),
                    preset: presets[p].0.to_string(),
                    ii: mapping.ii(),
                    ii_cold: cold_results[j].0.mapping().ii(),
                    verified: mapping.verify(delta, &cgras[p]).is_ok()
                        && panorama::sim::simulate(delta, &cgras[p], mapping, 4).is_ok(),
                }
            })
            .collect();
        WarmReplay {
            hits: warm_cache.hits(),
            misses: warm_cache.misses(),
            records: warm_cache.records(),
            wall_seconds: warm_results.iter().map(|(_, wall)| wall).sum(),
            wall_seconds_cold: cold_results.iter().map(|(_, wall)| wall).sum(),
            replays,
        }
    });

    Ok(BenchReport {
        mapper: mapper.name(),
        threads,
        suite_wall_seconds,
        suite_wall_seconds_single,
        kernels: rows,
        warm,
    })
}

impl BenchReport {
    /// Deterministic projection of the report: every wall-clock field is
    /// dropped, so two runs of the same suite — at *any* thread count —
    /// must produce byte-identical output. CI runs the bench twice and
    /// `cmp`s the stable files to enforce end-to-end determinism.
    pub fn to_stable_json(&self) -> String {
        let mut w = Writer::new(&schema::BENCH_STABLE);
        w.key("mapper").str(self.mapper);
        w.key("kernels").open();
        for k in &self.kernels {
            w.open();
            w.key("kernel").str(&k.kernel);
            w.key("preset").str(&k.preset);
            w.key("ii").uint(k.ii);
            w.key("mii").uint(k.mii);
            w.key("identical").bool(k.identical);
            w.close();
        }
        w.close();
        if let Some(warm) = &self.warm {
            w.key("warm_start").open();
            w.key("hits").uint(warm.hits);
            w.key("misses").uint(warm.misses);
            w.key("records").uint(warm.records);
            w.key("replays").open();
            for r in &warm.replays {
                w.open();
                w.key("kernel").str(&r.kernel);
                w.key("preset").str(&r.preset);
                w.key("ii").uint(r.ii);
                w.key("ii_cold").uint(r.ii_cold);
                w.key("verified").bool(r.verified);
                w.close();
            }
            w.close();
            w.close();
        }
        w.finish()
    }

    /// The invariants every run must satisfy, whatever the host: each
    /// kernel's batch and sequential compiles are bit-identical, every warm
    /// replay passed verification and simulation, and the warm cache was
    /// hit at least once.
    ///
    /// # Errors
    ///
    /// Returns every violation, one per line, each naming its row.
    pub fn check(&self) -> Result<(), String> {
        let mut violations = Vec::new();
        for k in self.kernels.iter().filter(|k| !k.identical) {
            violations.push(format!(
                "{}/{}: parallel and sequential compiles disagree",
                k.kernel, k.preset
            ));
        }
        if let Some(w) = &self.warm {
            for r in w.replays.iter().filter(|r| !r.verified) {
                violations.push(format!(
                    "{}/{}: warm-start remapping failed verification",
                    r.kernel, r.preset
                ));
            }
            if w.hits == 0 {
                violations.push(format!(
                    "warm_start: none of the {} replays hit the cache",
                    w.replays.len()
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("\n"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_trace::json;

    fn warm_report() -> BenchReport {
        BenchReport {
            mapper: "SPR*",
            threads: 4,
            suite_wall_seconds: 1.0,
            suite_wall_seconds_single: 2.5,
            kernels: vec![KernelResult {
                kernel: "fir".into(),
                preset: "4x4".into(),
                ii: 3,
                mii: 2,
                wall_seconds: 0.1,
                wall_seconds_single: 0.2,
                identical: true,
            }],
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
                }],
            }),
        }
    }

    #[test]
    fn stable_json_drops_wall_clocks() {
        let text = warm_report().to_stable_json();
        assert!(!text.contains("wall_seconds"), "{text}");
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("schema").and_then(json::Json::as_str),
            Some("panorama-bench-stable-v1")
        );
        let rows = v.get("kernels").and_then(json::Json::as_arr).unwrap();
        assert_eq!(rows[0].get("ii").and_then(json::Json::as_f64), Some(3.0));
        let w = v.get("warm_start").unwrap();
        assert_eq!(w.get("hits").and_then(json::Json::as_f64), Some(1.0));
    }

    #[test]
    fn check_names_the_row_of_each_broken_invariant() {
        warm_report().check().unwrap();
        type Break = fn(&mut BenchReport);
        let rows: [(Break, &str); 3] = [
            (
                |r| r.kernels[0].identical = false,
                "fir/4x4: parallel and sequential compiles disagree",
            ),
            (
                |r| r.warm.as_mut().unwrap().replays[0].verified = false,
                "fir/4x4: warm-start remapping failed verification",
            ),
            (
                |r| r.warm.as_mut().unwrap().hits = 0,
                "warm_start: none of the 1 replays hit the cache",
            ),
        ];
        for (break_it, message) in rows {
            let mut report = warm_report();
            break_it(&mut report);
            assert_eq!(report.check().unwrap_err(), message);
        }
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
}
