//! The `panorama bench` suite determinism check.
//!
//! Compiles the full 12-kernel suite on two architecture presets, twice:
//! once with the requested worker-thread count (all kernel × candidate
//! work shared on one [`BatchExecutor`] pool), once fully sequential
//! (`threads = 1` everywhere), and checks the two phases produced
//! bit-identical mappings — the portfolio's determinism guarantee, end to
//! end.
//!
//! [`BenchReport::check`] holds the invariant a run must satisfy, and
//! [`BenchReport::to_stable_json`] is the wall-clock-free
//! `panorama-bench-stable-v1` projection CI `cmp`s across thread counts.
//! The wall-clocks recorded here only feed the CLI's stdout table: time
//! and II are measured by `benchmark/run.sh`, one effect per number.

use panorama::{
    BackendId, BatchExecutor, CompileContext, CompileMode, CompileReport, Panorama, PanoramaConfig,
};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, Dfg, KernelId, KernelScale};
use panorama_mapper::{LowerLevelMapper, SprConfig, SprMapper};
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

/// The full suite measurement.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Mapper driven by the harness.
    pub mapper: &'static str,
    /// Effective worker-thread count of the parallel phase.
    pub threads: usize,
    /// Batch-phase wall-clock of the suite compiles, seconds.
    pub suite_wall_seconds: f64,
    /// Sequential-phase wall-clock of the suite compiles, seconds.
    pub suite_wall_seconds_single: f64,
    /// Per-kernel rows, in suite order.
    pub kernels: Vec<KernelResult>,
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

/// The suite's mapper instance, built once and shared by every job (batch
/// compiles borrow it for the executor scope's lifetime).
fn suite_mapper(options: &BenchOptions) -> Box<dyn LowerLevelMapper> {
    match options.mapper {
        BackendId::Spr => Box::new(SprMapper::new(SprConfig {
            time_budget: Some(options.spr_budget),
            ..SprConfig::default()
        })),
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
/// either phase.
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
    // sequential phase: one job at a time, portfolio pinned to one thread
    let t_seq = Instant::now();
    let sequential: Vec<Result<JobResult, String>> = jobs
        .iter()
        .enumerate()
        .map(|(j, &(_, p))| compile_job(&dfgs[j], &cgras[p], 1, options, mapper, None))
        .collect();
    let suite_wall_seconds_single = t_seq.elapsed().as_secs_f64();
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

    Ok(BenchReport {
        mapper: mapper.name(),
        threads,
        suite_wall_seconds,
        suite_wall_seconds_single,
        kernels: rows,
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
        w.finish()
    }

    /// The invariant every run must satisfy, whatever the host: each
    /// kernel's batch and sequential compiles are bit-identical.
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

    fn spr_report() -> BenchReport {
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
        }
    }

    #[test]
    fn stable_json_drops_wall_clocks() {
        let text = spr_report().to_stable_json();
        assert!(!text.contains("wall_seconds"), "{text}");
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("schema").and_then(json::Json::as_str),
            Some("panorama-bench-stable-v1")
        );
        let rows = v.get("kernels").and_then(json::Json::as_arr).unwrap();
        assert_eq!(rows[0].get("ii").and_then(json::Json::as_f64), Some(3.0));
        assert!(v.get("warm_start").is_none(), "{text}");
    }

    #[test]
    fn check_names_the_row_of_each_broken_invariant() {
        spr_report().check().unwrap();
        let mut report = spr_report();
        report.kernels[0].identical = false;
        assert_eq!(
            report.check().unwrap_err(),
            "fir/4x4: parallel and sequential compiles disagree"
        );
    }
}
