//! The three in-process workloads: `suite8x8-spr`, `suite4x4-sat` and
//! `divide16x16-plan`.
//!
//! Untraced, a run is whole passes over the seeded inputs until the time
//! budget is spent (never fewer than two, so determinism is always
//! checked). Only the entry-point call is timed; every output is checked
//! outside the timed region. Traced, a run is one pass in which each
//! input goes through the entry point once (untraced, for comparison) and
//! once through the stage-by-stage replay of [`crate::staged`].

use crate::inputs::{self, slug, Input, PLAN_KERNELS};
use crate::probes;
use crate::report::{budget_spent, peak_rss_mb, Outcome};
use crate::span::Recorder;
use crate::staged::{self, Backend, Staged};
use crate::stats::{geomean, median};
use panorama::analyze::{optimize, AnalyzeConfig};
use panorama::arch::{Cgra, CgraConfig};
use panorama::dfg::{kernels, Dfg, KernelId, KernelScale};
use panorama::exec::{execute, ExecOptions};
use panorama::lint::{lint_partition, Diagnostics};
use panorama::mapper::{min_ii, restricted_min_ii, Configware, Mapping, SatMapper, SprMapper};
use panorama::sim::simulate;
use panorama::{Panorama, PanoramaConfig};
use std::time::Instant;

/// Extra set-up repetitions after every timed call. Spread over the whole
/// run they see the host's speed averaged over the same seconds the
/// timings do; taken in one burst at start-up (60 ms in all on the 4x4
/// suite) they saw one instant of it and `setup_s` moved by up to 38 %
/// between runs.
const SETUPS_PER_OP: usize = 8;

/// Loop iterations the structural simulator replays per mapping.
const SIM_ITERATIONS: usize = 8;

/// One of the in-process workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suite {
    backend: Backend,
}

impl Suite {
    /// `suite8x8-spr`.
    pub const SPR: Suite = Suite {
        backend: Backend::Spr,
    };
    /// `suite4x4-sat`.
    pub const SAT: Suite = Suite {
        backend: Backend::Sat,
    };
    /// `divide16x16-plan`.
    pub const PLAN: Suite = Suite {
        backend: Backend::PlanOnly,
    };

    fn cgra_config(self) -> CgraConfig {
        match self.backend {
            Backend::Spr => CgraConfig::scaled_8x8(),
            Backend::Sat => CgraConfig::small_4x4(),
            Backend::PlanOnly => CgraConfig::paper_16x16(),
        }
    }

    fn scale(self) -> KernelScale {
        match self.backend {
            Backend::Spr => KernelScale::Scaled,
            Backend::Sat => KernelScale::Tiny,
            Backend::PlanOnly => KernelScale::Paper,
        }
    }

    fn kernels(self) -> &'static [KernelId] {
        match self.backend {
            Backend::PlanOnly => &PLAN_KERNELS,
            _ => &KernelId::ALL,
        }
    }

    /// Generates the seeded inputs and one cold `Cgra` per input — what a
    /// pass needs before the first timed call. Returns the time it took.
    fn set_up(self, seed: u64) -> (Vec<Input>, Vec<Cgra>, f64) {
        let t = Instant::now();
        let inputs = inputs::suite(self.kernels(), self.scale(), seed);
        let cgras = inputs
            .iter()
            .map(|_| Cgra::new(self.cgra_config()).expect("preset architecture is valid"))
            .collect();
        (inputs, cgras, t.elapsed().as_secs_f64())
    }
}

/// What one timed operation produced, reduced to what the metrics and
/// the determinism check need.
#[derive(Debug, Clone, PartialEq)]
struct OpResult {
    seconds: f64,
    /// Achieved II, or the II floor the plan permits.
    ii: usize,
    mii: usize,
    /// `Mapping::content_hash`, or the plan fingerprint.
    hash: u64,
}

/// The compiler every workload uses: pipeline defaults, one thread.
fn compiler() -> Panorama {
    Panorama::new(PanoramaConfig {
        threads: 1,
        ..PanoramaConfig::default()
    })
}

/// Checks a mapping the way a user would before trusting it: structural
/// verification, then differential execution of the emitted configware
/// against the independent reference interpreter.
fn check_mapping(dfg: &Dfg, cgra: &Cgra, mapping: &Mapping) -> Result<(), String> {
    mapping
        .verify(dfg, cgra)
        .map_err(|e| format!("Mapping::verify: {e}"))?;
    let run = execute(dfg, cgra, mapping, &ExecOptions::default())
        .map_err(|e| format!("exec::execute: {e}"))?;
    match run.first_divergence() {
        None => Ok(()),
        Some((vector, why)) => Err(format!("configware diverges on `{vector}` inputs: {why}")),
    }
}

/// Runs the workload's entry point on one input, timed, then checks the
/// output untimed.
fn run_entry(
    suite: Suite,
    compiler: &Panorama,
    dfg: &Dfg,
    cgra: &Cgra,
) -> Result<OpResult, String> {
    match suite.backend {
        Backend::PlanOnly => {
            let t = Instant::now();
            let plan = compiler.plan(dfg, cgra);
            let seconds = t.elapsed().as_secs_f64();
            let plan = plan.map_err(|e| e.to_string())?;
            let mut diags = Diagnostics::new();
            lint_partition(
                dfg,
                plan.partition(),
                plan.cdg(),
                Some(plan.restriction()),
                &mut diags,
            );
            if diags.has_errors() {
                return Err(format!(
                    "plan violates partition invariants: {}",
                    diags.render_human()
                ));
            }
            Ok(OpResult {
                seconds,
                ii: restricted_min_ii(dfg, cgra, plan.restriction()),
                mii: min_ii(dfg, cgra).mii(),
                hash: staged::plan_hash(plan.partition().labels(), plan.cluster_map()),
            })
        }
        backend => {
            let spr = SprMapper::default();
            let sat = SatMapper::default();
            let t = Instant::now();
            let report = match backend {
                Backend::Spr => compiler.compile(dfg, cgra, &spr),
                _ => compiler.compile(dfg, cgra, &sat),
            };
            let seconds = t.elapsed().as_secs_f64();
            let report = report.map_err(|e| e.to_string())?;
            let mapping = report.mapping();
            check_mapping(report.mapped_dfg(dfg), cgra, mapping)?;
            Ok(OpResult {
                seconds,
                ii: mapping.ii(),
                mii: mapping.mii(),
                hash: mapping.content_hash(),
            })
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(suite: Suite, seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let compiler = compiler();
    let mut setups: Vec<f64> = Vec::new();

    let started = Instant::now();
    let mut pass_times: Vec<f64> = Vec::new();
    // Per input, in this seed's order: its name, its first result, and
    // its time in every pass.
    let mut names: Vec<&'static str> = Vec::new();
    let mut first: Vec<Option<OpResult>> = Vec::new();
    let mut times: Vec<Vec<f64>> = Vec::new();
    loop {
        let (inputs, cgras, setup) = suite.set_up(seed);
        setups.push(setup);
        if names.is_empty() {
            names = inputs.iter().map(|i| slug(i.kernel)).collect();
            first = vec![None; inputs.len()];
            times = vec![Vec::new(); inputs.len()];
        }
        let mut pass = 0.0;
        // Each cold Cgra is dropped with its input, so peak memory is the
        // compiler's for one kernel, not twelve MRRG caches kept alive.
        for (i, (input, cgra)) in inputs.iter().zip(cgras).enumerate() {
            outcome.attempted += 1;
            match run_entry(suite, &compiler, &input.dfg, &cgra) {
                Ok(result) => {
                    pass += result.seconds;
                    times[i].push(result.seconds);
                    match &first[i] {
                        Some(earlier) if (earlier.ii, earlier.hash) != (result.ii, result.hash) => {
                            outcome.fail(format!(
                                "{}: result changed between passes (II {} -> {}, hash {:016x} -> {:016x})",
                                names[i], earlier.ii, result.ii, earlier.hash, result.hash
                            ));
                        }
                        Some(_) => {}
                        None => first[i] = Some(result),
                    }
                }
                Err(why) => outcome.fail(format!("{}: {why}", names[i])),
            }
            setups.extend((0..SETUPS_PER_OP).map(|_| suite.set_up(seed).2));
        }
        pass_times.push(pass);
        if pass_times.len() == 1 {
            outcome.metrics.set("peak_rss_mb", peak_rss_mb());
        }
        if budget_spent(pass_times.len(), started.elapsed().as_secs_f64(), seconds) {
            break;
        }
    }

    let quality: Vec<(f64, f64)> = first
        .iter()
        .flatten()
        .map(|r| (r.ii as f64, r.mii as f64))
        .collect();
    outcome.set_quality(&quality);
    let per_input: Vec<f64> = times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t) * 1e3)
        .collect();
    outcome.metrics.set("pass_s", median(&pass_times));
    if !per_input.is_empty() {
        outcome.metrics.set("op_geomean_ms", geomean(&per_input));
    }
    outcome.metrics.set("setup_s", median(&setups));
    outcome.samples = vec![
        ("passes", pass_times.len()),
        ("op_samples", times.iter().map(Vec::len).sum()),
        ("setup_samples", setups.len()),
    ];
    for ((name, r), t) in names.iter().zip(&first).zip(&times) {
        if let Some(r) = r {
            outcome.rows.push(format!(
                "{{\"kernel\": \"{name}\", \"ii\": {}, \"mii\": {}, \"hash\": \"{:016x}\", \"seconds_per_pass\": {t:?}}}",
                r.ii, r.mii, r.hash
            ));
        }
    }
    outcome
}

/// The traced run: per-layer metrics and the span file. Returns the
/// recorder and the input names for `trace-<workload>.json`.
pub fn run_traced(suite: Suite, seed: u64) -> (Outcome, Recorder, Vec<String>) {
    let mut outcome = Outcome::default();
    let mut rec = Recorder::new(Instant::now());
    let compiler = compiler();
    let (inputs, cgras, _) = suite.set_up(seed);
    let names: Vec<String> = inputs.iter().map(|i| slug(i.kernel).to_string()).collect();
    let mut unattributed: Vec<f64> = Vec::new();
    let m = &mut outcome.metrics;

    for (i, (input, entry_cgra)) in inputs.iter().zip(&cgras).enumerate() {
        outcome.attempted += 1;
        let name = slug(input.kernel);
        let dfg = &input.dfg;

        // Layers beside the pipeline: generation, the text hand-off the
        // daemon uses, the (default-off) optimizer, a cold MRRG build.
        let (_, t) = rec.time("dfg.generate", i, || {
            kernels::generate(input.kernel, suite.scale())
        });
        m.add("dfg.generate_s", t);
        let (round_trip, t) = rec.time("dfg.text_roundtrip", i, || Dfg::from_text(&dfg.to_text()));
        m.add("dfg.text_roundtrip_s", t);
        m.add("dfg.ops", dfg.num_ops() as f64);
        m.add("dfg.edges", dfg.num_deps() as f64);
        let (optimized, t) = rec.time("analyze.optimize", i, || {
            optimize(dfg, &AnalyzeConfig::default())
        });
        m.add("analyze.optimize_s", t);
        let (probe_cgra, t) = rec.time("arch.cgra_new", i, || Cgra::new(suite.cgra_config()));
        m.add("arch.cgra_new_s", t);
        let probe_cgra = probe_cgra.expect("preset architecture is valid");
        let mii = min_ii(dfg, &probe_cgra).mii();
        let (mrrg, t) = rec.time("arch.mrrg_build", i, || probe_cgra.mrrg_shared(mii));
        m.add("arch.mrrg_build_s", t);
        m.add("arch.mrrg_nodes", mrrg.num_nodes() as f64);
        let mut problems: Vec<String> = Vec::new();
        match round_trip {
            Ok(parsed) if parsed.to_text() == dfg.to_text() => {}
            Ok(_) => problems.push("DFG text does not round-trip".into()),
            Err(e) => problems.push(format!("DFG text does not parse back: {e}")),
        }
        match optimized {
            Ok(opt) => m.add(
                "analyze.ops_removed",
                (dfg.num_ops() - opt.dfg.num_ops()) as f64,
            ),
            Err(e) => problems.push(format!("analyze::optimize: {e}")),
        }

        // The entry point, untraced, on its own cold Cgra.
        let entry = run_entry(suite, &compiler, dfg, entry_cgra);
        if let Ok(r) = &entry {
            let total = if suite.backend == Backend::PlanOnly {
                "core.plan_s"
            } else {
                "core.compile_s"
            };
            m.add(total, r.seconds);
            m.set(format!("kernel.{name}.compile_s"), r.seconds);
            m.set(format!("kernel.{name}.ii"), r.ii as f64);
        }

        // The same work again, stage by stage, on another cold Cgra.
        let staged_cgra = Cgra::new(suite.cgra_config()).expect("preset architecture is valid");
        let replay = staged::replay(&mut rec, m, i, dfg, &staged_cgra, suite.backend);
        match (&entry, &replay) {
            (Ok(e), Ok(s)) => {
                unattributed.push(rec.unattributed_share(s.root));
                let (ii, hash) = match &s.mapping {
                    Some(mapping) => (mapping.ii(), mapping.content_hash()),
                    None => (s.restricted_mii, s.plan_hash),
                };
                if (ii, hash) != (e.ii, e.hash) {
                    problems.push(format!(
                        "staged replay disagrees with the entry point (II {ii} vs {}, hash {hash:016x} vs {:016x})",
                        e.ii, e.hash
                    ));
                }
            }
            (Err(why), _) => problems.push(format!("entry point: {why}")),
            (_, Err(why)) => problems.push(format!("staged replay: {why}")),
        }

        // Downstream of the mapping: verify, emit, simulate, execute.
        if let Ok(Staged {
            mapping: Some(mapping),
            ..
        }) = &replay
        {
            let (verified, t) = rec.time("mapper.verify", i, || mapping.verify(dfg, &staged_cgra));
            m.add("mapper.verify_s", t);
            if let Err(e) = verified {
                problems.push(format!("Mapping::verify: {e}"));
            } else {
                let (configware, t) = rec.time("mapper.configware", i, || {
                    Configware::generate(dfg, &staged_cgra, mapping)
                });
                m.add("mapper.configware_s", t);
                m.add("mapper.config_bits", configware.size_bits() as f64);
                let (sim, t) = rec.time("sim.simulate", i, || {
                    simulate(dfg, &staged_cgra, mapping, SIM_ITERATIONS)
                });
                m.add("sim.simulate_s", t);
                if let Err(e) = sim {
                    problems.push(format!("sim::simulate: {e}"));
                }
                let (run, t) = rec.time("exec.execute", i, || {
                    execute(dfg, &staged_cgra, mapping, &ExecOptions::default())
                });
                m.add("exec.execute_s", t);
                match run {
                    Ok(run) => {
                        m.add("exec.tokens_checked", run.checked_total() as f64);
                        if let Some((vector, why)) = run.first_divergence() {
                            problems
                                .push(format!("configware diverges on `{vector}` inputs: {why}"));
                        }
                    }
                    Err(e) => problems.push(format!("exec::execute: {e}")),
                }
            }
        }

        if !problems.is_empty() {
            outcome.failed += 1;
            outcome
                .problems
                .extend(problems.into_iter().map(|p| format!("{name}: {p}")));
        }
    }

    finish_traced(&mut outcome, &mut rec, &unattributed);
    (outcome, rec, names)
}

/// Derived per-layer metrics, the fixed probes, and the coverage check.
pub fn finish_traced(outcome: &mut Outcome, rec: &mut Recorder, unattributed: &[f64]) {
    let m = &mut outcome.metrics;
    let attempts = m.get("mapper.spr_ii_attempts").unwrap_or(0.0);
    if attempts > 0.0 {
        m.set(
            "mapper.spr_success_ratio",
            m.get("mapper.spr_ii_mapped").unwrap_or(0.0) / attempts,
        );
    }
    let entry = m.get("core.compile_s").unwrap_or(0.0) + m.get("core.plan_s").unwrap_or(0.0);
    if entry > 0.0 {
        m.set(
            "trace.overhead_share",
            m.get("core.staged_s").unwrap_or(0.0) / entry - 1.0,
        );
    }
    if !unattributed.is_empty() {
        let worst = unattributed.iter().copied().fold(0.0, f64::max);
        m.set("trace.unattributed_share", worst);
        // Acceptance: per input the stages account for >= 95% of the root.
        if worst > 0.05 {
            outcome.problems.push(format!(
                "staged spans cover only {:.1}% of the root span on the worst input",
                (1.0 - worst) * 100.0
            ));
        }
    }
    probes::run(rec, &mut outcome.metrics);
}
