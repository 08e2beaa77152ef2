//! `panorama` — the command-line CGRA compiler.
//!
//! ```text
//! panorama compile --dfg kernel.dfg --arch cgra.adl
//!                  [--mapper spr|ultrafast|sat|portfolio]
//!                  [--baseline] [--threads N] [--max-ii N] [--simulate N]
//!                  [--configware] [--dot] [--analyze] [--sat-report FILE]
//! panorama analyze <kernel> [--arch cgra.adl] [--no-fold] [--no-cse] [--no-dce]
//!                  [--out FILE] [--json]
//! panorama trace <kernel> [--arch cgra.adl]
//!                [--mapper spr|ultrafast|sat|portfolio]
//!                [--baseline] [--threads N] [--max-ii N] [--out FILE]
//! panorama exec <kernel> [--arch cgra.adl]
//!               [--mapper spr|ultrafast|sat|portfolio]
//!               [--iterations N] [--seed N] [--out FILE] [--json]
//!               [--trace FILE]
//! panorama lint --dfg kernel.dfg [--arch cgra.adl] [--max-ii N] [--json]
//!               [--report FILE]
//! panorama fuzz [--seed N] [--cases N] [--max-nodes N] [--shrink-evals N]
//!               [--max-seconds S] [--corpus DIR] [--write-corpus]
//!               [--out FILE] [--json]
//! panorama serve [--addr IP:PORT] [--workers N] [--queue-depth N]
//!                [--deadline-ms MS] [--result-cache N] [--mrrg-cache N]
//!                [--threads N] [--analyze] [--cache-dir DIR]
//!                [--cache-budget BYTES] [--quota-rps N] [--quota-burst N]
//!                [--io-timeout-ms MS]
//! panorama kernels [--scale tiny|scaled|paper]
//! panorama info --arch cgra.adl
//! ```
//!
//! `compile` reads a DFG in the text format (`--dfg -` for stdin, or a
//! built-in kernel name like `fir`), an architecture in ADL form (or a
//! preset like `8x8`), runs the PANORAMA pipeline, and reports the mapping;
//! `--analyze` first runs the equivalence-checked DFG optimizer of
//! [`panorama_analyze`] and maps the optimized graph, and `--trace FILE`
//! additionally records every pipeline phase and writes the
//! `panorama-trace-v1` JSON. `analyze` runs the optimizer *without*
//! mapping: it prints the op/dependence shrink, the exact
//! recurrence-constrained II floor (with the cycle that proves it), and
//! the `ANLZ` diagnostics; `--out` writes the `panorama-analyze-v1` JSON.
//! `trace` is the profiling spin of a compile run:
//! it always records and prints the per-phase profile table instead of the
//! mapping details. `exec` compiles a kernel and then *runs* the emitted
//! configware on the data-carrying cycle-accurate machine of
//! [`panorama_exec`], comparing every produced token against the DFG
//! reference interpreter under five input-vector families; `--out`/`--json`
//! emit the deterministic `panorama-exec-v1` report and a recorded
//! divergence exits nonzero. `lint` runs the static diagnostics of [`panorama_lint`]
//! over the same inputs without mapping anything (`--report` validates a
//! recorded trace/serve/fuzz/sat/exec/analyze report file instead — one
//! document or an array of them — auto-detecting the schema).
//! `fuzz` runs the deterministic differential fuzzing harness of
//! [`panorama_fuzz`]: seeded random DFG/architecture sweeps, all three
//! lower-level backends, verify/simulate/II-bound oracle cross-checks,
//! failing-case minimization, and regression-corpus replay; its
//! `panorama-fuzz-v3` JSON report is what `lint --report` validates.
//!
//! `compile`, `trace` and `exec` parse their flags into the same typed
//! [`CompileRequest`] a `POST /compile` body becomes, and run it through
//! [`CompileRequest::run`].

use panorama::{
    effective_threads, AnalyzeConfig, BackendId, CompileContext, CompileReport, CompileRequest,
    MapperChoice,
};
use panorama_analyze::{analyze, analyze_diagnostics};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, Dfg, KernelId, KernelScale};
use panorama_exec::{exec_report_json, execute, ExecOptions};
use panorama_lint::{lint_report, Diagnostics, LintContext, Registry};
use panorama_mapper::{min_ii, sat_attempt_log, Configware, SatMapper};
use panorama_sim::simulate;
use panorama_trace::{RecordingSink, TraceReport, Tracer};
use std::collections::HashMap;
use std::error::Error;
use std::io::Read as _;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage:\n  \
     panorama compile --dfg <file|-|kernel-name> [--arch <file|preset>] \
[--mapper spr|ultrafast|sat|portfolio] [--baseline] \
[--scale tiny|scaled|paper] [--threads <n>] [--max-ii <ii>] \
[--simulate <iters>] [--configware] [--dot] [--trace <file>] \
[--sat-report <file>] [--analyze] [--json]\n  \
     panorama analyze <kernel-name|file|-> [--arch <file|preset>] \
[--scale tiny|scaled|paper] [--no-fold] [--no-cse] [--no-dce] [--out <file>] \
[--json]\n  \
     panorama trace <kernel-name|file|-> [--arch <file|preset>] \
[--mapper spr|ultrafast|sat|portfolio] [--baseline] \
[--scale tiny|scaled|paper] [--threads <n>] [--max-ii <ii>] [--out <file>]\n  \
     panorama exec <kernel-name|file|-> [--arch <file|preset>] \
[--mapper spr|ultrafast|sat|portfolio] [--scale tiny|scaled|paper] \
[--threads <n>] [--max-ii <ii>] [--iterations <n>] [--seed <n>] \
[--out <file>] [--json] [--trace <file>]\n  \
     panorama lint [--dfg <file|-|kernel-name>] [--arch <file|preset>] \
[--scale tiny|scaled|paper] [--max-ii <ii>] [--report <file>] [--json]\n  \
     panorama fuzz [--seed <n>] [--cases <n>] [--max-nodes <n>] \
[--shrink-evals <n>] [--max-seconds <s>] [--corpus <dir>] [--write-corpus] \
[--out <file>] [--json]\n  \
     panorama serve [--addr <ip:port>] [--workers <n>] [--queue-depth <n>] \
[--deadline-ms <ms>] [--result-cache <n>] [--mrrg-cache <n>] [--threads <n>] \
[--analyze] [--cache-dir <dir>] [--cache-budget <bytes>] \
[--quota-rps <n>] [--quota-burst <n>] [--io-timeout-ms <ms>]\n  \
     panorama kernels [--scale tiny|scaled|paper]\n  \
     panorama info --arch <file|preset>\n\n\
     presets: 4x4, 8x8, 9x9, 16x16, 6x1"
}

/// Flags a command accepts: `(name, takes_no_value)`.
type FlagSpec = &'static [(&'static str, bool)];

const COMPILE_FLAGS: FlagSpec = &[
    ("dfg", false),
    ("arch", false),
    ("mapper", false),
    ("baseline", true),
    ("scale", false),
    ("threads", false),
    ("max-ii", false),
    ("simulate", false),
    ("configware", true),
    ("dot", true),
    ("trace", false),
    ("sat-report", false),
    ("analyze", true),
    ("json", true),
];
const ANALYZE_FLAGS: FlagSpec = &[
    ("arch", false),
    ("scale", false),
    ("no-fold", true),
    ("no-cse", true),
    ("no-dce", true),
    ("out", false),
    ("json", true),
];
const TRACE_FLAGS: FlagSpec = &[
    ("arch", false),
    ("mapper", false),
    ("baseline", true),
    ("scale", false),
    ("threads", false),
    ("max-ii", false),
    ("out", false),
];
const EXEC_FLAGS: FlagSpec = &[
    ("arch", false),
    ("mapper", false),
    ("scale", false),
    ("threads", false),
    ("max-ii", false),
    ("iterations", false),
    ("seed", false),
    ("out", false),
    ("json", true),
    ("trace", false),
];
const LINT_FLAGS: FlagSpec = &[
    ("dfg", false),
    ("arch", false),
    ("scale", false),
    ("max-ii", false),
    ("json", true),
    ("report", false),
];
const FUZZ_FLAGS: FlagSpec = &[
    ("seed", false),
    ("cases", false),
    ("max-nodes", false),
    ("shrink-evals", false),
    ("max-seconds", false),
    ("corpus", false),
    ("write-corpus", true),
    ("out", false),
    ("json", true),
];
const KERNELS_FLAGS: FlagSpec = &[("scale", false)];
const INFO_FLAGS: FlagSpec = &[("arch", false)];
const SERVE_FLAGS: FlagSpec = &[
    ("addr", false),
    ("workers", false),
    ("queue-depth", false),
    ("deadline-ms", false),
    ("result-cache", false),
    ("mrrg-cache", false),
    ("threads", false),
    ("analyze", true),
    ("cache-dir", false),
    ("cache-budget", false),
    ("quota-rps", false),
    ("quota-burst", false),
    ("io-timeout-ms", false),
];

/// The flag table of a subcommand; `None` for an unknown one.
fn flag_spec(cmd: &str) -> Option<FlagSpec> {
    Some(match cmd {
        "compile" => COMPILE_FLAGS,
        "analyze" => ANALYZE_FLAGS,
        "trace" => TRACE_FLAGS,
        "exec" => EXEC_FLAGS,
        "lint" => LINT_FLAGS,
        "kernels" => KERNELS_FLAGS,
        "info" => INFO_FLAGS,
        "serve" => SERVE_FLAGS,
        "fuzz" => FUZZ_FLAGS,
        _ => return None,
    })
}

fn parse_flags(
    cmd: &str,
    args: &[String],
    spec: FlagSpec,
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            let Some(&(_, boolean)) = spec.iter().find(|(n, _)| *n == name) else {
                return Err(format!(
                    "unknown flag `--{name}` for `{cmd}` (accepted: {})",
                    spec.iter()
                        .map(|(n, _)| format!("--{n}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            };
            if boolean {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
                i += 2;
            }
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    Ok(flags)
}

fn parse_max_ii(flags: &HashMap<String, String>) -> Result<Option<usize>, String> {
    flags
        .get("max-ii")
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| format!("--max-ii needs a positive integer, got `{s}`"))
        })
        .transpose()
}

/// `--<key> N`, or `default` when the flag is absent.
fn parse_n(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    flags.get(key).map_or(Ok(default), |s| {
        s.parse::<usize>()
            .map_err(|_| format!("--{key} needs a non-negative integer, got `{s}`"))
    })
}

/// `--<key> N` as a `u64`, `None` when the flag is absent; `what` names the
/// expected value in the error.
fn parse_u64(
    flags: &HashMap<String, String>,
    key: &str,
    what: &str,
) -> Result<Option<u64>, String> {
    flags
        .get(key)
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("--{key} needs {what}, got `{s}`"))
        })
        .transpose()
}

/// `--threads N` (0 or absent = one worker per core).
fn parse_threads(flags: &HashMap<String, String>) -> Result<usize, String> {
    parse_n(flags, "threads", 0)
}

/// `--scale tiny|scaled|paper` (absent = scaled).
fn parse_scale(flags: &HashMap<String, String>) -> Result<KernelScale, String> {
    flags
        .get("scale")
        .map_or(Ok(KernelScale::default()), |s| KernelScale::parse(s))
}

/// `--arch <preset|file>` (absent = the default preset) as the name reports
/// show plus the configuration: a preset name wins, anything else is read
/// as an ADL file.
fn load_arch(spec: Option<&String>) -> Result<(String, CgraConfig), Box<dyn Error>> {
    let spec = spec.map_or(CgraConfig::DEFAULT_PRESET, String::as_str);
    let config = match CgraConfig::preset(spec) {
        Ok(config) => config,
        Err(unknown) => {
            let text = std::fs::read_to_string(spec)
                .map_err(|e| format!("{unknown}; reading it as an ADL file: {e}"))?;
            CgraConfig::from_text(&text)?
        }
    };
    Ok((spec.to_string(), config))
}

fn load_cgra(spec: Option<&String>) -> Result<Cgra, Box<dyn Error>> {
    Ok(Cgra::new(load_arch(spec)?.1)?)
}

/// A built-in kernel name wins; `-` is stdin and anything else a DFG file.
fn load_dfg(spec: &str, scale: KernelScale) -> Result<Dfg, Box<dyn Error>> {
    let unknown = match KernelId::parse(spec) {
        Ok(id) => return Ok(kernels::generate(id, scale)),
        Err(unknown) => unknown,
    };
    let text = if spec == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        buf
    } else {
        std::fs::read_to_string(spec)
            .map_err(|e| format!("{unknown}; reading it as a DFG file: {e}"))?
    };
    Ok(Dfg::from_text(&text)?)
}

/// The flags `compile`, `trace` and `exec` share, as the typed request a
/// `/compile` body also parses into (a flag the command does not accept is
/// simply absent here).
fn compile_request(
    dfg: &str,
    flags: &HashMap<String, String>,
) -> Result<CompileRequest, Box<dyn Error>> {
    let dfg = load_dfg(dfg, parse_scale(flags)?)?;
    let (arch_display, arch) = load_arch(flags.get("arch"))?;
    let mapper = MapperChoice::parse(
        flags
            .get("mapper")
            .map_or(BackendId::Spr.name(), String::as_str),
    )?;
    let baseline = flags.contains_key("baseline");
    if baseline && mapper == MapperChoice::Portfolio {
        return Err("--baseline races a single mapper; pick one with --mapper".into());
    }
    Ok(CompileRequest {
        dfg,
        arch_display,
        arch,
        mapper,
        baseline,
        max_ii: parse_max_ii(flags)?,
        threads: parse_threads(flags)?,
        analyze: flags.contains_key("analyze"),
    })
}

fn cmd_compile(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let req = compile_request(
        flags
            .get("dfg")
            .ok_or("`compile` needs --dfg <file|-|kernel-name>")?,
        flags,
    )?;
    let (dfg, cgra) = (&req.dfg, Cgra::new(req.arch.clone())?);
    eprintln!(
        "kernel `{}`: {} | CGRA {}x{} ({} clusters)",
        dfg.name(),
        dfg.stats(),
        cgra.config().rows,
        cgra.config().cols,
        cgra.num_clusters()
    );
    if flags.contains_key("dot") {
        println!("{}", dfg.to_dot());
    }

    let sink = flags.contains_key("trace").then(RecordingSink::shared);
    let tracer = sink.as_ref().map(|sink| Tracer::new(sink.clone()));
    // `--mapper sat` runs on an instance the CLI owns, so `--sat-report`
    // can drain its per-II attempt log afterwards.
    let sat = SatMapper::default();
    let is_sat = req.mapper == MapperChoice::Backend(BackendId::Sat);
    let report = if is_sat {
        let ctx = CompileContext {
            tracer: tracer.as_ref(),
            ..CompileContext::default()
        };
        req.run_with(&cgra, &[&sat], &ctx)?
    } else {
        req.run(&cgra, tracer.as_ref(), None)?
    };
    if let (Some(path), Some(sink)) = (flags.get("trace"), &sink) {
        std::fs::write(path, trace_report(&req, &report, sink).to_json())?;
        eprintln!("wrote trace {path}");
    }
    // With `--analyze` the mapping targets the optimized graph, so verify,
    // simulate and configware-generate against it, not the input.
    let mapped = report.mapped_dfg(dfg);
    if let Some(analyzed) = report.analyzed_dfg() {
        eprintln!(
            "analyze: {} ops -> {} ops before mapping",
            dfg.num_ops(),
            analyzed.num_ops()
        );
    }
    let mapping = report.mapping();
    mapping.verify(mapped, &cgra)?;
    if let Some(path) = flags.get("sat-report") {
        if !is_sat {
            return Err("--sat-report requires --mapper sat".into());
        }
        let doc = sat_attempt_log(
            dfg.name(),
            &req.arch_display,
            min_ii(mapped, &cgra).mii(),
            mapping.ii(),
            &sat.config,
            req.max_ii,
            &sat.take_attempts(),
        );
        std::fs::write(path, doc)?;
        eprintln!("wrote SAT report {path}");
    }
    if flags.contains_key("json") {
        // The canonical deterministic document — byte-identical to what
        // `panorama serve` returns for the same inputs.
        println!("{}", report.to_json(dfg.name(), &req.arch_display));
    } else {
        println!(
            "mapped with {}{} at II {} (MII {}, QoM {:.2}) in {:.2?}",
            if req.baseline { "" } else { "Pan-" },
            mapping.mapper(),
            mapping.ii(),
            mapping.mii(),
            mapping.qom(),
            report.total_time()
        );
        if let Some(plan) = report.plan() {
            println!(
                "higher-level: {} DFG clusters, zeta {}, histogram {:?}",
                plan.cdg().num_clusters(),
                plan.cluster_map().zeta1(),
                plan.cluster_map().histogram()
            );
        }
    }
    if flags.contains_key("simulate") {
        let iters = parse_n(flags, "simulate", 0)?;
        match simulate(mapped, &cgra, mapping, iters) {
            Ok(sim) => println!(
                "simulation: {} iterations, {} deliveries checked, FU util {:.0}%, link util {:.0}%",
                sim.iterations,
                sim.checked_deliveries,
                sim.fu_utilization * 100.0,
                sim.link_utilization * 100.0
            ),
            Err(e) => println!("simulation unavailable: {e}"),
        }
    }
    if flags.contains_key("configware") && mapping.routes().is_some() {
        let cfg = Configware::generate(mapped, &cgra, mapping);
        println!(
            "configware: {} active words, ~{} bits",
            cfg.active_words(),
            cfg.size_bits()
        );
        print!("{}", cfg.to_text(&cgra));
    }
    Ok(())
}

/// Assembles the `panorama-trace-v1` report for one compile run from
/// everything `sink` recorded.
fn trace_report(req: &CompileRequest, report: &CompileReport, sink: &RecordingSink) -> TraceReport {
    TraceReport {
        kernel: req.dfg.name().to_string(),
        arch: req.arch_display.clone(),
        mapper: req.mapper.name().to_string(),
        threads: effective_threads(req.threads, usize::MAX),
        wall_ns: report.total_time().as_nanos() as u64,
        events: sink.take(),
    }
}

/// `panorama trace`: compile one kernel with recording always on and print
/// the per-phase profile table instead of the mapping details; `--out`
/// additionally writes the `panorama-trace-v1` JSON.
fn cmd_trace(kernel: &str, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let req = compile_request(kernel, flags)?;
    let cgra = Cgra::new(req.arch.clone())?;
    let sink = RecordingSink::shared();
    let tracer = Tracer::new(sink.clone());
    let report = req.run(&cgra, Some(&tracer), None)?;
    let mapping = report.mapping();
    eprintln!(
        "mapped `{}` with {} at II {} in {:.2?}",
        req.dfg.name(),
        mapping.mapper(),
        mapping.ii(),
        report.total_time()
    );
    let trace = trace_report(&req, &report, &sink);
    print!("{}", trace.render_profile());
    if let Some(path) = flags.get("out") {
        std::fs::write(path, trace.to_json())?;
        eprintln!("wrote trace {path}");
    }
    Ok(())
}

/// `panorama exec`: compile one kernel, then *run* the emitted configware
/// on the data-carrying cycle-accurate machine and compare every produced
/// token against the DFG reference interpreter under all five
/// input-vector families (seeded, zeros, ones, `i32::MIN`, `i32::MAX`).
/// `--out`/`--json` emit the deterministic `panorama-exec-v1` report
/// (byte-identical per seed); `--trace` records the compile phases plus
/// `exec`/`exec.run` spans. Exits nonzero on any value-level divergence.
fn cmd_exec(kernel: &str, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let req = compile_request(kernel, flags)?;
    let (dfg, cgra) = (&req.dfg, Cgra::new(req.arch.clone())?);
    let sink = flags.contains_key("trace").then(RecordingSink::shared);
    let tracer = sink.as_ref().map(|sink| Tracer::new(sink.clone()));
    let report = req.run(&cgra, tracer.as_ref(), None)?;
    let mapped = report.mapped_dfg(dfg);
    let mapping = report.mapping();
    mapping.verify(mapped, &cgra)?;
    let defaults = ExecOptions::default();
    let opts = ExecOptions {
        iterations: flags
            .get("iterations")
            .map_or(Ok(defaults.iterations), |s| {
                s.parse::<usize>()
                    .map_err(|_| format!("--iterations needs a positive integer, got `{s}`"))
            })?,
        seed: flags.get("seed").map_or(Ok(defaults.seed), |s| {
            s.parse::<u64>()
                .map_err(|_| format!("--seed needs a non-negative integer, got `{s}`"))
        })?,
    };
    // The exec spans ride in their own collector; the high sequence base
    // keeps them sorted after every pipeline event of the same candidate.
    let tracer = tracer.unwrap_or_else(Tracer::disabled);
    let mut col = tracer.collector_from(
        panorama_trace::NO_CANDIDATE,
        panorama_trace::SEQ_BASE_MAP * 64,
    );
    let span = col.start();
    let outcome = execute(mapped, &cgra, mapping, &opts)?;
    let divergences = outcome
        .vectors
        .iter()
        .filter(|v| v.divergence.is_some())
        .count();
    for v in &outcome.vectors {
        col.event(
            "exec.run",
            &[
                ("checked", v.checked as i64),
                ("output_tokens", v.output_tokens as i64),
                ("diverged", i64::from(v.divergence.is_some())),
            ],
        );
    }
    col.record(
        "exec",
        span,
        &[
            ("vectors", outcome.vectors.len() as i64),
            ("checked", outcome.checked_total() as i64),
            ("divergences", divergences as i64),
        ],
    );
    tracer.submit(vec![col]);
    if let (Some(path), Some(sink)) = (flags.get("trace"), &sink) {
        std::fs::write(path, trace_report(&req, &report, sink).to_json())?;
        eprintln!("wrote trace {path}");
    }
    let doc = exec_report_json(dfg.name(), &req.arch_display, mapping.mapper(), &outcome);
    if let Some(path) = flags.get("out") {
        std::fs::write(path, &doc)?;
        eprintln!("wrote exec report {path}");
    }
    if flags.contains_key("json") {
        print!("{doc}");
    } else {
        eprintln!(
            "mapped `{}` with {} at II {}; executing {} iterations x {} vectors (seed {})",
            dfg.name(),
            mapping.mapper(),
            mapping.ii(),
            outcome.iterations,
            outcome.vectors.len(),
            outcome.seed
        );
        println!(
            "{:<8} {:>8} {:>8} {:>18}  divergence",
            "vector", "checked", "tokens", "digest"
        );
        for v in &outcome.vectors {
            println!(
                "{:<8} {:>8} {:>8} {:>#18x}  {}",
                v.vector,
                v.checked,
                v.output_tokens,
                v.output_digest,
                v.divergence.as_deref().unwrap_or("-")
            );
        }
        println!(
            "exec: {} tokens value-equal to the reference across {} vectors",
            outcome.checked_total(),
            outcome.vectors.len()
        );
    }
    if let Some((vector, msg)) = outcome.first_divergence() {
        return Err(format!("execution diverged on the `{vector}` vector: {msg}").into());
    }
    Ok(())
}

/// `panorama analyze`: run the equivalence-checked DFG optimizer and the
/// exact recurrence-cycle analysis without mapping anything. Prints the
/// op/dependence shrink, the RecMII bound with its witness cycle, and the
/// `ANLZ` diagnostics; `--out` writes the `panorama-analyze-v1` JSON.
/// Exits nonzero when any error-severity finding is reported.
fn cmd_analyze(kernel: &str, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let dfg = load_dfg(kernel, parse_scale(flags)?)?;
    let cgra = load_cgra(flags.get("arch"))?;
    let config = AnalyzeConfig {
        fold_constants: !flags.contains_key("no-fold"),
        merge_common: !flags.contains_key("no-cse"),
        eliminate_dead: !flags.contains_key("no-dce"),
        ..AnalyzeConfig::default()
    };
    let analysis = analyze(&dfg, &config)?;
    let r = &analysis.report;
    if flags.contains_key("json") {
        println!("{}", r.to_json());
    } else {
        eprintln!(
            "kernel `{}`: {} | CGRA {}x{}",
            dfg.name(),
            dfg.stats(),
            cgra.config().rows,
            cgra.config().cols
        );
        println!(
            "ops {} -> {} (folded {}, merged {}, removed {}) in {} round(s)",
            r.ops_before, r.ops_after, r.folded, r.merged, r.removed, r.rounds
        );
        println!(
            "deps {} -> {}, {} op(s) provably constant, critical path {} -> {}",
            r.deps_before,
            r.deps_after,
            r.known_constants,
            r.critical_path_before,
            r.critical_path_after
        );
        println!(
            "exact RecMII {} -> {} (equivalence checked over {} iterations)",
            r.rec_mii_before, r.rec_mii_after, r.equiv_iterations
        );
        if r.witness.is_empty() {
            println!("no recurrence cycle: II floor is resource-bound only");
        } else {
            println!(
                "witness cycle {:?}: latency {} over distance {}",
                r.witness, r.witness_latency, r.witness_distance
            );
        }
    }
    let mut diags = Diagnostics::new();
    analyze_diagnostics(&dfg, &analysis, Some(&cgra), &mut diags);
    if !diags.is_empty() && !flags.contains_key("json") {
        print!("{}", diags.render_human());
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(path, r.to_json())?;
        eprintln!("wrote analyze report {path}");
    }
    if diags.has_errors() {
        return Err(format!("analyze found {} error(s)", diags.num_errors()).into());
    }
    Ok(())
}

/// `panorama fuzz`: the deterministic differential fuzzing harness.
/// Exits nonzero when any oracle disagrees, a backend crashes, or a
/// corpus case fails replay. `--write-corpus` drops each minimized
/// reproducer into the corpus directory as a ready-to-commit `.dfg` file.
fn cmd_fuzz(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let defaults = panorama_fuzz::FuzzOptions::default();
    let cancel = panorama_mapper::CancelToken::new();
    let opts = panorama_fuzz::FuzzOptions {
        seed: flags.get("seed").map_or(Ok(defaults.seed), |s| {
            s.parse::<u64>()
                .map_err(|_| format!("--seed needs a non-negative integer, got `{s}`"))
        })?,
        cases: parse_n(flags, "cases", defaults.cases)?,
        max_nodes: parse_n(flags, "max-nodes", defaults.max_nodes)?,
        shrink_evals: parse_n(flags, "shrink-evals", defaults.shrink_evals)?,
        oracle: panorama_fuzz::OracleConfig {
            cancel: Some(cancel.clone()),
            ..panorama_fuzz::OracleConfig::default()
        },
        corpus_dir: flags.get("corpus").map(std::path::PathBuf::from),
    };
    if flags.contains_key("write-corpus") && opts.corpus_dir.is_none() {
        return Err("--write-corpus needs --corpus <dir>".into());
    }
    if let Some(s) = flags.get("max-seconds") {
        let seconds = s
            .parse::<u64>()
            .map_err(|_| format!("--max-seconds needs a positive integer, got `{s}`"))?;
        let token = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(seconds));
            token.cancel();
        });
    }
    let report = panorama_fuzz::run(&opts);
    if flags.contains_key("write-corpus") {
        let dir = opts.corpus_dir.as_ref().expect("checked above");
        std::fs::create_dir_all(dir)?;
        for f in &report.failures {
            let name = format!(
                "seed{}-case{}-{}-{}.dfg",
                report.seed, f.case, f.backend, f.oracle
            );
            std::fs::write(dir.join(&name), &f.repro)?;
            eprintln!("wrote {}", dir.join(&name).display());
        }
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(path, report.to_json())?;
        eprintln!("wrote fuzz report {path}");
    }
    if flags.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.summary());
    }
    let corpus_failed = report.corpus.as_ref().map_or(0, |c| c.failed);
    if report.total_failures() > 0 || corpus_failed > 0 {
        return Err(format!(
            "fuzz found {} oracle failure(s) and {} corpus failure(s)",
            report.total_failures(),
            corpus_failed
        )
        .into());
    }
    Ok(())
}

/// Reads a lint input: a path, or stdin for `-`.
fn read_report(path: &str) -> Result<String, Box<dyn Error>> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        Ok(buf)
    } else {
        Ok(std::fs::read_to_string(path)?)
    }
}

/// `panorama lint`: static diagnostics over a kernel (and optionally an
/// architecture) without mapping anything; `--report` validates a recorded
/// trace/serve/fuzz/analyze JSON file instead of (or besides) a kernel,
/// auto-detecting the schema. Exits nonzero when any error-severity
/// finding is reported.
fn cmd_lint(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let scale = parse_scale(flags)?;
    if !flags.contains_key("dfg") && !flags.contains_key("report") {
        return Err("`lint` needs --dfg <file|-|kernel-name> and/or --report <file>".into());
    }
    let mut diags = Diagnostics::new();
    if let Some(spec) = flags.get("dfg") {
        let dfg = load_dfg(spec, scale)?;
        let cgra = match flags.get("arch") {
            Some(_) => Some(load_cgra(flags.get("arch"))?),
            None => None,
        };
        let ctx = LintContext {
            dfg: Some(&dfg),
            cgra: cgra.as_ref(),
            max_ii: parse_max_ii(flags)?,
            ..LintContext::default()
        };
        diags.extend(Registry::with_default_passes().run(&ctx));
    }
    if let Some(path) = flags.get("report") {
        lint_report(&read_report(path)?, &mut diags).map_err(|e| format!("--report: {e}"))?;
    }
    if flags.contains_key("json") {
        println!("{}", diags.render_json());
    } else {
        print!("{}", diags.render_human());
    }
    if diags.has_errors() {
        return Err(format!("lint found {} error(s)", diags.num_errors()).into());
    }
    Ok(())
}

/// `panorama serve`: run the compile daemon until drained.
///
/// The process cannot install a signal handler without `unsafe`, so the
/// graceful-drain triggers are `POST /admin/shutdown` (loopback-only) and
/// stdin reaching EOF — closing the daemon's stdin (or piping from a
/// process that exits) drains it exactly like the admin endpoint.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let defaults = panorama_serve::ServeConfig::default();
    let millis = |key: &str, what: &str| {
        Ok::<_, String>(parse_u64(flags, key, what)?.map(std::time::Duration::from_millis))
    };
    let config = panorama_serve::ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        workers: parse_n(flags, "workers", defaults.workers)?,
        queue_depth: parse_n(flags, "queue-depth", defaults.queue_depth)?,
        deadline: millis("deadline-ms", "a positive integer")?,
        result_cache_capacity: parse_n(flags, "result-cache", defaults.result_cache_capacity)?,
        mrrg_cache_capacity: parse_n(flags, "mrrg-cache", defaults.mrrg_cache_capacity)?,
        portfolio_threads: parse_threads(flags)?,
        analyze: flags.contains_key("analyze"),
        cache_dir: flags.get("cache-dir").map(std::path::PathBuf::from),
        cache_budget: parse_u64(flags, "cache-budget", "a byte count")?
            .unwrap_or(defaults.cache_budget),
        quota_rps: parse_u64(flags, "quota-rps", "a non-negative integer")?
            .unwrap_or(defaults.quota_rps),
        quota_burst: parse_u64(flags, "quota-burst", "a non-negative integer")?
            .unwrap_or(defaults.quota_burst),
        // 0 disables the per-socket read/write timeouts entirely
        io_timeout: millis("io-timeout-ms", "a non-negative integer")?
            .map_or(defaults.io_timeout, |t| (!t.is_zero()).then_some(t)),
        ..defaults
    };
    let server = panorama_serve::Server::bind(config)?;
    let addr = server.local_addr();
    println!("panorama-serve listening on http://{addr}");
    println!(
        "endpoints: POST /compile, POST /compile-batch, POST /lint, GET /healthz, GET /metrics, POST /admin/shutdown"
    );
    println!("drain: POST /admin/shutdown (loopback-only) or close stdin");
    let drain = server.drain_handle();
    std::thread::spawn(move || {
        // Block until stdin closes, then drain. Under a terminal this
        // waits for ^D; under CI the daemon is drained via the endpoint.
        let mut sink = Vec::new();
        let _ = std::io::stdin().lock().read_to_end(&mut sink);
        drain.drain();
    });
    server.run()?;
    println!("panorama-serve drained cleanly");
    Ok(())
}

fn cmd_kernels(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let scale = parse_scale(flags)?;
    println!(
        "{:<18} {:>6} {:>6} {:>7}  paper(n/e/deg)",
        "kernel", "nodes", "edges", "maxdeg"
    );
    for id in KernelId::ALL {
        let s = kernels::generate(id, scale).stats();
        let (pn, pe, pd) = id.paper_stats();
        println!(
            "{:<18} {:>6} {:>6} {:>7}  ({pn}/{pe}/{pd})",
            id.name(),
            s.nodes,
            s.edges,
            s.max_degree
        );
    }
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let cgra = load_cgra(flags.get("arch"))?;
    print!("{}", cgra.config().to_text());
    println!(
        "PEs {}  clusters {}  mem PEs {}  links {} ({} inter-cluster)",
        cgra.num_pes(),
        cgra.num_clusters(),
        cgra.num_mem_pes(),
        cgra.links().len(),
        cgra.links().iter().filter(|l| l.inter_cluster).count()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(spec) = flag_spec(cmd) else {
        eprintln!(
            "error: unknown command `{cmd}` (expected compile, analyze, trace, exec, lint, serve, fuzz, kernels, info or help)\n\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    };
    // `trace`, `analyze` and `exec` take their kernel as a positional
    // first argument
    let (positional, rest) = if cmd == "trace" || cmd == "analyze" || cmd == "exec" {
        match rest.split_first() {
            Some((k, r)) if !k.starts_with("--") => (Some(k.as_str()), r),
            _ => {
                eprintln!(
                    "error: `{cmd}` needs a kernel (name, file or `-`) as its first argument\n\n{}",
                    usage()
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        (None, rest)
    };
    let flags = match parse_flags(cmd, rest, spec) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "compile" => cmd_compile(&flags),
        "analyze" => cmd_analyze(positional.unwrap_or_default(), &flags),
        "trace" => cmd_trace(positional.unwrap_or_default(), &flags),
        "exec" => cmd_exec(positional.unwrap_or_default(), &flags),
        "lint" => cmd_lint(&flags),
        "kernels" => cmd_kernels(&flags),
        "serve" => cmd_serve(&flags),
        "fuzz" => cmd_fuzz(&flags),
        _ => cmd_info(&flags),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_trace::json::parse;

    #[test]
    fn usage_text_and_flag_tables_list_the_same_flags() {
        use std::collections::{BTreeMap, BTreeSet};
        // `--flag` tokens per subcommand, from the `panorama <cmd> ...`
        // line(s) of the usage text
        let mut documented: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for line in usage().lines() {
            let Some(rest) = line.trim_start().strip_prefix("panorama ") else {
                continue;
            };
            let (cmd, rest) = rest.split_once(' ').unwrap_or((rest, ""));
            let flags = documented.entry(cmd).or_default();
            for (at, _) in rest.match_indices("--") {
                let name = &rest[at + 2..];
                let end = name
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(name.len());
                flags.insert(&name[..end]);
            }
        }
        let commands = [
            "compile", "analyze", "trace", "exec", "lint", "fuzz", "serve", "kernels", "info",
        ];
        assert_eq!(
            documented.keys().copied().collect::<BTreeSet<_>>(),
            BTreeSet::from(commands),
            "usage() must have a line for every subcommand and no other"
        );
        for cmd in commands {
            let accepted: BTreeSet<&str> = flag_spec(cmd)
                .unwrap_or_else(|| panic!("`{cmd}` has no flag table"))
                .iter()
                .map(|(name, _)| *name)
                .collect();
            assert_eq!(documented[cmd], accepted, "`{cmd}`: usage() vs flag table");
        }
    }

    /// `compile` argv through the CLI's flag parser.
    fn from_cli(args: &[&str]) -> Result<CompileRequest, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        let flags = parse_flags("compile", &args, COMPILE_FLAGS)?;
        compile_request(&flags["dfg"], &flags).map_err(|e| e.to_string())
    }

    /// A `/compile` body through the daemon's parser, CLI defaults applied.
    fn from_json(body: &str) -> Result<CompileRequest, String> {
        CompileRequest::from_json(&parse(body)?, 0, false)
    }

    /// Every field of a request, comparable (`Dfg` is not `PartialEq`).
    fn key(r: &CompileRequest) -> impl PartialEq + std::fmt::Debug + '_ {
        let pipeline = (r.baseline, r.max_ii, r.threads, r.analyze);
        (
            r.dfg.to_text(),
            &r.arch_display,
            &r.arch,
            r.mapper,
            pipeline,
        )
    }

    #[test]
    fn cli_flags_and_compile_json_parse_to_the_same_request() {
        let mut rows: Vec<(Vec<&str>, String)> = vec![
            (vec![], String::new()),
            (vec!["--baseline"], "\"baseline\":true".into()),
            (vec!["--max-ii", "9"], "\"max_ii\":9".into()),
            (vec!["--threads", "4"], "\"threads\":4".into()),
            (vec!["--analyze"], "\"analyze\":true".into()),
            (
                vec![
                    "--mapper",
                    "sat",
                    "--arch",
                    "4x4",
                    "--scale",
                    "tiny",
                    "--baseline",
                ],
                "\"mapper\":\"sat\",\"arch\":\"4x4\",\"scale\":\"tiny\",\"baseline\":true".into(),
            ),
        ];
        for preset in ["4x4", "8x8", "9x9", "16x16", "6x1"] {
            rows.push((vec!["--arch", preset], format!("\"arch\":\"{preset}\"")));
        }
        for scale in ["tiny", "scaled", "paper"] {
            rows.push((vec!["--scale", scale], format!("\"scale\":\"{scale}\"")));
        }
        for mapper in ["spr", "ultrafast", "sat"] {
            rows.push((vec!["--mapper", mapper], format!("\"mapper\":\"{mapper}\"")));
        }
        for (flags, fields) in rows {
            let row = flags.join(" ");
            let args = [&["--dfg", "fir"], flags.as_slice()].concat();
            let sep = if fields.is_empty() { "" } else { "," };
            let body = format!("{{\"kernel\":\"fir\"{sep}{fields}}}");
            let cli = from_cli(&args).unwrap_or_else(|e| panic!("{row}: cli: {e}"));
            let json = from_json(&body).unwrap_or_else(|e| panic!("{row}: json: {e}"));
            assert_eq!(key(&cli), key(&json), "{row}");
        }
    }

    #[test]
    fn cli_flags_and_compile_json_reject_unknown_names_alike() {
        // (argv, body, the owning crate's message both errors start with);
        // the CLI goes on to say it also tried the name as a file, the
        // daemon to point at `arch_text`.
        let rows = [
            (
                vec!["--dfg", "fir", "--scale", "huge"],
                "{\"kernel\":\"fir\",\"scale\":\"huge\"}",
                "unknown scale `huge`",
            ),
            (
                vec!["--dfg", "fir", "--mapper", "magic"],
                "{\"kernel\":\"fir\",\"mapper\":\"magic\"}",
                "unknown mapper `magic`",
            ),
            (
                vec!["--dfg", "no-such-kernel"],
                "{\"kernel\":\"no-such-kernel\"}",
                "unknown kernel `no-such-kernel`",
            ),
            (
                vec!["--dfg", "fir", "--arch", "3x3"],
                "{\"kernel\":\"fir\",\"arch\":\"3x3\"}",
                "unknown arch preset `3x3`",
            ),
        ];
        for (args, body, message) in rows {
            let cli = from_cli(&args).expect_err(message);
            let json = from_json(body).expect_err(message);
            assert!(cli.starts_with(message), "cli: {cli}");
            assert!(json.starts_with(message), "json: {json}");
        }
        // The one name the surfaces differ on by design: only the CLI races
        // the portfolio (never as a baseline).
        let cli = from_cli(&["--dfg", "fir", "--mapper", "portfolio"]).unwrap();
        assert_eq!(cli.mapper, MapperChoice::Portfolio);
        let json = from_json("{\"kernel\":\"fir\",\"mapper\":\"portfolio\"}").unwrap_err();
        assert_eq!(json, "unknown mapper `portfolio`");
        let cli = from_cli(&["--dfg", "fir", "--mapper", "portfolio", "--baseline"]).unwrap_err();
        assert!(cli.contains("--baseline races a single mapper"), "{cli}");
    }
}
