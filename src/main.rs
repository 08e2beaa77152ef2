//! `panorama` — the command-line CGRA compiler.
//!
//! Each subcommand is one [`COMMANDS`] entry: its operand, its flags and
//! its handler. `panorama help` prints the synopsis generated from that
//! table, and argv parses through it into the [`Json`] object a
//! `POST /compile` or `POST /lint` body is: `compile`, `trace` and `exec`
//! hand it to [`CompileRequest::from_json`] and run the request through
//! [`CompileRequest::run`]; `lint --dfg` hands it to [`lint_request`].
//! What each subcommand does is documented on its `cmd_*` handler.

use panorama::request::{arch_or_default, dfg_field, lint_request};
use panorama::{
    effective_threads, AnalyzeConfig, BackendId, CompileContext, CompileRequest, MapperChoice,
};
use panorama_analyze::{analyze, analyze_diagnostics};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_exec::{exec_report_json, execute, ExecOptions};
use panorama_lint::{lint_report, Diagnostics};
use panorama_mapper::{min_ii, sat_attempt_log, CancelToken, Configware, SatMapper};
use panorama_sim::simulate;
use panorama_trace::json::Json;
use panorama_trace::{RecordingSink, TraceReport, Tracer};
use std::collections::HashMap;
use std::error::Error;
use std::io::Read as _;
use std::process::ExitCode;
use std::time::Instant;

/// What a flag takes.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: the flag is a switch.
    Switch,
    /// A value, shown as this placeholder.
    Text(&'static str),
    /// A value the command cannot run without, shown as this placeholder.
    Required(&'static str),
    /// An integer at or above the bound (0 or 1), shown as the placeholder.
    Int(&'static str, u64),
}
use Takes::{Int, Required, Switch, Text};

/// A flag: its name (without `--`) and what it takes.
type Flag = (&'static str, Takes);

const DFG: Flag = ("dfg", Text("<file|-|kernel-name>"));
const ARCH: Flag = ("arch", Text("<file|preset>"));
const MAPPER: Flag = ("mapper", Text("spr|ultrafast|sat|portfolio"));
const SCALE: Flag = ("scale", Text("tiny|scaled|paper"));
const THREADS: Flag = ("threads", COUNT);
const MAX_II: Flag = ("max-ii", Int("<ii>", 0));
const TRACE: Flag = ("trace", Text("<file>"));
const OUT: Flag = ("out", Text("<file>"));
const JSON: Flag = ("json", Switch);
const COUNT: Takes = Int("<n>", 0);
const KERNEL: Option<&str> = Some("<kernel-name|file|->");

/// A subcommand: the one place its operand and flags are declared. The
/// usage text, the accepted-flags list of an error and argv parsing all
/// read this table.
struct Command {
    name: &'static str,
    /// The operand it takes before its flags, as the usage text shows it.
    operand: Option<&'static str>,
    run: fn(&Args) -> Result<(), Box<dyn Error>>,
    flags: &'static [Flag],
}

#[rustfmt::skip] // a table: one row per command
const COMMANDS: &[Command] = &[
    Command { name: "compile", operand: None, run: cmd_compile, flags: &[
        ("dfg", Required("<file|-|kernel-name>")), ARCH, MAPPER, ("baseline", Switch), SCALE,
        THREADS, MAX_II, ("simulate", Int("<iters>", 0)), ("configware", Switch), ("dot", Switch),
        TRACE, ("sat-report", Text("<file>")), ("analyze", Switch), JSON,
    ] },
    Command { name: "analyze", operand: KERNEL, run: cmd_analyze, flags: &[
        ARCH, SCALE, ("no-fold", Switch), ("no-cse", Switch), ("no-dce", Switch), OUT, JSON,
    ] },
    Command { name: "trace", operand: KERNEL, run: cmd_trace, flags: &[
        ARCH, MAPPER, ("baseline", Switch), SCALE, THREADS, MAX_II, OUT,
    ] },
    Command { name: "exec", operand: KERNEL, run: cmd_exec, flags: &[
        ARCH, MAPPER, SCALE, THREADS, MAX_II, ("iterations", Int("<n>", 1)), ("seed", COUNT),
        OUT, JSON, TRACE,
    ] },
    Command { name: "lint", operand: None, run: cmd_lint, flags: &[
        DFG, ARCH, SCALE, MAX_II, JSON, ("report", Text("<file>")),
    ] },
    Command { name: "fuzz", operand: None, run: cmd_fuzz, flags: &[
        ("seed", COUNT), ("cases", COUNT), ("max-nodes", COUNT), ("shrink-evals", COUNT),
        ("max-seconds", Int("<s>", 0)), ("corpus", Text("<dir>")), ("write-corpus", Switch),
        OUT, JSON,
    ] },
    Command { name: "serve", operand: None, run: cmd_serve, flags: &[
        ("addr", Text("<ip:port>")), ("workers", COUNT), ("queue-depth", COUNT),
        ("deadline-ms", Int("<ms>", 0)), ("result-cache", COUNT), ("mrrg-cache", COUNT), THREADS,
        ("analyze", Switch), ("cache-dir", Text("<dir>")), ("cache-budget", Int("<bytes>", 0)),
        ("quota-rps", COUNT), ("quota-burst", COUNT), ("io-timeout-ms", Int("<ms>", 0)),
    ] },
    Command { name: "kernels", operand: None, run: cmd_kernels, flags: &[SCALE] },
    Command { name: "info", operand: None, run: cmd_info, flags: &[ARCH] },
];

/// A flag as usage spells it: `--name`, then its placeholder if it takes
/// a value.
fn spell((name, takes): Flag) -> String {
    match takes {
        Switch => format!("--{name}"),
        Text(value) | Required(value) | Int(value, _) => format!("--{name} {value}"),
    }
}

/// The error for a [`Required`] flag of `cmd` left out.
fn missing(cmd: &str, flag: &str) -> String {
    let command = COMMANDS.iter().find(|c| c.name == cmd);
    let entry = command.and_then(|c| c.flags.iter().find(|f| f.0 == flag));
    let spelled = entry.map_or_else(|| format!("--{flag}"), |&f| spell(f));
    format!("`{cmd}` needs {spelled}")
}

/// The usage text: one line per [`COMMANDS`] entry; optional flags are
/// bracketed.
fn usage() -> String {
    let line = |cmd: &Command| {
        let operand = cmd.operand.map(|o| format!(" {o}")).unwrap_or_default();
        let flags: String = cmd
            .flags
            .iter()
            .map(|&flag| match flag.1 {
                Required(_) => format!(" {}", spell(flag)),
                _ => format!(" [{}]", spell(flag)),
            })
            .collect();
        format!("  panorama {}{operand}{flags}", cmd.name)
    };
    let lines: Vec<String> = COMMANDS.iter().map(line).collect();
    let presets = "presets: 4x4, 8x8, 9x9, 16x16, 6x1";
    format!("usage:\n{}\n\n{presets}", lines.join("\n"))
}

/// A command line parsed against its [`Command`]: each given flag's value
/// as the JSON a request body spells it with (`true` for a switch, an
/// integer for an integer flag, else a string).
struct Args {
    /// The operand of a command that takes one, else empty.
    operand: String,
    given: HashMap<&'static str, Json>,
}

impl Args {
    fn has(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.given.get(name).and_then(Json::as_str)
    }

    fn int(&self, name: &str) -> Option<u64> {
        self.given.get(name).and_then(Json::as_u64)
    }

    /// An integer flag as a count, `default` when absent.
    fn n(&self, name: &str, default: usize) -> usize {
        self.int(name).map_or(default, |n| n as usize)
    }
}

/// Parses the arguments after the command name against `cmd`'s table:
/// every flag known and given at most once, every value present, and every
/// integer at or above its bound.
fn parse_args(cmd: &Command, args: &[String]) -> Result<Args, String> {
    let mut args = args.iter().peekable();
    let mut operand = String::new();
    if let Some(what) = cmd.operand {
        let first = args.next_if(|a| !a.starts_with("--")).cloned();
        operand = first.ok_or_else(|| format!("`{}` needs {what} first", cmd.name))?;
    }
    let mut given = HashMap::new();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        let Some(&(name, takes)) = cmd.flags.iter().find(|f| f.0 == name) else {
            let accepted: Vec<String> = cmd.flags.iter().map(|f| format!("--{}", f.0)).collect();
            let (cmd, accepted) = (cmd.name, accepted.join(", "));
            return Err(format!(
                "unknown flag `--{name}` for `{cmd}` (accepted: {accepted})"
            ));
        };
        let mut next_value = || args.next().ok_or_else(|| format!("--{name} needs a value"));
        let value = match takes {
            Switch => Json::Bool(true),
            Text(_) | Required(_) => Json::Str(next_value()?.clone()),
            Int(_, min) => {
                let value = next_value()?;
                let kind = if min == 0 { "non-negative" } else { "positive" };
                let bad = || format!("--{name} needs a {kind} integer, got `{value}`");
                Json::Int(value.parse().ok().filter(|n| *n >= min).ok_or_else(bad)?)
            }
        };
        if given.insert(name, value).is_some() {
            return Err(format!("--{name} is given more than once"));
        }
    }
    Ok(Args { operand, given })
}

/// Reads an input file, or stdin for `-`.
fn read_input(path: &str) -> std::io::Result<String> {
    if path != "-" {
        return std::fs::read_to_string(path);
    }
    let mut buf = String::new();
    std::io::stdin().read_to_string(&mut buf).map(|_| buf)
}

/// The flags that spell a request field of the same name (`--max-ii` is
/// `max_ii`).
const REQUEST_FIELDS: [&str; 6] = [
    "scale", "mapper", "baseline", "threads", "max-ii", "analyze",
];

/// The `/compile` (or `/lint`) body `kernel` and `args` spell. Names
/// resolve as a body cannot: a built-in kernel wins, else `-` is stdin and
/// anything else a DFG file, read into `dfg`; a preset wins, else `--arch`
/// is an ADL file, read into `arch_text` and shown as its path. The
/// [`REQUEST_FIELDS`] flags go in as they are.
fn request_doc(kernel: Option<&str>, args: &Args) -> Result<Json, String> {
    let mut fields = Vec::new();
    if let Some(spec) = kernel {
        let (field, value) = match KernelId::parse(spec) {
            Ok(_) => ("kernel", spec.to_string()),
            Err(unknown) => {
                let error = |e| format!("{unknown}; reading it as a DFG file: {e}");
                ("dfg", read_input(spec).map_err(error)?)
            }
        };
        fields.push((field.to_string(), Json::Str(value)));
    }
    if let Some(spec) = args.text("arch") {
        fields.push(("arch".to_string(), Json::Str(spec.to_string())));
        if let Err(unknown) = CgraConfig::preset(spec) {
            let text = std::fs::read_to_string(spec)
                .map_err(|e| format!("{unknown}; reading it as an ADL file: {e}"))?;
            fields.push(("arch_text".to_string(), Json::Str(text)));
        }
    }
    for name in REQUEST_FIELDS {
        match args.given.get(name) {
            // CLI-only: `compile_request` picks it after the body parses
            Some(Json::Str(mapper)) if name == "mapper" && mapper == "portfolio" => {}
            Some(value) => fields.push((name.replace('-', "_"), value.clone())),
            None => {}
        }
    }
    Ok(Json::Obj(fields))
}

/// The request `compile`, `trace` and `exec` run: `kernel` and the request
/// flags through the `/compile` body parser, after the checks that span
/// flags.
fn compile_request(kernel: &str, args: &Args) -> Result<CompileRequest, String> {
    let portfolio = args.text("mapper") == Some("portfolio");
    if args.has("sat-report") && args.text("mapper") != Some(BackendId::Sat.name()) {
        return Err("--sat-report requires --mapper sat".into());
    }
    let mut req = CompileRequest::from_json(&request_doc(Some(kernel), args)?, 0, false)?;
    if portfolio {
        req.mapper = MapperChoice::Portfolio;
    }
    Ok(req)
}

/// `panorama compile`: map one DFG onto an architecture and report the
/// mapping; `--analyze` maps the graph the equivalence-checked optimizer
/// of [`panorama_analyze`] leaves.
fn cmd_compile(args: &Args) -> Result<(), Box<dyn Error>> {
    let dfg = args.text("dfg").ok_or_else(|| missing("compile", "dfg"))?;
    let req = compile_request(dfg, args)?;
    let (dfg, cgra) = (&req.dfg, Cgra::new(req.arch.clone())?);
    eprintln!(
        "kernel `{}`: {} | CGRA {}x{} ({} clusters)",
        dfg.name(),
        dfg.stats(),
        cgra.config().rows,
        cgra.config().cols,
        cgra.num_clusters()
    );
    if args.has("dot") {
        println!("{}", dfg.to_dot());
    }

    let sink = args.has("trace").then(RecordingSink::shared);
    let tracer = sink.as_ref().map(|sink| Tracer::new(sink.clone()));
    // `--mapper sat` runs on an instance the CLI owns, so `--sat-report`
    // can drain its per-II attempt log afterwards.
    let sat = SatMapper::default();
    let start = Instant::now();
    let report = if req.mapper == MapperChoice::Backend(BackendId::Sat) {
        let ctx = CompileContext {
            tracer: tracer.as_ref(),
            ..CompileContext::default()
        };
        req.run_with(&cgra, &[&sat], &ctx)
    } else {
        req.run(&cgra, tracer.as_ref(), None)
    };
    if let Some(sink) = &sink {
        write_trace(args.text("trace"), &req, sink, start)?;
    }
    let report = report?;
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
    if let Some(path) = args.text("sat-report") {
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
    if args.has("json") {
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
    if let Some(iters) = args.int("simulate") {
        match simulate(mapped, &cgra, mapping, iters as usize) {
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
    if args.has("configware") && mapping.routes().is_some() {
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

/// Assembles the `panorama-trace-v1` report of one run from everything
/// `sink` recorded, writes it to `path` when one is given, and returns it.
/// The commands call it before they look at the run's result, so a run
/// that fails leaves its trace too; `wall_ns` runs from `start` to the
/// run's end or its error.
fn write_trace(
    path: Option<&str>,
    req: &CompileRequest,
    sink: &RecordingSink,
    start: Instant,
) -> std::io::Result<TraceReport> {
    // read the clock first: the report's own assembly (the core count is
    // read from the OS) is not part of the run
    let wall_ns = start.elapsed().as_nanos() as u64;
    let trace = TraceReport {
        kernel: req.dfg.name().to_string(),
        arch: req.arch_display.clone(),
        mapper: req.mapper.name().to_string(),
        threads: effective_threads(req.threads, usize::MAX),
        wall_ns,
        events: sink.take(),
    };
    if let Some(path) = path {
        std::fs::write(path, trace.to_json())?;
        eprintln!("wrote trace {path}");
    }
    Ok(trace)
}

/// `panorama trace`: compile one kernel with recording always on and print
/// the per-phase profile table instead of the mapping details; `--out`
/// additionally writes the `panorama-trace-v1` JSON.
fn cmd_trace(args: &Args) -> Result<(), Box<dyn Error>> {
    let req = compile_request(&args.operand, args)?;
    let cgra = Cgra::new(req.arch.clone())?;
    let sink = RecordingSink::shared();
    let tracer = Tracer::new(sink.clone());
    let start = Instant::now();
    let report = req.run(&cgra, Some(&tracer), None);
    let trace = write_trace(args.text("out"), &req, &sink, start)?;
    print!("{}", trace.render_profile());
    let report = report?;
    let mapping = report.mapping();
    eprintln!(
        "mapped `{}` with {} at II {} in {:.2?}",
        req.dfg.name(),
        mapping.mapper(),
        mapping.ii(),
        report.total_time()
    );
    Ok(())
}

/// `panorama exec`: compile one kernel, then *run* the emitted configware
/// on the data-carrying cycle-accurate machine and compare every produced
/// token against the DFG reference interpreter under all five
/// input-vector families (seeded, zeros, ones, `i32::MIN`, `i32::MAX`).
/// `--out`/`--json` emit the deterministic `panorama-exec-v1` report
/// (byte-identical per seed); `--trace` records the compile phases plus
/// `exec`/`exec.run` spans. Exits nonzero on any value-level divergence.
fn cmd_exec(args: &Args) -> Result<(), Box<dyn Error>> {
    let req = compile_request(&args.operand, args)?;
    let (dfg, cgra) = (&req.dfg, Cgra::new(req.arch.clone())?);
    let sink = args.has("trace").then(RecordingSink::shared);
    let tracer = (sink.as_ref()).map_or_else(Tracer::disabled, |sink| Tracer::new(sink.clone()));
    let defaults = ExecOptions::default();
    let opts = ExecOptions {
        iterations: args.n("iterations", defaults.iterations),
        seed: args.int("seed").unwrap_or(defaults.seed),
    };
    // the trace covers the compile and the execution
    let start = Instant::now();
    let run = || -> Result<_, Box<dyn Error>> {
        let report = req.run(&cgra, Some(&tracer), None)?;
        let (mapped, mapping) = (report.mapped_dfg(dfg), report.mapping());
        mapping.verify(mapped, &cgra)?;
        // The exec spans ride in their own collector; the high sequence
        // base keeps them sorted after every pipeline event of the same
        // candidate.
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
        Ok((report, outcome))
    };
    let result = run();
    if let Some(sink) = &sink {
        write_trace(args.text("trace"), &req, sink, start)?;
    }
    let (report, outcome) = result?;
    let mapping = report.mapping();
    let doc = exec_report_json(dfg.name(), &req.arch_display, mapping.mapper(), &outcome);
    if let Some(path) = args.text("out") {
        std::fs::write(path, &doc)?;
        eprintln!("wrote exec report {path}");
    }
    if args.has("json") {
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
fn cmd_analyze(args: &Args) -> Result<(), Box<dyn Error>> {
    let doc = request_doc(Some(&args.operand), args)?;
    let dfg = dfg_field(&doc)?;
    let cgra = Cgra::new(arch_or_default(&doc)?.1)?;
    let config = AnalyzeConfig {
        fold_constants: !args.has("no-fold"),
        merge_common: !args.has("no-cse"),
        eliminate_dead: !args.has("no-dce"),
        ..AnalyzeConfig::default()
    };
    let analysis = analyze(&dfg, &config)?;
    let r = &analysis.report;
    if args.has("json") {
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
    if !diags.is_empty() && !args.has("json") {
        print!("{}", diags.render_human());
    }
    if let Some(path) = args.text("out") {
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
fn cmd_fuzz(args: &Args) -> Result<(), Box<dyn Error>> {
    let defaults = panorama_fuzz::FuzzOptions::default();
    let cancel = args
        .int("max-seconds")
        .map(std::time::Duration::from_secs)
        .map_or_else(CancelToken::new, CancelToken::with_deadline);
    let opts = panorama_fuzz::FuzzOptions {
        seed: args.int("seed").unwrap_or(defaults.seed),
        cases: args.n("cases", defaults.cases),
        max_nodes: args.n("max-nodes", defaults.max_nodes),
        shrink_evals: args.n("shrink-evals", defaults.shrink_evals),
        oracle: panorama_fuzz::OracleConfig {
            cancel: Some(cancel.clone()),
            ..panorama_fuzz::OracleConfig::default()
        },
        corpus_dir: args.text("corpus").map(std::path::PathBuf::from),
    };
    if args.has("write-corpus") && opts.corpus_dir.is_none() {
        return Err("--write-corpus needs --corpus <dir>".into());
    }
    let report = panorama_fuzz::run(&opts);
    if args.has("write-corpus") {
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
    if let Some(path) = args.text("out") {
        std::fs::write(path, report.to_json())?;
        eprintln!("wrote fuzz report {path}");
    }
    if args.has("json") {
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

/// `panorama lint`: static diagnostics over a kernel (and optionally an
/// architecture) without mapping anything; `--report` validates a recorded
/// trace/serve/fuzz/analyze JSON file instead of (or besides) a kernel,
/// auto-detecting the schema. Exits nonzero when any error-severity
/// finding is reported.
fn cmd_lint(args: &Args) -> Result<(), Box<dyn Error>> {
    let (dfg, report) = (args.text("dfg"), args.text("report"));
    if dfg.is_none() && report.is_none() {
        return Err("`lint` needs --dfg <file|-|kernel-name> and/or --report <file>".into());
    }
    let mut diags = match dfg {
        Some(spec) => lint_request(&request_doc(Some(spec), args)?)?,
        None => Diagnostics::new(),
    };
    if let Some(path) = report {
        lint_report(&read_input(path)?, &mut diags).map_err(|e| format!("--report: {e}"))?;
    }
    if args.has("json") {
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
fn cmd_serve(args: &Args) -> Result<(), Box<dyn Error>> {
    let defaults = panorama_serve::ServeConfig::default();
    let millis = |name| args.int(name).map(std::time::Duration::from_millis);
    let config = panorama_serve::ServeConfig {
        addr: args.text("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: args.n("workers", defaults.workers),
        queue_depth: args.n("queue-depth", defaults.queue_depth),
        deadline: millis("deadline-ms"),
        result_cache_capacity: args.n("result-cache", defaults.result_cache_capacity),
        mrrg_cache_capacity: args.n("mrrg-cache", defaults.mrrg_cache_capacity),
        portfolio_threads: args.n("threads", 0),
        analyze: args.has("analyze"),
        cache_dir: args.text("cache-dir").map(std::path::PathBuf::from),
        cache_budget: args.int("cache-budget").unwrap_or(defaults.cache_budget),
        quota_rps: args.int("quota-rps").unwrap_or(defaults.quota_rps),
        quota_burst: args.int("quota-burst").unwrap_or(defaults.quota_burst),
        // 0 disables the per-socket read/write timeouts entirely
        io_timeout: millis("io-timeout-ms")
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

fn cmd_kernels(args: &Args) -> Result<(), Box<dyn Error>> {
    let scale = args
        .text("scale")
        .map_or(Ok(KernelScale::default()), KernelScale::parse)?;
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

fn cmd_info(args: &Args) -> Result<(), Box<dyn Error>> {
    let cgra = Cgra::new(arch_or_default(&request_doc(None, args)?)?.1)?;
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        let names = names.join(", ");
        eprintln!(
            "error: unknown command `{name}` (expected {names} or help)\n\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    };
    let result = parse_args(cmd, rest)
        .map_err(|e| format!("{e}\n\n{}", usage()).into())
        .and_then(|args| (cmd.run)(&args));
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

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn every_flag_of_every_command_is_checked_by_its_table() {
        for cmd in COMMANDS {
            // a command that takes an operand gets one first
            let lead: &[&str] = if cmd.operand.is_some() { &["fir"] } else { &[] };
            let parse = |args: &[&str]| parse_args(cmd, &argv(&[lead, args].concat()));
            let fails = |args: &[&str], why: &str| match parse(args) {
                Ok(_) => panic!("`{} {}` parsed", cmd.name, args.join(" ")),
                Err(e) => assert!(e.contains(why), "`{} {}`: {e}", cmd.name, args.join(" ")),
            };
            for &(name, takes) in cmd.flags {
                let flag = format!("--{name}");
                let value = match takes {
                    Switch => None,
                    Text(_) | Required(_) => Some("x".to_string()),
                    Int(_, min) => Some(min.to_string()),
                };
                let once: Vec<&str> = [Some(flag.as_str()), value.as_deref()]
                    .into_iter()
                    .flatten()
                    .collect();
                assert!(parse(&once).unwrap().has(name), "`{} {flag}`", cmd.name);
                let twice = [&once[..], &once].concat();
                fails(&twice, &format!("{flag} is given more than once"));
                if value.is_some() {
                    fails(&[&flag], &format!("{flag} needs a value"));
                }
                if let Int(_, min) = takes {
                    assert!(min <= 1, "{flag}: the error wording knows bounds 0 and 1");
                    let below = min.checked_sub(1).map(|m| m.to_string());
                    for bad in ["abc", "-1", "1.5"].into_iter().chain(below.as_deref()) {
                        fails(&[&flag, bad], &format!("{flag} needs a "));
                    }
                }
            }
            fails(&["--no-such-flag"], "unknown flag `--no-such-flag`");
        }
    }

    /// `compile` argv through the CLI's flag parser.
    fn from_cli(args: &[&str]) -> Result<CompileRequest, String> {
        let compile = COMMANDS.iter().find(|c| c.name == "compile").unwrap();
        let args = parse_args(compile, &argv(args))?;
        compile_request(args.text("dfg").unwrap(), &args)
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
        // the portfolio.
        let cli = from_cli(&["--dfg", "fir", "--mapper", "portfolio"]).unwrap();
        assert_eq!(cli.mapper, MapperChoice::Portfolio);
        let json = from_json("{\"kernel\":\"fir\",\"mapper\":\"portfolio\"}").unwrap_err();
        assert_eq!(json, "unknown mapper `portfolio`");
    }
}
