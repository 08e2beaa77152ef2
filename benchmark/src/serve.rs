//! `serve8x8-mix`: the compiler behind the daemon.
//!
//! A closed loop: two client threads, each sending its next `/compile`
//! only after the previous reply arrived, against an in-process
//! `panorama_serve::Server` with two workers. No client models an
//! arrival process — every caller waits for its reply — so there is no
//! open-loop rate to report; throughput is requests over wall time.
//! Each pass restarts the daemon on an empty cache directory, so the
//! same seeded bodies miss again.

use crate::inputs::{self, slug, Input, ServeMix};
use crate::report::{budget_spent, peak_rss_mb, Metrics, Outcome};
use crate::span::Recorder;
use crate::staged::{self, Backend};
use crate::stats::{geomean, median, percentile};
use panorama::arch::{Cgra, CgraConfig};
use panorama::dfg::Dfg;
use panorama::mapper::SprMapper;
use panorama::trace::json::{parse, Json};
use panorama::{Panorama, PanoramaConfig};
use panorama_serve::{ServeConfig, Server};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Client threads, and daemon workers: one per core of the reference
/// machine, so compiles run concurrently but nothing queues for a core.
const CLIENTS: usize = 2;

/// Extra set-up repetitions after every pass, so `setup_s` is a median of
/// more than the handful of passes that fit, taken across the whole run.
const SETUPS_PER_PASS: usize = 12;

/// Sequential probe requests per kind in the traced run: enough that the
/// p90 has twenty samples beyond it.
const PROBE_REQUESTS: usize = 200;

/// One HTTP exchange over a fresh connection; `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let payload = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, payload.to_string()))
}

/// A running daemon and what is needed to stop it.
struct Daemon {
    addr: SocketAddr,
    drain: panorama_serve::DrainHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    cache_dir: PathBuf,
}

impl Daemon {
    /// Binds on a free loopback port with an empty disk cache under
    /// `scratch`, starts serving, and waits until `/healthz` answers.
    fn start(scratch: &Path, tag: usize) -> Result<Daemon, String> {
        let cache_dir = scratch.join(format!("serve-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: CLIENTS,
            // Closed loop: at most CLIENTS requests exist at once, so the
            // queue can never fill and nothing is shed.
            queue_depth: 16,
            portfolio_threads: 1,
            warm_cache: false,
            cache_dir: Some(cache_dir.clone()),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let drain = server.drain_handle();
        let thread = std::thread::spawn(move || server.run());
        let daemon = Daemon {
            addr,
            drain,
            thread,
            cache_dir,
        };
        match http(addr, "GET", "/healthz", "") {
            Ok((200, _)) => Ok(daemon),
            other => {
                let _ = daemon.stop();
                Err(format!("daemon did not come up: {other:?}"))
            }
        }
    }

    /// Drains, joins the serve thread and removes the cache directory.
    fn stop(self) -> Result<(), String> {
        self.drain.drain();
        let joined = self.thread.join();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve loop: {e}")),
            Err(_) => Err("serve thread panicked".into()),
        }
    }
}

/// One answered request.
struct Reply {
    body: usize,
    repeat: bool,
    status: u16,
    payload: String,
    latency_s: f64,
    /// `(start, end)` on the run's clock, for the span file.
    interval_ns: (u64, u64),
}

/// What one pass measured.
struct Pass {
    wall_s: f64,
    setup_s: f64,
    replies: Vec<Reply>,
    metrics: Json,
}

/// Sets up (mix, daemon), sends the mix from `CLIENTS` closed-loop
/// threads, scrapes `/metrics`, and optionally runs the latency probes
/// before draining.
fn run_pass(
    scratch: &Path,
    seed: u64,
    tag: usize,
    epoch: Instant,
    probe: Option<&mut Metrics>,
) -> Result<(Pass, ServeMix), String> {
    let t = Instant::now();
    let mix = inputs::serve_mix(seed, CLIENTS);
    let daemon = Daemon::start(scratch, tag)?;
    let setup_s = t.elapsed().as_secs_f64();
    let addr = daemon.addr;

    let started = Instant::now();
    let sent: Result<Vec<Vec<Reply>>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = mix
            .clients
            .iter()
            .map(|sequence| {
                let bodies = &mix.bodies;
                scope.spawn(move || {
                    sequence
                        .iter()
                        .map(|req| {
                            let start = epoch.elapsed();
                            let (status, payload) =
                                http(addr, "POST", "/compile", &bodies[req.body])?;
                            let end = epoch.elapsed();
                            Ok(Reply {
                                body: req.body,
                                repeat: req.repeat,
                                status,
                                payload,
                                latency_s: (end - start).as_secs_f64(),
                                interval_ns: (start.as_nanos() as u64, end.as_nanos() as u64),
                            })
                        })
                        .collect::<Result<Vec<Reply>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let scraped = http(addr, "GET", "/metrics", "").and_then(|(status, body)| {
        if status == 200 {
            parse(&body)
        } else {
            Err(format!("/metrics returned {status}"))
        }
    });
    if let (Some(m), Ok(replies)) = (probe, &sent) {
        latency_probes(addr, &mix, replies, m);
    }
    daemon.stop()?;
    Ok((
        Pass {
            wall_s,
            setup_s,
            replies: sent?.into_iter().flatten().collect(),
            metrics: scraped?,
        },
        mix,
    ))
}

/// Sequential `/healthz` and cache-hit exchanges against the warm daemon:
/// HTTP framing alone, and framing + parse + key + cache read.
fn latency_probes(addr: SocketAddr, mix: &ServeMix, replies: &[Vec<Reply>], m: &mut Metrics) {
    let time = |method: &str, path: &str, body: &str| -> Vec<f64> {
        (0..PROBE_REQUESTS)
            .filter_map(|_| {
                let t = Instant::now();
                let ok = matches!(http(addr, method, path, body), Ok((200, _)));
                ok.then(|| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    };
    let healthz = time("GET", "/healthz", "");
    let answered = replies.iter().flatten().next().map_or(0, |r| r.body);
    let hits = time("POST", "/compile", &mix.bodies[answered]);
    if healthz.len() == PROBE_REQUESTS && hits.len() == PROBE_REQUESTS {
        m.set("serve.healthz_p50_us", median(&healthz));
        m.set("serve.hit_p50_us", median(&hits));
        m.set(
            "serve.hit_p90_us",
            percentile(&hits, 90).unwrap_or(f64::NAN),
        );
    }
}

fn counter(doc: &Json, section: &str, field: &str) -> f64 {
    doc.get(section)
        .and_then(|s| s.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Compiles every distinct body in-process exactly as the daemon is
/// configured to (SPR\*, guided, one portfolio thread, no analysis) and
/// returns the byte-exact document it must have served, with the compile
/// time. `threads` is 2 when only the bytes matter (the untraced run) and
/// 1 when the times are reported: on the two-thread reference machine a
/// compile beside another runs at about two thirds of its speed alone.
fn reference_documents(mix: &ServeMix, threads: usize) -> Vec<Result<(String, f64), String>> {
    let compile = |input: &Input| -> Result<(String, f64), String> {
        // Through the text form, as the daemon receives it.
        let dfg = Dfg::from_text(&input.dfg.to_text()).map_err(|e| e.to_string())?;
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).map_err(|e| e.to_string())?;
        let compiler = Panorama::new(PanoramaConfig {
            threads: 1,
            ..PanoramaConfig::default()
        });
        let t = Instant::now();
        let report = compiler
            .compile(&dfg, &cgra, &SprMapper::default())
            .map_err(|e| e.to_string())?;
        let seconds = t.elapsed().as_secs_f64();
        Ok((format!("{}\n", report.to_json(dfg.name(), "8x8")), seconds))
    };
    let share = mix.dfgs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = mix
            .dfgs
            .chunks(share)
            .map(|chunk| scope.spawn(move || chunk.iter().map(compile).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference compile panicked"))
            .collect()
    })
}

/// Checks every reply of `pass` and tallies into `outcome`.
fn check_pass(
    outcome: &mut Outcome,
    pass: &Pass,
    mix: &ServeMix,
    expected: &[Result<(String, f64), String>],
) {
    for reply in &pass.replies {
        outcome.attempted += 1;
        let kernel = slug(mix.dfgs[reply.body].kernel);
        let what = if reply.repeat { "repeat" } else { "fresh" };
        if reply.status != 200 {
            outcome.fail(format!(
                "{kernel} ({what}): HTTP {}: {}",
                reply.status,
                reply.payload.trim()
            ));
            continue;
        }
        match &expected[reply.body] {
            Ok((document, _)) if *document == reply.payload => {}
            Ok(_) => outcome.fail(format!(
                "{kernel} ({what}): served bytes differ from in-process CompileReport::to_json"
            )),
            Err(why) => outcome.fail(format!(
                "{kernel}: in-process reference compile failed: {why}"
            )),
        }
    }
    // The daemon's own books must agree with what was sent.
    let fresh = mix.bodies.len() as f64;
    let total = mix.len() as f64;
    for (section, field, want) in [
        ("requests", "received", total),
        ("requests", "completed", total),
        ("requests", "shed", 0.0),
        ("requests", "failed", 0.0),
        ("requests", "cancelled", 0.0),
        ("result_cache", "hits", total - fresh),
        ("result_cache", "misses", fresh),
        ("disk_cache", "entries", fresh),
    ] {
        let got = counter(&pass.metrics, section, field);
        if got != want {
            outcome.problems.push(format!(
                "/metrics {section}.{field} is {got}, expected {want}"
            ));
        }
    }
}

/// Per distinct body, the median over passes of its cache-missing
/// request's latency, milliseconds.
fn miss_medians_ms(passes: &[Pass], bodies: usize) -> Vec<f64> {
    let mut per_body: Vec<Vec<f64>> = vec![Vec::new(); bodies];
    for reply in passes.iter().flat_map(|p| &p.replies).filter(|r| !r.repeat) {
        per_body[reply.body].push(reply.latency_s * 1e3);
    }
    per_body
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| median(l))
        .collect()
}

/// Latencies of the cache-missing requests, milliseconds.
fn miss_latencies_ms(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| &p.replies)
        .filter(|r| !r.repeat)
        .map(|r| r.latency_s * 1e3)
        .collect()
}

/// II and MII of every distinct served document.
fn served_quality(pass: &Pass, fresh: usize) -> Vec<(f64, f64)> {
    let mut seen = vec![false; fresh];
    pass.replies
        .iter()
        .filter(|r| r.status == 200 && !std::mem::replace(&mut seen[r.body], true))
        .filter_map(|r| {
            let doc = parse(&r.payload).ok()?;
            Some((doc.get("ii")?.as_f64()?, doc.get("mii")?.as_f64()?))
        })
        .collect()
}

/// Set-up alone (mix generation, daemon start), then straight back down:
/// extra `setup_s` samples beside the ones the passes give.
fn set_up_only(scratch: &Path, seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    let _mix = inputs::serve_mix(seed, CLIENTS);
    let daemon = Daemon::start(scratch, usize::MAX)?;
    let seconds = t.elapsed().as_secs_f64();
    daemon.stop()?;
    Ok(seconds)
}

/// The untraced run: end-to-end metrics.
pub fn run(scratch: &Path, seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups: Vec<f64> = Vec::new();
    let mix = inputs::serve_mix(seed, CLIENTS);
    // The documents the daemon must serve: compiled in process right after
    // the first pass (whose memory reading they must not disturb), then
    // every pass is checked as soon as it ends and its payloads dropped.
    let mut expected = Vec::new();
    let mut quality: Vec<(f64, f64)> = Vec::new();
    let epoch = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        match run_pass(scratch, seed, passes.len(), epoch, None) {
            Ok((mut pass, _)) => {
                if passes.is_empty() {
                    outcome.metrics.set("peak_rss_mb", peak_rss_mb());
                    expected = reference_documents(&mix, CLIENTS);
                    quality = served_quality(&pass, mix.bodies.len());
                }
                check_pass(&mut outcome, &pass, &mix, &expected);
                for reply in &mut pass.replies {
                    reply.payload = String::new();
                }
                passes.push(pass);
            }
            Err(why) => {
                outcome.fail(format!("pass {}: {why}", passes.len()));
                break;
            }
        }
        setups.extend((0..SETUPS_PER_PASS).filter_map(|_| set_up_only(scratch, seed).ok()));
        if budget_spent(passes.len(), epoch.elapsed().as_secs_f64(), seconds) {
            break;
        }
    }
    if passes.is_empty() {
        return outcome;
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    setups.extend(passes.iter().map(|p| p.setup_s));
    let misses = miss_medians_ms(&passes, mix.bodies.len());
    outcome.metrics.set("pass_s", median(&walls));
    if !misses.is_empty() {
        outcome.metrics.set("op_geomean_ms", geomean(&misses));
    }
    outcome.set_quality(&quality);
    outcome.metrics.set("setup_s", median(&setups));
    outcome.samples = vec![
        ("passes", passes.len()),
        ("requests_per_pass", mix.len()),
        ("op_samples", misses.len() * passes.len()),
        ("setup_samples", setups.len()),
    ];
    for pass in &passes {
        outcome.rows.push(format!(
            "{{\"wall_s\": {}, \"setup_s\": {}, \"rps\": {}}}",
            pass.wall_s,
            pass.setup_s,
            mix.len() as f64 / pass.wall_s
        ));
    }
    outcome
}

/// The traced run: one pass with latency probes, every request a span,
/// and the staged replay on one variant per kernel.
pub fn run_traced(scratch: &Path, seed: u64) -> (Outcome, Recorder, Vec<String>) {
    let mut outcome = Outcome::default();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let mut probe_metrics = Metrics::default();
    let (pass, mix) = match run_pass(scratch, seed, 0, epoch, Some(&mut probe_metrics)) {
        Ok(done) => done,
        Err(why) => {
            outcome.fail(why);
            return (outcome, rec, Vec::new());
        }
    };
    outcome.metrics = probe_metrics;
    let expected = reference_documents(&mix, 1);
    check_pass(&mut outcome, &pass, &mix, &expected);

    // Every request as a span; client threads ran concurrently, so these
    // are siblings without a common parent.
    for reply in &pass.replies {
        let name = if reply.repeat {
            "serve.hit"
        } else {
            "serve.miss"
        };
        rec.record(name, reply.body, reply.interval_ns.0, reply.interval_ns.1);
    }

    let m = &mut outcome.metrics;
    m.set("serve.rps", mix.len() as f64 / pass.wall_s);
    let misses = miss_latencies_ms(std::slice::from_ref(&pass));
    let hits: Vec<f64> = pass
        .replies
        .iter()
        .filter(|r| r.repeat)
        .map(|r| r.latency_s * 1e6)
        .collect();
    if !misses.is_empty() {
        m.set("serve.miss_p50_ms", median(&misses));
        // 42 misses carry no p90 (four samples beyond it); report the
        // highest percentile that has ten beyond.
        m.set(
            "serve.miss_p90_ms",
            percentile(&misses, 90)
                .or_else(|| percentile(&misses, 75))
                .unwrap_or(f64::NAN),
        );
        let alone: Vec<f64> = expected
            .iter()
            .filter_map(|d| d.as_ref().ok().map(|(_, s)| s * 1e3))
            .collect();
        if !alone.is_empty() {
            m.set("serve.miss_overhead_ms", median(&misses) - median(&alone));
        }
    }
    if m.get("serve.hit_p50_us").is_none() && !hits.is_empty() {
        m.set("serve.hit_p50_us", median(&hits));
    }
    m.set(
        "serve.result_cache_hits",
        counter(&pass.metrics, "result_cache", "hits"),
    );
    m.set(
        "serve.result_cache_misses",
        counter(&pass.metrics, "result_cache", "misses"),
    );
    m.set(
        "serve.disk_entries",
        counter(&pass.metrics, "disk_cache", "entries"),
    );
    m.set("serve.shed", counter(&pass.metrics, "requests", "shed"));
    m.set("serve.failed", counter(&pass.metrics, "requests", "failed"));

    // Layers under the daemon: replay the pipeline on the first variant
    // of each kernel (variants share their structure, so one stands for
    // all seven).
    let mut unattributed = Vec::new();
    let mut seen = Vec::new();
    for (body, input) in mix.dfgs.iter().enumerate() {
        if seen.contains(&input.kernel) {
            continue;
        }
        seen.push(input.kernel);
        let name = slug(input.kernel);
        let (dfg, t) = rec.time("dfg.text_roundtrip", body, || {
            Dfg::from_text(&input.dfg.to_text())
        });
        m.add("dfg.text_roundtrip_s", t);
        let dfg = dfg.expect("the reference compile parsed the same text");
        m.add("dfg.ops", dfg.num_ops() as f64);
        m.add("dfg.edges", dfg.num_deps() as f64);
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).expect("preset architecture is valid");
        match staged::replay(&mut rec, m, body, &dfg, &cgra, Backend::Spr) {
            Ok(s) => {
                unattributed.push(rec.unattributed_share(s.root));
                if let (Some(mapping), Ok((_, seconds))) = (&s.mapping, &expected[body]) {
                    m.add("core.compile_s", *seconds);
                    m.set(format!("kernel.{name}.compile_s"), *seconds);
                    m.set(format!("kernel.{name}.ii"), mapping.ii() as f64);
                }
            }
            Err(why) => outcome
                .problems
                .push(format!("{name}: staged replay: {why}")),
        }
    }
    crate::compile::finish_traced(&mut outcome, &mut rec, &unattributed);
    outcome.metrics.set("peak_rss_mb", peak_rss_mb());
    let inputs: Vec<String> = mix
        .dfgs
        .iter()
        .map(|i| slug(i.kernel).to_string())
        .collect();
    (outcome, rec, inputs)
}
