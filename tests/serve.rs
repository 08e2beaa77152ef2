//! End-to-end tests of the `panorama-serve` daemon: bit-identity with the
//! offline CLI under concurrency, bounded-queue shedding, cooperative
//! deadline cancellation, graceful drain, and metrics validity.

use panorama::{CancelToken, CompileContext, CompileMode, Panorama, PanoramaConfig, PanoramaError};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_lint::{lint_serve_json, Diagnostics};
use panorama_mapper::{LowerLevelMapper, SearchControl, SprMapper};
use panorama_serve::{ServeConfig, Server};
use panorama_trace::json::{self, escape, Json};
use panorama_trace::{RecordingSink, Tracer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::{Duration, Instant};

/// A started in-process daemon plus the thread running it.
struct Daemon {
    addr: SocketAddr,
    drain: panorama_serve::DrainHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(config: ServeConfig) -> Daemon {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let drain = server.drain_handle();
    let thread = std::thread::spawn(move || server.run());
    Daemon {
        addr,
        drain,
        thread,
    }
}

impl Daemon {
    fn drain_and_join(self) {
        self.drain.drain();
        self.thread.join().expect("server thread").expect("run ok");
    }
}

/// One HTTP request over a fresh connection; returns `(status, headers,
/// body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    http_with_headers(addr, method, path, &[], body)
}

/// Like [`http`] but with extra request header lines (no trailing CRLF).
fn http_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &[&str],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let extra = extra.iter().map(|h| format!("{h}\r\n")).collect::<String>();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{extra}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let (head, payload) = response.split_once("\r\n\r\n").expect("header separator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), payload.to_string())
}

fn compile_body(kernel: &str, extra: &str) -> String {
    format!(
        "{{\"kernel\":\"{}\",\"arch\":\"8x8\",\"scale\":\"tiny\"{extra}}}",
        escape(kernel)
    )
}

fn metrics(addr: SocketAddr) -> Json {
    let (status, _, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    json::parse(&body).expect("metrics parses")
}

fn metric(doc: &Json, section: &str, field: &str) -> u64 {
    doc.get(section)
        .and_then(|s| s.get(field))
        .and_then(Json::as_f64)
        .expect("metric present") as u64
}

/// Polls `/metrics` until `pred` holds (the daemon's counters are exact,
/// so this is synchronisation, not a tolerance).
fn wait_for(addr: SocketAddr, what: &str, pred: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if pred(&metrics(addr)) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The tentpole acceptance test: N concurrent clients compiling the whole
/// 12-kernel suite get byte-identical responses to the offline
/// `panorama compile --json` CLI, at every worker count, including replays
/// served from the result cache.
#[test]
fn concurrent_compiles_match_cli_bit_for_bit() {
    // Offline reference outputs, once per kernel.
    let expected: Vec<(String, String)> = KernelId::ALL
        .iter()
        .map(|id| {
            let out = Command::new(env!("CARGO_BIN_EXE_panorama"))
                .args([
                    "compile",
                    "--dfg",
                    id.name(),
                    "--arch",
                    "8x8",
                    "--scale",
                    "tiny",
                    "--json",
                ])
                .output()
                .expect("run CLI");
            assert!(out.status.success(), "CLI failed for {}", id.name());
            (
                id.name().to_string(),
                String::from_utf8(out.stdout).expect("utf-8"),
            )
        })
        .collect();

    for workers in [1usize, 2, 4] {
        let daemon = start(ServeConfig {
            workers,
            queue_depth: 16,
            ..ServeConfig::default()
        });
        for round in 0..2 {
            let responses: Vec<_> = expected
                .iter()
                .map(|(kernel, want)| {
                    let kernel = kernel.clone();
                    let want = want.clone();
                    let addr = daemon.addr;
                    std::thread::spawn(move || {
                        let (status, _, body) =
                            http(addr, "POST", "/compile", &compile_body(&kernel, ""));
                        assert_eq!(status, 200, "{kernel}: {body}");
                        assert_eq!(
                            body, want,
                            "{kernel} differs from CLI (workers {workers}, round {round})"
                        );
                    })
                })
                .collect();
            for r in responses {
                r.join().expect("client thread");
            }
        }
        // Round two was answered from the result cache.
        let m = metrics(daemon.addr);
        assert_eq!(metric(&m, "requests", "received"), 24);
        assert_eq!(metric(&m, "requests", "completed"), 24);
        assert_eq!(metric(&m, "result_cache", "hits"), 12);
        assert_eq!(metric(&m, "result_cache", "misses"), 12);
        daemon.drain_and_join();
    }
}

/// Satellite: a saturated bounded queue sheds with `503 Retry-After`
/// instead of growing, and the shed shows up in the metrics.
#[test]
fn saturated_queue_sheds_with_503() {
    let daemon = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    // Occupants that outlast the window: paper-scale matched filter does
    // not fit the 8x8 array, so baseline SPR* fails its way through every
    // II up to 44 — the longest compile left since PathFinder stopped
    // rerouting every signal (8 s in a release build on the 2-vCPU
    // reference container, minutes in debug; invertmat on 16x16, the
    // occupant before that, went from 85 s to 3 s). The worker stays busy
    // until the deadline cancels the job or, on a host fast enough, until
    // the search runs out of IIs: the saturation window is the shorter of
    // the two, seconds either way. Baseline mapping skips the
    // non-cancellable partition phase, so the deadline also caps the
    // test's runtime. The occupants end `504` or `422` and nothing is
    // cached.
    let slow = "{\"kernel\":\"matchedfilter\",\"scale\":\"paper\",\
                 \"baseline\":true,\"deadline_ms\":5000}";
    let spawn_slow = || {
        let addr = daemon.addr;
        std::thread::spawn(move || http(addr, "POST", "/compile", slow).0)
    };
    let first = spawn_slow();
    wait_for(daemon.addr, "first job in flight", |m| {
        metric(m, "queue", "in_flight") == 1
    });
    let second = spawn_slow();
    wait_for(daemon.addr, "second job queued", |m| {
        metric(m, "queue", "depth") == 1
    });
    // Worker busy + queue full: the third must be shed, never enqueued.
    let (status, head, body) = http(daemon.addr, "POST", "/compile", slow);
    assert_eq!(status, 503, "{body}");
    assert!(
        head.contains("Retry-After: 1"),
        "missing Retry-After:\n{head}"
    );
    assert!(body.contains("\"error\":\"overloaded\""), "{body}");
    let m = metrics(daemon.addr);
    assert_eq!(metric(&m, "requests", "shed"), 1);
    // The occupants end at their deadline, or without a mapping.
    for t in [first, second] {
        let status = t.join().expect("slow client");
        assert!(status == 504 || status == 422, "unexpected status {status}");
    }
    daemon.drain_and_join();
}

/// Satellite: a request that exceeds its deadline comes back as a
/// cancelled-error payload and is counted as cancelled, not failed. The
/// deadline is zero — already expired at registration, no clock involved —
/// so the answer does not depend on how fast the host compiles;
/// `cancel_token_stops_the_pipeline_early` covers cancellation mid-compile.
#[test]
fn deadline_returns_cancelled_payload() {
    let daemon = start(ServeConfig {
        workers: 1,
        queue_depth: 4,
        deadline: Some(Duration::ZERO),
        ..ServeConfig::default()
    });
    let body = compile_body("edn", ",\"baseline\":true")
        .replace("\"scale\":\"tiny\"", "\"scale\":\"scaled\"");
    let (status, _, payload) = http(daemon.addr, "POST", "/compile", &body);
    assert_eq!(status, 504, "{payload}");
    let doc = json::parse(&payload).expect("error payload parses");
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("panorama-error-v1")
    );
    assert_eq!(doc.get("error").unwrap().as_str(), Some("cancelled"));
    let m = metrics(daemon.addr);
    assert_eq!(metric(&m, "requests", "cancelled"), 1);
    assert_eq!(metric(&m, "requests", "failed"), 0);
    daemon.drain_and_join();
}

/// The cancellation token actually stops the pipeline early, verified via
/// trace event counts: a fired token yields `Cancelled` with strictly
/// fewer events than the full run and no `map` phase record, and at the
/// mapper level the II search emits an abort event instead of mapping.
#[test]
fn cancel_token_stops_the_pipeline_early() {
    let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
    let cgra = panorama_arch::Cgra::new(panorama_arch::CgraConfig::scaled_8x8()).unwrap();
    let compiler = Panorama::new(PanoramaConfig::default());
    let mapper = SprMapper::default();

    let full_sink = RecordingSink::shared();
    let full_tracer = Tracer::new(full_sink.clone());
    let ctx = CompileContext {
        tracer: Some(&full_tracer),
        ..CompileContext::default()
    };
    let report = compiler
        .compile_with(&dfg, &cgra, &[&mapper], CompileMode::Baseline, &ctx)
        .expect("uncancelled baseline compile succeeds");
    report.mapping().verify(&dfg, &cgra).expect("valid mapping");
    let full_events = full_sink.take();

    let token = CancelToken::new();
    token.cancel(); // fired before the pipeline starts
    let cancelled_sink = RecordingSink::shared();
    let cancelled_tracer = Tracer::new(cancelled_sink.clone());
    let ctx = CompileContext {
        tracer: Some(&cancelled_tracer),
        cancel: Some(&token),
        executor: None,
    };
    let err = compiler
        .compile_with(&dfg, &cgra, &[&mapper], CompileMode::Baseline, &ctx)
        .expect_err("fired token must cancel");
    assert!(matches!(err, PanoramaError::Cancelled), "{err}");
    let cancelled_events = cancelled_sink.take();
    assert!(
        cancelled_events.len() < full_events.len(),
        "cancelled run recorded {} events, full run {}",
        cancelled_events.len(),
        full_events.len()
    );
    assert!(
        !cancelled_events.iter().any(|e| e.phase == "map"),
        "cancelled run must not reach the map phase"
    );

    // Mapper level: the II search observes the token at its loop head and
    // aborts with an event instead of attempting placement.
    let sink = RecordingSink::shared();
    let tracer = Tracer::new(sink.clone());
    let mut col = tracer.collector(0);
    let control = SearchControl::unbounded().with_cancel(token.clone());
    let err = mapper
        .map_traced(&dfg, &cgra, None, Some(&control), &mut col)
        .expect_err("fired token must abort the II search");
    assert!(err.cancelled, "{err}");
    tracer.submit(vec![col]);
    let events = sink.take();
    assert!(
        events.iter().any(|e| e.phase.ends_with(".abort")),
        "no abort event: {:?}",
        events.iter().map(|e| e.phase).collect::<Vec<_>>()
    );
}

/// Satellite: graceful drain finishes in-flight work, then `run` returns
/// and the port stops accepting.
#[test]
fn drain_finishes_inflight_work_then_exits() {
    let daemon = start(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    });
    let inflight = {
        let addr = daemon.addr;
        std::thread::spawn(move || http(addr, "POST", "/compile", &compile_body("fir", "")))
    };
    wait_for(daemon.addr, "compile received", |m| {
        metric(m, "requests", "received") >= 1
    });
    let (status, _, body) = http(daemon.addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("draining"), "{body}");
    // The in-flight compile still completes with a real response.
    let (status, _, body) = inflight.join().expect("in-flight client");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("{\"schema\":\"panorama-compile-v1\""));
    let addr = daemon.addr;
    daemon
        .thread
        .join()
        .expect("server thread")
        .expect("clean exit");
    // Drained: the listener is gone.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

/// Satellite: `/metrics` snapshots taken throughout a serving session pass
/// the SERVE001–003 lints, individually and as a monotone sequence.
#[test]
fn metrics_snapshots_pass_serve_lints() {
    let daemon = start(ServeConfig {
        workers: 2,
        queue_depth: 4,
        ..ServeConfig::default()
    });
    let mut snapshots = Vec::new();
    let mut snap = |addr| {
        let (status, _, body) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        snapshots.push(body.trim().to_string());
    };
    snap(daemon.addr);
    for kernel in ["fir", "cordic"] {
        let (status, _, _) = http(daemon.addr, "POST", "/compile", &compile_body(kernel, ""));
        assert_eq!(status, 200);
        snap(daemon.addr);
    }
    // A replay (cache hit) and a lint round-trip.
    let (status, _, _) = http(daemon.addr, "POST", "/compile", &compile_body("fir", ""));
    assert_eq!(status, 200);
    let (status, _, lint_response) = http(
        daemon.addr,
        "POST",
        "/lint",
        "{\"kernel\":\"fir\",\"arch\":\"8x8\",\"scale\":\"tiny\"}",
    );
    assert_eq!(status, 200, "{lint_response}");
    json::parse(&lint_response).expect("lint response parses");
    snap(daemon.addr);
    // Seventeen architectures, one more than the daemon keeps warm: the
    // MRRG counters of the evicted one must stay in the totals (SERVE002).
    for rf in 8..=24 {
        let arch = format!("cgra 4 4\\nclusters 1 1\\nrf {rf}\\n");
        let body = format!("{{\"kernel\":\"fir\",\"scale\":\"tiny\",\"arch_text\":\"{arch}\"}}");
        let (status, _, response) = http(daemon.addr, "POST", "/compile", &body);
        assert_eq!(status, 200, "{response}");
        snap(daemon.addr);
    }
    daemon.drain_and_join();

    let mut diags = Diagnostics::new();
    lint_serve_json(&format!("[{}]", snapshots.join(",")), &mut diags);
    assert_eq!(
        diags.iter().count(),
        0,
        "lint findings: {:?}",
        diags
            .iter()
            .map(|d| (d.code, d.message.clone()))
            .collect::<Vec<_>>()
    );
}

/// Satellite: the MRRG cache is shared across requests for the same
/// architecture — repeat compiles hit it instead of rebuilding graphs.
#[test]
fn mrrg_cache_is_reused_across_requests() {
    let daemon = start(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    });
    let (status, _, _) = http(daemon.addr, "POST", "/compile", &compile_body("fir", ""));
    assert_eq!(status, 200);
    let first = metric(&metrics(daemon.addr), "mrrg_cache", "misses");
    assert!(first > 0, "first compile must build MRRGs");
    // Different kernel, same architecture: IIs overlap, so at least one
    // lookup must now hit the shared cache.
    let (status, _, _) = http(daemon.addr, "POST", "/compile", &compile_body("cordic", ""));
    assert_eq!(status, 200);
    let m = metrics(daemon.addr);
    assert!(
        metric(&m, "mrrg_cache", "hits") > 0,
        "second compile on the same arch should hit the MRRG cache"
    );
    daemon.drain_and_join();
}

/// Malformed requests and unknown routes get structured errors, and the
/// loopback guard is wired (every local connection *is* loopback, so the
/// allowed path is what's testable here; the 403 arm is unit-logic).
#[test]
fn bad_requests_get_structured_errors() {
    let daemon = start(ServeConfig::default());
    let (status, _, body) = http(daemon.addr, "POST", "/compile", "{\"kernel\":\"nope\"}");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown kernel"), "{body}");
    let (status, _, _) = http(daemon.addr, "POST", "/compile", "not json");
    assert_eq!(status, 400);
    // A body nested far deeper than any thread's stack is one more bad
    // request on every endpoint that parses JSON, and the daemon is still
    // there to say so afterwards.
    let deep = "[".repeat(100_000);
    for path in ["/compile", "/compile-batch", "/lint"] {
        let (status, _, body) = http(daemon.addr, "POST", path, &deep);
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains("nesting deeper than 64"), "{path}: {body}");
        let (status, _, _) = http(daemon.addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "daemon gone after a deep body to {path}");
    }
    // A repeated key is two requests in one body — which one is served
    // would depend on the reader — so it is no request at all.
    let twice = "{\"kernel\":\"fir\",\"kernel\":\"edn\"}";
    for path in ["/compile", "/compile-batch", "/lint"] {
        let (status, _, body) = http(daemon.addr, "POST", path, twice);
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains("bad_request"), "{path}: {body}");
        assert!(
            body.contains("duplicate key \\\"kernel\\\" at byte 16"),
            "{path}: {body}"
        );
    }
    let (status, _, _) = http(daemon.addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _, _) = http(daemon.addr, "GET", "/compile", "");
    assert_eq!(status, 405);
    // An infeasible compile is a 422, not a hang or a 500: fir at scaled
    // size cannot fit the 6x1 linear array.
    let (status, _, body) = http(
        daemon.addr,
        "POST",
        "/compile",
        "{\"kernel\":\"fir\",\"arch\":\"6x1\",\"scale\":\"scaled\",\"max_ii\":4}",
    );
    assert_eq!(status, 422, "{body}");
    // So is a statically feasible `max_ii` the search cannot meet (edn on
    // 8x8 needs II 5, MII 4): the cap ends the search, it is not ignored.
    let capped = "{\"kernel\":\"edn\",\"arch\":\"8x8\",\"max_ii\":4}";
    let (status, _, body) = http(daemon.addr, "POST", "/compile", capped);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("compile_failed"), "{body}");
    let m = metrics(daemon.addr);
    assert_eq!(metric(&m, "requests", "failed"), 2);
    daemon.drain_and_join();
}

/// A per-test disk-cache directory, scrubbed before use.
fn cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("panorama-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A daemon restart over the same `--cache-dir` serves warm responses
/// byte-identically from disk — the in-memory tiers start empty, so the
/// replay can only have come from the persistent cache — whatever the
/// worker counts on either side and however concurrent the clients. Every
/// request is answered (`received == completed`, none shed, cancelled,
/// failed or quota-rejected) and every warm one from a cache tier.
#[test]
fn disk_cache_survives_restart_byte_identically() {
    let dir = cache_dir("restart");
    let config = |workers| ServeConfig {
        workers,
        queue_depth: 16,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let compile = |addr, kernel: KernelId| {
        let (status, _, body) = http(addr, "POST", "/compile", &compile_body(kernel.name(), ""));
        assert_eq!(status, 200, "{kernel}: {body}");
        body
    };
    let all_answered = |m: &Json| {
        assert_eq!(metric(m, "requests", "received"), 12);
        assert_eq!(metric(m, "requests", "completed"), 12);
        for lost in ["shed", "cancelled", "failed", "quota_rejected"] {
            assert_eq!(metric(m, "requests", lost), 0, "{lost}");
        }
    };

    let daemon = start(config(1));
    let cold: Vec<String> = KernelId::ALL
        .iter()
        .map(|&k| compile(daemon.addr, k))
        .collect();
    let m = metrics(daemon.addr);
    all_answered(&m);
    assert_eq!(metric(&m, "disk_cache", "entries"), 12);
    assert_eq!(metric(&m, "disk_cache", "hits"), 0);
    assert_eq!(metric(&m, "result_cache", "hits"), 0);
    daemon.drain_and_join();

    // A fresh daemon with four workers: process state is gone, the disk
    // corpus is not. Four concurrent clients split the suite.
    let daemon = start(config(4));
    let addr = daemon.addr;
    std::thread::scope(|scope| {
        for client in 0..4 {
            let cold = &cold;
            scope.spawn(move || {
                for (i, &k) in KernelId::ALL.iter().enumerate().skip(client).step_by(4) {
                    assert_eq!(
                        compile(addr, k),
                        cold[i],
                        "{k}: restart replay must be byte-identical"
                    );
                }
            });
        }
    });
    let m = metrics(daemon.addr);
    all_answered(&m);
    assert_eq!(
        metric(&m, "disk_cache", "hits"),
        12,
        "warm replays must be answered from disk, not recompiled"
    );
    // `result_cache.hits` counts requests answered from either tier: a
    // 100 % warm hit rate.
    assert_eq!(metric(&m, "result_cache", "hits"), 12);
    assert_eq!(metric(&m, "result_cache", "misses"), 0);
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a truncated on-disk entry is dropped and recompiled — the
/// daemon never serves bytes that fail the integrity check, and the
/// recompile reproduces the original response exactly.
#[test]
fn truncated_disk_entry_is_recompiled_not_served() {
    let dir = cache_dir("truncate");
    let config = || ServeConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let daemon = start(config());
    let (status, _, want) = http(daemon.addr, "POST", "/compile", &compile_body("fir", ""));
    assert_eq!(status, 200);
    daemon.drain_and_join();

    // Truncate every committed entry mid-body.
    let mut truncated = 0;
    for dirent in std::fs::read_dir(&dir).expect("cache dir exists") {
        let path = dirent.expect("dirent").path();
        if path.extension().and_then(|e| e.to_str()) == Some("entry") {
            let raw = std::fs::read_to_string(&path).expect("read entry");
            std::fs::write(&path, &raw[..raw.len() / 2]).expect("truncate");
            truncated += 1;
        }
    }
    assert!(truncated > 0, "first daemon must have persisted entries");

    let daemon = start(config());
    let (status, _, body) = http(daemon.addr, "POST", "/compile", &compile_body("fir", ""));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, want, "recompile must reproduce the original bytes");
    let m = metrics(daemon.addr);
    assert_eq!(
        metric(&m, "disk_cache", "hits"),
        0,
        "a truncated entry must never be served"
    );
    assert!(
        metric(&m, "disk_cache", "corrupt") >= 1,
        "the dropped entry must be counted"
    );
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole: `/compile-batch` responses embed, per entry, the exact bytes
/// `/compile` returns for the same body — at every worker count — and a
/// bad entry fails alone (400 in its slot) while the rest of the batch
/// completes.
#[test]
fn compile_batch_matches_individual_compiles() {
    let kernels = ["fir", "cordic", "edn", "conv2d"];
    // Per-entry reference bytes from a separate daemon's /compile, so the
    // batch path under test cannot be answered from a shared cache.
    let reference = start(ServeConfig::default());
    let singles: Vec<String> = kernels
        .iter()
        .map(|k| {
            let (status, _, body) = http(reference.addr, "POST", "/compile", &compile_body(k, ""));
            assert_eq!(status, 200, "{body}");
            body.trim_end().to_string()
        })
        .collect();
    reference.drain_and_join();

    for workers in [1usize, 2, 4] {
        let daemon = start(ServeConfig {
            workers,
            queue_depth: 8,
            ..ServeConfig::default()
        });
        // Entry 2 is malformed: it must fail alone, in place.
        let mut entries: Vec<String> = kernels.iter().map(|k| compile_body(k, "")).collect();
        entries.insert(2, compile_body("nope", ""));
        let frame = format!("{{\"entries\":[{}]}}", entries.join(","));
        let (status, _, body) = http(daemon.addr, "POST", "/compile-batch", &frame);
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("batch envelope parses");
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("panorama-serve-batch-v1")
        );
        assert_eq!(doc.get("count").unwrap().as_f64(), Some(5.0));
        // Byte-level check: each good entry embeds the single-compile
        // response verbatim at its index.
        for (slot, want) in [
            (0, &singles[0]),
            (1, &singles[1]),
            (3, &singles[2]),
            (4, &singles[3]),
        ] {
            let exact = format!("{{\"index\":{slot},\"status\":200,\"response\":{want}}}");
            assert!(
                body.contains(&exact),
                "workers {workers}: entry {slot} not byte-identical to /compile\n{body}"
            );
        }
        assert!(
            body.contains("{\"index\":2,\"status\":400,"),
            "bad entry must 400 in place: {body}"
        );
        assert!(body.contains("unknown kernel"), "{body}");
        // The four valid entries are the only metric-visible requests.
        let m = metrics(daemon.addr);
        assert_eq!(metric(&m, "requests", "received"), 4);
        assert_eq!(metric(&m, "requests", "completed"), 4);
        daemon.drain_and_join();
    }
}

/// The rows of a `/metrics` document that do not hold wall-clock time.
fn counter_rows(addr: SocketAddr) -> Vec<Json> {
    let doc = metrics(addr);
    ["requests", "queue", "result_cache", "mrrg_cache"]
        .iter()
        .map(|row| doc.get(row).expect("metrics row").clone())
        .collect()
}

/// `/compile` is a one-entry `/compile-batch`: same bytes, same counters,
/// on a miss, on a hit, and when the queue sheds.
#[test]
fn compile_equals_a_one_entry_batch_from_outside() {
    let body = compile_body("fir", "");
    let frame = format!("{{\"entries\":[{body}]}}");
    let single = start(ServeConfig::default());
    let batch = start(ServeConfig::default());
    for round in ["miss", "hit"] {
        let (status, _, response) = http(single.addr, "POST", "/compile", &body);
        assert_eq!(status, 200, "{response}");
        let (status, _, envelope) = http(batch.addr, "POST", "/compile-batch", &frame);
        assert_eq!(status, 200, "{envelope}");
        let exact = format!(
            "\"results\":[{{\"index\":0,\"status\":200,\"response\":{}}}]",
            response.trim_end()
        );
        assert!(envelope.contains(&exact), "{round}: {envelope}");
        assert_eq!(
            counter_rows(single.addr),
            counter_rows(batch.addr),
            "{round}"
        );
    }
    assert_eq!(
        metric(&metrics(single.addr), "result_cache", "hits"),
        1,
        "the second round was a replay"
    );
    single.drain_and_join();
    batch.drain_and_join();

    // One worker held, one job queued: the next request is shed the same
    // way through either endpoint. The occupants are the paper-scale
    // compiles of `saturated_queue_sheds_with_503`: seconds of failed II
    // attempts in a release build, ended by their deadline or, on a fast
    // host, by running out of IIs (`422`).
    let slow = |max_ii: u64| {
        format!(
            "{{\"kernel\":\"matchedfilter\",\"scale\":\"paper\",\"baseline\":true,\
             \"deadline_ms\":3000,\"max_ii\":{max_ii}}}"
        )
    };
    let shed_through = |path: &str, wrap: &dyn Fn(String) -> String| {
        let daemon = start(ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        });
        let addr = daemon.addr;
        let occupy = |max_ii| {
            let body = slow(max_ii);
            std::thread::spawn(move || http(addr, "POST", "/compile", &body).0)
        };
        let first = occupy(40);
        wait_for(addr, "first job in flight", |m| {
            metric(m, "queue", "in_flight") == 1
        });
        let second = occupy(41);
        wait_for(addr, "second job queued", |m| {
            metric(m, "queue", "depth") == 1
        });
        let answer = http(addr, "POST", path, &wrap(slow(42)));
        let shed = metric(&metrics(addr), "requests", "shed");
        for occupant in [first, second] {
            let status = occupant.join().expect("slow client");
            assert!(status == 504 || status == 422, "unexpected status {status}");
        }
        daemon.drain_and_join();
        (answer, shed)
    };
    let ((status, head, response), single_shed) = shed_through("/compile", &|body| body);
    assert_eq!(status, 503, "{response}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    let ((status, _, envelope), batch_shed) = shed_through("/compile-batch", &|body| {
        format!("{{\"entries\":[{body}]}}")
    });
    assert_eq!(status, 200, "{envelope}");
    let exact = format!(
        "\"results\":[{{\"index\":0,\"status\":503,\"response\":{}}}]",
        response.trim_end()
    );
    assert!(envelope.contains(&exact), "{envelope}");
    assert_eq!((single_shed, batch_shed), (1, 1));
}

/// Tentpole: token-bucket admission control — with `rps 0, burst 2` a
/// tenant gets exactly two admissions, then deterministic `429` with
/// `Retry-After`; other tenants have their own buckets; batches charge
/// one token per entry all-or-nothing; the quota state shows in
/// `/metrics` and passes the serve lints.
#[test]
fn quota_admits_burst_then_rejects_with_429() {
    let daemon = start(ServeConfig {
        workers: 1,
        queue_depth: 8,
        quota_rps: 0,
        quota_burst: 2,
        ..ServeConfig::default()
    });
    let tenant = |name: &str| format!("X-Panorama-Tenant: {name}");
    let body = compile_body("fir", "");
    for _ in 0..2 {
        let (status, _, payload) =
            http_with_headers(daemon.addr, "POST", "/compile", &[&tenant("alice")], &body);
        assert_eq!(status, 200, "{payload}");
    }
    let (status, head, payload) =
        http_with_headers(daemon.addr, "POST", "/compile", &[&tenant("alice")], &body);
    assert_eq!(status, 429, "{payload}");
    assert!(
        head.contains("Retry-After: 60"),
        "rps 0 never refills, so Retry-After is the long delay:\n{head}"
    );
    assert!(
        payload.contains("\"error\":\"quota_exceeded\""),
        "{payload}"
    );
    // A different tenant has an untouched bucket.
    let (status, _, payload) =
        http_with_headers(daemon.addr, "POST", "/compile", &[&tenant("bob")], &body);
    assert_eq!(status, 200, "{payload}");
    // Batches charge per entry, all-or-nothing: bob holds one token, so a
    // two-entry batch is rejected whole and spends nothing...
    let batch = format!("{{\"entries\":[{body},{body}]}}");
    let (status, _, payload) = http_with_headers(
        daemon.addr,
        "POST",
        "/compile-batch",
        &[&tenant("bob")],
        &batch,
    );
    assert_eq!(status, 429, "{payload}");
    // ...while a one-entry batch still fits.
    let batch = format!("{{\"entries\":[{body}]}}");
    let (status, _, payload) = http_with_headers(
        daemon.addr,
        "POST",
        "/compile-batch",
        &[&tenant("bob")],
        &batch,
    );
    assert_eq!(status, 200, "{payload}");

    let m = metrics(daemon.addr);
    assert_eq!(metric(&m, "requests", "quota_rejected"), 3);
    assert_eq!(metric(&m, "quota", "rejected"), 3);
    let tenants = m
        .get("quota")
        .and_then(|q| q.get("tenants"))
        .and_then(Json::as_arr)
        .expect("tenants array");
    let names: Vec<&str> = tenants
        .iter()
        .map(|t| t.get("tenant").and_then(Json::as_str).expect("tenant name"))
        .collect();
    assert_eq!(names, ["alice", "bob"], "tenants sorted by name");
    // The snapshot passes the quota/disk serve lints.
    let (_, _, snapshot) = http(daemon.addr, "GET", "/metrics", "");
    let mut diags = Diagnostics::new();
    lint_serve_json(&format!("[{}]", snapshot.trim()), &mut diags);
    assert_eq!(
        diags.iter().count(),
        0,
        "lint findings: {:?}",
        diags
            .iter()
            .map(|d| (d.code, d.message.clone()))
            .collect::<Vec<_>>()
    );
    daemon.drain_and_join();
}

/// Satellite: a slow-loris peer that stalls mid-body trips the per-socket
/// read timeout and gets a structured `400` instead of pinning a
/// connection thread — and the daemon keeps serving normal clients.
#[test]
fn stalled_request_times_out_with_400() {
    let daemon = start(ServeConfig {
        workers: 1,
        io_timeout: Some(Duration::from_millis(200)),
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Claim 200 body bytes, send 8, then stall.
    write!(
        stream,
        "POST /compile HTTP/1.1\r\nHost: t\r\nContent-Length: 200\r\n\r\n{{\"kern"
    )
    .expect("send partial");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "stalled body must yield a 400:\n{response}"
    );
    assert!(response.contains("bad_request"), "{response}");
    // The daemon is still healthy for well-behaved clients.
    let (status, _, body) = http(daemon.addr, "POST", "/compile", &compile_body("fir", ""));
    assert_eq!(status, 200, "{body}");
    daemon.drain_and_join();
}
