//! The compile daemon: accept loop, worker pool, and graceful drain.
//!
//! ```text
//! connection threads          bounded JobQueue          worker pool
//!   parse HTTP+JSON  ──try_push──▶ [ jobs … ] ──pop──▶ CompileRequest
//!   (503 on full)                                       ::run
//!        ▲                                                   │
//!        └────────────── mpsc response channel ◀─────────────┘
//! ```
//!
//! Request lifecycle invariants:
//!
//! * every compile entry — a `/compile` is a one-entry batch — lands in
//!   exactly one terminal counter (completed / shed / cancelled / failed /
//!   quota-rejected) — see [`crate::metrics`];
//! * a full queue never grows: excess load is shed with `503` and
//!   `Retry-After`, so memory use is bounded by `queue_depth` plus the
//!   worker count regardless of offered load;
//! * a deadline lives in the job's [`CancelToken`]
//!   ([`CancelToken::with_deadline`]), so no thread watches the clock; the
//!   pipeline stops cooperatively at its next II iteration or PathFinder
//!   round after it passes, never mid-write;
//! * drain (`POST /admin/shutdown`, loopback-only) stops accepting,
//!   lets queued and in-flight jobs finish, folds their trace collectors
//!   into the metrics, then returns from [`Server::run`] — the process
//!   exits `0`.

use crate::cache::{ContentHash, ResultCache};
use crate::diskcache::{DiskCache, DiskCacheStats};
use crate::http::{read_request, write_response, Request};
use crate::metrics::{CacheStats, Metrics};
use crate::queue::JobQueue;
use crate::quota::{Quota, TENANT_HEADER};
use panorama::request::{lint_request, opt_usize};
use panorama::{effective_threads, BatchExecutor, CompileRequest, PanoramaError};
use panorama_arch::{Cgra, CgraConfig, Lru, DEFAULT_MRRG_CACHE_CAPACITY};
use panorama_mapper::CancelToken;
use panorama_trace::json::{parse, Json, Writer};
use panorama_trace::{phase_totals, schema, RecordingSink, Tracer};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Hard cap on `/compile-batch` entries per request: bounds worst-case
/// memory and keeps one batch from monopolising the queue.
pub const MAX_BATCH_ENTRIES: usize = 64;

/// Daemon tunables; every knob maps to a `panorama serve` flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Compile worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Bounded queue capacity; a full queue sheds with `503`.
    pub queue_depth: usize,
    /// Per-request compile deadline; `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Completed compile responses retained for replay.
    pub result_cache_capacity: usize,
    /// Per-architecture MRRG cache bound (see
    /// [`panorama_arch::MrrgCache`]).
    pub mrrg_cache_capacity: usize,
    /// Portfolio threads per compile job (the job-level parallelism
    /// already comes from `workers`; results are bit-identical for any
    /// value).
    pub portfolio_threads: usize,
    /// Run the pre-mapping DFG optimizer on every compile that does not
    /// say otherwise (a request's `analyze` field overrides this
    /// default). Off by default so responses stay bit-stable.
    pub analyze: bool,
    /// Retired: the warm-start remap tier is gone. The field stays only so
    /// existing `ServeConfig` literals that spell `warm_cache: false` keep
    /// compiling; [`Server::bind`] refuses `true`.
    pub warm_cache: bool,
    /// Directory of the persistent result cache; `None` keeps results
    /// in-memory only (lost on restart). With a directory, completed
    /// responses are layered onto disk and a restarted daemon replays
    /// them byte-identically.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Byte budget of the disk cache (`0` = unbounded).
    pub cache_budget: u64,
    /// Per-tenant quota refill rate, tokens per second.
    pub quota_rps: u64,
    /// Per-tenant quota bucket capacity; `0` disables admission control.
    pub quota_burst: u64,
    /// Per-socket read/write timeout; a client that stalls mid-request
    /// (slow-loris) gets a `400` instead of holding a connection thread
    /// forever. `None` disables the timeouts.
    pub io_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            deadline: None,
            result_cache_capacity: 256,
            mrrg_cache_capacity: DEFAULT_MRRG_CACHE_CAPACITY,
            portfolio_threads: 1,
            analyze: false,
            warm_cache: false,
            cache_dir: None,
            cache_budget: 0,
            quota_rps: 0,
            quota_burst: 0,
            io_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// What a worker sends back to the waiting connection thread.
struct JobOutcome {
    status: u16,
    body: String,
}

/// One compile of a queued job, tagged with its position in the request
/// (`0` for `/compile`, the `entries` index for `/compile-batch`).
struct JobEntry {
    index: usize,
    request: CompileRequest,
    key: u64,
}

/// One queued unit of work: the cache-missing compiles of one request,
/// under one cancel token. A `/compile` is a one-entry job. A job occupies
/// one queue slot; its entries fan out on the [`BatchExecutor`] inside the
/// worker that pops it.
struct Job {
    entries: Vec<JobEntry>,
    cancel: CancelToken,
    respond: mpsc::Sender<Vec<(usize, JobOutcome)>>,
}

/// How many architectures keep a warm [`Cgra`] (a daemon serves a handful).
const CGRA_POOL_SIZE: u64 = 16;

/// The per-architecture [`Cgra`]s, keyed by canonical ADL text, plus the
/// MRRG-cache counters of the architectures evicted from the pool — so the
/// `/metrics` totals never run backwards when one leaves.
struct CgraPool {
    live: Lru<String, Cgra>,
    retired: CacheStats,
}

struct State {
    config: ServeConfig,
    queue: JobQueue<Job>,
    metrics: Metrics,
    results: ResultCache,
    /// Shared `Cgra` per architecture, so every request against the same
    /// architecture reuses one MRRG cache.
    cgras: Mutex<CgraPool>,
    /// Persistent result tier under the in-memory cache; `None` without
    /// `--cache-dir`.
    disk: Option<DiskCache>,
    /// Per-tenant admission control; disabled unless `--quota-burst` > 0.
    quota: Quota,
    draining: AtomicBool,
    addr: SocketAddr,
    connections: Mutex<usize>,
    connections_drained: Condvar,
}

impl State {
    fn cgra_for(&self, config: &CgraConfig) -> Result<Cgra, String> {
        let key = config.to_text();
        let mut pool = self.cgras.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cgra) = pool.live.get(&key) {
            return Ok(cgra.clone());
        }
        let cgra = Cgra::new(config.clone()).map_err(|e| e.to_string())?;
        cgra.mrrg_cache()
            .set_capacity(self.config.mrrg_cache_capacity);
        for (_, evicted) in pool.live.insert(key, cgra.clone(), 1) {
            let c = evicted.mrrg_cache();
            pool.retired.hits += c.hits();
            pool.retired.misses += c.misses();
            pool.retired.evictions += c.evictions();
        }
        Ok(cgra)
    }

    fn mrrg_stats(&self) -> CacheStats {
        let pool = self.cgras.lock().unwrap_or_else(PoisonError::into_inner);
        let mut stats = CacheStats {
            capacity: self.config.mrrg_cache_capacity as u64,
            ..pool.retired
        };
        for (_, cgra) in pool.live.iter() {
            let c = cgra.mrrg_cache();
            stats.hits += c.hits();
            stats.misses += c.misses();
            stats.entries += c.len() as u64;
            stats.evictions += c.evictions();
        }
        stats
    }

    fn result_stats(&self) -> CacheStats {
        // hits/misses live in Metrics (folded into the conservation
        // invariant); the cache itself only knows occupancy.
        CacheStats {
            entries: self.results.len() as u64,
            capacity: self.results.capacity() as u64,
            ..CacheStats::default()
        }
    }

    fn disk_stats(&self) -> DiskCacheStats {
        self.disk.as_ref().map(DiskCache::stats).unwrap_or_default()
    }

    /// The two-tier cache lookup: memory first, then disk (promoting a
    /// disk hit into memory so the next lookup is cheap). Either tier
    /// satisfies the byte-identical-replay guarantee.
    fn cached_response(&self, key: u64) -> Option<String> {
        if let Some(body) = self.results.get(key) {
            return Some(body);
        }
        let body = self.disk.as_ref()?.get(key)?;
        self.results.insert(key, body.clone());
        Some(body)
    }

    /// Stores a completed response in both tiers.
    fn store_response(&self, key: u64, body: &str) {
        self.results.insert(key, body.to_string());
        if let Some(disk) = &self.disk {
            disk.insert(key, body);
        }
    }
}

/// A handle that can trigger the graceful drain from another thread (the
/// CLI's stdin watcher, tests).
#[derive(Clone)]
pub struct DrainHandle {
    state: Arc<State>,
}

impl DrainHandle {
    /// Initiates the drain: stop accepting, finish queued and in-flight
    /// jobs, then [`Server::run`] returns. Idempotent.
    pub fn drain(&self) {
        initiate_drain(&self.state);
    }
}

fn initiate_drain(state: &Arc<State>) {
    if state.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    // Unblock the accept loop so it observes the flag. The dummy
    // connection is dropped unserved, which is fine — we are the server.
    let _ = TcpStream::connect(state.addr);
}

/// The bound-but-not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds the listener (so the port is known before serving starts).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; `InvalidInput` when `warm_cache` is
    /// set (the tier was removed).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        if config.warm_cache {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the warm-start tier was removed",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let disk = match &config.cache_dir {
            None => None,
            Some(dir) => Some(DiskCache::open(dir, config.cache_budget)?),
        };
        let state = Arc::new(State {
            queue: JobQueue::new(config.queue_depth),
            metrics: Metrics::new(),
            results: ResultCache::new(config.result_cache_capacity),
            cgras: Mutex::new(CgraPool {
                live: Lru::new(CGRA_POOL_SIZE),
                retired: CacheStats::default(),
            }),
            disk,
            quota: Quota::new(config.quota_rps, config.quota_burst),
            draining: AtomicBool::new(false),
            addr,
            connections: Mutex::new(0),
            connections_drained: Condvar::new(),
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A handle that can drain the server from another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until drained, then returns. See the module docs for the
    /// drain ordering.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures that indicate a dead listener.
    pub fn run(self) -> io::Result<()> {
        let state = self.state;
        let workers: Vec<_> = (0..state.config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();

        for stream in self.listener.incoming() {
            if state.draining.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Slow-loris guard: a peer that stalls mid-read or mid-write
            // trips the socket timeout instead of pinning this thread.
            if let Some(t) = state.config.io_timeout {
                let _ = stream.set_read_timeout(Some(t));
                let _ = stream.set_write_timeout(Some(t));
            }
            {
                let mut n = state
                    .connections
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                *n += 1;
            }
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                handle_connection(&state, stream);
                let mut n = state
                    .connections
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                *n -= 1;
                if *n == 0 {
                    state.connections_drained.notify_all();
                }
            });
        }

        // Drain: new pushes are refused, queued jobs still pop.
        state.queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        // Connection threads finish once their job responses arrive (all
        // workers have exited, so every response has been sent).
        {
            let mut n = state
                .connections
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while *n > 0 {
                n = state
                    .connections_drained
                    .wait(n)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Every per-job trace collector has been folded into the metrics
        // synchronously at job completion; nothing is buffered past this
        // point, so returning here *is* the flush.
        Ok(())
    }
}

/// Pops jobs until the queue closes and drains. A job's entries fan out on
/// a [`BatchExecutor`] scope sized by the daemon's portfolio-thread budget
/// and clamped to the entry count, so a one-entry job spawns nothing and
/// compiles inline. Every entry goes through [`run_compile`], whichever
/// endpoint queued it — the executor only changes the schedule, never the
/// bytes.
fn worker_loop(state: &Arc<State>) {
    while let Some(job) = state.queue.pop() {
        let n = job.entries.len();
        state.metrics.jobs_started(n as u64);
        let threads = effective_threads(state.config.portfolio_threads, n);
        let outcomes = BatchExecutor::scope(threads, |exec| {
            exec.run_batch(n, |_, i| {
                let entry = &job.entries[i];
                run_compile(state, &entry.request, entry.key, &job.cancel)
            })
        });
        // A disappeared client is not an error; the job's effects
        // (metrics, result cache) already landed.
        let _ = job
            .respond
            .send(job.entries.iter().map(|e| e.index).zip(outcomes).collect());
    }
}

/// Compiles one job entry; returns the HTTP outcome and settles that
/// unit's metrics. The caller has already moved the unit to in-flight.
fn run_compile(
    state: &Arc<State>,
    req: &CompileRequest,
    key: u64,
    cancel: &CancelToken,
) -> JobOutcome {
    let started = Instant::now();
    if cancel.is_cancelled() {
        // Deadline expired while the job sat in the queue.
        state.metrics.job_cancelled();
        return error_outcome(504, "cancelled", "deadline exceeded before compile started");
    }
    let cgra = match state.cgra_for(&req.arch) {
        Ok(cgra) => cgra,
        Err(e) => {
            state.metrics.job_failed();
            return error_outcome(422, "bad_arch", &e);
        }
    };
    let sink = RecordingSink::shared();
    let tracer = Tracer::new(sink.clone());
    let result = req.run(&cgra, Some(&tracer), Some(cancel));
    match result {
        Ok(report) => {
            if let Err(e) = report.mapping().verify(report.mapped_dfg(&req.dfg), &cgra) {
                state.metrics.job_failed();
                return error_outcome(422, "verify_failed", &e.to_string());
            }
            let mut body = report.to_json(req.dfg.name(), &req.arch_display);
            body.push('\n');
            // Fold this job's top-level phase durations into the latency
            // histograms, plus the end-to-end compile span.
            let events = sink.take();
            let totals = phase_totals(&events);
            let mut folded: Vec<(&str, u64)> = totals
                .iter()
                .filter(|(phase, _, _)| !phase.contains('.'))
                .map(|&(phase, _, ns)| (phase, ns))
                .collect();
            let request_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            folded.push(("request", request_ns));
            state.metrics.job_completed(&folded);
            state.store_response(key, &body);
            JobOutcome { status: 200, body }
        }
        Err(PanoramaError::Cancelled) => {
            state.metrics.job_cancelled();
            error_outcome(
                504,
                "cancelled",
                "deadline exceeded; the pipeline stopped cooperatively",
            )
        }
        Err(e) => {
            state.metrics.job_failed();
            error_outcome(422, "compile_failed", &e.to_string())
        }
    }
}

fn error_outcome(status: u16, error: &str, detail: &str) -> JobOutcome {
    let mut w = Writer::new(&schema::ERROR);
    w.key("error").str(error);
    w.key("detail").str(detail);
    JobOutcome {
        status,
        body: w.finish(),
    }
}

fn handle_connection(state: &Arc<State>, stream: TcpStream) {
    let peer_loopback = stream.peer_addr().is_ok_and(|a| a.ip().is_loopback());
    let request = match read_request(&stream) {
        Ok(request) => request,
        Err(e) => {
            let JobOutcome { status, body } = error_outcome(400, "bad_request", &e);
            let _ = write_response(&stream, status, &[], &body);
            return;
        }
    };
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let _ = write_response(&stream, 200, &[], "{\"status\":\"ok\"}\n");
        }
        ("GET", "/metrics") => {
            let body = format!(
                "{}\n",
                state.metrics.to_json(
                    state.queue.capacity(),
                    state.result_stats(),
                    state.mrrg_stats(),
                    state.disk_stats(),
                    &state.quota.stats(),
                )
            );
            let _ = write_response(&stream, 200, &[], &body);
        }
        ("POST", "/admin/shutdown") => {
            if peer_loopback {
                initiate_drain(state);
                let _ = write_response(&stream, 200, &[], "{\"status\":\"draining\"}\n");
            } else {
                let JobOutcome { status, body } =
                    error_outcome(403, "forbidden", "shutdown is loopback-only");
                let _ = write_response(&stream, status, &[], &body);
            }
        }
        ("POST", "/compile") => handle_compile(state, &stream, &request),
        ("POST", "/compile-batch") => handle_compile_batch(state, &stream, &request),
        ("POST", "/lint") => handle_lint(&stream, &request),
        (
            _,
            "/healthz" | "/metrics" | "/admin/shutdown" | "/compile" | "/compile-batch" | "/lint",
        ) => {
            let JobOutcome { status, body } =
                error_outcome(405, "method_not_allowed", "wrong method for this path");
            let _ = write_response(&stream, status, &[], &body);
        }
        _ => {
            let JobOutcome { status, body } = error_outcome(404, "not_found", "unknown path");
            let _ = write_response(&stream, status, &[], &body);
        }
    }
}

/// The content key of a parsed request: everything that determines the
/// response bytes, nothing incidental (see [`crate::cache`]).
fn compile_key(parsed: &CompileRequest) -> u64 {
    ContentHash::new()
        .chunk(&parsed.dfg.to_text())
        .chunk(&parsed.arch_display)
        .chunk(&parsed.arch.to_text())
        .chunk(parsed.mapper.name())
        .chunk(if parsed.baseline {
            "baseline"
        } else {
            "guided"
        })
        .chunk(&parsed.max_ii.map(|n| n.to_string()).unwrap_or_default())
        .chunk(if parsed.analyze { "analyze" } else { "plain" })
        .finish()
}

/// Writes the 429 for a quota-rejected request (`n` compile units).
fn reject_quota(state: &Arc<State>, stream: &TcpStream, n: u64) {
    state.metrics.request_quota_rejected(n);
    let JobOutcome { status, body } = error_outcome(
        429,
        "quota_exceeded",
        "tenant quota exhausted; retry after the indicated delay",
    );
    let retry = format!("Retry-After: {}", state.quota.retry_after_secs());
    let _ = write_response(stream, status, &[retry.as_str()], &body);
}

/// Answers the compile requests of one HTTP request, one outcome per
/// entry in order: an unparsable entry is a `400`, a hit in either cache
/// tier its stored bytes, and the misses queue as *one* job under one
/// deadline (queue wait included) — shed together with `503` when the
/// queue is full or draining. Failure is per entry: the hits of a shed
/// request still return their bodies.
fn submit(
    state: &Arc<State>,
    entries: Vec<Result<CompileRequest, String>>,
    deadline: Option<Duration>,
) -> Vec<JobOutcome> {
    let mut results: Vec<Option<JobOutcome>> = Vec::with_capacity(entries.len());
    let mut misses: Vec<JobEntry> = Vec::new();
    let mut hits = 0u64;
    for (index, entry) in entries.into_iter().enumerate() {
        results.push(match entry {
            Err(e) => Some(error_outcome(400, "bad_request", &e)),
            Ok(request) => {
                let key = compile_key(&request);
                let hit = state.cached_response(key);
                if hit.is_some() {
                    hits += 1;
                } else {
                    misses.push(JobEntry {
                        index,
                        request,
                        key,
                    });
                }
                hit.map(|body| JobOutcome { status: 200, body })
            }
        });
    }
    state.metrics.request_cache_hits(hits);
    if !misses.is_empty() {
        let count = misses.len() as u64;
        // Built before the push, so the deadline includes queue wait. A
        // zero deadline fires here, without a clock: the job answers `504
        // cancelled` when a worker picks it up, however fast the host is.
        let cancel = deadline.map_or_else(CancelToken::new, CancelToken::with_deadline);
        let (tx, rx) = mpsc::channel();
        let job = Job {
            entries: misses,
            cancel,
            respond: tx,
        };
        // Account the enqueue *before* pushing: once the job is in the
        // queue a worker may pop it at any moment, and `jobs_started` must
        // never see `queued == 0` (debug builds panic on the underflow).
        state.metrics.request_enqueued(count);
        let settled = if state.queue.try_push(job).is_err() {
            // Full and draining shed identically: try again later.
            state.metrics.request_shed_after_enqueue(count);
            Err((
                "overloaded",
                "compile queue is full; retry after the indicated delay",
            ))
        } else {
            // A dead worker pool is only possible during a hard teardown;
            // treat it like shedding so the client retries.
            rx.recv()
                .map_err(|_| ("shutting_down", "server is draining"))
        };
        match settled {
            Ok(outcomes) => {
                for (index, outcome) in outcomes {
                    results[index] = Some(outcome);
                }
            }
            Err((error, detail)) => {
                for slot in results.iter_mut().filter(|s| s.is_none()) {
                    *slot = Some(error_outcome(503, error, detail));
                }
            }
        }
    }
    results
        .into_iter()
        .map(|outcome| outcome.expect("every entry settled"))
        .collect()
}

/// `POST /compile`: a one-entry job under the request's own deadline.
fn handle_compile(state: &Arc<State>, stream: &TcpStream, request: &Request) {
    if !state.quota.admit(request.header(TENANT_HEADER)) {
        reject_quota(state, stream, 1);
        return;
    }
    let parsed = parse(&request.body).and_then(|doc| parse_compile_doc(&doc, &state.config));
    let (entry, deadline) = match parsed {
        Ok((request, deadline)) => (Ok(request), deadline),
        Err(e) => (Err(e), None),
    };
    let JobOutcome { status, body } = submit(state, vec![entry], deadline)
        .pop()
        .expect("one outcome per entry");
    let retry: &[&str] = if status == 503 {
        &["Retry-After: 1"]
    } else {
        &[]
    };
    let _ = write_response(stream, status, retry, &body);
}

/// `POST /compile-batch`: N compile entries in one request, sharing the
/// daemon's `Cgra`/MRRG setup and fanning out on the batch executor.
///
/// Failure is *per entry*: a malformed entry yields a 400-shaped element,
/// a shed entry a 503-shaped one, while the rest of the batch proceeds —
/// the envelope itself is `200` whenever the request frame parses. Every
/// entry's `response` is byte-identical to what `/compile` would have
/// returned for the same body (cache tiers included): both endpoints are
/// one [`submit`].
fn handle_compile_batch(state: &Arc<State>, stream: &TcpStream, request: &Request) {
    let bad_request = |reason: &str| {
        let JobOutcome { status, body } = error_outcome(400, "bad_request", reason);
        let _ = write_response(stream, status, &[], &body);
    };
    let doc = match parse(&request.body) {
        Ok(doc) => doc,
        Err(e) => return bad_request(&e),
    };
    let Some(entries) = doc.get("entries").and_then(Json::as_arr) else {
        return bad_request("missing `entries` array");
    };
    if entries.is_empty() {
        return bad_request("`entries` must not be empty");
    }
    if entries.len() > MAX_BATCH_ENTRIES {
        return bad_request(&format!(
            "too many entries ({} > {MAX_BATCH_ENTRIES})",
            entries.len()
        ));
    }
    // One deadline governs the whole batch; entry-level `deadline_ms`
    // fields do not extend it.
    let deadline = match deadline_of(&doc, &state.config) {
        Ok(deadline) => deadline,
        Err(e) => return bad_request(&e),
    };
    // Quota charges one token per entry, all-or-nothing — batching must
    // not be a way around admission control.
    if !state
        .quota
        .admit_n(request.header(TENANT_HEADER), entries.len() as u64)
    {
        reject_quota(state, stream, entries.len() as u64);
        return;
    }
    let parsed = entries
        .iter()
        .map(|entry| parse_compile_doc(entry, &state.config).map(|(request, _)| request))
        .collect();
    let results = submit(state, parsed, deadline);
    let mut w = Writer::new(&schema::SERVE_BATCH);
    w.key("count").uint(results.len());
    w.key("results").open();
    for (index, outcome) in results.iter().enumerate() {
        w.open();
        w.key("index").uint(index);
        w.key("status").uint(outcome.status);
        // The per-entry body is a complete JSON document; embed it
        // verbatim (minus its trailing newline) so batch responses carry
        // the exact bytes `/compile` would have produced.
        w.key("response").doc(outcome.body.trim_end());
        w.close();
    }
    w.close();
    let _ = write_response(stream, 200, &[], &w.finish());
}

fn handle_lint(stream: &TcpStream, request: &Request) {
    let body = match lint_body(&request.body) {
        Ok(body) => body,
        Err(e) => {
            let JobOutcome { status, body } = error_outcome(400, "bad_request", &e);
            let _ = write_response(stream, status, &[], &body);
            return;
        }
    };
    let _ = write_response(stream, 200, &[], &body);
}

fn lint_body(raw: &str) -> Result<String, String> {
    Ok(format!("{}\n", lint_request(&parse(raw)?)?.render_json()))
}

/// A `/compile` body or `/compile-batch` entry as the typed request plus
/// its deadline (`deadline_ms`, else the daemon's `--deadline-ms`).
fn parse_compile_doc(
    doc: &Json,
    config: &ServeConfig,
) -> Result<(CompileRequest, Option<Duration>), String> {
    let request = CompileRequest::from_json(doc, config.portfolio_threads, config.analyze)?;
    Ok((request, deadline_of(doc, config)?))
}

/// The `deadline_ms` of a `/compile` body or `/compile-batch` frame, else
/// the daemon's `--deadline-ms`.
fn deadline_of(doc: &Json, config: &ServeConfig) -> Result<Option<Duration>, String> {
    Ok(match opt_usize(doc, "deadline_ms")? {
        Some(ms) => Some(Duration::from_millis(ms as u64)),
        None => config.deadline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_with(body: &str, config: &ServeConfig) -> (CompileRequest, Option<Duration>) {
        parse_compile_doc(&parse(body).unwrap(), config).unwrap()
    }

    #[test]
    fn daemon_flags_are_the_request_defaults() {
        let config = ServeConfig {
            deadline: Some(Duration::from_secs(60)),
            portfolio_threads: 3,
            analyze: true,
            ..ServeConfig::default()
        };
        let (req, deadline) = parse_with("{\"kernel\":\"fir\"}", &config);
        assert_eq!((req.threads, req.analyze), (3, true));
        assert_eq!(deadline, config.deadline);
        let (req, deadline) = parse_with(
            "{\"kernel\":\"fir\",\"analyze\":false,\"deadline_ms\":25}",
            &config,
        );
        assert!(!req.analyze);
        assert_eq!(deadline, Some(Duration::from_millis(25)));
        let (_, deadline) = parse_with("{\"kernel\":\"fir\",\"deadline_ms\":0}", &config);
        assert_eq!(deadline, Some(Duration::ZERO), "zero is a deadline");
        let (_, deadline) = parse_with("{\"kernel\":\"fir\"}", &ServeConfig::default());
        assert_eq!(deadline, None);
    }

    #[test]
    fn a_warm_cache_request_is_refused_at_bind() {
        let config = ServeConfig {
            warm_cache: true,
            ..ServeConfig::default()
        };
        let Err(err) = Server::bind(config) else {
            panic!("bind accepted warm_cache: true");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(err.to_string(), "the warm-start tier was removed");
    }

    /// The 17th architecture evicts only the least recently used `Cgra`,
    /// and its MRRG counters stay in the `/metrics` totals.
    #[test]
    fn seventeenth_architecture_evicts_one_cgra_and_no_counter_runs_backwards() {
        let server = Server::bind(ServeConfig::default()).unwrap();
        let state = &server.state;
        let configs: Vec<CgraConfig> = (8..=24)
            .map(|rf_size| CgraConfig {
                rf_size,
                ..CgraConfig::small_4x4()
            })
            .collect();
        // One lookup per step; a snapshot after each must never run backwards.
        let last = std::cell::Cell::new(state.mrrg_stats());
        let lookup = |config: &CgraConfig| {
            let graph = state.cgra_for(config).unwrap().mrrg_shared(2);
            let (was, now) = (last.get(), state.mrrg_stats());
            assert!(
                now.hits >= was.hits && now.misses >= was.misses && now.evictions >= was.evictions,
                "a cumulative counter decreased: {was:?} -> {now:?}"
            );
            assert!(now.entries <= CGRA_POOL_SIZE * state.config.mrrg_cache_capacity as u64);
            last.set(now);
            graph
        };
        let graphs: Vec<_> = configs.iter().map(lookup).collect();
        let cold = last.get();
        assert_eq!((cold.hits, cold.misses, cold.entries), (0, 17, 16));
        // The sixteen most recently used architectures kept their graphs …
        for (config, graph) in configs.iter().zip(&graphs).skip(1) {
            assert!(
                Arc::ptr_eq(graph, &lookup(config)),
                "rf {} was dropped",
                config.rf_size
            );
        }
        let warm = last.get();
        assert_eq!((warm.hits, warm.misses), (16, 17));
        // … and the evicted one comes back as a fresh miss.
        assert!(!Arc::ptr_eq(&graphs[0], &lookup(&configs[0])));
        let end = last.get();
        assert_eq!((end.hits, end.misses, end.entries), (16, 18, 16));
    }
}
