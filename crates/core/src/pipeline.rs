//! The PANORAMA compilation pipeline (paper Algorithm 1).

use crate::portfolio::{effective_threads, BatchExecutor};
use crate::report::{CompileReport, HigherLevelPlan};
use panorama_analyze::{optimize, AnalyzeConfig, AnalyzeError, Optimization};
use panorama_arch::Cgra;
use panorama_cluster::{
    explore_partitions_with_stats, top_balanced, Cdg, ClusterError, Partition, SpectralConfig,
};
use panorama_dfg::Dfg;
use panorama_lint::{precheck, Diagnostic, Diagnostics};
use panorama_mapper::{
    CancelToken, LowerLevelMapper, MapError, Mapping, PortfolioBound, Restriction, SearchControl,
};
use panorama_place::{
    assign_columns, assign_rows, ClusterMap, IlpEffort, PlaceError, RowAssignment, ScatterConfig,
};
use panorama_trace::{SpanCollector, SpanStart, Tracer, NO_CANDIDATE, SEQ_BASE_MAP};
use std::error::Error;
use std::fmt;
use std::ops::RangeInclusive;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables of the higher-level mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct PanoramaConfig {
    /// `m`: the largest DFG cluster count explored (Algorithm 1 input).
    pub max_dfg_clusters: usize,
    /// Balanced partitions carried into cluster mapping (the paper uses 3).
    pub top_partitions: usize,
    /// Spectral clustering settings.
    pub spectral: SpectralConfig,
    /// Scattering-ILP settings.
    pub scatter: ScatterConfig,
    /// Optional II cap: no mapper attempts an II above it (it reaches them
    /// as a [`PortfolioBound::capped`] bound), so a kernel that needs more
    /// fails with [`PanoramaError::Mapping`]. The pre-flight check rejects
    /// a compile outright (with [`PanoramaError::Infeasible`]) when the cap
    /// is provably below the static minimum II, instead of letting a
    /// mapper search an empty II range.
    pub max_ii: Option<usize>,
    /// Run the `panorama-analyze` optimizer (constant folding, CSE, dead
    /// node elimination — each rewrite equivalence-checked against the
    /// reference interpreter) on the DFG before mapping. The produced
    /// mapping then targets the *optimized* graph, which
    /// [`CompileReport::mapped_dfg`] exposes; verification and simulation
    /// must use it. Off by default so existing artifacts stay bit-stable.
    /// Only the `compile*` entry points honour this;
    /// [`plan`](Panorama::plan) always inspects the input graph as-is.
    pub analyze: Option<AnalyzeConfig>,
    /// Worker threads for the candidate fan-outs (cluster mapping and
    /// guided lower-level mapping run per-candidate in parallel) when the
    /// caller hands down no shared [`BatchExecutor`]. `0` means one per
    /// available core. The compile result is bit-identical for every
    /// value — parallelism only changes wall-clock.
    pub threads: usize,
}

impl Default for PanoramaConfig {
    fn default() -> Self {
        PanoramaConfig {
            max_dfg_clusters: 32,
            top_partitions: 3,
            spectral: SpectralConfig::default(),
            scatter: ScatterConfig::default(),
            max_ii: None,
            analyze: None,
            threads: 0,
        }
    }
}

impl PanoramaConfig {
    /// The DFG cluster counts `k` the divide explores (Algorithm 1's `r`
    /// to `m`), from the cluster-grid rows `r` up. The cap keeps clusters
    /// a sensible size — all-singleton partitions are perfectly "balanced"
    /// (IF = 0) but defeat the divide step. The paper's `m = 32` is twice
    /// its 16 CGRA cells; scale the same way, never below ~8 DFG nodes per
    /// cluster (Table 1a has ~15–40 per cluster at ~430 nodes), and never
    /// above [`max_dfg_clusters`](Self::max_dfg_clusters).
    pub fn cluster_counts(&self, dfg: &Dfg, cgra: &Cgra) -> RangeInclusive<usize> {
        let (rows, cols) = cgra.cluster_grid();
        let r = rows.max(2);
        let m = (2 * rows * cols)
            .min(dfg.num_ops() / 8)
            .clamp(r, self.max_dfg_clusters.max(r));
        r..=m
    }
}

/// Error produced by the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PanoramaError {
    /// DFG clustering failed.
    Cluster(ClusterError),
    /// Every candidate partition failed cluster mapping; carries the last
    /// failure.
    ClusterMapping(PlaceError),
    /// The lower-level mapper exhausted its II budget.
    Mapping(MapError),
    /// The pre-mapping DFG optimizer failed — either a rewrite was
    /// ill-formed or the rewritten graph failed the interpreter
    /// equivalence check. The input graph was never touched.
    Analysis(AnalyzeError),
    /// The static pre-flight check proved the run infeasible before any
    /// mapping was attempted; carries the error diagnostics.
    Infeasible(Vec<Diagnostic>),
    /// A [`CancelToken`] fired before the pipeline finished (deadline
    /// exceeded, server shutdown). The partial work is discarded; the
    /// compile stopped at the next II iteration or PathFinder round.
    Cancelled,
}

impl fmt::Display for PanoramaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PanoramaError::Cluster(e) => write!(f, "DFG clustering failed: {e}"),
            PanoramaError::ClusterMapping(e) => {
                write!(f, "cluster mapping failed for every partition: {e}")
            }
            PanoramaError::Mapping(e) => write!(f, "lower-level mapping failed: {e}"),
            PanoramaError::Analysis(e) => write!(f, "pre-mapping analysis failed: {e}"),
            PanoramaError::Infeasible(diags) => {
                write!(f, "statically infeasible:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            PanoramaError::Cancelled => write!(f, "compilation cancelled before completion"),
        }
    }
}

impl Error for PanoramaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PanoramaError::Cluster(e) => Some(e),
            PanoramaError::ClusterMapping(e) => Some(e),
            PanoramaError::Mapping(e) => Some(e),
            PanoramaError::Analysis(e) => Some(e),
            PanoramaError::Infeasible(_) => None,
            PanoramaError::Cancelled => None,
        }
    }
}

impl From<ClusterError> for PanoramaError {
    fn from(e: ClusterError) -> Self {
        PanoramaError::Cluster(e)
    }
}

impl From<MapError> for PanoramaError {
    fn from(e: MapError) -> Self {
        PanoramaError::Mapping(e)
    }
}

impl From<AnalyzeError> for PanoramaError {
    fn from(e: AnalyzeError) -> Self {
        PanoramaError::Analysis(e)
    }
}

/// DFGs at or below this many operations never fan their candidate work
/// out to worker threads: on graphs this small the spawn/queue overhead
/// exceeds the mapping work itself (the 4×4-preset rows of the first
/// suite bench lost wall-clock to their own threading). Scheduling
/// only — results are bit-identical either way, by the portfolio's
/// determinism contract.
const SMALL_DFG_SEQUENTIAL_OPS: usize = 48;

/// One conquer candidate: the keys of the winner reduction and, in a
/// guided compile, the plan whose restriction its mappers run under. The
/// baseline is one candidate with no plan, whose mappers see the whole
/// array.
struct Candidate {
    /// Balance rank; `rank × mapper count + mapper position` is the
    /// reduction's last key.
    rank: usize,
    /// The cluster map's routing complexity; `0` unguided.
    complexity: u32,
    plan: Option<HigherLevelPlan>,
}

impl Candidate {
    /// The restriction the mappers run under; `None` maps the whole array.
    fn restriction(&self) -> Option<&Restriction> {
        self.plan.as_ref().map(HigherLevelPlan::restriction)
    }
}

/// The `cluster_map.scatter` counters of ILP effort.
fn effort_counters(effort: IlpEffort) -> [(&'static str, i64); 5] {
    [
        ("ilp_solves", effort.solves as i64),
        ("bnb_nodes", effort.bnb_nodes as i64),
        ("node_limited", effort.node_limited as i64),
        ("simplex_pivots", effort.simplex_pivots as i64),
        ("presolve_reductions", effort.presolve_reductions as i64),
    ]
}

/// Row-wise scattering of one candidate (Algorithm 1 line 9): runs
/// [`assign_columns`] on its column-wise result and records the
/// candidate's second `cluster_map.scatter` span (`row_wise` 1) on `col`,
/// with the ILP effort of that stage alone.
fn assign_columns_traced(
    cdg: &Cdg,
    rows: RowAssignment,
    cols: usize,
    col: &mut SpanCollector,
) -> Result<ClusterMap, PlaceError> {
    let span = col.start();
    let column_wise = rows.ilp_effort();
    let attempt = assign_columns(cdg, rows, cols);
    let mut counters = vec![("k", cdg.num_clusters() as i64)];
    if let Ok(map) = &attempt {
        counters.extend(effort_counters(map.ilp_effort().since(column_wise)));
    }
    counters.extend([("row_wise", 1), ("success", i64::from(attempt.is_ok()))]);
    col.record("cluster_map.scatter", span, &counters);
    attempt
}

/// One divide work item's result: the partition index, the CDG with its
/// column-wise scattering (or why that failed), and its trace collector.
type Scattered = (
    usize,
    Result<(Cdg, RowAssignment), PlaceError>,
    SpanCollector,
);

/// What the divide phase leaves for the caller to select from: every
/// top-balanced partition's column-wise scattering, in balance-rank order,
/// and the still-open `cluster_map` span.
struct Divided {
    scattered: Vec<Scattered>,
    partitions: Arc<Vec<Partition>>,
    clustering_time: Duration,
    /// Wall-clock of the column-wise scattering fan-out.
    scatter_time: Duration,
    span: SpanStart,
}

impl Divided {
    /// The plan of partition `idx` under cluster map `map`: derives its
    /// restriction and checks the plan's invariants in debug builds.
    fn plan(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        idx: usize,
        cdg: Cdg,
        map: ClusterMap,
        cluster_mapping_time: Duration,
    ) -> HigherLevelPlan {
        let partition = &self.partitions[idx];
        let restriction = Restriction::from_cluster_map(dfg, &cdg, &map, cgra);
        assert_plan_invariants(dfg, partition, &cdg, &restriction);
        HigherLevelPlan::new(
            partition.clone(),
            cdg,
            map,
            restriction,
            self.clustering_time,
            cluster_mapping_time,
        )
    }
}

/// [`Panorama::plan`]'s selection: runs `row_wise` on the `pending`
/// candidates — `(routing complexity, balance rank, stage-1 result)` — in
/// key order and returns the first success: the least key among the
/// candidates that would succeed. When every candidate fails, returns the
/// failure of the highest rank among them and `failed` (the candidates
/// that failed before): the error an eager selection reports.
///
/// # Panics
///
/// When `pending` and `failed` are both empty.
fn first_success<P, T, E>(
    mut pending: Vec<(u32, usize, P)>,
    mut failed: Vec<(usize, E)>,
    mut row_wise: impl FnMut(usize, P) -> Result<T, E>,
) -> Result<T, E> {
    pending.sort_by_key(|&(complexity, rank, _)| (complexity, rank));
    for (_, rank, stage1) in pending {
        match row_wise(rank, stage1) {
            Ok(done) => return Ok(done),
            Err(e) => failed.push((rank, e)),
        }
    }
    let (_, last) = failed
        .into_iter()
        .max_by_key(|&(rank, _)| rank)
        .expect("top_balanced yields at least one candidate");
    Err(last)
}

/// Debug-mode invariant: the higher-level artifacts we just built must
/// survive their own static analysis. A failure here is a bug in the
/// divide step, not in the input.
#[allow(unused_variables)]
fn assert_plan_invariants(dfg: &Dfg, partition: &Partition, cdg: &Cdg, restriction: &Restriction) {
    #[cfg(debug_assertions)]
    {
        let mut diags = Diagnostics::new();
        panorama_lint::lint_partition(dfg, partition, cdg, Some(restriction), &mut diags);
        debug_assert!(
            !diags.has_errors(),
            "higher-level plan violates partition invariants:\n{}",
            diags.render_human()
        );
    }
}

/// What [`Panorama::compile_with`] does with the lower-level mappers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompileMode {
    /// Algorithm 1: divide, map clusters, then hand every surviving
    /// candidate partition to the mappers as a placement restriction.
    #[default]
    Guided,
    /// The *unguided* mappers on the whole array, for baseline comparisons
    /// (SPR\* / Ultra-Fast rows of Figures 7 and 9): the same conquer race
    /// over one candidate with no restriction, so several mappers race
    /// exactly as they do guided.
    Baseline,
}

/// The optional surroundings of one [`Panorama::compile_with`] call; every
/// field defaults to "none".
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileContext<'a, 'env> {
    /// Records pipeline spans (`analyze`, `preflight`, `partition`,
    /// `cluster_map`, `map`), per-candidate `cluster_map.scatter` spans and
    /// the mappers' own events, merged deterministically and submitted to
    /// the tracer's sink on success and on error alike. Losing candidates'
    /// mapper streams depend on bound-pruning timing and are marked
    /// unstable; the winner's stream is stable at any thread count.
    pub tracer: Option<&'a Tracer>,
    /// Cooperative cancellation: once fired, the pipeline stops at the
    /// next phase boundary, II iteration or PathFinder round and returns
    /// [`PanoramaError::Cancelled`]. A token that never fires leaves the
    /// result bit-identical to a cancel-free run.
    pub cancel: Option<&'a CancelToken>,
    /// A suite-level pool to submit the candidate fan-outs to instead of
    /// opening one per compile (see [`BatchExecutor`]). The mappers must
    /// outlive its scope (`'env`): work items sharing the pool may still
    /// be queued after this call's frame would unwind on a panic elsewhere
    /// in the batch. The result is bit-identical either way.
    pub executor: Option<&'a BatchExecutor<'env>>,
}

/// The PANORAMA higher-level compiler.
///
/// See the [crate docs](crate) for the full pipeline description and an
/// end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Panorama {
    config: PanoramaConfig,
}

impl Panorama {
    /// Creates a compiler with the given configuration.
    pub fn new(config: PanoramaConfig) -> Self {
        Panorama { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PanoramaConfig {
        &self.config
    }

    /// Runs the static pre-flight check: mappability bounds for `dfg` on
    /// `cgra` (sharpened by `restriction` when given) against the
    /// configured II cap. Returns [`PanoramaError::Infeasible`] carrying
    /// the error diagnostics when the check proves no mapping can exist.
    fn preflight(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        restriction: Option<&Restriction>,
    ) -> Result<(), PanoramaError> {
        let mut diags = Diagnostics::new();
        let report = precheck(dfg, cgra, restriction, self.config.max_ii, &mut diags);
        if report.feasible {
            Ok(())
        } else {
            Err(PanoramaError::Infeasible(diags.errors().cloned().collect()))
        }
    }

    /// Runs `f` with the pool its candidate fan-outs go to: the `shared`
    /// executor when one was handed down, else a scope of the configured
    /// thread count (at most one worker per work item) opened for this
    /// call. Small DFGs (see [`SMALL_DFG_SEQUENTIAL_OPS`]) and
    /// `threads <= 1` get a sequential scope, which spawns nothing and
    /// runs every batch inline. Getting the pool (reading the core count,
    /// spawning the workers) is the top-level `pool` span.
    fn with_pool<'env, R>(
        &self,
        dfg: &Dfg,
        work_items: usize,
        shared: Option<&BatchExecutor<'env>>,
        pipe: &mut SpanCollector,
        f: impl FnOnce(&BatchExecutor<'env>, &mut SpanCollector) -> R,
    ) -> R {
        let span = pipe.start();
        let run = |exec: &BatchExecutor<'env>| {
            pipe.record("pool", span, &[]);
            f(exec, pipe)
        };
        if dfg.num_ops() <= SMALL_DFG_SEQUENTIAL_OPS {
            return BatchExecutor::scope(1, run);
        }
        match shared {
            Some(exec) => run(exec),
            None => BatchExecutor::scope(effective_threads(self.config.threads, work_items), run),
        }
    }

    /// Spectral exploration (Algorithm 1 lines 1–4). Returns the explored
    /// partitions and the clustering wall-clock; records one `partition.k`
    /// trace event per explored candidate inside the `partition` span,
    /// whose counters are the sweep's effort: eigensolve QL iterations,
    /// k-means Lloyd iterations and squared distances evaluated.
    fn explore(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        trace: &mut SpanCollector,
    ) -> Result<(Vec<Partition>, Duration), PanoramaError> {
        let span = trace.start();
        let t0 = Instant::now();
        let ks = self.config.cluster_counts(dfg, cgra);
        let (partitions, eigen_sweeps, iterations, distances) =
            explore_partitions_with_stats(dfg, *ks.start(), *ks.end(), &self.config.spectral)?;
        if trace.is_enabled() {
            for p in &partitions {
                trace.event(
                    "partition.k",
                    &[
                        ("k", p.k() as i64),
                        ("if_milli", (p.imbalance_factor() * 1000.0) as i64),
                    ],
                );
            }
        }
        let elapsed = t0.elapsed();
        trace.record(
            "partition",
            span,
            &[
                ("partitions", partitions.len() as i64),
                ("eigen_sweeps", eigen_sweeps as i64),
                ("kmeans_iterations", iterations as i64),
                ("kmeans_distances", distances as i64),
            ],
        );
        Ok((partitions, elapsed))
    }

    /// Runs `f` with the pipeline collector and a list for the candidates'
    /// collectors, then merges them all into `tracer`'s sink, on success
    /// and on error alike.
    fn traced<R>(
        tracer: &Tracer,
        f: impl FnOnce(&mut SpanCollector, &mut Vec<SpanCollector>) -> R,
    ) -> R {
        let mut pipe = tracer.collector(NO_CANDIDATE);
        let mut collectors = Vec::new();
        let result = f(&mut pipe, &mut collectors);
        collectors.push(pipe);
        tracer.submit(collectors);
        result
    }

    /// The divide phase (Algorithm 1 lines 1–8) without the selection:
    /// explore partitions, then column-scatter the top-`N` balanced ones,
    /// one work item per candidate on `exec`. Records the `partition` span
    /// and each candidate's first `cluster_map.scatter` span (`row_wise`
    /// 0, with ζ and that stage's ILP effort); every work item runs to
    /// completion, so those spans are stable. The caller row-scatters the
    /// candidates it needs, takes their collectors and closes the
    /// `cluster_map` span.
    fn divide<'env>(
        &self,
        dfg: &Arc<Dfg>,
        cgra: &Cgra,
        tracer: &Tracer,
        exec: &BatchExecutor<'env>,
        pipe: &mut SpanCollector,
    ) -> Result<Divided, PanoramaError> {
        let (partitions, clustering_time) = self.explore(dfg, cgra, pipe)?;
        let partitions = Arc::new(partitions);

        let span = pipe.start();
        let t1 = Instant::now();
        let (rows, _) = cgra.cluster_grid();
        let ranked: Vec<usize> = top_balanced(&partitions, self.config.top_partitions)
            .into_iter()
            .map(|(idx, _)| idx)
            .collect();
        // The fan-out closure owns everything it touches, so it can run on
        // a suite-level executor whose workers outlive this frame.
        let (dfg, parts) = (Arc::clone(dfg), Arc::clone(&partitions));
        let tracer = tracer.clone();
        let scatter = self.config.scatter;
        let scattered = exec.run_batch(ranked.len(), move |_, rank| {
            let idx = ranked[rank];
            let mut col = tracer.collector(rank as u32);
            let span = col.start();
            let cdg = Cdg::new(&dfg, &parts[idx]);
            let attempt = assign_rows(&cdg, rows, &scatter);
            let mut counters = vec![("k", cdg.num_clusters() as i64)];
            if let Ok(r) = &attempt {
                counters.extend([
                    ("zeta1", r.zeta1().into()),
                    ("zeta2", r.zeta2().into()),
                    ("routing_complexity", r.routing_complexity().into()),
                ]);
                counters.extend(effort_counters(r.ilp_effort()));
            }
            counters.extend([("row_wise", 0), ("success", i64::from(attempt.is_ok()))]);
            col.record("cluster_map.scatter", span, &counters);
            (idx, attempt.map(|r| (cdg, r)), col)
        });
        Ok(Divided {
            scattered,
            partitions,
            clustering_time,
            scatter_time: t1.elapsed(),
            span,
        })
    }

    /// Runs the higher-level mapping only (Algorithm 1 lines 1–9): the
    /// divide phase up to column-wise scattering, then row-wise scattering
    /// in order of least routing complexity (ties go to the best balance
    /// rank) until one candidate succeeds, then the restricted pre-flight
    /// check of that candidate. The plan is the one an eager selection —
    /// both stages on every candidate, then the least key — would return.
    ///
    /// # Errors
    ///
    /// * [`PanoramaError::Infeasible`] when the static pre-flight check
    ///   proves the run cannot succeed (before and after the restriction
    ///   is derived);
    /// * [`PanoramaError::Cluster`] when spectral clustering fails;
    /// * [`PanoramaError::ClusterMapping`] when no candidate partition
    ///   admits a cluster mapping; it carries the failure of the worst
    ///   balance rank.
    pub fn plan(&self, dfg: &Dfg, cgra: &Cgra) -> Result<HigherLevelPlan, PanoramaError> {
        self.plan_traced(dfg, cgra, &Tracer::disabled())
    }

    /// [`plan`](Panorama::plan) with trace recording: pipeline-level spans
    /// (`preflight`, `partition`, `cluster_map`) plus per-candidate
    /// `cluster_map.scatter` spans — one per scattering stage a candidate
    /// ran, told apart by their `row_wise` counter — are merged and
    /// submitted to `tracer`'s sink, on success and on error alike.
    ///
    /// # Errors
    ///
    /// As for [`plan`](Panorama::plan).
    pub fn plan_traced(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        tracer: &Tracer,
    ) -> Result<HigherLevelPlan, PanoramaError> {
        Self::traced(tracer, |pipe, collectors| {
            let span = pipe.start();
            self.preflight(dfg, cgra, None)?;
            pipe.record("preflight", span, &[]);

            let shared = Arc::new(dfg.clone());
            let divided =
                self.with_pool(dfg, self.config.top_partitions, None, pipe, |exec, pipe| {
                    self.divide(&shared, cgra, tracer, exec, pipe)
                })?;
            let (span, attempts) = (divided.span, divided.scattered.len());
            // Re-check mappability with the restriction in hand: the
            // per-cluster-group capacity bound can prove this particular
            // partition hopeless even when the unrestricted bounds pass.
            let plan = self
                .select(dfg, cgra, divided, collectors)
                .and_then(|plan| {
                    self.preflight(dfg, cgra, Some(plan.restriction()))?;
                    Ok(plan)
                });
            pipe.record("cluster_map", span, &[("attempts", attempts as i64)]);
            plan
        })
    }

    /// [`plan`](Panorama::plan)'s selection: row-scatters the candidates
    /// that passed column-wise scattering in `(routing complexity, balance
    /// rank)` order and returns the plan of the first that succeeds. Each
    /// candidate it tries records its `row_wise` 1 span. The plan's
    /// [`cluster_mapping_time`](HigherLevelPlan::cluster_mapping_time) is
    /// the fan-out's wall-clock plus the tries'.
    fn select(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        mut divided: Divided,
        collectors: &mut Vec<SpanCollector>,
    ) -> Result<HigherLevelPlan, PanoramaError> {
        let t = Instant::now();
        let (_, cols) = cgra.cluster_grid();
        let mut pending = Vec::new();
        let mut failed = Vec::new();
        let mut candidate_collectors = Vec::new();
        for (rank, (idx, attempt, col)) in std::mem::take(&mut divided.scattered)
            .into_iter()
            .enumerate()
        {
            candidate_collectors.push(col);
            match attempt {
                Ok((cdg, rows)) => {
                    pending.push((rows.routing_complexity(), rank, (idx, cdg, rows)));
                }
                Err(e) => failed.push((rank, e)),
            }
        }
        let chosen = first_success(pending, failed, |rank, (idx, cdg, rows)| {
            let col = &mut candidate_collectors[rank];
            assign_columns_traced(&cdg, rows, cols, col).map(|map| (idx, cdg, map))
        });
        collectors.extend(candidate_collectors);
        let (idx, cdg, map) = chosen.map_err(PanoramaError::ClusterMapping)?;
        let cluster_mapping_time = divided.scatter_time + t.elapsed();
        Ok(divided.plan(dfg, cgra, idx, cdg, map, cluster_mapping_time))
    }

    /// Runs the full pipeline (Algorithm 1) with one lower-level mapper:
    /// [`compile_with`](Panorama::compile_with) in [`CompileMode::Guided`]
    /// with an empty [`CompileContext`].
    ///
    /// # Errors
    ///
    /// As for [`compile_with`](Panorama::compile_with).
    pub fn compile<M: LowerLevelMapper>(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        mapper: &M,
    ) -> Result<CompileReport, PanoramaError> {
        let ctx = CompileContext::default();
        self.compile_with(dfg, cgra, &[mapper], CompileMode::Guided, &ctx)
    }

    /// Runs the *unguided* `mapper` on the whole array:
    /// [`compile_with`](Panorama::compile_with) in
    /// [`CompileMode::Baseline`] with an empty [`CompileContext`].
    ///
    /// # Errors
    ///
    /// As for [`compile_with`](Panorama::compile_with).
    pub fn compile_baseline<M: LowerLevelMapper>(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        mapper: &M,
    ) -> Result<CompileReport, PanoramaError> {
        let ctx = CompileContext::default();
        self.compile_with(dfg, cgra, &[mapper], CompileMode::Baseline, &ctx)
    }

    /// The one general compile entry: optional pre-mapping analysis and
    /// the static pre-flight check, then one conquer race whose candidates
    /// `mode` picks.
    ///
    /// In [`CompileMode::Guided`] the candidates are the partitions that
    /// survive cluster mapping and the restricted pre-flight check; in
    /// [`CompileMode::Baseline`] they are one unrestricted candidate.
    /// Every candidate is handed to every entry of `mappers` (Algorithm 1
    /// line 10, widened across candidates and backends): each *(candidate,
    /// mapper)* pair is one work item on the pool, all racing under a
    /// shared best-II bound. The winner is reduced deterministically by
    /// *(achieved II, cluster routing complexity, candidate rank × mapper
    /// count + mapper position)*, so the report is bit-identical for every
    /// [`PanoramaConfig::threads`] value and with or without a shared
    /// [`CompileContext::executor`]. One mapper is the plain compile;
    /// several are the portfolio race. A backend that cannot map a
    /// candidate only loses the race.
    ///
    /// # Errors
    ///
    /// * [`PanoramaError::Analysis`] when the pre-mapping optimizer fails;
    /// * [`PanoramaError::Infeasible`] when the pre-flight check proves the
    ///   run (or every surviving candidate) hopeless;
    /// * [`PanoramaError::Cluster`] when spectral clustering fails;
    /// * [`PanoramaError::ClusterMapping`] when no candidate partition
    ///   admits a cluster mapping;
    /// * [`PanoramaError::Mapping`] when every mapping attempt fails;
    /// * [`PanoramaError::Cancelled`] when [`CompileContext::cancel`] fires
    ///   mid-run.
    ///
    /// # Panics
    ///
    /// When `mappers` is empty.
    pub fn compile_with<'env>(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        mappers: &[&'env dyn LowerLevelMapper],
        mode: CompileMode,
        ctx: &CompileContext<'_, 'env>,
    ) -> Result<CompileReport, PanoramaError> {
        assert!(!mappers.is_empty(), "a compile needs at least one mapper");
        let disabled = Tracer::disabled();
        let tracer = ctx.tracer.unwrap_or(&disabled);
        let cancel = ctx.cancel;
        Self::traced(tracer, |pipe, collectors| {
            Self::check_cancel(cancel)?;
            let analyzed = self.analyze_input(dfg, pipe)?;
            let mapped = analyzed.as_ref().map_or(dfg, |o| &o.dfg);
            Self::check_cancel(cancel)?;
            let span = pipe.start();
            self.preflight(mapped, cgra, None)?;
            pipe.record("preflight", span, &[]);
            Self::check_cancel(cancel)?;

            // Shared ownership of the graph being mapped: candidate work
            // items may run on suite-level executor workers that outlive
            // this frame, so they cannot borrow it. (One shallow clone per
            // compile — vectors of ops and edges — is noise next to a
            // single II attempt.)
            let shared = Arc::new(mapped.clone());
            let per_mapper = match mode {
                CompileMode::Guided => self.config.top_partitions,
                CompileMode::Baseline => 1,
            };
            let work_items = per_mapper * mappers.len();
            let (mapping, plan, mapping_time) =
                self.with_pool(mapped, work_items, ctx.executor, pipe, |exec, pipe| {
                    let candidates = match mode {
                        CompileMode::Guided => {
                            let divided = self.divide(&shared, cgra, tracer, exec, pipe)?;
                            let candidates =
                                self.feasible(&shared, cgra, divided, exec, pipe, collectors)?;
                            Self::check_cancel(cancel)?;
                            candidates
                        }
                        CompileMode::Baseline => vec![Candidate {
                            rank: 0,
                            complexity: 0,
                            plan: None,
                        }],
                    };
                    self.conquer(
                        &shared, cgra, mappers, candidates, tracer, cancel, exec, pipe, collectors,
                    )
                })?;
            Ok(CompileReport::new(mapping, plan, mapping_time)
                .with_analysis(analyzed.map(|o| o.dfg)))
        })
    }

    /// `Err(Cancelled)` once `cancel` has fired — polled at every phase
    /// boundary so a cancelled compile never starts the next phase.
    fn check_cancel(cancel: Option<&CancelToken>) -> Result<(), PanoramaError> {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            Err(PanoramaError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Runs the configured pre-mapping optimizer (when enabled), recording
    /// an `analyze` pipeline span with the rewrite counters. `None` when
    /// analysis is off — the rest of the pipeline then maps the input
    /// graph untouched, byte-for-byte as before the pass existed.
    fn analyze_input(
        &self,
        dfg: &Dfg,
        pipe: &mut SpanCollector,
    ) -> Result<Option<Optimization>, PanoramaError> {
        let Some(config) = &self.config.analyze else {
            return Ok(None);
        };
        let span = pipe.start();
        let opt = optimize(dfg, config)?;
        pipe.record(
            "analyze",
            span,
            &[
                ("ops_before", dfg.num_ops() as i64),
                ("ops_after", opt.dfg.num_ops() as i64),
                ("rounds", opt.rounds as i64),
                ("folded", opt.folded as i64),
                ("merged", opt.merged as i64),
                ("removed", opt.removed as i64),
            ],
        );
        Ok(Some(opt))
    }

    /// A guided compile's candidates: row-scatters every candidate that
    /// passed column-wise scattering, one work item each on `exec`, and
    /// keeps those that admitted a cluster mapping and that the restricted
    /// pre-flight check does not prove hopeless, or returns the error that
    /// explains why none is left. Takes the candidates' collectors and
    /// closes the `cluster_map` span.
    fn feasible<'env>(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        mut divided: Divided,
        exec: &BatchExecutor<'env>,
        pipe: &mut SpanCollector,
        collectors: &mut Vec<SpanCollector>,
    ) -> Result<Vec<Candidate>, PanoramaError> {
        let t = Instant::now();
        let (_, cols) = cgra.cluster_grid();
        // Each work item takes its candidate out of its own slot, so the
        // closure owns them and can run on a suite-level executor.
        let slots: Vec<_> = std::mem::take(&mut divided.scattered)
            .into_iter()
            .map(|scattered| Mutex::new(Some(scattered)))
            .collect();
        let attempts = slots.len();
        let mapped = exec.run_batch(attempts, move |_, rank| {
            let (idx, attempt, mut col) = slots[rank]
                .lock()
                .expect("a slot is locked only to take its value")
                .take()
                .expect("one work item per slot");
            let attempt = attempt.and_then(|(cdg, rows)| {
                assign_columns_traced(&cdg, rows, cols, &mut col).map(|map| (cdg, map))
            });
            (idx, attempt, col)
        });
        let cluster_mapping_time = divided.scatter_time + t.elapsed();
        let mut candidates = Vec::new();
        let mut last_err = None;
        for (rank, (idx, attempt, col)) in mapped.into_iter().enumerate() {
            collectors.push(col);
            match attempt {
                Ok((cdg, map)) => candidates.push(Candidate {
                    rank,
                    complexity: map.routing_complexity(),
                    plan: Some(divided.plan(dfg, cgra, idx, cdg, map, cluster_mapping_time)),
                }),
                Err(e) => last_err = Some(e),
            }
        }
        let mut first_infeasible = None;
        candidates.retain(|c| match self.preflight(dfg, cgra, c.restriction()) {
            Ok(()) => true,
            Err(e) => {
                first_infeasible.get_or_insert(e);
                false
            }
        });
        pipe.record(
            "cluster_map",
            divided.span,
            &[
                ("attempts", attempts as i64),
                ("survivors", candidates.len() as i64),
            ],
        );
        if candidates.is_empty() {
            return Err(first_infeasible
                .or(last_err.map(PanoramaError::ClusterMapping))
                .expect("top_balanced yields at least one candidate"));
        }
        Ok(candidates)
    }

    /// A mapper's failure as the pipeline reports it.
    fn map_error(e: MapError) -> PanoramaError {
        if e.cancelled {
            PanoramaError::Cancelled
        } else {
            PanoramaError::Mapping(e)
        }
    }

    /// The conquer phase: races every *(candidate, mapper)* pair on `exec`
    /// and reduces. Returns the winning mapping, its candidate's plan and
    /// the conquer wall-clock.
    #[allow(clippy::too_many_arguments)]
    fn conquer<'env>(
        &self,
        dfg: &Arc<Dfg>,
        cgra: &Cgra,
        mappers: &[&'env dyn LowerLevelMapper],
        mut candidates: Vec<Candidate>,
        tracer: &Tracer,
        cancel: Option<&CancelToken>,
        exec: &BatchExecutor<'env>,
        pipe: &mut SpanCollector,
        collectors: &mut Vec<SpanCollector>,
    ) -> Result<(Mapping, Option<HigherLevelPlan>, Duration), PanoramaError> {
        // Likely winners (lowest routing complexity) first, so the shared
        // bound starts pruning early. The execution order affects only
        // wall-clock — see the reduction below.
        candidates.sort_by_key(|c| (c.complexity, c.rank));
        let candidates = Arc::new(candidates);
        // Every (candidate, mapper) pair is one work item; with a single
        // mapper the layout is one item per candidate (same indices, same
        // seq bases).
        let nb = mappers.len();
        let bound = PortfolioBound::capped(self.config.max_ii);
        let span = pipe.start();
        let t2 = Instant::now();
        let mut outcomes = {
            let candidates = Arc::clone(&candidates);
            let dfg = Arc::clone(dfg);
            let cgra = cgra.clone();
            let mappers = mappers.to_vec();
            let tracer = tracer.clone();
            let cancel_token = cancel.cloned();
            let bound = Arc::clone(&bound);
            exec.run_batch(candidates.len() * nb, move |_, w| {
                let c = &candidates[w / nb];
                let b = w % nb;
                let mut control =
                    SearchControl::new(Arc::clone(&bound), c.complexity, c.rank * nb + b);
                if let Some(tok) = &cancel_token {
                    control = control.with_cancel(tok.clone());
                }
                // The conquer collector's seq numbers start at SEQ_BASE_MAP so
                // they merge after the same candidate's scatter events; each
                // additional backend gets its own seq window above that.
                let mut col = tracer.collector_from(c.rank as u32, SEQ_BASE_MAP * (b as u64 + 1));
                let attempt_span = col.start();
                let outcome =
                    mappers[b].map_traced(&dfg, &cgra, c.restriction(), Some(&control), &mut col);
                match &outcome {
                    Ok(m) => col.record(
                        "map.candidate",
                        attempt_span,
                        &[("ii", m.ii() as i64), ("success", 1)],
                    ),
                    Err(_) => col.record("map.candidate", attempt_span, &[("success", 0)]),
                }
                (outcome, col)
            })
        };
        let mapping_time = t2.elapsed();

        // A fired token wins over any candidate that slipped through
        // before cancellation was observed: the caller asked for the run
        // to stop, and which candidates completed first is a race. Every
        // collector is unstable for the same reason.
        if cancel.is_some_and(CancelToken::is_cancelled) {
            collectors.extend(outcomes.into_iter().map(|(_, mut col)| {
                col.mark_unstable();
                col
            }));
            return Err(PanoramaError::Cancelled);
        }

        // Deterministic reduction: lowest (achieved II, routing
        // complexity, candidate rank). The bound admits exactly the keys
        // that would win here, so pruned candidates can never be the
        // winner and the result is thread-count-invariant.
        let mut best: Option<(u64, usize)> = None;
        let mut first_map_err: Option<(usize, MapError)> = None;
        for (w, (outcome, _)) in outcomes.iter().enumerate() {
            let c = &candidates[w / nb];
            let idx = c.rank * nb + (w % nb);
            match outcome {
                Ok(mapping) => {
                    let key = SearchControl::reduction_key(mapping.ii(), c.complexity, idx);
                    if best.as_ref().is_none_or(|&(b, _)| key < b) {
                        best = Some((key, w));
                    }
                }
                Err(e) => {
                    if first_map_err.as_ref().is_none_or(|&(r, _)| idx < r) {
                        first_map_err = Some((idx, e.clone()));
                    }
                }
            }
        }
        // Only the winner's lower-level search replays identically at any
        // thread count; every other candidate may have been pruned at a
        // timing-dependent point, so its conquer events are unstable.
        let winner_index = best.map(|(_, i)| i);
        for (i, (_, col)) in outcomes.iter_mut().enumerate() {
            if Some(i) != winner_index {
                col.mark_unstable();
            }
        }
        if tracer.is_enabled() {
            let cache = cgra.mrrg_cache();
            pipe.event_unstable(
                "mrrg_cache",
                &[
                    ("hits", cache.hits() as i64),
                    ("misses", cache.misses() as i64),
                    ("entries", cache.len() as i64),
                ],
            );
        }
        let Some(winner) = winner_index else {
            pipe.record("map", span, &[("candidates", outcomes.len() as i64)]);
            collectors.extend(outcomes.into_iter().map(|(_, col)| col));
            let (_, e) = first_map_err.expect("no success implies at least one failure");
            return Err(Self::map_error(e));
        };
        let c = &candidates[winner / nb];
        pipe.record(
            "map",
            span,
            &[
                ("winner_rank", c.rank as i64),
                ("candidates", outcomes.len() as i64),
            ],
        );
        let plan = c.plan.clone();
        let (outcome, winner_col) = outcomes.swap_remove(winner);
        collectors.push(winner_col);
        collectors.extend(outcomes.into_iter().map(|(_, col)| col));
        let mapping = outcome.expect("winner is a success");
        Ok((mapping, plan, mapping_time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{kernels, KernelId, KernelScale};
    use panorama_mapper::{SprMapper, UltraFastMapper};

    fn cgra() -> Cgra {
        Cgra::new(CgraConfig::scaled_8x8()).unwrap()
    }

    #[test]
    fn plan_produces_consistent_artifacts() {
        let dfg = kernels::generate(KernelId::Conv2d, KernelScale::Tiny);
        let compiler = Panorama::new(PanoramaConfig {
            max_dfg_clusters: 8,
            ..Default::default()
        });
        let plan = compiler.plan(&dfg, &cgra()).unwrap();
        assert_eq!(plan.partition().labels().len(), dfg.num_ops());
        assert_eq!(plan.cdg().num_clusters(), plan.partition().k());
        assert_eq!(plan.cluster_map().grid(), (2, 2));
        assert!(plan.clustering_time().as_nanos() > 0);
    }

    /// `first_success` against the eager selection it replaces, on three
    /// candidates: every routing complexity in {2, 4, 6} per candidate and
    /// every set of candidates failing stage 1 or stage 2. Eager: both
    /// stages on every candidate in rank order, the least `(complexity,
    /// rank)` among the successes, else the last failure. Errors are
    /// `(rank, stage)`.
    #[test]
    fn first_success_picks_what_the_eager_selection_picks() {
        for keys in 0..27u32 {
            let complexity = |rank: u32| 2 + 2 * (keys / 3u32.pow(rank) % 3);
            for fails in 0..64u32 {
                let fails_stage =
                    |rank: usize, stage: u32| fails >> (2 * rank as u32 + stage - 1) & 1 == 1;
                let mut eager: Option<((u32, usize), usize)> = None;
                let mut eager_err = None;
                let (mut pending, mut failed) = (Vec::new(), Vec::new());
                for rank in 0..3 {
                    let key = (complexity(rank as u32), rank);
                    if fails_stage(rank, 1) {
                        eager_err = Some((rank, 1));
                        failed.push((rank, (rank, 1)));
                        continue;
                    }
                    pending.push((key.0, rank, rank));
                    if fails_stage(rank, 2) {
                        eager_err = Some((rank, 2));
                    } else if eager.is_none_or(|(best, _)| key < best) {
                        eager = Some((key, rank));
                    }
                }
                let mut tried = 0;
                let lazy = first_success(pending, failed, |rank, stage1: usize| {
                    assert_eq!(rank, stage1);
                    tried += 1;
                    if fails_stage(rank, 2) {
                        Err((rank, 2))
                    } else {
                        Ok(rank)
                    }
                });
                let want = eager
                    .map(|(_, rank)| rank)
                    .ok_or_else(|| eager_err.unwrap());
                assert_eq!(lazy, want, "keys {keys} fails {fails:06b}");
                if let Some((key, _)) = eager {
                    // only the candidates keyed at or below the winner ran
                    let keyed_at_or_below = (0..3)
                        .filter(|&r| !fails_stage(r, 1) && (complexity(r as u32), r) <= key)
                        .count();
                    assert_eq!(tried, keyed_at_or_below, "keys {keys} fails {fails:06b}");
                }
            }
        }
    }

    /// A stage 2 that fails on the best key hands the plan to the next
    /// key; when every candidate fails, the error is the failure of the
    /// worst rank, whichever stage it failed in.
    #[test]
    fn first_success_falls_through_to_the_next_key() {
        let pending = vec![(6, 0, 'a'), (4, 2, 'c'), (4, 1, 'b')];
        let mut tried = Vec::new();
        let got = first_success(pending.clone(), Vec::new(), |rank, p| {
            tried.push(rank);
            if p == 'b' {
                Err(rank)
            } else {
                Ok(p)
            }
        });
        assert_eq!(got, Ok('c'));
        assert_eq!(tried, [1, 2]);
        assert_eq!(
            first_success(pending, Vec::new(), |rank, _| Err::<char, _>(rank)),
            Err(2)
        );
        let stage1_failed = vec![(1, 1)];
        assert_eq!(
            first_success(vec![(4, 0, 'a')], stage1_failed.clone(), |rank, _| Err::<
                char,
                _,
            >(
                rank
            )),
            Err(1)
        );
        assert_eq!(
            first_success(vec![(4, 2, 'c')], stage1_failed, |rank, _| Err::<char, _>(
                rank
            )),
            Err(2)
        );
    }

    #[test]
    fn compile_with_spr_verifies() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let compiler = Panorama::new(PanoramaConfig {
            max_dfg_clusters: 8,
            ..Default::default()
        });
        let cgra = cgra();
        let report = compiler
            .compile(&dfg, &cgra, &SprMapper::default())
            .unwrap();
        report.mapping().verify(&dfg, &cgra).unwrap();
        assert!(report.plan().is_some());
    }

    #[test]
    fn compile_with_ultrafast_verifies() {
        let dfg = kernels::generate(KernelId::Cordic, KernelScale::Tiny);
        let compiler = Panorama::new(PanoramaConfig {
            max_dfg_clusters: 8,
            ..Default::default()
        });
        let cgra = cgra();
        let report = compiler
            .compile(&dfg, &cgra, &UltraFastMapper::default())
            .unwrap();
        report.mapping().verify(&dfg, &cgra).unwrap();
    }

    #[test]
    fn ii_cap_below_static_bound_is_rejected_up_front() {
        use panorama_dfg::{DfgBuilder, OpKind};
        // Four chained adds closed by a distance-1 back edge: RecMII = 4.
        let mut b = DfgBuilder::new("loop4");
        let ops: Vec<_> = (0..4).map(|i| b.op(OpKind::Add, format!("a{i}"))).collect();
        for w in ops.windows(2) {
            b.data(w[0], w[1]);
        }
        b.back(ops[3], ops[0], 1);
        let dfg = b.build().unwrap();
        let compiler = Panorama::new(PanoramaConfig {
            max_ii: Some(2),
            ..Default::default()
        });
        let err = compiler
            .compile_baseline(&dfg, &cgra(), &UltraFastMapper::default())
            .unwrap_err();
        let PanoramaError::Infeasible(diags) = err else {
            panic!("expected Infeasible, got {err}");
        };
        assert!(diags.iter().any(|d| d.code == "MAP003"), "{diags:?}");
    }

    #[test]
    fn unsupported_op_kind_is_rejected_up_front() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        assert!(dfg
            .kind_histogram()
            .iter()
            .any(|(k, n)| { *k == panorama_dfg::OpKind::Mul && *n > 0 }));
        let cgra = Cgra::new(CgraConfig {
            mul_support: false,
            ..CgraConfig::scaled_8x8()
        })
        .unwrap();
        let compiler = Panorama::new(PanoramaConfig {
            max_dfg_clusters: 8,
            ..Default::default()
        });
        let err = compiler
            .compile(&dfg, &cgra, &SprMapper::default())
            .unwrap_err();
        let PanoramaError::Infeasible(diags) = err else {
            panic!("expected Infeasible, got {err}");
        };
        assert!(diags.iter().any(|d| d.code == "MAP001"), "{diags:?}");
    }

    #[test]
    fn compile_with_analysis_verifies_on_optimized_graph() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let compiler = Panorama::new(PanoramaConfig {
            max_dfg_clusters: 8,
            analyze: Some(AnalyzeConfig::default()),
            ..Default::default()
        });
        let cgra = cgra();
        let report = compiler
            .compile(&dfg, &cgra, &SprMapper::default())
            .unwrap();
        let mapped = report.mapped_dfg(&dfg);
        assert!(report.analyzed_dfg().is_some());
        assert!(mapped.num_ops() <= dfg.num_ops());
        report.mapping().verify(mapped, &cgra).unwrap();

        // The optimized graph never maps worse than the untouched one.
        let plain = Panorama::new(PanoramaConfig {
            max_dfg_clusters: 8,
            ..Default::default()
        })
        .compile(&dfg, &cgra, &SprMapper::default())
        .unwrap();
        assert!(report.mapping().ii() <= plain.mapping().ii());
    }

    #[test]
    fn baseline_with_analysis_verifies_on_optimized_graph() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let compiler = Panorama::new(PanoramaConfig {
            analyze: Some(AnalyzeConfig::default()),
            ..Default::default()
        });
        let cgra = cgra();
        let report = compiler
            .compile_baseline(&dfg, &cgra, &UltraFastMapper::default())
            .unwrap();
        report
            .mapping()
            .verify(report.mapped_dfg(&dfg), &cgra)
            .unwrap();
    }

    #[test]
    fn baseline_has_no_plan() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let compiler = Panorama::default();
        let report = compiler
            .compile_baseline(&dfg, &cgra(), &UltraFastMapper::default())
            .unwrap();
        assert!(report.plan().is_none());
    }
}
