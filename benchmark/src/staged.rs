//! The traced run's replay of `Panorama::compile` / `Panorama::plan`,
//! one public call per stage with a span around each.
//!
//! The stages, their order, the candidate ordering, the shared best-II
//! bound and the winner reduction are those of `crates/core`'s pipeline at
//! `threads: 1`, so the replay does the same work and must land on the
//! same mapping — the caller checks II and content hash against the
//! entry point. Nothing here is timed for an end-to-end metric.

use crate::report::Metrics;
use crate::span::{Recorder, SpanId};
use panorama::arch::Cgra;
use panorama::cluster::{top_balanced, Cdg, SpectralClustering};
use panorama::dfg::Dfg;
use panorama::lint::{precheck, Diagnostics};
use panorama::mapper::{
    restricted_min_ii, LowerLevelMapper, Mapping, PortfolioBound, Restriction, SatMapper,
    SearchControl, SprMapper,
};
use panorama::place::{map_clusters, ClusterMap};
use panorama::trace::{RecordingSink, TraceEvent, Tracer, SEQ_BASE_MAP};
use panorama::PanoramaConfig;
use std::sync::Arc;

/// Which lower-level backend the conquer stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// SPR\* (`SprMapper::default()`).
    Spr,
    /// The SAT mapper (`SatMapper::default()`).
    Sat,
    /// Stop after the higher-level plan.
    PlanOnly,
}

/// What the replay produced.
pub struct Staged {
    /// The root span (`core.staged`).
    pub root: SpanId,
    /// The winning mapping; `None` for [`Backend::PlanOnly`].
    pub mapping: Option<Mapping>,
    /// II floor the chosen plan's restriction leaves.
    pub restricted_mii: usize,
    /// FNV of the chosen partition labels and cluster map.
    pub plan_hash: u64,
}

struct Candidate {
    rank: usize,
    /// Whether the restricted pre-flight check passed.
    feasible: bool,
    map: ClusterMap,
    restriction: Restriction,
    labels: Vec<usize>,
}

/// FNV-1a over a plan's partition labels and rendered cluster map: the
/// plan workload's determinism fingerprint.
pub fn plan_hash(labels: &[usize], map: &ClusterMap) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &l in labels {
        eat(&(l as u64).to_le_bytes());
    }
    eat(map.render().as_bytes());
    h
}

/// Replays the pipeline on `dfg`, adding each stage's time and counts to
/// `m` (sums over inputs).
///
/// # Errors
///
/// The first stage that fails, in words.
pub fn replay(
    rec: &mut Recorder,
    m: &mut Metrics,
    input: usize,
    dfg: &Dfg,
    cgra: &Cgra,
    backend: Backend,
) -> Result<Staged, String> {
    let config = PanoramaConfig::default();
    let root = rec.enter("core.staged", input);
    let result = replay_inner(rec, m, input, dfg, cgra, backend, &config);
    rec.exit(root);
    m.add("core.staged_s", rec.duration_s(root));
    let (mapping, chosen) = result?;
    Ok(Staged {
        root,
        mapping,
        restricted_mii: restricted_min_ii(dfg, cgra, &chosen.restriction),
        plan_hash: plan_hash(&chosen.labels, &chosen.map),
    })
}

fn replay_inner(
    rec: &mut Recorder,
    m: &mut Metrics,
    input: usize,
    dfg: &Dfg,
    cgra: &Cgra,
    backend: Backend,
    config: &PanoramaConfig,
) -> Result<(Option<Mapping>, Candidate), String> {
    // Pre-flight, unrestricted.
    let (report, t) = rec.time("lint.precheck", input, || {
        precheck(dfg, cgra, None, config.max_ii, &mut Diagnostics::new())
    });
    m.add("lint.precheck_s", t);
    if !report.feasible {
        return Err("pre-flight check says infeasible".into());
    }

    // Divide: one eigendecomposition, then k-means per k in [r, m].
    let (rows, cols) = cgra.cluster_grid();
    let r = rows.max(2);
    let max_k = (2 * rows * cols)
        .min(dfg.num_ops() / 8)
        .clamp(r, config.max_dfg_clusters.max(r));
    let (embedding, t) = rec.time("cluster.embed", input, || {
        SpectralClustering::with_kind(dfg, config.spectral.kind)
    });
    m.add("cluster.embed_s", t);
    let embedding = embedding.map_err(|e| format!("spectral embedding: {e}"))?;
    m.add("cluster.eigen_sweeps", embedding.eigen_sweeps() as f64);

    let (partitions, t) = rec.time("cluster.partition", input, || {
        (r..=max_k.min(embedding.num_nodes()))
            .map(|k| embedding.partition(k, &config.spectral))
            .collect::<Result<Vec<_>, _>>()
    });
    m.add("cluster.partition_s", t);
    let partitions = partitions.map_err(|e| format!("k sweep: {e}"))?;
    m.add("cluster.partitions", partitions.len() as f64);

    let (ranked, t) = rec.time("cluster.rank", input, || {
        top_balanced(&partitions, config.top_partitions)
            .into_iter()
            .map(|(idx, part)| (idx, Cdg::new(dfg, part)))
            .collect::<Vec<_>>()
    });
    m.add("cluster.rank_s", t);
    if let Some((idx, _)) = ranked.first() {
        m.add(
            "cluster.best_imbalance_pm",
            partitions[*idx].imbalance_factor() * 1000.0,
        );
    }

    // Scatter each ranked candidate, derive its restriction, re-check.
    let mut candidates = Vec::new();
    let mut last_error = String::from("no candidate partition");
    for (rank, (idx, cdg)) in ranked.iter().enumerate() {
        let (attempt, t) = rec.time("place.map_clusters", input, || {
            map_clusters(cdg, rows, cols, &config.scatter)
        });
        m.add("place.map_clusters_s", t);
        let map = match attempt {
            Ok(map) => map,
            Err(e) => {
                m.add("place.failed_candidates", 1.0);
                last_error = format!("cluster mapping: {e}");
                continue;
            }
        };
        let effort = map.ilp_effort();
        m.add("place.ilp_solves", effort.solves as f64);
        m.add("place.bnb_nodes", effort.bnb_nodes as f64);
        m.add("place.simplex_pivots", effort.simplex_pivots as f64);
        m.add("place.zeta_sum", f64::from(map.zeta1() + map.zeta2()));
        let (restriction, t) = rec.time("mapper.restrict", input, || {
            Restriction::from_cluster_map(dfg, cdg, &map, cgra)
        });
        m.add("mapper.restrict_s", t);
        let (report, t) = rec.time("lint.precheck", input, || {
            precheck(
                dfg,
                cgra,
                Some(&restriction),
                config.max_ii,
                &mut Diagnostics::new(),
            )
        });
        m.add("lint.precheck_s", t);
        candidates.push(Candidate {
            rank,
            feasible: report.feasible,
            map,
            restriction,
            labels: partitions[*idx].labels().to_vec(),
        });
    }

    if backend == Backend::PlanOnly {
        // `Panorama::plan` keeps the first candidate of least routing
        // complexity in balance-rank order, then re-checks only that one.
        let best = candidates
            .into_iter()
            .min_by_key(|c| (c.map.routing_complexity(), c.rank))
            .ok_or(last_error)?;
        if !best.feasible {
            return Err("restricted pre-flight says the chosen plan is infeasible".into());
        }
        m.add(
            "place.routing_complexity",
            f64::from(best.map.routing_complexity()),
        );
        return Ok((None, best));
    }
    // `Panorama::compile` drops candidates the restricted bounds refute.
    candidates.retain(|c| c.feasible);
    if candidates.is_empty() {
        return Err("no candidate survived cluster mapping and the restricted pre-flight".into());
    }

    // Conquer: likely winners first, one shared best-II bound.
    candidates.sort_by_key(|c| (c.map.routing_complexity(), c.rank));
    let bound = PortfolioBound::new();
    let spr = SprMapper::default();
    let sat = SatMapper::default();
    let (span_name, time_name) = match backend {
        Backend::Spr => ("mapper.spr_map", "mapper.spr_map_s"),
        _ => ("mapper.sat_map", "mapper.sat_map_s"),
    };
    let mut best: Option<(u64, usize, Mapping)> = None;
    let mut last_error = String::new();
    for (slot, c) in candidates.iter().enumerate() {
        let control = SearchControl::new(Arc::clone(&bound), c.map.routing_complexity(), c.rank);
        // The program's own spans for this candidate, on the recorder's
        // clock: the tracer's epoch is "now".
        let sink = RecordingSink::shared();
        let tracer = Tracer::new(sink.clone());
        let offset = rec.now_ns();
        let mut collector = tracer.collector_from(c.rank as u32, SEQ_BASE_MAP);
        let span = rec.enter(span_name, input);
        let outcome = match backend {
            Backend::Spr => spr.map_traced(
                dfg,
                cgra,
                Some(&c.restriction),
                Some(&control),
                &mut collector,
            ),
            _ => sat.map_traced(
                dfg,
                cgra,
                Some(&c.restriction),
                Some(&control),
                &mut collector,
            ),
        };
        rec.exit(span);
        m.add(time_name, rec.duration_s(span));
        tracer.submit(vec![collector]);
        let events = sink.take();
        fold_program_events(m, &events);
        rec.adopt(
            span,
            input,
            events
                .iter()
                .filter(|e| e.end_ns > e.start_ns)
                .map(|e| (e.phase, e.start_ns + offset, e.end_ns + offset))
                .collect(),
        );
        match outcome {
            Ok(mapping) => {
                let key =
                    SearchControl::reduction_key(mapping.ii(), c.map.routing_complexity(), c.rank);
                if best.as_ref().is_none_or(|(b, _, _)| key < *b) {
                    best = Some((key, slot, mapping));
                }
            }
            Err(e) => last_error = format!("lower-level mapping: {e}"),
        }
    }
    if backend == Backend::Spr {
        m.add("mapper.spr_candidates", candidates.len() as f64);
    } else {
        for a in sat.take_attempts() {
            m.add("mapper.sat_ii_attempts", 1.0);
            m.add("mapper.sat_refinements", a.refinements as f64);
            let peak = |m: &mut Metrics, name: &str, v: usize| {
                if v as f64 > m.get(name).unwrap_or(0.0) {
                    m.set(name, v as f64);
                }
            };
            peak(m, "mapper.sat_vars_peak", a.vars);
            peak(m, "mapper.sat_clauses_peak", a.clauses);
            m.add("sat.conflicts", a.conflicts as f64);
            m.add("sat.propagations", a.propagations as f64);
            m.add("sat.decisions", a.decisions as f64);
            m.add("sat.restarts", a.restarts as f64);
        }
    }
    let cache = cgra.mrrg_cache();
    m.add("arch.mrrg_cache_hits", cache.hits() as f64);
    m.add("arch.mrrg_cache_misses", cache.misses() as f64);
    let Some((_, slot, mapping)) = best else {
        return Err(last_error);
    };
    let chosen = candidates.swap_remove(slot);
    m.add(
        "place.routing_complexity",
        f64::from(chosen.map.routing_complexity()),
    );
    Ok((Some(mapping), chosen))
}

/// Folds the spans the mappers emit themselves (`spr.*`, `sat.*`) into
/// the per-layer sums.
fn fold_program_events(m: &mut Metrics, events: &[TraceEvent]) {
    for e in events {
        let secs = e.end_ns.saturating_sub(e.start_ns) as f64 / 1e9;
        match e.phase {
            "spr.ii" => {
                m.add("mapper.spr_ii_attempts", 1.0);
                let ok = e.counters.iter().any(|&(k, v)| k == "success" && v == 1);
                m.add("mapper.spr_ii_mapped", f64::from(u8::from(ok)));
            }
            "spr.place" => m.add("mapper.spr_place_s", secs),
            "spr.place_fail" => m.add("mapper.spr_place_fail_s", secs),
            "spr.route" => m.add("mapper.spr_route_s", secs),
            "spr.anneal" => m.add("mapper.spr_anneal_s", secs),
            "sat.solve" => m.add("sat.solve_s", secs),
            _ => {}
        }
    }
}
