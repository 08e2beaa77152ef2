//! The table/figure generators (paper §4).

use crate::{geomean, profile, Table};
use panorama::{CompileReport, Panorama, PanoramaConfig};
use panorama_arch::{Cgra, CgraConfig};
use panorama_cluster::{explore_partitions, top_balanced};
use panorama_dfg::{kernels, Dfg, KernelId};
use panorama_mapper::{min_ii, LowerLevelMapper, SprMapper, UltraFastMapper};
use std::time::Duration;

fn secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// Compiles with and without PANORAMA guidance; `Err` cells become `fail`.
fn run_pair<M: LowerLevelMapper>(
    compiler: &Panorama,
    dfg: &Dfg,
    cgra: &Cgra,
    mapper: &M,
) -> (
    Result<CompileReport, panorama::PanoramaError>,
    Result<CompileReport, panorama::PanoramaError>,
) {
    let base = compiler.compile_baseline(dfg, cgra, mapper);
    let pan = compiler.compile(dfg, cgra, mapper);
    (base, pan)
}

/// **Table 1a** — DFG characteristics, clustering results, cluster-mapping
/// histogram and higher-level compile time, with the paper's published
/// numbers alongside.
pub fn table1a() -> String {
    let p = profile();
    let cgra = Cgra::new(p.cgra.clone()).expect("profile CGRA is valid");
    let compiler = Panorama::new(PanoramaConfig::default());
    let mut t = Table::new(
        format!("Table 1a — DFG clustering & cluster mapping [{}]", p.name),
        &[
            "kernel",
            "nodes",
            "edges",
            "maxdeg",
            "(paper n/e/d)",
            "K",
            "Inter-E",
            "Intra-E",
            "STD",
            "histogram",
            "t_clus",
            "t_map",
        ],
    );
    for id in KernelId::ALL {
        let dfg = kernels::generate(id, p.scale);
        let s = dfg.stats();
        let (pn, pe, pd) = id.paper_stats();
        match compiler.plan(&dfg, &cgra) {
            Ok(plan) => {
                let part = plan.partition();
                let hist: Vec<String> = plan
                    .cluster_map()
                    .histogram()
                    .iter()
                    .map(|row| {
                        format!(
                            "[{}]",
                            row.iter()
                                .map(std::string::ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(",")
                        )
                    })
                    .collect();
                t.row(&[
                    id.to_string(),
                    s.nodes.to_string(),
                    s.edges.to_string(),
                    s.max_degree.to_string(),
                    format!("({pn}/{pe}/{pd})"),
                    part.k().to_string(),
                    part.inter_edges(&dfg).to_string(),
                    part.intra_edges(&dfg).to_string(),
                    format!("{:.1}", part.size_std_dev()),
                    hist.join(","),
                    secs(plan.clustering_time()),
                    secs(plan.cluster_mapping_time()),
                ]);
            }
            Err(e) => t.row(&[id.to_string(), format!("plan failed: {e}")]),
        }
    }
    t.render()
}

/// **Table 1b** — scalability of prior architecture-adaptive compilers
/// (literature rows) plus our measured rows on a 4×4 CGRA: SPR\* on a
/// 30-node DFG, like the paper's comparison point, and the exact SAT
/// backend on three growing DFGs.
pub fn table1b() -> String {
    let mut t = Table::new(
        "Table 1b — architecture-adaptive compiler scalability",
        &["compiler", "DFG nodes", "CGRA", "compile time"],
    );
    for (name, nodes, size, time) in [
        ("CGRA-ME [7]", "12", "4x4", "NA"),
        ("SPKM [11]", "16", "4x4", "~1s"),
        ("G-Minor [5]", "35", "4x4, 16x16", "0.2s, 7s"),
        ("EPIMAP [8]", "35", "4x4, 16x16", "54s, 23min"),
        ("DRESC [6]", "56", "4x4", "~15min"),
        ("EMS [9]", "4~142", "4x4", "~37min"),
        ("SPR [2]", "263", "16x16", "NA"),
    ] {
        t.row(&[
            name.to_string(),
            nodes.to_string(),
            size.to_string(),
            time.to_string(),
        ]);
    }
    // our measured rows: SPR* on a ~30-node DFG, and the exact SAT mapper
    // on growing DFGs with the size of the CNF it had to decide
    let cgra = Cgra::new(CgraConfig::small_4x4()).expect("4x4 is valid");
    let dfg = panorama_dfg::random_dfg(&panorama_dfg::RandomDfgConfig {
        seed: 30,
        layers: 5,
        width: 6,
        extra_fanin: 1,
        back_edges: 1,
    });
    let mapper = SprMapper::default();
    match mapper.map(&dfg, &cgra, None) {
        Ok(m) => t.row(&[
            "SPR* (ours, measured)".to_string(),
            dfg.num_ops().to_string(),
            "4x4".to_string(),
            format!("{} (II {})", secs(m.stats().compile_time), m.ii()),
        ]),
        Err(e) => t.row(&[
            "SPR* (ours, measured)".to_string(),
            dfg.num_ops().to_string(),
            "4x4".to_string(),
            format!("failed: {e}"),
        ]),
    }
    let sat = panorama_mapper::SatMapper::default();
    for width in [2usize, 4, 6] {
        let dfg = panorama_dfg::random_dfg(&panorama_dfg::RandomDfgConfig {
            seed: 12,
            layers: 4,
            width,
            extra_fanin: 1,
            back_edges: 1,
        });
        let result = sat.map(&dfg, &cgra, None);
        let attempts = sat.take_attempts();
        let vars = attempts.iter().map(|a| a.vars).max().unwrap_or(0);
        let clauses = attempts.iter().map(|a| a.clauses).max().unwrap_or(0);
        let cell = match result {
            Ok(m) => format!(
                "{} (II {}, {vars} vars / {clauses} clauses)",
                secs(m.stats().compile_time),
                m.ii()
            ),
            Err(e) => format!("failed: {e} ({vars} vars / {clauses} clauses)"),
        };
        t.row(&[
            "SAT (ours, measured)".to_string(),
            dfg.num_ops().to_string(),
            "4x4".to_string(),
            cell,
        ]);
    }
    t.render()
}

/// **Figure 5** — imbalance factor vs number of clusters for four kernels,
/// over the cluster counts the compiler explores
/// ([`PanoramaConfig::cluster_counts`]).
pub fn fig5() -> String {
    let p = profile();
    let cgra = Cgra::new(p.cgra.clone()).expect("profile CGRA is valid");
    let config = PanoramaConfig::default();
    let mut t = Table::new(
        format!(
            "Figure 5 — imbalance factor (%) vs cluster count [{}]",
            p.name
        ),
        &["kernel", "k", "IF (%)"],
    );
    for id in [
        KernelId::Edn,
        KernelId::IdctCols,
        KernelId::Conv2d,
        KernelId::Fir,
    ] {
        let dfg = kernels::generate(id, p.scale);
        let ks = config.cluster_counts(&dfg, &cgra);
        let parts = explore_partitions(&dfg, *ks.start(), *ks.end(), &config.spectral)
            .expect("kernels cluster cleanly");
        for part in &parts {
            t.row(&[
                id.to_string(),
                part.k().to_string(),
                format!("{:.1}", part.imbalance_factor() * 100.0),
            ]);
        }
        // the paper reports IF < 20% achievable for every kernel
        let best = top_balanced(&parts, 1)[0].1;
        t.row(&[
            id.to_string(),
            format!("best={}", best.k()),
            format!("{:.1}", best.imbalance_factor() * 100.0),
        ]);
    }
    t.render()
}

fn qom_time_figure<M: LowerLevelMapper>(title: &str, mapper: &M, paper_claim: &str) -> String {
    let p = profile();
    let cgra = Cgra::new(p.cgra.clone()).expect("profile CGRA is valid");
    let compiler = Panorama::new(PanoramaConfig::default());
    let mut t = Table::new(
        format!("{title} [{}]", p.name),
        &[
            "kernel",
            "MII",
            "base II",
            "base QoM",
            "base time",
            "Pan II",
            "Pan QoM",
            "Pan time",
        ],
    );
    let mut qom_ratio = Vec::new();
    let mut speedups = Vec::new();
    for id in KernelId::ALL {
        let dfg = kernels::generate(id, p.scale);
        let mii = min_ii(&dfg, &cgra).mii();
        let (base, pan) = run_pair(&compiler, &dfg, &cgra, mapper);
        let cells = |r: &Result<CompileReport, panorama::PanoramaError>| match r {
            Ok(rep) => (
                rep.mapping().ii().to_string(),
                format!("{:.2}", rep.mapping().qom()),
                secs(rep.total_time()),
            ),
            Err(_) => ("fail".into(), "0.00".into(), "-".into()),
        };
        let (bi, bq, bt) = cells(&base);
        let (pi, pq, pt) = cells(&pan);
        if let (Ok(b), Ok(pn)) = (&base, &pan) {
            qom_ratio.push(pn.mapping().qom() / b.mapping().qom());
            speedups.push(b.total_time().as_secs_f64() / pn.total_time().as_secs_f64());
        }
        t.row(&[id.to_string(), mii.to_string(), bi, bq, bt, pi, pq, pt]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "summary: geomean QoM ratio (Pan/base) {:.2}x, geomean compile speedup {:.2}x (both over kernels where both mapped)\n",
        geomean(&qom_ratio),
        geomean(&speedups)
    ));
    out.push_str(paper_claim);
    out.push('\n');
    out
}

/// **Figure 7** — QoM and compile time, SPR\* vs Pan-SPR\*, all kernels.
pub fn fig7() -> String {
    qom_time_figure(
        "Figure 7 — SPR* vs Pan-SPR* (QoM = MII/II, compile time)",
        &SprMapper::default(),
        "paper: Pan-SPR* ~22% better QoM, 8.7x faster; MII reached on all kernels except mmul",
    )
}

/// **Figure 9** — QoM and compile time, Ultra-Fast vs Pan-Ultra-Fast.
pub fn fig9() -> String {
    qom_time_figure(
        "Figure 9 — Ultra-Fast vs Pan-Ultra-Fast (QoM, compile time)",
        &UltraFastMapper::default(),
        "paper: Pan-Ultra-Fast 2.6x better QoM, 4.8x faster compile",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_sweeps_only_the_cluster_counts_the_compiler_explores() {
        // NB: assumes the test environment does not set PANORAMA_PAPER_SCALE
        let p = profile();
        let cgra = Cgra::new(p.cgra.clone()).unwrap();
        let config = PanoramaConfig::default();
        let out = fig5();
        let mut checked = 0;
        // title, header and rule first; cells are separated by 2+ spaces
        for line in out.lines().skip(3) {
            let cells: Vec<&str> = line
                .split("  ")
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .collect();
            let id = KernelId::ALL
                .into_iter()
                .find(|id| id.to_string() == cells[0])
                .unwrap_or_else(|| panic!("unknown kernel in {line:?}"));
            let k: usize = cells[1].trim_start_matches("best=").parse().unwrap();
            let ks = config.cluster_counts(&kernels::generate(id, p.scale), &cgra);
            assert!(ks.contains(&k), "{id}: k = {k} outside {ks:?}");
            checked += 1;
        }
        assert!(checked > 4, "fig5 rendered no k rows:\n{out}");
    }
}
