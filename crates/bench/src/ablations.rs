//! Ablation studies for the design choices called out in DESIGN.md §6:
//! IF-driven cluster-count selection, top-3 partition carrying, and the
//! hard cluster restriction itself.

use crate::{profile, Table};
use panorama::{Panorama, PanoramaConfig};
use panorama_arch::Cgra;
use panorama_cluster::{explore_partitions, Cdg, SpectralConfig};
use panorama_dfg::{kernels, KernelId};
use panorama_mapper::{LowerLevelMapper, Restriction, SprMapper, UltraFastMapper};
use panorama_place::{map_clusters, ScatterConfig};

const ABLATION_KERNELS: [KernelId; 3] = [KernelId::Cordic, KernelId::Edn, KernelId::IdctCols];

/// **Ablation: IF-driven k selection vs a fixed k = R·C.**
///
/// The paper picks the cluster count by imbalance factor (Figure 5); the
/// obvious fixed alternative is one DFG cluster per CGRA cluster.
pub fn fixed_k() -> String {
    let p = profile();
    let cgra = Cgra::new(p.cgra.clone()).expect("profile CGRA is valid");
    let (rows, cols) = cgra.cluster_grid();
    let compiler = Panorama::new(PanoramaConfig::default());
    let mapper = SprMapper::default();
    let mut t = Table::new(
        format!("Ablation — IF-explored k vs fixed k = R*C [{}]", p.name),
        &["kernel", "IF-explored QoM", "fixed-k QoM"],
    );
    for id in ABLATION_KERNELS {
        let dfg = kernels::generate(id, p.scale);
        let explored = compiler
            .compile(&dfg, &cgra, &mapper)
            .map_or_else(|_| "fail".into(), |r| format!("{:.2}", r.mapping().qom()));
        // fixed k: single partition at exactly R*C clusters
        let fixed = explore_partitions(&dfg, rows * cols, rows * cols, &SpectralConfig::default())
            .ok()
            .and_then(|parts| {
                let cdg = Cdg::new(&dfg, &parts[0]);
                let map = map_clusters(&cdg, rows, cols, &ScatterConfig::default()).ok()?;
                let restriction = Restriction::from_cluster_map(&dfg, &cdg, &map, &cgra);
                mapper.map(&dfg, &cgra, Some(&restriction)).ok()
            })
            .map_or_else(|| "fail".into(), |m| format!("{:.2}", m.qom()));
        t.row(&[id.to_string(), explored, fixed]);
    }
    t.render()
}

/// **Ablation: top-3 balanced partitions vs top-1.**
pub fn top_partitions() -> String {
    let p = profile();
    let cgra = Cgra::new(p.cgra.clone()).expect("profile CGRA is valid");
    let mapper = SprMapper::default();
    let mut t = Table::new(
        format!("Ablation — top-3 vs top-1 balanced partitions [{}]", p.name),
        &["kernel", "top-3 QoM", "top-1 QoM"],
    );
    for id in ABLATION_KERNELS {
        let dfg = kernels::generate(id, p.scale);
        let run = |top: usize| {
            Panorama::new(PanoramaConfig {
                top_partitions: top,
                ..PanoramaConfig::default()
            })
            .compile(&dfg, &cgra, &mapper)
            .map_or_else(|_| "fail".into(), |r| format!("{:.2}", r.mapping().qom()))
        };
        t.row(&[id.to_string(), run(3), run(1)]);
    }
    t.render()
}

/// **Ablation: cluster restriction on vs off** — the value of the guided
/// placement itself, for both lower-level mappers.
pub fn restriction() -> String {
    let p = profile();
    let cgra = Cgra::new(p.cgra.clone()).expect("profile CGRA is valid");
    let compiler = Panorama::new(PanoramaConfig::default());
    let spr_mapper = SprMapper::default();
    let uf = UltraFastMapper::default();
    let mut t = Table::new(
        format!("Ablation — cluster restriction on/off [{}]", p.name),
        &["kernel", "SPR* guided", "SPR* free", "UF guided", "UF free"],
    );
    for id in ABLATION_KERNELS {
        let dfg = kernels::generate(id, p.scale);
        let qom = |r: Result<panorama::CompileReport, panorama::PanoramaError>| {
            r.map_or_else(
                |_| "fail".into(),
                |rep| format!("{:.2}", rep.mapping().qom()),
            )
        };
        t.row(&[
            id.to_string(),
            qom(compiler.compile(&dfg, &cgra, &spr_mapper)),
            qom(compiler.compile_baseline(&dfg, &cgra, &spr_mapper)),
            qom(compiler.compile(&dfg, &cgra, &uf)),
            qom(compiler.compile_baseline(&dfg, &cgra, &uf)),
        ]);
    }
    t.render()
}

/// **Ablation: unnormalised vs normalised spectral clustering** — the two
/// Laplacian variants of the tutorial the paper builds on.
pub fn laplacian() -> String {
    use panorama_cluster::{SpectralConfig, SpectralKind};
    let p = profile();
    let cgra = Cgra::new(p.cgra.clone()).expect("profile CGRA is valid");
    let mapper = SprMapper::default();
    let mut t = Table::new(
        format!(
            "Ablation — unnormalised vs normalised Laplacian [{}]",
            p.name
        ),
        &["kernel", "unnormalised QoM", "normalised QoM"],
    );
    for id in ABLATION_KERNELS {
        let dfg = kernels::generate(id, p.scale);
        let run = |kind: SpectralKind| {
            Panorama::new(PanoramaConfig {
                spectral: SpectralConfig {
                    kind,
                    ..SpectralConfig::default()
                },
                ..PanoramaConfig::default()
            })
            .compile(&dfg, &cgra, &mapper)
            .map_or_else(|_| "fail".into(), |r| format!("{:.2}", r.mapping().qom()))
        };
        t.row(&[
            id.to_string(),
            run(SpectralKind::Unnormalized),
            run(SpectralKind::Normalized),
        ]);
    }
    t.render()
}
