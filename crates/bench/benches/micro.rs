//! Criterion micro-benchmarks of the computational substrates: the
//! symmetric eigensolver, the MILP solver, spectral partitioning and one
//! PathFinder-backed mapping.

use criterion::{criterion_group, criterion_main, Criterion};
use panorama_arch::{Cgra, CgraConfig};
use panorama_cluster::{SpectralClustering, SpectralConfig};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_ilp::{Cmp, LinExpr, Model, Sense};
use panorama_linalg::{DMatrix, SymmetricEigen};
use panorama_mapper::{LowerLevelMapper, SprMapper, UltraFastMapper};

fn bench_eigen(c: &mut Criterion) {
    // ring Laplacian, n = 96
    let n = 96;
    let mut l = DMatrix::zeros(n, n);
    for i in 0..n {
        l[(i, i)] = 2.0;
        let j = (i + 1) % n;
        l[(i, j)] = -1.0;
        l[(j, i)] = -1.0;
    }
    c.bench_function("symmetric_eigen_96", |b| {
        b.iter(|| SymmetricEigen::new(std::hint::black_box(&l)).unwrap());
    });

    // paper scale: the idctrows Laplacian (n = 430) the 16×16 divide phase
    // decomposes
    let dfg = kernels::generate(KernelId::IdctRows, KernelScale::Paper);
    let n = dfg.num_ops();
    let l = DMatrix::from_row_major(n, n, panorama_graph::laplacian(dfg.graph()));
    c.bench_function("symmetric_eigen_idctrows_paper_430", |b| {
        b.iter(|| SymmetricEigen::new(std::hint::black_box(&l)).unwrap());
    });
}

fn bench_ilp(c: &mut Criterion) {
    c.bench_function("ilp_assignment_5x5", |b| {
        b.iter(|| {
            let mut m = Model::new(Sense::Minimize);
            let mut vars = Vec::new();
            for i in 0..5 {
                let row: Vec<_> = (0..5).map(|j| m.bool_var(format!("x{i}{j}"))).collect();
                vars.push(row);
            }
            for (i, row) in vars.iter().enumerate() {
                m.add_constraint(LinExpr::sum(row.iter().map(|&v| (1.0, v))), Cmp::Eq, 1.0);
                m.add_constraint(
                    LinExpr::sum((0..5).map(|j| (1.0, vars[j][i]))),
                    Cmp::Eq,
                    1.0,
                );
            }
            m.set_objective(LinExpr::sum(
                (0..25).map(|k| (((k * 7 + 3) % 11) as f64, vars[k / 5][k % 5])),
            ));
            m.solve().unwrap()
        });
    });
}

fn bench_spectral(c: &mut Criterion) {
    let dfg = kernels::generate(KernelId::IdctCols, KernelScale::Scaled);
    c.bench_function("spectral_partition_idctcols_scaled", |b| {
        b.iter(|| {
            let sc = SpectralClustering::new(std::hint::black_box(&dfg)).unwrap();
            sc.partition(6, &SpectralConfig::default()).unwrap()
        });
    });
}

fn bench_mapping(c: &mut Criterion) {
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let dfg = kernels::generate(KernelId::Cordic, KernelScale::Tiny);
    c.bench_function("spr_map_cordic_tiny_4x4", |b| {
        b.iter(|| SprMapper::default().map(&dfg, &cgra, None).unwrap());
    });
    c.bench_function("ultrafast_map_cordic_tiny_4x4", |b| {
        b.iter(|| UltraFastMapper::default().map(&dfg, &cgra, None).unwrap());
    });
}

fn bench_scatter(c: &mut Criterion) {
    use panorama_cluster::{explore_partitions, top_balanced, Cdg};
    use panorama_place::{map_clusters, ScatterConfig};
    let dfg = kernels::generate(KernelId::Edn, KernelScale::Scaled);
    let parts = explore_partitions(&dfg, 2, 8, &SpectralConfig::default()).unwrap();
    let best = top_balanced(&parts, 1)[0].1.clone();
    c.bench_function("cluster_mapping_edn_scaled_2x2", |b| {
        b.iter(|| {
            let cdg = Cdg::new(std::hint::black_box(&dfg), &best);
            map_clusters(&cdg, 2, 2, &ScatterConfig::default()).unwrap()
        });
    });

    // the 16×16 cluster grid at paper scale: cordic's best-balanced
    // partition (k = 20) costs 291 branch & bound nodes (42 493 before the
    // scattering ILPs stopped at their objective's arithmetic floor)
    let dfg = kernels::generate(KernelId::Cordic, KernelScale::Paper);
    let parts = explore_partitions(&dfg, 4, 32, &SpectralConfig::default()).unwrap();
    let best = top_balanced(&parts, 1)[0].1.clone();
    c.bench_function("cluster_mapping_cordic_paper_4x4", |b| {
        b.iter(|| {
            let cdg = Cdg::new(std::hint::black_box(&dfg), &best);
            map_clusters(&cdg, 4, 4, &ScatterConfig::default()).unwrap()
        });
    });
}

fn bench_kernel_generation(c: &mut Criterion) {
    c.bench_function("generate_all_kernels_scaled", |b| {
        b.iter(|| {
            for id in panorama_dfg::KernelId::ALL {
                std::hint::black_box(kernels::generate(id, KernelScale::Scaled));
            }
        });
    });
}

fn bench_mrrg(c: &mut Criterion) {
    let cgra = Cgra::new(CgraConfig::paper_16x16()).unwrap();
    c.bench_function("mrrg_build_16x16_ii8", |b| {
        b.iter(|| std::hint::black_box(&cgra).mrrg(8));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_eigen, bench_ilp, bench_spectral, bench_mapping,
              bench_scatter, bench_kernel_generation, bench_mrrg
}
criterion_main!(benches);
