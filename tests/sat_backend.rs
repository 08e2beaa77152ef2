//! End-to-end tests of the SAT mapping backend: every suite kernel maps,
//! verifies and simulates; the achieved II matches the exhaustive
//! optimum where the exhaustive mapper can check it; and the portfolio
//! with all three backends stays bit-identical at any thread count.

use panorama::{BackendId, CompileContext, CompileMode, Panorama, PanoramaConfig};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, Dfg, KernelId, KernelScale};
use panorama_mapper::{ExactMapper, LowerLevelMapper, SatMapper, SprMapper, UltraFastMapper};

fn cgra() -> Cgra {
    Cgra::new(CgraConfig::small_4x4()).expect("preset is valid")
}

#[test]
fn every_suite_kernel_maps_with_sat_verifies_and_simulates() {
    let cgra = cgra();
    let compiler = Panorama::new(PanoramaConfig::default());
    let mapper = SatMapper::default();
    for id in KernelId::ALL {
        let dfg = kernels::generate(id, KernelScale::Tiny);
        let report = compiler
            .compile(&dfg, &cgra, &mapper)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let mapped = report.mapped_dfg(&dfg);
        report
            .mapping()
            .verify(mapped, &cgra)
            .unwrap_or_else(|e| panic!("{id}: invalid mapping: {e}"));
        panorama::sim::simulate(mapped, &cgra, report.mapping(), 4)
            .unwrap_or_else(|e| panic!("{id}: simulation diverged: {e}"));
    }
}

#[test]
fn sat_ii_is_never_worse_than_the_exhaustive_optimum() {
    // Only the kernels small enough for the exhaustive mapper's default
    // op cap; it proves the optimal II, so SAT must land at or below it.
    let cgra = cgra();
    let compiler = Panorama::new(PanoramaConfig::default());
    for id in [KernelId::Fir, KernelId::Cordic, KernelId::MatrixMultiply] {
        let dfg = kernels::generate(id, KernelScale::Tiny);
        let exact = compiler
            .compile(&dfg, &cgra, &ExactMapper::default())
            .unwrap_or_else(|e| panic!("{id} exact: {e}"));
        let sat = compiler
            .compile(&dfg, &cgra, &SatMapper::default())
            .unwrap_or_else(|e| panic!("{id} sat: {e}"));
        assert!(
            sat.mapping().ii() <= exact.mapping().ii(),
            "{id}: SAT II {} worse than exhaustive optimum {}",
            sat.mapping().ii(),
            exact.mapping().ii()
        );
    }
}

#[test]
fn portfolio_with_all_backends_is_bit_identical_across_thread_counts() {
    let cgra = cgra();
    let dfg = kernels::generate(KernelId::Cordic, KernelScale::Tiny);
    let owned = BackendId::PORTFOLIO.map(BackendId::mapper);
    let mappers: Vec<&dyn LowerLevelMapper> = owned.iter().map(|m| &**m).collect();
    let ctx = CompileContext::default();
    let mut renders = Vec::new();
    for threads in [1, 2, 4] {
        let compiler = Panorama::new(PanoramaConfig {
            threads,
            ..PanoramaConfig::default()
        });
        let report = compiler
            .compile_with(&dfg, &cgra, &mappers, CompileMode::Guided, &ctx)
            .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        renders.push(report.to_json("cordic", "4x4"));
    }
    assert_eq!(renders[0], renders[1], "threads 1 vs 2 diverge");
    assert_eq!(renders[0], renders[2], "threads 1 vs 4 diverge");

    // `--mapper portfolio` on this kernel is won by SPR* (every backend
    // reaches the MII; position breaks the tie), whose search the shared
    // bound never touches: the race renders exactly the SPR*-only compile.
    let spr_only = Panorama::default()
        .compile(&dfg, &cgra, &SprMapper::default())
        .expect("spr maps cordic");
    assert_eq!(spr_only.mapping().mapper(), "SPR*");
    assert_eq!(renders[0], spr_only.to_json("cordic", "4x4"));
}

/// `(guided, baseline)` mapping hashes of `mapper` driven as `&dyn` through
/// the general entry.
fn dyn_hashes(dfg: &Dfg, cgra: &Cgra, mapper: &dyn LowerLevelMapper) -> (u64, u64) {
    let ctx = CompileContext::default();
    let hash = |mode| {
        Panorama::default()
            .compile_with(dfg, cgra, &[mapper], mode, &ctx)
            .unwrap_or_else(|e| panic!("{}: {e}", mapper.name()))
            .mapping()
            .content_hash()
    };
    (hash(CompileMode::Guided), hash(CompileMode::Baseline))
}

/// The same through the concrete-typed conveniences.
fn concrete_hashes<M: LowerLevelMapper>(dfg: &Dfg, cgra: &Cgra, mapper: &M) -> (u64, u64) {
    let compiler = Panorama::default();
    let guided = compiler.compile(dfg, cgra, mapper).unwrap();
    let baseline = compiler.compile_baseline(dfg, cgra, mapper).unwrap();
    (
        guided.mapping().content_hash(),
        baseline.mapping().content_hash(),
    )
}

#[test]
fn a_dyn_mapper_through_the_general_entry_matches_the_concrete_compile() {
    let cgra = cgra();
    let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
    let (spr, ultrafast, sat) = (
        SprMapper::default(),
        UltraFastMapper::default(),
        SatMapper::default(),
    );
    assert_eq!(
        dyn_hashes(&dfg, &cgra, &spr),
        concrete_hashes(&dfg, &cgra, &spr)
    );
    assert_eq!(
        dyn_hashes(&dfg, &cgra, &ultrafast),
        concrete_hashes(&dfg, &cgra, &ultrafast)
    );
    assert_eq!(
        dyn_hashes(&dfg, &cgra, &sat),
        concrete_hashes(&dfg, &cgra, &sat)
    );
}
