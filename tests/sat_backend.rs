//! End-to-end tests of the SAT mapping backend: every suite kernel maps,
//! verifies and simulates; the portfolio with all three backends stays
//! bit-identical at any thread count; and the twelve-kernel suite's
//! mappings and attempt logs are pinned.

use panorama::{BackendId, CompileContext, CompileMode, Panorama, PanoramaConfig};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, Dfg, KernelId, KernelScale};
use panorama_mapper::{
    min_ii, sat_attempt_log, LowerLevelMapper, SatMapper, SatMapperConfig, SprMapper,
    UltraFastMapper,
};

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
fn running_out_of_refinement_rounds_is_not_a_refutation() {
    // idctcols/tiny maps at II 5 with the default 48 CEGAR rounds (see
    // `sat_suite_is_pinned`); with one round per window II 5 ends without
    // a phase-1 refutation, so the log must not call the II infeasible
    let cgra = cgra();
    let dfg = kernels::generate(KernelId::IdctCols, KernelScale::Tiny);
    let sat = SatMapper::new(SatMapperConfig {
        refine_rounds: 1,
        ..SatMapperConfig::default()
    });
    let report = Panorama::new(PanoramaConfig::default())
        .compile(&dfg, &cgra, &sat)
        .expect("maps at a higher II");
    assert_eq!(report.mapping().ii(), 6);
    let at_5: Vec<&str> = sat
        .take_attempts()
        .iter()
        .filter(|a| a.ii == 5)
        .map(|a| a.result)
        .collect();
    assert_eq!(at_5, ["rounds"]);
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

#[test]
fn a_baseline_portfolio_races_every_backend_on_the_whole_array() {
    // A baseline is one unrestricted candidate in the guided race, so the
    // portfolio's backends race on the whole array exactly as they do per
    // partition: no plan, and one winner at any thread count. The
    // SPR* + Ultra-Fast row is past the small-DFG cutoff, so its race runs
    // on a pool at 2 and 4 threads.
    let cgra = cgra();
    let owned = BackendId::PORTFOLIO.map(BackendId::mapper);
    let all: Vec<&dyn LowerLevelMapper> = owned.iter().map(|m| &**m).collect();
    let rows: [(KernelId, &[&dyn LowerLevelMapper], usize, &str); 3] = [
        (KernelId::Fir, &all, 3, "SAT"),
        (KernelId::Cordic, &all, 5, "SPR*"),
        (KernelId::IdctCols, &all[..2], 8, "SPR*"),
    ];
    let ctx = CompileContext::default();
    for (id, mappers, ii, winner) in rows {
        let dfg = kernels::generate(id, KernelScale::Tiny);
        let runs: Vec<(usize, &str, u64)> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let report = Panorama::new(PanoramaConfig {
                    threads,
                    ..PanoramaConfig::default()
                })
                .compile_with(&dfg, &cgra, mappers, CompileMode::Baseline, &ctx)
                .unwrap_or_else(|e| panic!("{id} at {threads} threads: {e}"));
                assert!(report.plan().is_none(), "{id}: a baseline makes no plan");
                let m = report.mapping();
                (m.ii(), m.mapper(), m.content_hash())
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{id}: threads 1 vs 2 diverge");
        assert_eq!(runs[0], runs[2], "{id}: threads 1 vs 4 diverge");
        assert_eq!((runs[0].0, runs[0].1), (ii, winner), "{id}");
    }
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

/// FNV-1a over `bytes`: a hash whose value is part of the contract (no
/// std hasher whose algorithm may change between releases).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The SAT backend's whole output on the `suite4x4-sat` inputs, pinned:
/// `(II, Mapping::content_hash, FNV-1a of the panorama-sat-v1 log)` per
/// kernel. The log carries every attempt's refinements, peak vars and
/// clauses and solver counters, so an encoder or solver change that claims
/// to be exact keeps this row for row; a moved value is a changed search.
#[test]
fn sat_suite_is_pinned() {
    let cgra = cgra();
    let compiler = Panorama::new(PanoramaConfig::default());
    let got: Vec<(KernelId, usize, u64, u64)> = KernelId::ALL
        .into_iter()
        .map(|id| {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let sat = SatMapper::default();
            let report = compiler
                .compile(&dfg, &cgra, &sat)
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            let mapping = report.mapping();
            let log = sat_attempt_log(
                dfg.name(),
                "4x4",
                min_ii(&dfg, &cgra).mii(),
                mapping.ii(),
                &sat.config,
                None,
                &sat.take_attempts(),
            );
            (
                id,
                mapping.ii(),
                mapping.content_hash(),
                fnv1a(log.as_bytes()),
            )
        })
        .collect();
    let pinned = [
        (KernelId::Edn, 4, 12784683552872719458, 2619516688728412649),
        (
            KernelId::IdctCols,
            5,
            8324874821688047931,
            13920874684958680307,
        ),
        (
            KernelId::IdctRows,
            5,
            14707736695740188594,
            564780295653070500,
        ),
        (
            KernelId::Conv2d,
            3,
            14021676038072405153,
            17953445712822592476,
        ),
        (
            KernelId::MatchedFilter,
            3,
            13908813740976523481,
            3175503547260850987,
        ),
        (
            KernelId::MatrixMultiply,
            4,
            963393573725693356,
            3157571314562569597,
        ),
        (
            KernelId::Cordic,
            5,
            7021402013183662492,
            8288279626164786634,
        ),
        (
            KernelId::KMeansClustering,
            4,
            4197178082266515963,
            17111384561589092033,
        ),
        (KernelId::Fir, 3, 14853591068066770895, 8538260968036907375),
        (
            KernelId::JpegFdct,
            5,
            764512780282164352,
            9467918816680582901,
        ),
        (
            KernelId::JpegIdctFst,
            5,
            17294528841643802269,
            15231415164946191903,
        ),
        (
            KernelId::InvertMat,
            5,
            2769447643170053234,
            9343008594519652341,
        ),
    ];
    assert_eq!(got, pinned);
}
