//! Paper-scale regression: the headline Figure 7 behaviour at the paper's
//! own sizes (16×16 CGRA with 4×4 clusters, ~300-node kernels).
//!
//! Marked `#[ignore]` because one run costs minutes on a single core; run
//! with `cargo test --release --test paper_scale -- --ignored`.

use panorama::{Panorama, PanoramaConfig};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_mapper::SprMapper;

#[test]
#[ignore = "paper-scale run: minutes of compute"]
fn cordic_at_paper_scale_reaches_mii_guided() {
    let cgra = Cgra::new(CgraConfig::paper_16x16()).unwrap();
    let dfg = kernels::generate(KernelId::Cordic, KernelScale::Paper);
    let compiler = Panorama::new(PanoramaConfig::default());
    let mapper = SprMapper::default();
    let pan = compiler.compile(&dfg, &cgra, &mapper).expect("guided maps");
    pan.mapping().verify(&dfg, &cgra).unwrap();
    assert_eq!(
        pan.mapping().qom(),
        1.0,
        "the paper's guided mapper reaches MII on cordic"
    );
    // and the baseline is slower and/or worse, as in Figure 7
    let base = compiler
        .compile_baseline(&dfg, &cgra, &mapper)
        .expect("baseline maps");
    assert!(
        base.mapping().ii() >= pan.mapping().ii(),
        "baseline II {} vs guided {}",
        base.mapping().ii(),
        pan.mapping().ii()
    );
}

#[test]
#[ignore = "paper-scale run: minutes of compute"]
fn double_unrolled_kernel_maps_on_16x16() {
    // KernelScale::Custom beyond paper size: the unroll knob at work
    let cgra = Cgra::new(CgraConfig::paper_16x16()).unwrap();
    let dfg = kernels::generate(KernelId::Cordic, KernelScale::Custom { permille: 1500 });
    assert!(dfg.num_ops() > kernels::generate(KernelId::Cordic, KernelScale::Paper).num_ops());
    let compiler = Panorama::new(PanoramaConfig::default());
    let mapper = SprMapper::default();
    let report = compiler.compile(&dfg, &cgra, &mapper).expect("guided maps");
    report.mapping().verify(&dfg, &cgra).unwrap();
}

/// The higher-level plans of the five `divide16x16-plan` kernels, each
/// folded to one `u64` (FNV-1a over the partition labels, then the rendered
/// cluster map — the fold `benchmark/` reports as `rows[].hash`). An exact
/// change to the eigensolver, k-means or the ILP stack must leave all five
/// where they are.
#[test]
#[ignore = "paper-scale run: ~5 s in a release build, minutes in debug"]
fn plan_fingerprints_are_pinned_at_paper_scale() {
    let cgra = Cgra::new(CgraConfig::paper_16x16()).unwrap();
    let compiler = Panorama::new(PanoramaConfig::default());
    for (id, want) in [
        (KernelId::InvertMat, 0x12e4_2eb1_71b7_ba10_u64),
        (KernelId::JpegFdct, 0x28e9_30e7_1fc9_6bce),
        (KernelId::IdctRows, 0x6741_bbc3_9828_5b4e),
        (KernelId::Fir, 0xe384_5567_5e70_1c16),
        (KernelId::Cordic, 0x6012_dece_c65d_51bd),
    ] {
        let dfg = kernels::generate(id, KernelScale::Paper);
        let plan = compiler.plan(&dfg, &cgra).expect("plans");
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &label in plan.partition().labels() {
            eat(&(label as u64).to_le_bytes());
        }
        eat(plan.cluster_map().render().as_bytes());
        assert_eq!(
            h,
            want,
            "{}: {h:016x}\n{}",
            id.name(),
            plan.cluster_map().render()
        );
    }
}

/// The 16×16 quality gate (ROADMAP item 2): six paper-scale kernels
/// compiled guided and as the baseline (SPR\*, one worker), each II at or
/// under its committed ceiling. The ceilings are the IIs measured when the
/// gate was committed; a baseline that maps nowhere has none. A change that
/// claims to be exact leaves every row where it is, and one that lowers a
/// row lowers its ceiling in the same commit.
#[test]
#[ignore = "paper-scale run: ~5 s in a release build, minutes in debug"]
fn ii_gate_at_paper_scale_on_16x16() {
    let cgra = Cgra::new(CgraConfig::paper_16x16()).unwrap();
    let compiler = Panorama::new(PanoramaConfig {
        threads: 1,
        ..PanoramaConfig::default()
    });
    let mapper = SprMapper::default();
    let show = |ii: Option<usize>| ii.map_or("-".to_string(), |ii| ii.to_string());
    let mut over = Vec::new();
    println!("{:<12} {:>6} {:>8}", "kernel", "guided", "baseline");
    for (id, guided_cap, baseline_cap) in [
        (KernelId::IdctCols, 14, Some(8)),
        (KernelId::IdctRows, 14, Some(8)),
        (KernelId::Cordic, 7, Some(9)),
        (KernelId::Fir, 11, None),
        (KernelId::JpegFdct, 10, Some(12)),
        (KernelId::JpegIdctFst, 12, None),
    ] {
        let dfg = kernels::generate(id, KernelScale::Paper);
        let guided = compiler.compile(&dfg, &cgra, &mapper).ok();
        let baseline = compiler.compile_baseline(&dfg, &cgra, &mapper).ok();
        let guided = guided.map(|r| r.mapping().ii());
        let baseline = baseline.map(|r| r.mapping().ii());
        println!(
            "{:<12} {:>6} {:>8}",
            id.name(),
            show(guided),
            show(baseline)
        );
        if guided.is_none_or(|ii| ii > guided_cap) {
            over.push(format!(
                "{} guided: {} > {guided_cap}",
                id.name(),
                show(guided)
            ));
        }
        if let Some(cap) = baseline_cap.filter(|&cap| baseline.is_none_or(|ii| ii > cap)) {
            over.push(format!(
                "{} baseline: {} > {cap}",
                id.name(),
                show(baseline)
            ));
        }
    }
    assert!(over.is_empty(), "over the ceiling: {over:?}");
}
