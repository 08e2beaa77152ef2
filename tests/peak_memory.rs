//! Peak-memory guard for the lower-level mapper.
//!
//! One guided SPR\* compile of a scaled kernel on 8×8 spends its memory on
//! the mapper's per-thread routing state, so it is measured as the growth
//! of the process's peak resident set (`VmHWM`) across one
//! `Panorama::compile`. This file holds a single test so that no other test
//! shares the process and its peak.

use panorama::{Panorama, PanoramaConfig};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_mapper::SprMapper;

/// `VmHWM` from `/proc/self/status`, in bytes; `None` where the file is
/// not there (a platform without procfs).
fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The router's A\* tables are keyed by `(cycle ÷ II, node)`, so they hold
/// one state per MRRG node per II cycles of slack rather than one per node
/// per cycle. The bound sits between the two: this compile raises the peak
/// by 3.6–3.9 MiB (most of it the MRRGs of the IIs tried), and by
/// 7.4–7.6 MiB with the tables keyed by `(elapsed, node)`.
#[test]
fn guided_spr_compile_of_kmeans_on_8x8_peaks_below_5_mib() {
    let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
    let dfg = kernels::generate(KernelId::KMeansClustering, KernelScale::Scaled);
    let compiler = Panorama::new(PanoramaConfig {
        threads: 1,
        ..PanoramaConfig::default()
    });
    let mapper = SprMapper::default();
    // Reset the high-water mark to the current resident set where the
    // kernel allows it, so earlier allocations cannot hide the growth.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let Some(before) = peak_rss_bytes() else {
        return;
    };
    let report = compiler
        .compile(&dfg, &cgra, &mapper)
        .expect("k-means maps on 8x8");
    let grew = peak_rss_bytes().expect("VmHWM was readable a moment ago") - before;
    assert!(
        grew < 5 << 20,
        "one guided SPR* compile of k-means raised the peak by {grew} bytes \
         ({:.2} MiB, bound 5)",
        grew as f64 / f64::from(1 << 20)
    );
    report.mapping().verify(&dfg, &cgra).unwrap();
}
