//! Peak-memory guard for the lower-level mapper.
//!
//! One guided SPR\* compile of a scaled kernel on 8×8 spends its memory on
//! the mapper's per-thread routing state, so it is measured as the growth
//! of the process's peak resident set (`VmHWM`) across one
//! `Panorama::compile`. This file holds a single test so that no other test
//! shares the process and its peak.

mod vmhwm;

use panorama::{Panorama, PanoramaConfig};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_mapper::SprMapper;

/// The router's A\* tables are keyed by `(cycle ÷ II, node)`, and each
/// MRRG stores one time slice rather than II copies of it. This compile
/// raises the peak by 2.3 MiB; by 3.6–4.0 MiB with the slice stored II
/// times (most of it the MRRGs of the IIs tried), and by 7.4–7.6 MiB with
/// the A\* tables keyed by `(elapsed, node)` as well.
#[test]
fn guided_spr_compile_of_kmeans_on_8x8_peaks_below_3_mib() {
    let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
    let dfg = kernels::generate(KernelId::KMeansClustering, KernelScale::Scaled);
    let compiler = Panorama::new(PanoramaConfig {
        threads: 1,
        ..PanoramaConfig::default()
    });
    let mapper = SprMapper::default();
    let Some((report, grew)) = vmhwm::peak_growth(|| compiler.compile(&dfg, &cgra, &mapper)) else {
        return;
    };
    let report = report.expect("k-means maps on 8x8");
    assert!(
        grew < 3 << 20,
        "one guided SPR* compile of k-means raised the peak by {grew} bytes \
         ({:.2} MiB, bound 3)",
        vmhwm::mib(grew)
    );
    report.mapping().verify(&dfg, &cgra).unwrap();
}
