//! Peak-memory guard for the SAT backend.
//!
//! The CDCL solver keeps every clause's literals in one arena; learned
//! clauses come and go, so what the arena holds at its peak is what the
//! backend costs. Measured as the growth of the process's peak resident
//! set (`VmHWM`) across one `Panorama::compile`, alone in this binary.

mod vmhwm;

use panorama::{Panorama, PanoramaConfig};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_mapper::SatMapper;

/// `reduce_db` compacts the arena under the live clauses. This compile
/// raises the peak by 7.8–8.0 MiB, and by 10.1–10.2 MiB while deleted
/// clauses kept their literals.
#[test]
fn sat_compile_of_jpegidctfst_on_4x4_peaks_below_9_5_mib() {
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let dfg = kernels::generate(KernelId::JpegIdctFst, KernelScale::Tiny);
    let compiler = Panorama::new(PanoramaConfig {
        threads: 1,
        ..PanoramaConfig::default()
    });
    let mapper = SatMapper::default();
    let Some((report, grew)) = vmhwm::peak_growth(|| compiler.compile(&dfg, &cgra, &mapper)) else {
        return;
    };
    let report = report.expect("jpegidctfst maps on 4x4");
    assert!(
        grew < 19 << 19,
        "one SAT compile of jpegidctfst raised the peak by {grew} bytes \
         ({:.2} MiB, bound 9.5)",
        vmhwm::mib(grew)
    );
    report.mapping().verify(&dfg, &cgra).unwrap();
}
