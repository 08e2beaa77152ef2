//! Peak-memory guard for the spectral embedding at paper scale.
//!
//! The embedding's memory is a handful of dense `n × n` `f64` buffers, so
//! it is measured as the growth of the process's peak resident set
//! (`VmHWM`) across one `SpectralClustering::new`. This file holds a single
//! test so that no other test shares the process and its peak.

use panorama_cluster::SpectralClustering;
use panorama_dfg::{kernels, KernelId, KernelScale};

/// `VmHWM` from `/proc/self/status`, in bytes; `None` where the file is
/// not there (a platform without procfs).
fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The eigensolver turns the Laplacian's own buffer into the basis, which
/// the result keeps: one `n × n` buffer at peak. The bound leaves half a
/// buffer for allocator slack, below the two buffers of a solver that
/// keeps the matrix and its basis apart.
#[test]
fn spectral_embedding_peaks_below_one_and_a_half_n_by_n_buffers() {
    // fir is the smallest paper-scale kernel (n = 259), so the solve stays
    // well under a second at test opt-level while n² and 1.5n² are about
    // a quarter of a megabyte apart.
    let dfg = kernels::generate(KernelId::Fir, KernelScale::Paper);
    let n = dfg.num_ops();
    // Reset the high-water mark to the current resident set where the
    // kernel allows it, so earlier allocations cannot hide the growth.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let Some(before) = peak_rss_bytes() else {
        return;
    };
    let sc = SpectralClustering::new(&dfg).expect("the fir Laplacian decomposes");
    let grew = peak_rss_bytes().expect("VmHWM was readable a moment ago") - before;
    let buffer = n * n * std::mem::size_of::<f64>();
    assert!(
        2 * grew < 3 * buffer,
        "SpectralClustering::new on n = {n} raised the peak by {grew} bytes, \
         {:.2} n × n buffers (bound 1.5)",
        grew as f64 / buffer as f64
    );
    assert_eq!(sc.num_nodes(), n);
}
