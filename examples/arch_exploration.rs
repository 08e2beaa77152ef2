//! Architecture exploration: sweep CGRA sizes and compare the II and the
//! quality of mapping (QoM = MII/II) of one kernel under PANORAMA.
//!
//! ```sh
//! cargo run --release --example arch_exploration
//! ```

use panorama::{Panorama, PanoramaConfig};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_mapper::SprMapper;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let dfg = kernels::generate(KernelId::IdctCols, KernelScale::Scaled);
    println!("kernel `{}`: {}", dfg.name(), dfg.stats());
    println!();
    println!("{:<12} {:>4} {:>6}", "CGRA", "II", "QoM");

    let compiler = Panorama::new(PanoramaConfig::default());
    let sizes = [
        ("4x4 (1x1)", CgraConfig::small_4x4()),
        (
            "6x6 (2x2)",
            CgraConfig {
                rows: 6,
                cols: 6,
                cluster_rows: 2,
                cluster_cols: 2,
                ..CgraConfig::paper_16x16()
            },
        ),
        ("8x8 (2x2)", CgraConfig::scaled_8x8()),
        (
            "12x12 (3x3)",
            CgraConfig {
                rows: 12,
                cols: 12,
                cluster_rows: 3,
                cluster_cols: 3,
                ..CgraConfig::paper_16x16()
            },
        ),
    ];
    for (name, config) in sizes {
        let cgra = Cgra::new(config)?;
        // single-cluster architectures cannot be cluster-mapped: fall back
        // to the unguided mapper there
        let result = if cgra.num_clusters() > 1 {
            compiler.compile(&dfg, &cgra, &SprMapper::default())
        } else {
            compiler.compile_baseline(&dfg, &cgra, &SprMapper::default())
        };
        match result {
            Ok(report) => {
                let mapping = report.mapping();
                mapping.verify(&dfg, &cgra)?;
                println!("{name:<12} {:>4} {:>6.2}", mapping.ii(), mapping.qom());
            }
            Err(e) => println!("{name:<12} mapping failed: {e}"),
        }
    }
    Ok(())
}
