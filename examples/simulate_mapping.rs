//! From mapping to machine: lower a compiled kernel to per-PE
//! configuration words, then run them cycle by cycle on the cycle machine
//! — every operand must find its producer's token of the right iteration,
//! and no port may hold more tokens than its capacity. (`panorama exec`
//! runs the same machine as the value-level check.)
//!
//! ```sh
//! cargo run --release --example simulate_mapping
//! ```

use panorama::{Panorama, PanoramaConfig};
use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_mapper::{Configware, SprMapper};
use panorama_sim::simulate;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let cgra = Cgra::new(CgraConfig::scaled_8x8())?;
    let dfg = kernels::generate(KernelId::Edn, KernelScale::Tiny);
    println!("kernel `{}`: {}", dfg.name(), dfg.stats());

    let compiler = Panorama::new(PanoramaConfig::default());
    let report = compiler.compile(&dfg, &cgra, &SprMapper::default())?;
    let mapping = report.mapping();
    mapping.verify(&dfg, &cgra)?;
    println!("mapped at II {} (QoM {:.2})", mapping.ii(), mapping.qom());

    // lower to configuration memory contents
    let cfg = Configware::generate(&dfg, &cgra, mapping);
    println!(
        "configware: {} active words, ~{} bits of configuration memory",
        cfg.active_words(),
        cfg.size_bits()
    );
    // show the first few programmed words
    for line in cfg.to_text(&cgra).lines().take(8) {
        println!("  {line}");
    }

    // walk 8 pipelined iterations and check every delivery
    let sim = simulate(&dfg, &cgra, mapping, 8)?;
    println!(
        "simulated {} iterations over {} cycles: {} deliveries checked, \
         FU utilisation {:.0}%, link utilisation {:.0}%",
        sim.iterations,
        sim.cycles,
        sim.checked_deliveries,
        sim.fu_utilization * 100.0,
        sim.link_utilization * 100.0
    );
    Ok(())
}
