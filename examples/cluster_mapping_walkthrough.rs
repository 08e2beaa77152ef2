//! Walkthrough of the split & push cluster mapping (paper Figures 4 & 6):
//! watch column-wise scattering split a CDG into rows and row-wise
//! scattering place (possibly spanning) clusters into columns.
//!
//! ```sh
//! cargo run --release --example cluster_mapping_walkthrough
//! ```

use panorama_cluster::{Cdg, Partition};
use panorama_dfg::{Dfg, DfgBuilder, OpKind};
use panorama_place::{column_scatter, map_clusters, row_scatter, IlpEffort, ScatterConfig};
use std::error::Error;

/// The imbalanced five-cluster CDG of Figure 4: one big cluster (D) and
/// four smaller ones (A, B, C, E) chained like the paper's illustration.
fn figure4_like() -> (Dfg, Cdg) {
    let sizes = [3usize, 3, 6, 12, 6]; // A, B, C, D, E
    let mut b = DfgBuilder::new("figure4");
    let mut groups: Vec<Vec<_>> = Vec::new();
    let mut labels = Vec::new();
    for (g, &s) in sizes.iter().enumerate() {
        let nodes: Vec<_> = (0..s)
            .map(|i| b.op(OpKind::Add, format!("g{g}_{i}")))
            .collect();
        for w in nodes.windows(2) {
            b.data(w[0], w[1]);
        }
        labels.extend(std::iter::repeat_n(g, s));
        groups.push(nodes);
    }
    // CDG edges: A-C, B-C, C-D, D-E, A-B
    for (u, v) in [(0usize, 2usize), (1, 2), (2, 3), (3, 4), (0, 1)] {
        let from = *groups[u].last().expect("nonempty");
        b.data(from, groups[v][0]);
    }
    let dfg = b.build().expect("figure 4 CDG source is acyclic");
    let part = Partition::new(labels, sizes.len());
    let cdg = Cdg::new(&dfg, &part);
    (dfg, cdg)
}

fn main() -> Result<(), Box<dyn Error>> {
    let (_dfg, cdg) = figure4_like();
    let names = ["A", "B", "C", "D", "E"];
    println!(
        "CDG: {} clusters over {} DFG nodes",
        cdg.num_clusters(),
        cdg.total_dfg_nodes()
    );
    for n in cdg.cluster_ids() {
        println!(
            "  {} size {} neighbours {:?}",
            names[n.index()],
            cdg.size(n),
            cdg.neighbors(n)
                .iter()
                .map(|(o, w)| format!("{}x{}", names[o.index()], w))
                .collect::<Vec<_>>()
        );
    }

    let (rows, cols) = (2, 2);
    // Both stages count their ILP solves into one running total.
    let mut effort = IlpEffort::default();

    // Stage 1: column-wise scattering (split & push into cluster rows).
    let row_of = column_scatter(&cdg, rows, 1, 1, &mut effort)?
        .ok_or("column scattering infeasible at zeta 1")?;
    println!("\ncolumn-wise scattering (zeta 1):");
    for r in 0..rows {
        let members: Vec<&str> = cdg
            .cluster_ids()
            .filter(|n| row_of[n.index()] == r)
            .map(|n| names[n.index()])
            .collect();
        println!("  cluster row {r}: {members:?}");
    }

    // Stage 2: row-wise scattering (columns, with spanning).
    let cols_of = row_scatter(&cdg, &row_of, rows, cols, &mut effort)?;
    println!(
        "\nrow-wise scattering ({} ILP solves over both stages):",
        effort.solves
    );
    for n in cdg.cluster_ids() {
        println!(
            "  {} (size {:>2}) -> row {} columns {:?}",
            names[n.index()],
            cdg.size(n),
            row_of[n.index()],
            cols_of[n.index()]
        );
    }

    // The packaged driver does both and records zeta.
    let map = map_clusters(&cdg, rows, cols, &ScatterConfig::default())?;
    println!(
        "\nfull cluster map: histogram {:?}, routing complexity {}, diagonal edges {}",
        map.histogram(),
        map.routing_complexity(),
        map.diagonal_edges(&cdg)
    );
    print!("{}", map.render());
    Ok(())
}
