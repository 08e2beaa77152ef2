//! Fixed micro-instances for the three solver layers that sit below the
//! pipeline (`linalg`, `ilp`, `sat`). They do not depend on `--seed` or on
//! the workload, so a change in one of these numbers between two commits
//! is a change in that solver alone.

use crate::inputs::Rng;
use crate::report::Metrics;
use crate::span::Recorder;
use panorama::ilp::{Cmp, LinExpr, Model, Sense, VarId};
use panorama::linalg::{DMatrix, SymmetricEigen};
use panorama_sat::{Lit, SolveResult, Solver};

/// Span input index for probe spans (they belong to no input).
const NO_INPUT: usize = usize::MAX;

/// Side of the Jacobi probe matrix: the size of a Scaled 8x8 kernel.
const JACOBI_N: usize = 192;

/// Laplacian of a fixed sparse graph: a ring plus pseudo-random chords,
/// about the density of a kernel DFG (average degree ~4).
fn probe_laplacian() -> DMatrix {
    let n = JACOBI_N;
    let mut rng = Rng::new(0xD1F6_0001);
    let mut adj = vec![false; n * n];
    let mut connect = |a: usize, b: usize| {
        if a != b {
            adj[a * n + b] = true;
            adj[b * n + a] = true;
        }
    };
    for i in 0..n {
        connect(i, (i + 1) % n);
        connect(i, rng.below(n));
    }
    let mut data = vec![0.0; n * n];
    for i in 0..n {
        let mut degree = 0.0;
        for j in 0..n {
            if adj[i * n + j] {
                data[i * n + j] = -1.0;
                degree += 1.0;
            }
        }
        data[i * n + i] = degree;
    }
    DMatrix::from_row_major(n, n, data)
}

/// One matching-cut split in the shape `place` builds them: 18 weighted
/// nodes on a ring with chords, keep 4..=12 on this row, balance the kept
/// weight against a third of the total, and let a kept node lose at most
/// two neighbours to the row below.
fn probe_matching_cut() -> Model {
    const N: usize = 18;
    const ZETA: f64 = 2.0;
    let weights: [f64; N] = [
        9.0, 14.0, 7.0, 11.0, 16.0, 5.0, 12.0, 8.0, 13.0, 6.0, 15.0, 10.0, 9.0, 7.0, 12.0, 11.0,
        8.0, 14.0,
    ];
    let mut model = Model::new(Sense::Minimize);
    model.set_node_limit(60_000);
    let stay: Vec<VarId> = (0..N)
        .map(|i| model.bool_var(format!("stay_{i}")))
        .collect();
    let count = || LinExpr::sum(stay.iter().map(|&v| (1.0, v)));
    model.add_constraint(count(), Cmp::Ge, 4.0);
    model.add_constraint(count(), Cmp::Le, 12.0);
    let total: f64 = weights.iter().sum();
    let kept = LinExpr::sum(stay.iter().zip(weights).map(|(&v, w)| (3.0 * w, v)));
    let balance = model.abs_var("balance", kept - total, 4.0 * total);
    model.set_objective(LinExpr::from(balance));
    for i in 0..N {
        let neighbours = [(i + 1) % N, (i + N - 1) % N, (i + 5) % N, (i + N - 5) % N];
        // Σ_j (1 − stay_j) ≤ ζ + deg·(1 − stay_i)
        let lost = LinExpr::sum(neighbours.iter().map(|&j| (-1.0, stay[j])))
            + LinExpr::sum([(neighbours.len() as f64, stay[i])]);
        model.add_constraint(lost, Cmp::Le, ZETA);
    }
    model
}

/// Pigeonhole PHP(8, 7): eight pigeons, seven holes, unsatisfiable, and
/// hard for resolution — a pure propagate/analyze/restart load.
fn probe_pigeonhole() -> Solver {
    const PIGEONS: usize = 8;
    const HOLES: usize = 7;
    let mut solver = Solver::new();
    let vars: Vec<Vec<_>> = (0..PIGEONS)
        .map(|_| (0..HOLES).map(|_| solver.new_var()).collect())
        .collect();
    for pigeon in &vars {
        let clause: Vec<Lit> = pigeon.iter().map(|&v| Lit::pos(v)).collect();
        solver.add_clause(&clause);
    }
    for hole in 0..HOLES {
        for (a, first) in vars.iter().enumerate() {
            for second in &vars[a + 1..] {
                solver.add_clause(&[Lit::neg(first[hole]), Lit::neg(second[hole])]);
            }
        }
    }
    solver
}

/// Runs the three probes and records their metrics.
pub fn run(rec: &mut Recorder, m: &mut Metrics) {
    let lap = probe_laplacian();
    let (eigen, t) = rec.time("linalg.jacobi_probe", NO_INPUT, || {
        SymmetricEigen::new(&lap)
    });
    m.set("linalg.jacobi_probe_s", t);
    m.set(
        "linalg.jacobi_probe_sweeps",
        eigen.map_or(f64::NAN, |e| e.sweeps() as f64),
    );

    let model = probe_matching_cut();
    let (solution, t) = rec.time("ilp.probe_solve", NO_INPUT, || model.solve());
    m.set("ilp.probe_solve_s", t);
    let stats = solution.map(|s| s.stats()).ok();
    m.set(
        "ilp.probe_pivots",
        stats.map_or(f64::NAN, |s| s.pivots as f64),
    );
    m.set(
        "ilp.probe_nodes",
        stats.map_or(f64::NAN, |s| s.nodes as f64),
    );

    let mut solver = probe_pigeonhole();
    let (verdict, t) = rec.time("sat.probe_solve", NO_INPUT, || solver.solve());
    m.set("sat.probe_solve_s", t);
    m.set(
        "sat.probe_propagations",
        if verdict == SolveResult::Unsat {
            solver.stats().propagations as f64
        } else {
            f64::NAN
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_instances_have_their_known_answers() {
        let lap = probe_laplacian();
        assert!(lap.is_symmetric(0.0));
        // Laplacian rows sum to zero.
        for i in 0..JACOBI_N {
            assert_eq!(lap.row(i).iter().sum::<f64>(), 0.0);
        }
        assert!(
            probe_matching_cut().solve().is_ok(),
            "the probe ILP is feasible"
        );
        assert_eq!(probe_pigeonhole().solve(), SolveResult::Unsat);
    }
}
