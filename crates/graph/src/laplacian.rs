//! Graph Laplacians of a digraph, consumed by spectral clustering.
//!
//! Spectral clustering treats the DFG as a similarity graph: direction is
//! ignored, parallel edges accumulate weight and self-loops are dropped
//! (they do not affect the Laplacian's cut structure). Both builders write
//! straight from the edge list into the one dense row-major `n × n` buffer
//! they return, which the eigensolver then decomposes in place.
//!
//! # Zero signs
//!
//! Every entry is bit-identical to the textbook construction through a
//! dense adjacency matrix `A` (`L = D − A`, `L_sym = I − D^{-1/2} A
//! D^{-1/2}`), including the sign of its zeros: an off-diagonal non-edge is
//! `-0.0` (the negation of an adjacency `0.0`), a diagonal is `+0.0` at
//! worst. The eigenbasis decides the partitions, so the eigensolver's input
//! keeps the construction's exact bits: the builders start from a buffer
//! of `-0.0` with a `+0.0` diagonal rather than from zeros. (The
//! Householder/QL solver returns the same bits for either sign of zero on
//! every kernel Laplacian; the exact bits spare any other solver that
//! check.)

use crate::Digraph;

/// The unnormalised graph Laplacian `L = D − A` of `graph` (direction
/// ignored, parallel edges adding up, self-loops dropped) as a dense
/// row-major `n × n` buffer.
///
/// Edge weights are small integer counts, so each entry is exact whatever
/// the edge order.
pub fn laplacian<N, E>(graph: &Digraph<N, E>) -> Vec<f64> {
    let n = graph.node_count();
    let mut l = vec![-0.0f64; n * n];
    l.iter_mut().step_by(n + 1).for_each(|x| *x = 0.0);
    for e in graph.edge_refs() {
        let (i, j) = (e.src.index(), e.dst.index());
        if i == j {
            continue;
        }
        l[i * n + j] -= 1.0;
        l[j * n + i] -= 1.0;
        l[i * n + i] += 1.0;
        l[j * n + j] += 1.0;
    }
    l
}

/// The symmetric normalised Laplacian `L_sym = I − D^{-1/2} A D^{-1/2}`
/// (isolated nodes keep an identity row), used by Ng–Jordan–Weiss
/// normalised spectral clustering.
///
/// It is [`laplacian`] rescaled in place: the diagonal holds the degrees
/// and an off-diagonal entry the negated edge count `−a_ij`, which becomes
/// `−(a_ij · d_i^{-1/2} · d_j^{-1/2})`, evaluated left to right.
pub fn normalized_laplacian<N, E>(graph: &Digraph<N, E>) -> Vec<f64> {
    let n = graph.node_count();
    let mut l = laplacian(graph);
    let inv_sqrt: Vec<f64> = (0..n)
        .map(|i| {
            let d = l[i * n + i];
            if d > 0.0 {
                1.0 / d.sqrt()
            } else {
                0.0
            }
        })
        .collect();
    for i in 0..n {
        for j in 0..n {
            // Off the diagonal the adjacency entry is `−x`; on it, `+0.0`,
            // which leaves `1.0 − 0.0 = 1.0`.
            let x = &mut l[i * n + j];
            *x = if i == j {
                1.0
            } else {
                -(-*x * inv_sqrt[i] * inv_sqrt[j])
            };
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parallel_edges_add_up() {
        let mut g: Digraph<(), ()> = Digraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        let l = laplacian(&g);
        assert_eq!(l, vec![3.0, -3.0, -3.0, 3.0]);
    }

    #[test]
    fn self_loops_dropped() {
        let mut g: Digraph<(), ()> = Digraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, a, ());
        g.add_edge(a, b, ());
        g.add_edge(b, b, ());
        assert_eq!(laplacian(&g), vec![1.0, -1.0, -1.0, 1.0]);
        let mut lone: Digraph<(), ()> = Digraph::new();
        let a = lone.add_node(());
        lone.add_edge(a, a, ());
        assert_eq!(laplacian(&lone)[0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn non_edges_are_negative_zero() {
        // a path 0 – 1 – 2 plus the isolated node 3
        let mut g: Digraph<(), ()> = Digraph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(ids[0], ids[1], ());
        g.add_edge(ids[1], ids[2], ());
        for l in [laplacian(&g), normalized_laplacian(&g)] {
            for (i, j) in [(0, 2), (2, 0), (0, 3), (3, 1), (2, 3)] {
                assert_eq!(l[i * 4 + j].to_bits(), (-0.0f64).to_bits(), "({i}, {j})");
            }
        }
        // the isolated node's diagonal is a positive zero
        assert_eq!(laplacian(&g)[3 * 4 + 3].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        // triangle plus a pendant
        let mut g: Digraph<(), ()> = Digraph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(ids[0], ids[1], ());
        g.add_edge(ids[1], ids[2], ());
        g.add_edge(ids[2], ids[0], ());
        g.add_edge(ids[2], ids[3], ());
        let l = laplacian(&g);
        for i in 0..4 {
            let row_sum: f64 = l[i * 4..(i + 1) * 4].iter().sum();
            assert!(row_sum.abs() < 1e-12);
        }
        // degree of node 2 is 3
        assert_eq!(l[2 * 4 + 2], 3.0);
    }

    #[test]
    fn normalized_laplacian_has_unit_diagonal_and_bounded_spectrum() {
        let mut g: Digraph<(), ()> = Digraph::new();
        let ids: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        g.add_edge(ids[0], ids[1], ());
        g.add_edge(ids[1], ids[2], ());
        let l = normalized_laplacian(&g);
        for i in 0..3 {
            assert!((l[i * 3 + i] - 1.0).abs() < 1e-12);
        }
        // symmetric
        for i in 0..3 {
            for j in 0..3 {
                assert!((l[i * 3 + j] - l[j * 3 + i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn normalized_laplacian_isolated_node() {
        let mut g: Digraph<(), ()> = Digraph::new();
        g.add_node(());
        assert_eq!(normalized_laplacian(&g), vec![1.0]);
        // beside an edge, the isolated node still gets an identity row
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        let l = normalized_laplacian(&g);
        assert_eq!(&l[..3], &[1.0, 0.0, 0.0]);
        assert_eq!(l[3 + 2], -1.0);
    }

    #[test]
    fn empty_graph() {
        let g: Digraph<(), ()> = Digraph::new();
        assert!(laplacian(&g).is_empty());
        assert!(normalized_laplacian(&g).is_empty());
    }

    /// The textbook construction the builders replace: a dense adjacency
    /// matrix first, then `D − A` and `I − D^{-1/2} A D^{-1/2}` from it.
    fn through_adjacency(n: usize, edges: &[(usize, usize)]) -> (Vec<f64>, Vec<f64>) {
        let mut adj = vec![0.0f64; n * n];
        for &(i, j) in edges {
            if i != j {
                adj[i * n + j] += 1.0;
                adj[j * n + i] += 1.0;
            }
        }
        let degree: Vec<f64> = adj.chunks(n.max(1)).map(|r| r.iter().sum()).collect();
        let inv_sqrt: Vec<f64> = degree
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let (mut l, mut l_sym) = (vec![0.0; n * n], vec![0.0; n * n]);
        for i in 0..n {
            for j in 0..n {
                let x = adj[i * n + j];
                l[i * n + j] = if i == j { degree[i] - x } else { -x };
                let a = x * inv_sqrt[i] * inv_sqrt[j];
                l_sym[i * n + j] = if i == j { 1.0 - a } else { -a };
            }
        }
        (l, l_sym)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both builders reproduce the adjacency construction bit for bit
        /// on multigraphs with self-loops and isolated nodes.
        #[test]
        fn builders_match_the_adjacency_construction(
            n in 1usize..9,
            raw in proptest::collection::vec(0usize..81, 0..24),
        ) {
            let edges: Vec<(usize, usize)> = raw.iter().map(|&x| (x / 9 % n, x % 9 % n)).collect();
            let mut g: Digraph<(), ()> = Digraph::new();
            let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
            for &(i, j) in &edges {
                g.add_edge(ids[i], ids[j], ());
            }
            let (l, l_sym) = through_adjacency(n, &edges);
            prop_assert_eq!(bits(&laplacian(&g)), bits(&l));
            prop_assert_eq!(bits(&normalized_laplacian(&g)), bits(&l_sym));
        }
    }
}
