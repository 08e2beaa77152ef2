//! Oracle for `SymmetricEigen` on the matrices the divide phase feeds it:
//! the Laplacian of every kernel at every scale, unnormalised and
//! normalised (72 matrices). Every eigenpair is checked against the input
//! itself, so the test holds whatever basis the solver picks inside a
//! degenerate eigenspace.

use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_graph::{laplacian, normalized_laplacian};
use panorama_linalg::{DMatrix, SymmetricEigen};

#[test]
fn every_kernel_laplacian_decomposes_to_accurate_orthonormal_eigenpairs() {
    let mut checked = 0;
    for id in KernelId::ALL {
        for scale in KernelScale::ALL {
            let dfg = kernels::generate(id, scale);
            let n = dfg.num_ops();
            for (form, l) in [
                ("laplacian", laplacian(dfg.graph())),
                ("normalized_laplacian", normalized_laplacian(dfg.graph())),
            ] {
                let at = format!("{id} {scale:?} {form} (n = {n})");
                let l = DMatrix::from_row_major(n, n, l);
                let e = SymmetricEigen::new(&l).unwrap_or_else(|err| panic!("{at}: {err}"));
                let big = l.as_slice().iter().fold(1.0f64, |a, &x| a.max(x.abs()));
                let vs: Vec<Vec<f64>> = (0..n).map(|j| e.eigenvector(j)).collect();

                // ‖Lv − λv‖∞ per pair
                for (j, v) in vs.iter().enumerate() {
                    let lambda = e.eigenvalue(j);
                    for i in 0..n {
                        let lv: f64 = l.row(i).iter().zip(v).map(|(a, x)| a * x).sum();
                        let r = (lv - lambda * v[i]).abs();
                        assert!(r <= 1e-9 * big, "{at}: pair {j}, row {i}: residual {r:e}");
                    }
                }
                // VᵀV = I
                for (a, va) in vs.iter().enumerate() {
                    for (b, vb) in vs.iter().enumerate().skip(a) {
                        let dot: f64 = va.iter().zip(vb).map(|(x, y)| x * y).sum();
                        let want = if a == b { 1.0 } else { 0.0 };
                        assert!((dot - want).abs() <= 1e-10, "{at}: v{a}·v{b} = {dot:e}");
                    }
                }
                // ascending, and the trace is the eigenvalue sum
                for (j, w) in e.eigenvalues().windows(2).enumerate() {
                    assert!(
                        w[0] <= w[1],
                        "{at}: λ{j} = {} > λ{} = {}",
                        w[0],
                        j + 1,
                        w[1]
                    );
                }
                let trace: f64 = (0..n).map(|i| l[(i, i)]).sum();
                let sum: f64 = e.eigenvalues().iter().sum();
                assert!(
                    (trace - sum).abs() <= 1e-9 * big * n as f64,
                    "{at}: trace {trace} vs eigenvalue sum {sum}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 72);
}
