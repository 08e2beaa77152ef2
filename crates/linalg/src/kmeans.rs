//! Lloyd's k-means with deterministic k-means++ seeding, pruned by Elkan's
//! triangle-inequality bounds.
//!
//! Spectral clustering's final step groups the rows of the spectral
//! embedding. The paper uses Scikit-Learn's k-means; this module
//! reimplements it with a seeded RNG so clustering results — and therefore
//! every downstream mapping — are reproducible run to run.
//!
//! Each pass is Elkan's exact variant of Lloyd's (ICML 2003; Scikit-Learn's
//! `algorithm="elkan"`): a point keeps bounds on its distances to the
//! centroids and measures only the centroids they cannot prove strictly
//! farther than its best one. Labels, centroids and inertia are the plain
//! loop's bit for bit: decisions compare `sq_dist` values, lowest index
//! first on a tie.

use crate::DMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Error produced by [`KMeans::fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KMeansError {
    /// Requested more clusters than there are points.
    TooFewPoints {
        /// Points available.
        points: usize,
        /// Clusters requested.
        k: usize,
    },
    /// `k` must be at least 1.
    ZeroClusters,
}

impl fmt::Display for KMeansError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KMeansError::TooFewPoints { points, k } => {
                write!(f, "cannot form {k} clusters from {points} points")
            }
            KMeansError::ZeroClusters => write!(f, "k must be at least 1"),
        }
    }
}

impl Error for KMeansError {}

/// Maximum Lloyd iterations per restart.
const MAX_ITERS: usize = 100;

/// Independent restarts per fit; the best inertia wins.
const RESTARTS: u64 = 4;

/// Rounding margin of every bound test, relative to `u + Δ` (`u` the
/// point's upper bound, `Δ` at least the points' diameter). A bound sums
/// at most `MAX_ITERS + 1` roots of `sq_dist`s, each within `(d + 3)·2⁻⁵³`
/// of the true distance, so it errs by at most `(MAX_ITERS + d + 3)·2⁻⁵³`
/// of `u` or `Δ`, ≈ 1.5e-14 at `d` = 32. With five orders of magnitude to
/// spare, a skipped centroid's `sq_dist` is strictly above the best one's.
const SKIP_MARGIN: f64 = 1e-9;

/// Configuration for [`KMeans::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// RNG seed for k-means++ initialisation; fixed seed ⇒ fully
    /// deterministic clustering.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig { seed: 0x00C6_4A17 }
    }
}

/// Result of a k-means clustering: per-point labels plus inertia.
///
/// # Examples
///
/// ```
/// use panorama_linalg::{DMatrix, KMeans, KMeansConfig};
///
/// // Two obvious blobs on a line.
/// let pts = DMatrix::from_rows(&[&[0.0], &[0.1], &[10.0], &[10.1]]);
/// let km = KMeans::fit(&pts, 2, &KMeansConfig::default())?;
/// assert_eq!(km.label(0), km.label(1));
/// assert_ne!(km.label(0), km.label(2));
/// # Ok::<(), panorama_linalg::KMeansError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    labels: Vec<usize>,
    centroids: DMatrix,
    inertia: f64,
    k: usize,
    iterations: usize,
    distances: usize,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// k-means++ seeding: `k` points, each drawn with probability proportional
/// to its squared distance from the nearest one drawn before. Every point
/// is measured against every centroid on the way; `roots` (`n × k`) keeps
/// those distances.
fn plus_plus(points: &DMatrix, k: usize, rng: &mut SmallRng, roots: &mut [f64]) -> DMatrix {
    let n = points.rows();
    let mut centroids = DMatrix::zeros(k, points.cols());
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(points.row(first));
    let mut min_d2: Vec<f64> = (0..n)
        .map(|i| sq_dist(points.row(i), centroids.row(0)))
        .collect();
    for (i, &d2) in min_d2.iter().enumerate() {
        roots[i * k] = d2.sqrt();
    }
    for c in 1..k {
        let total: f64 = min_d2.iter().sum();
        let chosen = if total <= f64::EPSILON {
            // all points coincide with chosen centroids; pick uniformly
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &w) in min_d2.iter().enumerate() {
                if target < w {
                    pick = i;
                    break;
                }
                target -= w;
            }
            pick
        };
        centroids.row_mut(c).copy_from_slice(points.row(chosen));
        for (i, slot) in min_d2.iter_mut().enumerate() {
            let d2 = sq_dist(points.row(i), centroids.row(c));
            roots[i * k + c] = d2.sqrt();
            if d2 < *slot {
                *slot = d2;
            }
        }
    }
    centroids
}

/// One fit's buffers, shared by its restarts, and its effort counters.
/// Per point, `upper` bounds the distance to its own centroid and `lower`
/// (`k` of them) the distances to every centroid; `half` holds half of
/// each centroid-to-centroid distance (`k × k`), `near` each centroid's
/// least such half, `shift` how far the last update moved it.
struct Buffers {
    upper: Vec<f64>,
    lower: Vec<f64>,
    half: Vec<f64>,
    near: Vec<f64>,
    shift: Vec<f64>,
    sums: DMatrix,
    counts: Vec<usize>,
    /// Twice the farthest point from point 0: at least the diameter.
    scale: f64,
    iterations: usize,
    distances: usize,
}

impl Buffers {
    /// Elkan's assignment of point `i`, labelled `label`: its nearest
    /// centroid, the lowest index on a tie, measuring only the centroids
    /// the bounds cannot prove strictly farther than the best so far.
    fn assign(&mut self, i: usize, p: &[f64], centroids: &DMatrix, label: usize) -> usize {
        let (k, scale) = (centroids.rows(), self.scale);
        // a bound above `bar(u)` proves its centroid strictly farther than
        // one within `u` of the point
        let bar = |u: f64| u + SKIP_MARGIN * (u + scale);
        // Hamerly: every other centroid lies more than 2u from this one
        if self.near[label] > bar(self.upper[i]) {
            return label;
        }
        let lower = &mut self.lower[i * k..(i + 1) * k];
        let (mut best, mut best_d) = (label, sq_dist(p, centroids.row(label)));
        let mut u = best_d.sqrt();
        lower[best] = u;
        for (c, l) in lower.iter_mut().enumerate() {
            if c == best || l.max(self.half[best * k + c]) > bar(u) {
                continue;
            }
            let d2 = sq_dist(p, centroids.row(c));
            *l = d2.sqrt();
            self.distances += 1;
            if d2 < best_d || (d2 == best_d && c < best) {
                (best, best_d, u) = (c, d2, *l);
            }
        }
        self.distances += 1;
        self.upper[i] = u;
        best
    }
}

impl KMeans {
    /// Clusters the rows of `points` into `k` groups.
    ///
    /// # Errors
    ///
    /// * [`KMeansError::ZeroClusters`] when `k == 0`;
    /// * [`KMeansError::TooFewPoints`] when `k > points.rows()`.
    pub fn fit(points: &DMatrix, k: usize, config: &KMeansConfig) -> Result<Self, KMeansError> {
        if k == 0 {
            return Err(KMeansError::ZeroClusters);
        }
        let n = points.rows();
        if k > n {
            return Err(KMeansError::TooFewPoints { points: n, k });
        }

        let reach = (0..n).map(|i| sq_dist(points.row(i), points.row(0)));
        let mut buf = Buffers {
            upper: vec![0.0; n],
            lower: vec![0.0; n * k],
            half: vec![0.0; k * k],
            near: vec![0.0; k],
            shift: vec![0.0; k],
            sums: DMatrix::zeros(k, points.cols()),
            counts: vec![0; k],
            scale: 2.0 * reach.fold(0.0, f64::max).sqrt(),
            iterations: 0,
            distances: n,
        };
        let mut best: Option<KMeans> = None;
        for restart in 0..RESTARTS {
            let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(restart));
            let run = Self::fit_once(points, k, &mut rng, &mut buf);
            if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
                best = Some(run);
            }
        }
        let mut best = best.expect("at least one restart runs");
        (best.iterations, best.distances) = (buf.iterations, buf.distances);
        Ok(best)
    }

    fn fit_once(points: &DMatrix, k: usize, rng: &mut SmallRng, buf: &mut Buffers) -> KMeans {
        let n = points.rows();
        // the seeding's distances are exact lower bounds for the first pass
        let mut centroids = plus_plus(points, k, rng, &mut buf.lower);
        buf.upper.fill(f64::INFINITY);
        buf.distances += n * k;

        // --- Lloyd iterations under Elkan's bounds ---
        let mut labels = vec![0usize; n];
        for _ in 0..MAX_ITERS {
            buf.iterations += 1;
            buf.near.fill(f64::INFINITY);
            for a in 0..k {
                for c in (a + 1)..k {
                    let h = 0.5 * sq_dist(centroids.row(a), centroids.row(c)).sqrt();
                    (buf.half[a * k + c], buf.half[c * k + a]) = (h, h);
                    buf.near[a] = buf.near[a].min(h);
                    buf.near[c] = buf.near[c].min(h);
                }
            }
            buf.distances += k * (k - 1) / 2;
            let mut changed = false;
            for (i, label) in labels.iter_mut().enumerate() {
                let best = buf.assign(i, points.row(i), &centroids, *label);
                if *label != best {
                    *label = best;
                    changed = true;
                }
            }
            // recompute centroids; re-seed empty clusters at farthest point
            for c in 0..k {
                buf.sums.row_mut(c).fill(0.0);
            }
            buf.counts.fill(0);
            for (i, &l) in labels.iter().enumerate() {
                buf.counts[l] += 1;
                for (s, &x) in buf.sums.row_mut(l).iter_mut().zip(points.row(i)) {
                    *s += x;
                }
            }
            for c in 0..k {
                if buf.counts[c] == 0 {
                    // farthest point from its centroid becomes a singleton
                    // (rows below `c` are updated, the others not yet)
                    let far = (0..n)
                        .max_by(|&a, &b| {
                            let da = sq_dist(points.row(a), centroids.row(labels[a]));
                            let db = sq_dist(points.row(b), centroids.row(labels[b]));
                            da.partial_cmp(&db).expect("distances are finite")
                        })
                        .expect("n >= k >= 1");
                    buf.distances += 2 * (n - 1);
                    centroids.row_mut(c).copy_from_slice(points.row(far));
                    labels[far] = c;
                    changed = true;
                    // its jump is no shift: void every bound, so the next
                    // pass measures every point afresh
                    buf.upper.fill(f64::INFINITY);
                    buf.lower.fill(0.0);
                } else {
                    let (count, mut moved) = (buf.counts[c] as f64, 0.0_f64);
                    for (x, &s) in centroids.row_mut(c).iter_mut().zip(buf.sums.row(c)) {
                        let mean = s / count;
                        moved += (*x - mean) * (*x - mean);
                        *x = mean;
                    }
                    buf.shift[c] = moved.sqrt();
                    buf.distances += 1;
                }
            }
            if !changed {
                break;
            }
            // every bound moves by as far as its centroid moved
            for (i, &l) in labels.iter().enumerate() {
                buf.upper[i] += buf.shift[l];
                for (b, s) in buf.lower[i * k..(i + 1) * k].iter_mut().zip(&buf.shift) {
                    *b -= s;
                }
            }
        }

        let inertia = (0..n)
            .map(|i| sq_dist(points.row(i), centroids.row(labels[i])))
            .sum();
        buf.distances += n;
        KMeans {
            labels,
            centroids,
            inertia,
            k,
            iterations: 0,
            distances: 0,
        }
    }

    /// Cluster label of point `i` (`0..k`).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All point labels in point order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of clusters requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Final cluster centroids (`k × d`).
    pub fn centroids(&self) -> &DMatrix {
        &self.centroids
    }

    /// Sum of squared distances of points to their assigned centroid.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Lloyd passes the fit ran, summed over its restarts.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Squared distances the fit evaluated (the margin's scale, seeding,
    /// passes, centroid gaps and shifts, re-seeds, inertia), summed over
    /// its restarts.
    pub fn distances(&self) -> usize {
        self.distances
    }

    /// Number of points assigned to each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain Lloyd loop, every distance evaluated: the oracle the
    /// bounded loop must equal bit for bit. Also counts the empty clusters
    /// it re-seeded.
    fn lloyd(points: &DMatrix, k: usize, config: &KMeansConfig) -> (KMeans, usize) {
        let (mut reseeds, mut iterations, mut distances) = (0, 0, 0);
        let mut best: Option<KMeans> = None;
        for restart in 0..RESTARTS {
            let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(restart));
            let run = lloyd_once(points, k, &mut rng, &mut reseeds);
            iterations += run.iterations;
            distances += run.distances;
            if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
                best = Some(run);
            }
        }
        let mut best = best.unwrap();
        best.iterations = iterations;
        best.distances = distances;
        (best, reseeds)
    }

    fn lloyd_once(points: &DMatrix, k: usize, rng: &mut SmallRng, reseeds: &mut usize) -> KMeans {
        let n = points.rows();
        let d = points.cols();
        let mut centroids = plus_plus(points, k, rng, &mut vec![0.0; n * k]);
        let mut labels = vec![0usize; n];
        let mut iterations = 0;
        for _ in 0..MAX_ITERS {
            iterations += 1;
            let mut changed = false;
            for (i, label) in labels.iter_mut().enumerate() {
                let mut best_c = 0;
                let mut best_d = f64::INFINITY;
                for c in 0..k {
                    let d2 = sq_dist(points.row(i), centroids.row(c));
                    if d2 < best_d {
                        best_d = d2;
                        best_c = c;
                    }
                }
                if *label != best_c {
                    *label = best_c;
                    changed = true;
                }
            }
            let mut counts = vec![0usize; k];
            let mut sums = DMatrix::zeros(k, d);
            for i in 0..n {
                counts[labels[i]] += 1;
                for j in 0..d {
                    sums[(labels[i], j)] += points[(i, j)];
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    let far = (0..n)
                        .max_by(|&a, &b| {
                            let da = sq_dist(points.row(a), centroids.row(labels[a]));
                            let db = sq_dist(points.row(b), centroids.row(labels[b]));
                            da.partial_cmp(&db).expect("distances are finite")
                        })
                        .expect("n >= k >= 1");
                    centroids.row_mut(c).copy_from_slice(points.row(far));
                    labels[far] = c;
                    changed = true;
                    *reseeds += 1;
                } else {
                    for j in 0..d {
                        centroids[(c, j)] = sums[(c, j)] / counts[c] as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let inertia = (0..n)
            .map(|i| sq_dist(points.row(i), centroids.row(labels[i])))
            .sum();
        KMeans {
            labels,
            centroids,
            inertia,
            k,
            iterations,
            // every point against every centroid, per seed and per pass
            distances: n * k * (1 + iterations),
        }
    }

    /// `n` points of dimension `d` on a small integer grid, kept exact
    /// (`layout` 0: ties and duplicates are exact), scaled by 0.1 (1) or
    /// moved far from the origin (2), where the bounds' rounding shows.
    fn grid(coords: &[i8], n: usize, d: usize, layout: usize) -> DMatrix {
        let data = coords[..n * d]
            .iter()
            .map(|&x| match layout {
                0 => f64::from(x),
                1 => f64::from(x) * 0.1,
                _ => 1000.0 + f64::from(x) * 0.001,
            })
            .collect();
        DMatrix::from_row_major(n, d, data)
    }

    /// `k` from a draw: 1 and `n` are a fifth of the draws each.
    fn pick_k(draw: usize, n: usize) -> usize {
        match draw % 5 {
            0 => 1,
            1 => n,
            _ => 1 + draw % n,
        }
    }

    /// The fit's labels, every centroid entry and the inertia, by bits.
    fn bits(km: &KMeans) -> (Vec<usize>, Vec<u64>, u64) {
        let cents = km.centroids().as_slice().iter().map(|x| x.to_bits());
        (
            km.labels().to_vec(),
            cents.collect(),
            km.inertia().to_bits(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Elkan's bounds change which distances are evaluated, never a
        /// label, a centroid bit or the inertia's bits: exact ties,
        /// duplicate points, re-seeded empty clusters, `k` = 1 and `k` = n.
        #[test]
        fn bounded_fit_equals_plain_lloyd(
            n in 1usize..14,
            d in 1usize..4,
            draw in 0usize..64,
            layout in 0usize..3,
            seed in 0u64..1024,
            coords in proptest::collection::vec(-2i8..3, 39..40),
        ) {
            let pts = grid(&coords, n, d, layout);
            let k = pick_k(draw, n);
            let cfg = KMeansConfig { seed };
            let got = KMeans::fit(&pts, k, &cfg).unwrap();
            let (want, _) = lloyd(&pts, k, &cfg);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    /// The oracle's inputs reach what it is there for: re-seeded empty
    /// clusters (after which the bounds are rebuilt) and, on separated
    /// blobs, far fewer distances than the plain loop evaluates.
    #[test]
    fn oracle_inputs_reseed_and_bounds_skip_distances() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut reseeds = 0;
        for _ in 0..400 {
            let (n, d) = (rng.gen_range(1..14), rng.gen_range(1..4));
            let coords: Vec<i8> = (0..n * d).map(|_| rng.gen_range(-2..3)).collect();
            let pts = grid(&coords, n, d, 0);
            let k = pick_k(rng.gen_range(0..64), n);
            let cfg = KMeansConfig { seed: rng.gen() };
            let (want, r) = lloyd(&pts, k, &cfg);
            assert_eq!(bits(&KMeans::fit(&pts, k, &cfg).unwrap()), bits(&want));
            reseeds += r;
        }
        assert!(reseeds > 0, "no input re-seeded an empty cluster");

        let blobs: Vec<f64> = (0..200)
            .flat_map(|i| {
                let (cx, cy) = ((i % 4) as f64 * 10.0, (i % 4 / 2) as f64 * 10.0);
                [
                    cx + (i * 7 % 13) as f64 * 0.1,
                    cy + (i * 5 % 11) as f64 * 0.1,
                ]
            })
            .collect();
        let pts = DMatrix::from_row_major(200, 2, blobs);
        let cfg = KMeansConfig::default();
        let km = KMeans::fit(&pts, 8, &cfg).unwrap();
        let (want, _) = lloyd(&pts, 8, &cfg);
        assert_eq!(bits(&km), bits(&want));
        assert_eq!(km.iterations(), want.iterations());
        assert!(
            2 * km.distances() < want.distances(),
            "{} of {} distances",
            km.distances(),
            want.distances()
        );
    }

    fn blobs() -> DMatrix {
        DMatrix::from_rows(&[
            &[0.0, 0.0],
            &[0.2, 0.1],
            &[0.1, 0.3],
            &[8.0, 8.0],
            &[8.1, 7.9],
            &[7.9, 8.2],
        ])
    }

    /// A bound summed from rounded terms may land a few ulps past the
    /// distance it bounds. On an exact tie that must not skip the centroid
    /// with the lower index, which the tie rule picks: here point 1.0 is
    /// as far from centroid 0 (at 0.0) as from centroid 1 (at 2.0), and
    /// labelled 1. Without the margin, or with `>=` for `>`, the erring
    /// bound keeps label 1.
    #[test]
    fn bounds_off_by_rounding_never_skip_a_tie() {
        let centroids = DMatrix::from_rows(&[&[0.0], &[2.0]]);
        for ulps in 0..4 {
            let above = f64::from_bits(1f64.to_bits() + ulps);
            let below = f64::from_bits(1f64.to_bits() - ulps);
            // (upper, lower bound to centroid 0, half gap): one errs
            for (u, l, h) in [(1.0, above, 0.0), (1.0, 0.0, above), (below, 0.0, 1.0)] {
                let mut buf = Buffers {
                    upper: vec![u],
                    lower: vec![l, 1.0],
                    half: vec![0.0, h, h, 0.0],
                    near: vec![h, h],
                    shift: vec![0.0; 2],
                    sums: DMatrix::zeros(2, 1),
                    counts: vec![0; 2],
                    scale: 2.0,
                    iterations: 0,
                    distances: 0,
                };
                let label = buf.assign(0, &[1.0], &centroids, 1);
                assert_eq!(label, 0, "{ulps} ulps: upper {u}, lower {l}, half {h}");
                assert_eq!(buf.upper[0], 1.0);
            }
        }
    }

    #[test]
    fn separates_two_blobs() {
        let km = KMeans::fit(&blobs(), 2, &KMeansConfig::default()).unwrap();
        assert_eq!(km.label(0), km.label(1));
        assert_eq!(km.label(0), km.label(2));
        assert_eq!(km.label(3), km.label(4));
        assert_ne!(km.label(0), km.label(3));
        assert_eq!(km.cluster_sizes(), vec![3, 3]);
        assert!(km.inertia() < 0.5);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = KMeansConfig::default();
        let a = KMeans::fit(&blobs(), 2, &cfg).unwrap();
        let b = KMeans::fit(&blobs(), 2, &cfg).unwrap();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.inertia(), b.inertia());
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let km = KMeans::fit(&blobs(), 6, &KMeansConfig::default()).unwrap();
        assert!(km.inertia() < 1e-12);
        let mut sizes = km.cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1; 6]);
    }

    #[test]
    fn k_one_groups_everything() {
        let km = KMeans::fit(&blobs(), 1, &KMeansConfig::default()).unwrap();
        assert!(km.labels().iter().all(|&l| l == 0));
        assert_eq!(km.k(), 1);
        assert_eq!(km.centroids().rows(), 1);
    }

    #[test]
    fn errors_on_bad_k() {
        assert!(matches!(
            KMeans::fit(&blobs(), 0, &KMeansConfig::default()),
            Err(KMeansError::ZeroClusters)
        ));
        assert!(matches!(
            KMeans::fit(&blobs(), 7, &KMeansConfig::default()),
            Err(KMeansError::TooFewPoints { points: 6, k: 7 })
        ));
    }

    #[test]
    fn identical_points_do_not_crash() {
        let row: &[f64] = &[1.0, 1.0];
        let pts = DMatrix::from_rows(&[row; 5]);
        let km = KMeans::fit(&pts, 3, &KMeansConfig::default()).unwrap();
        assert_eq!(km.labels().len(), 5);
        assert!(km.inertia() < 1e-12);
    }

    #[test]
    fn error_messages_are_meaningful() {
        let e = KMeansError::TooFewPoints { points: 2, k: 5 };
        assert_eq!(e.to_string(), "cannot form 5 clusters from 2 points");
        assert_eq!(
            KMeansError::ZeroClusters.to_string(),
            "k must be at least 1"
        );
    }
}
