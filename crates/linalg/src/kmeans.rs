//! Lloyd's k-means with deterministic k-means++ seeding.
//!
//! Spectral clustering's final step groups the rows of the spectral
//! embedding. The paper uses Scikit-Learn's k-means; this module
//! reimplements it with a seeded RNG so clustering results — and therefore
//! every downstream mapping — are reproducible run to run.

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
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
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

        let mut best: Option<KMeans> = None;
        for restart in 0..RESTARTS {
            let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(restart));
            let run = Self::fit_once(points, k, &mut rng);
            if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
                best = Some(run);
            }
        }
        Ok(best.expect("at least one restart runs"))
    }

    fn fit_once(points: &DMatrix, k: usize, rng: &mut SmallRng) -> KMeans {
        let n = points.rows();
        let d = points.cols();

        // --- k-means++ seeding ---
        let mut centroids = DMatrix::zeros(k, d);
        let first = rng.gen_range(0..n);
        centroids.row_mut(0).copy_from_slice(points.row(first));
        let mut min_d2: Vec<f64> = (0..n)
            .map(|i| sq_dist(points.row(i), centroids.row(0)))
            .collect();
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
                if d2 < *slot {
                    *slot = d2;
                }
            }
        }

        // --- Lloyd iterations ---
        let mut labels = vec![0usize; n];
        for _ in 0..MAX_ITERS {
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
            // recompute centroids; re-seed empty clusters at farthest point
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
                    // farthest point from its centroid becomes a singleton
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
