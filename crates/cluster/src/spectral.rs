//! Spectral clustering of DFGs (paper §3.1) and the balanced-partition
//! exploration of Algorithm 1.

use crate::Partition;
use panorama_dfg::Dfg;
use panorama_graph::{laplacian, normalized_laplacian};
use panorama_linalg::{DMatrix, EigenError, KMeans, KMeansConfig, KMeansError, SymmetricEigen};
use std::error::Error;
use std::fmt;

/// Error produced by spectral clustering.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// `k` outside `1..=num_nodes`.
    BadClusterCount {
        /// Requested cluster count.
        k: usize,
        /// DFG node count.
        nodes: usize,
    },
    /// Eigendecomposition failed (NaN input and similar).
    Eigen(EigenError),
    /// k-means failed.
    KMeans(KMeansError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::BadClusterCount { k, nodes } => {
                write!(f, "cannot split {nodes} nodes into {k} clusters")
            }
            ClusterError::Eigen(e) => write!(f, "spectral embedding failed: {e}"),
            ClusterError::KMeans(e) => write!(f, "k-means failed: {e}"),
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Eigen(e) => Some(e),
            ClusterError::KMeans(e) => Some(e),
            ClusterError::BadClusterCount { .. } => None,
        }
    }
}

impl From<EigenError> for ClusterError {
    fn from(e: EigenError) -> Self {
        ClusterError::Eigen(e)
    }
}

impl From<KMeansError> for ClusterError {
    fn from(e: KMeansError) -> Self {
        ClusterError::KMeans(e)
    }
}

/// Which graph Laplacian drives the embedding (von Luxburg §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpectralKind {
    /// `L = D − A` (the tutorial's unnormalised variant; our default).
    #[default]
    Unnormalized,
    /// `L_sym = I − D^{-1/2} A D^{-1/2}` with row-normalised embeddings
    /// (Ng–Jordan–Weiss).
    Normalized,
}

/// Tunables for the spectral pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralConfig {
    /// Seed for the k-means stage (deterministic clustering).
    pub seed: u64,
    /// Laplacian variant.
    pub kind: SpectralKind,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig {
            seed: 0x5EED_CAFE,
            kind: SpectralKind::Unnormalized,
        }
    }
}

/// Reusable spectral embedding of one DFG.
///
/// The Laplacian eigendecomposition — the expensive step — is computed once
/// and shared across every `k` explored by Algorithm 1.
///
/// Construction peaks at one dense `n × n` buffer: the Laplacian, built
/// from the DFG's edges, which the eigensolver turns in place into the
/// eigenvector basis, all the embedding keeps.
///
/// # Examples
///
/// ```
/// use panorama_cluster::{SpectralClustering, SpectralConfig};
/// use panorama_dfg::{kernels, KernelId, KernelScale};
///
/// let dfg = kernels::generate(KernelId::Cordic, KernelScale::Tiny);
/// let sc = SpectralClustering::new(&dfg)?;
/// let part = sc.partition(3, &SpectralConfig::default())?;
/// assert_eq!(part.k(), 3);
/// # Ok::<(), panorama_cluster::ClusterError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpectralClustering {
    eigen: SymmetricEigen,
    nodes: usize,
    kind: SpectralKind,
}

impl SpectralClustering {
    /// Builds the unnormalised spectral embedding of `dfg` (Laplacian of
    /// its undirected multigraph, all eigenpairs).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Eigen`] when the eigensolver fails, which
    /// only happens for non-finite inputs.
    pub fn new(dfg: &Dfg) -> Result<Self, ClusterError> {
        Self::with_kind(dfg, SpectralKind::Unnormalized)
    }

    /// Builds the embedding with an explicit Laplacian variant.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Eigen`] when the eigensolver fails.
    pub fn with_kind(dfg: &Dfg, kind: SpectralKind) -> Result<Self, ClusterError> {
        let n = dfg.num_ops();
        let buffer = match kind {
            SpectralKind::Unnormalized => laplacian(dfg.graph()),
            SpectralKind::Normalized => normalized_laplacian(dfg.graph()),
        };
        // The solver works in the Laplacian's own buffer: no copy of it.
        let eigen = SymmetricEigen::decompose(DMatrix::from_row_major(n, n, buffer))?;
        Ok(SpectralClustering {
            eigen,
            nodes: n,
            kind,
        })
    }

    /// Number of DFG nodes embedded.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// QL iterations the shared eigendecomposition took — the eigensolve
    /// effort counter surfaced by the partitioning trace.
    pub fn eigen_sweeps(&self) -> usize {
        self.eigen.sweeps()
    }

    /// Clusters the DFG into `k` groups using the first `k` eigenvectors
    /// and k-means.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::BadClusterCount`] when `k` is 0 or exceeds the
    ///   node count;
    /// * [`ClusterError::KMeans`] when the k-means stage fails.
    pub fn partition(&self, k: usize, config: &SpectralConfig) -> Result<Partition, ClusterError> {
        let km = self.fit(k, config)?;
        // k-means may leave a cluster empty only transiently; its re-seeding
        // guarantees all k labels appear, but renumber defensively anyway.
        Ok(compact_labels(km.labels(), k))
    }

    /// The k-means fit behind [`SpectralClustering::partition`].
    fn fit(&self, k: usize, config: &SpectralConfig) -> Result<KMeans, ClusterError> {
        if k == 0 || k > self.nodes {
            return Err(ClusterError::BadClusterCount {
                k,
                nodes: self.nodes,
            });
        }
        let mut features = self.eigen.embedding(k);
        if self.kind == SpectralKind::Normalized {
            // Ng–Jordan–Weiss: project embedding rows onto the unit sphere
            for i in 0..features.rows() {
                let norm: f64 = features.row(i).iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm > 1e-12 {
                    for x in features.row_mut(i) {
                        *x /= norm;
                    }
                }
            }
        }
        Ok(KMeans::fit(
            &features,
            k,
            &KMeansConfig {
                seed: config.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            },
        )?)
    }
}

/// Renumbers labels densely (dropping empty clusters) and returns the
/// resulting partition.
fn compact_labels(labels: &[usize], k: usize) -> Partition {
    let mut remap = vec![usize::MAX; k];
    let mut next = 0usize;
    let mut out = Vec::with_capacity(labels.len());
    for &l in labels {
        if remap[l] == usize::MAX {
            remap[l] = next;
            next += 1;
        }
        out.push(remap[l]);
    }
    Partition::new(out, next)
}

/// Algorithm 1 lines 1–4: spectral partitions for every `k ∈ [r, m]`.
///
/// `r` is the CGRA cluster-row count (the column-wise scattering step needs
/// at least `R` DFG clusters); `m` is the exploration cap.
///
/// # Errors
///
/// Propagates the first [`ClusterError`]; `k` values exceeding the node
/// count are skipped rather than reported.
pub fn explore_partitions(
    dfg: &Dfg,
    r: usize,
    m: usize,
    config: &SpectralConfig,
) -> Result<Vec<Partition>, ClusterError> {
    explore_partitions_with_stats(dfg, r, m, config).map(|(parts, ..)| parts)
}

/// [`explore_partitions`] that also reports the sweep's effort, for the
/// partitioning trace: the QL iteration count of the shared
/// eigendecomposition, then the Lloyd iterations and the squared distances
/// evaluated by every k-means fit, summed over all `k`.
///
/// # Errors
///
/// Same contract as [`explore_partitions`].
pub fn explore_partitions_with_stats(
    dfg: &Dfg,
    r: usize,
    m: usize,
    config: &SpectralConfig,
) -> Result<(Vec<Partition>, usize, usize, usize), ClusterError> {
    let sc = SpectralClustering::with_kind(dfg, config.kind)?;
    let (mut parts, mut iterations, mut distances) = (Vec::new(), 0, 0);
    for k in r..=m.min(sc.num_nodes()) {
        let km = sc.fit(k, config)?;
        iterations += km.iterations();
        distances += km.distances();
        parts.push(compact_labels(km.labels(), k));
    }
    if parts.is_empty() {
        return Err(ClusterError::BadClusterCount {
            k: r,
            nodes: sc.num_nodes(),
        });
    }
    Ok((parts, sc.eigen_sweeps(), iterations, distances))
}

/// Algorithm 1 line 5: the `take` most balanced partitions (lowest
/// imbalance factor; ties broken toward fewer clusters), each paired with
/// its index in `parts` so downstream stages can refer to candidates
/// without re-searching the slice.
pub fn top_balanced(parts: &[Partition], take: usize) -> Vec<(usize, &Partition)> {
    let mut ranked: Vec<(usize, &Partition)> = parts.iter().enumerate().collect();
    ranked.sort_by(|(_, a), (_, b)| {
        a.imbalance_factor()
            .partial_cmp(&b.imbalance_factor())
            .expect("IF is finite")
            .then(a.k().cmp(&b.k()))
    });
    ranked.truncate(take);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_dfg::{kernels, DfgBuilder, KernelId, KernelScale, OpKind};

    /// Two dense blobs joined by one edge: spectral clustering at k=2 must
    /// recover them.
    fn dumbbell() -> Dfg {
        let mut b = DfgBuilder::new("dumbbell");
        let left: Vec<_> = (0..5).map(|i| b.op(OpKind::Add, format!("l{i}"))).collect();
        let right: Vec<_> = (0..5).map(|i| b.op(OpKind::Mul, format!("r{i}"))).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.data(left[i], left[j]);
                b.data(right[i], right[j]);
            }
        }
        b.data(left[4], right[0]);
        b.build().unwrap()
    }

    #[test]
    fn dumbbell_split_perfectly() {
        let dfg = dumbbell();
        let sc = SpectralClustering::new(&dfg).unwrap();
        let p = sc.partition(2, &SpectralConfig::default()).unwrap();
        // nodes 0..5 together, 5..10 together
        let first = p.label(0);
        assert!((0..5).all(|i| p.label(i) == first));
        let second = p.label(5);
        assert_ne!(first, second);
        assert!((5..10).all(|i| p.label(i) == second));
        assert_eq!(p.inter_edges(&dfg), 1);
    }

    #[test]
    fn partition_is_deterministic() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let sc = SpectralClustering::new(&dfg).unwrap();
        let cfg = SpectralConfig::default();
        let a = sc.partition(4, &cfg).unwrap();
        let b = sc.partition(4, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_k_rejected() {
        let dfg = dumbbell();
        let sc = SpectralClustering::new(&dfg).unwrap();
        assert!(matches!(
            sc.partition(0, &SpectralConfig::default()),
            Err(ClusterError::BadClusterCount { .. })
        ));
        assert!(matches!(
            sc.partition(11, &SpectralConfig::default()),
            Err(ClusterError::BadClusterCount { .. })
        ));
    }

    #[test]
    fn explore_produces_range() {
        let dfg = kernels::generate(KernelId::Conv2d, KernelScale::Tiny);
        let parts = explore_partitions(&dfg, 2, 6, &SpectralConfig::default()).unwrap();
        assert_eq!(parts.len(), 5);
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.k(), i + 2);
        }
    }

    #[test]
    fn top_balanced_sorts_by_if() {
        let parts = vec![
            Partition::new(vec![0, 0, 0, 1], 2), // IF 0.5
            Partition::new(vec![0, 0, 1, 1], 2), // IF 0
            Partition::new(vec![0, 1, 2, 0], 3), // IF 0.25
        ];
        let top = top_balanced(&parts, 2);
        assert_eq!(top[0].0, 1, "index of the IF-0 partition");
        assert_eq!(top[0].1.imbalance_factor(), 0.0);
        assert_eq!(top[1].0, 2);
        assert!((top[1].1.imbalance_factor() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn kernel_partitions_have_reasonable_if() {
        // the paper reports IF < 20% achievable for all kernels
        for id in [KernelId::Fir, KernelId::Cordic, KernelId::IdctCols] {
            let dfg = kernels::generate(id, KernelScale::Scaled);
            let parts = explore_partitions(&dfg, 4, 12, &SpectralConfig::default()).unwrap();
            let best = top_balanced(&parts, 1);
            assert!(
                best[0].1.imbalance_factor() < 0.35,
                "{id}: IF {}",
                best[0].1.imbalance_factor()
            );
        }
    }

    #[test]
    fn intra_dominates_inter_on_kernels() {
        // Table 1a: Intra-E >> Inter-E
        let dfg = kernels::generate(KernelId::IdctCols, KernelScale::Scaled);
        let parts = explore_partitions(&dfg, 4, 10, &SpectralConfig::default()).unwrap();
        let best = top_balanced(&parts, 1)[0].1;
        assert!(best.intra_edges(&dfg) > best.inter_edges(&dfg));
    }

    /// Pins the labels of every partition the 8×8 pipeline explores
    /// (`r = 2 ..= m = min(8, ops / 8)`, the range `Panorama::plan` uses on
    /// a 2×2 cluster grid) for all twelve Scaled kernels. The labels depend
    /// on the eigensolver's basis inside degenerate eigenspaces and on every
    /// k-means tie-break, so any change of rounding or operation order in
    /// either moves this hash — and with it II downstream.
    #[test]
    fn explored_partition_labels_are_pinned_for_the_scaled_suite() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for id in KernelId::ALL {
            let dfg = kernels::generate(id, KernelScale::Scaled);
            let m = 8.min(dfg.num_ops() / 8);
            let parts = explore_partitions(&dfg, 2, m, &SpectralConfig::default()).unwrap();
            for label in parts.iter().flat_map(Partition::labels) {
                for b in (*label as u64).to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 0x06f3_f693_ac78_6be0, "label hash {h:#018x}");
    }

    #[test]
    fn compact_labels_drops_gaps() {
        let p = compact_labels(&[2, 2, 0, 0], 3);
        assert_eq!(p.k(), 2);
        assert_eq!(p.labels(), &[0, 0, 1, 1]);
    }
}

#[cfg(test)]
mod normalized_tests {
    use super::*;
    use panorama_dfg::{kernels, KernelId, KernelScale};

    #[test]
    fn normalized_variant_also_splits_dumbbells() {
        let dfg = kernels::generate(KernelId::Conv2d, KernelScale::Tiny);
        let sc = SpectralClustering::with_kind(&dfg, SpectralKind::Normalized).unwrap();
        let cfg = SpectralConfig {
            kind: SpectralKind::Normalized,
            ..SpectralConfig::default()
        };
        let p = sc.partition(3, &cfg).unwrap();
        assert_eq!(p.k(), 3);
        assert!(p.intra_edges(&dfg) > p.inter_edges(&dfg));
    }

    #[test]
    fn both_variants_explore_deterministically() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        for kind in [SpectralKind::Unnormalized, SpectralKind::Normalized] {
            let cfg = SpectralConfig {
                kind,
                ..SpectralConfig::default()
            };
            let a = explore_partitions(&dfg, 2, 5, &cfg).unwrap();
            let b = explore_partitions(&dfg, 2, 5, &cfg).unwrap();
            assert_eq!(a, b, "{kind:?}");
        }
    }
}
