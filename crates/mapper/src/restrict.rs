//! The placement restriction PANORAMA's cluster mapping imposes on a
//! lower-level mapper.

use panorama_arch::{Cgra, ClusterId};
use panorama_cluster::Cdg;
use panorama_dfg::{Dfg, OpId};
use panorama_place::ClusterMap;

/// For every DFG operation, the set of CGRA clusters whose FUs it may use
/// (paper Algorithm 2, line 6: *"if Cluster(node) is mapped to
/// Cluster(FU)"*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Restriction {
    allowed: Vec<Vec<ClusterId>>,
    /// The strictly assigned ("home") cells, a subset of `allowed`;
    /// placement prefers these and only spills memory ops outward.
    home: Vec<Vec<ClusterId>>,
}

impl Restriction {
    /// Builds the restriction from a cluster mapping: an op inherits the
    /// CGRA cells assigned to its CDG cluster.
    ///
    /// # Panics
    ///
    /// Panics when the cluster map's grid disagrees with `cgra`'s cluster
    /// grid, or when the CDG does not cover `dfg`.
    pub fn from_cluster_map(dfg: &Dfg, cdg: &Cdg, map: &ClusterMap, cgra: &Cgra) -> Self {
        assert_eq!(
            map.grid(),
            cgra.cluster_grid(),
            "cluster map grid must match the CGRA"
        );
        assert_eq!(
            cdg.total_dfg_nodes(),
            dfg.num_ops(),
            "CDG must cover the DFG"
        );
        let (rows, cols) = map.grid();
        let mut allowed: Vec<Vec<ClusterId>> = vec![Vec::new(); dfg.num_ops()];
        let mut home: Vec<Vec<ClusterId>> = vec![Vec::new(); dfg.num_ops()];
        for cdg_node in cdg.cluster_ids() {
            let cells = map.cells_of(cdg_node);
            let strict: Vec<ClusterId> =
                cells.iter().map(|&(r, c)| cgra.cluster_at(r, c)).collect();
            // Memory ops additionally reach the neighbouring cells' memory
            // columns: spectral clustering balances *node* counts, not
            // loads/stores, and a cell has few memory-capable PEs — without
            // this relaxation one load-heavy cluster dictates the II.
            let mut relaxed = strict.clone();
            for &(r, c) in &cells {
                for (dr, dc) in [(0i64, 1i64), (1, 0), (0, -1), (-1, 0)] {
                    let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                    if nr < 0 || nc < 0 || nr >= rows as i64 || nc >= cols as i64 {
                        continue;
                    }
                    let cl = cgra.cluster_at(nr as usize, nc as usize);
                    if !relaxed.contains(&cl) {
                        relaxed.push(cl);
                    }
                }
            }
            for &op in cdg.members(cdg_node) {
                allowed[op.index()] = if dfg.op(op).kind.needs_memory() {
                    relaxed.clone()
                } else {
                    strict.clone()
                };
                home[op.index()] = strict.clone();
            }
        }
        Restriction { allowed, home }
    }

    /// Raw per-op cluster sets, every one its own home.
    #[cfg(test)]
    pub(crate) fn from_allowed(allowed: Vec<Vec<ClusterId>>) -> Self {
        Restriction {
            home: allowed.clone(),
            allowed,
        }
    }

    /// Unrestricted placement for every op (useful in tests/ablations).
    pub fn unrestricted(dfg: &Dfg, cgra: &Cgra) -> Self {
        let all: Vec<ClusterId> = (0..cgra.num_clusters())
            .map(|i| {
                let (r, c) = (i / cgra.cluster_grid().1, i % cgra.cluster_grid().1);
                cgra.cluster_at(r, c)
            })
            .collect();
        Restriction {
            home: vec![all.clone(); dfg.num_ops()],
            allowed: vec![all; dfg.num_ops()],
        }
    }

    /// Whether `op` may be placed inside `cluster`.
    pub fn allows(&self, op: OpId, cluster: ClusterId) -> bool {
        self.allowed[op.index()].contains(&cluster)
    }

    /// The clusters `op` may use.
    pub fn clusters_of(&self, op: OpId) -> &[ClusterId] {
        &self.allowed[op.index()]
    }

    /// The strictly assigned home cells of `op` (placement prefers these).
    pub fn home_of(&self, op: OpId) -> &[ClusterId] {
        &self.home[op.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_cluster::{Cdg, Partition};
    use panorama_dfg::{DfgBuilder, OpKind};
    use panorama_place::{map_clusters, ScatterConfig};

    #[test]
    fn restriction_follows_cluster_map() {
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let mut b = DfgBuilder::new("t");
        let mut labels = Vec::new();
        let mut prev = None;
        for g in 0..4 {
            for i in 0..3 {
                let v = b.op(OpKind::Add, format!("g{g}_{i}"));
                if let Some(p) = prev {
                    b.data(p, v);
                }
                prev = Some(v);
                labels.push(g);
            }
        }
        let dfg = b.build().unwrap();
        let cdg = Cdg::new(&dfg, &Partition::new(labels, 4));
        let map = map_clusters(&cdg, 2, 2, &ScatterConfig::default()).unwrap();
        let restriction = Restriction::from_cluster_map(&dfg, &cdg, &map, &cgra);
        for op in dfg.op_ids() {
            assert!(
                !restriction.clusters_of(op).is_empty(),
                "every op keeps at least one cluster"
            );
        }
        // ops of the same CDG cluster share the same allowed set
        let first = restriction.clusters_of(dfg.op_ids().next().unwrap());
        for op in dfg.op_ids().take(3) {
            assert_eq!(restriction.clusters_of(op), first);
        }
    }

    #[test]
    fn unrestricted_allows_everything() {
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let mut b = DfgBuilder::new("t");
        let x = b.op(OpKind::Add, "x");
        let dfg = b.build().unwrap();
        let r = Restriction::unrestricted(&dfg, &cgra);
        for i in 0..cgra.num_clusters() {
            let (rr, cc) = (i / 2, i % 2);
            assert!(r.allows(x, cgra.cluster_at(rr, cc)));
        }
    }
}
