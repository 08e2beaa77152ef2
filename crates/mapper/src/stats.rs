//! Post-mapping route statistics: interconnect and register pressure of a
//! finished mapping, for architects judging resource headroom.

use crate::Mapping;
use panorama_arch::{Cgra, NodeKind};
use panorama_dfg::Dfg;

/// Aggregate routing statistics of one mapping.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouteStats {
    /// Total physical-link traversals per loop iteration.
    pub link_hops: usize,
    /// Of those, hops over scarce inter-cluster links.
    pub inter_cluster_hops: usize,
    /// Register-file writes per iteration (values parked across cycles).
    pub register_writes: usize,
    /// Cycles values spend sitting in registers per iteration.
    pub register_dwell_cycles: usize,
    /// Longest single route, in time-advancing steps.
    pub max_route_latency: usize,
    /// Fraction of distinct physical links used by at least one route.
    pub link_coverage: f64,
}

impl Mapping {
    /// Computes [`RouteStats`]; `None` for abstract mappings without
    /// routes.
    pub fn route_stats(&self, dfg: &Dfg, cgra: &Cgra) -> Option<RouteStats> {
        let routes = self.routes()?;
        let mrrg = cgra.mrrg_shared(self.ii());
        let mut stats = RouteStats::default();
        let mut links_seen = std::collections::HashSet::new();
        let _ = dfg;
        for route in routes {
            let mut latency = 0usize;
            for w in route.nodes.windows(2) {
                let edge = mrrg
                    .out_edges(w[0])
                    .find(|me| me.dst == w[1])
                    .expect("verified route is connected");
                if edge.advance {
                    latency += 1;
                }
                match mrrg.kind(w[1]) {
                    NodeKind::Link { index } => {
                        stats.link_hops += 1;
                        links_seen.insert(index);
                        if cgra.links()[index as usize].inter_cluster {
                            stats.inter_cluster_hops += 1;
                        }
                    }
                    NodeKind::Reg { .. } => {
                        if matches!(mrrg.kind(w[0]), NodeKind::RegWrite) {
                            stats.register_writes += 1;
                        }
                        stats.register_dwell_cycles += 1;
                    }
                    _ => {}
                }
            }
            stats.max_route_latency = stats.max_route_latency.max(latency);
        }
        stats.link_coverage = links_seen.len() as f64 / cgra.links().len().max(1) as f64;
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LowerLevelMapper, SprMapper, UltraFastMapper};
    use panorama_arch::CgraConfig;
    use panorama_dfg::{kernels, KernelId, KernelScale};

    #[test]
    fn stats_are_consistent_with_routes() {
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let dfg = kernels::generate(KernelId::Edn, KernelScale::Tiny);
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        let stats = mapping.route_stats(&dfg, &cgra).unwrap();
        assert!(stats.link_hops > 0, "cross-PE kernel must hop");
        assert!(stats.inter_cluster_hops <= stats.link_hops);
        assert!(stats.max_route_latency >= 1);
        assert!(stats.link_coverage > 0.0 && stats.link_coverage <= 1.0);
        // placement starts each op within one II of its latest operand, and
        // on edn no route waits out more than two II windows
        assert!(
            stats.max_route_latency <= 2 * mapping.ii(),
            "latency {} vs II {}",
            stats.max_route_latency,
            mapping.ii()
        );
    }

    #[test]
    fn abstract_mapping_has_no_stats() {
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let mapping = UltraFastMapper::default().map(&dfg, &cgra, None).unwrap();
        assert!(mapping.route_stats(&dfg, &cgra).is_none());
    }

    #[test]
    fn register_dwell_counts_hold_cycles() {
        // a chain with slack forces at least some register parking on most
        // placements; dwell must be >= writes when any parking occurs
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let dfg = kernels::generate(KernelId::Cordic, KernelScale::Tiny);
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        let stats = mapping.route_stats(&dfg, &cgra).unwrap();
        assert!(stats.register_dwell_cycles >= stats.register_writes);
    }
}
