//! Pipeline result types: the higher-level plan and the compile report.

use panorama_cluster::{Cdg, Partition};
use panorama_dfg::Dfg;
use panorama_mapper::{Mapping, Restriction};
use panorama_place::ClusterMap;
use panorama_trace::json::Writer;
use panorama_trace::schema;
use std::time::Duration;

/// The artifacts of the higher-level (divide) phase: the chosen partition,
/// its CDG, the split & push cluster mapping, and the derived placement
/// restriction.
#[derive(Debug, Clone)]
pub struct HigherLevelPlan {
    partition: Partition,
    cdg: Cdg,
    cluster_map: ClusterMap,
    restriction: Restriction,
    clustering_time: Duration,
    cluster_mapping_time: Duration,
}

impl HigherLevelPlan {
    pub(crate) fn new(
        partition: Partition,
        cdg: Cdg,
        cluster_map: ClusterMap,
        restriction: Restriction,
        clustering_time: Duration,
        cluster_mapping_time: Duration,
    ) -> Self {
        HigherLevelPlan {
            partition,
            cdg,
            cluster_map,
            restriction,
            clustering_time,
            cluster_mapping_time,
        }
    }

    /// The winning DFG partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The contracted cluster dependency graph.
    pub fn cdg(&self) -> &Cdg {
        &self.cdg
    }

    /// The CDG → CGRA-cluster assignment.
    pub fn cluster_map(&self) -> &ClusterMap {
        &self.cluster_map
    }

    /// The per-op placement restriction handed to the lower-level mapper.
    pub fn restriction(&self) -> &Restriction {
        &self.restriction
    }

    /// Wall-clock spent exploring spectral partitions (Table 1a's
    /// "Clustering" column).
    pub fn clustering_time(&self) -> Duration {
        self.clustering_time
    }

    /// Wall-clock spent in the scattering ILPs (Table 1a's "Clus Map"
    /// column): column-wise scattering on every candidate, then row-wise
    /// scattering — from a compile, both batches (every candidate that
    /// passed column-wise scattering); from
    /// [`Panorama::plan`](crate::Panorama::plan), the candidates it tried
    /// before one succeeded.
    pub fn cluster_mapping_time(&self) -> Duration {
        self.cluster_mapping_time
    }
}

/// The result of a full compilation: the mapping plus phase timings, and —
/// for guided runs — the higher-level plan.
#[derive(Debug, Clone)]
pub struct CompileReport {
    mapping: Mapping,
    plan: Option<HigherLevelPlan>,
    mapping_time: Duration,
    analyzed: Option<Dfg>,
}

impl CompileReport {
    pub(crate) fn new(
        mapping: Mapping,
        plan: Option<HigherLevelPlan>,
        mapping_time: Duration,
    ) -> Self {
        CompileReport {
            mapping,
            plan,
            mapping_time,
            analyzed: None,
        }
    }

    /// Attaches the optimized DFG produced by the pre-mapping analyzer
    /// (see [`PanoramaConfig::analyze`](crate::PanoramaConfig::analyze)).
    pub(crate) fn with_analysis(mut self, analyzed: Option<Dfg>) -> Self {
        self.analyzed = analyzed;
        self
    }

    /// The final mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The optimized DFG the mapping targets, when the compile ran with
    /// the pre-mapping analyzer enabled. `None` means the mapping targets
    /// the input graph unchanged.
    pub fn analyzed_dfg(&self) -> Option<&Dfg> {
        self.analyzed.as_ref()
    }

    /// The graph [`mapping`](CompileReport::mapping) actually placed and
    /// routed: the analyzer's rewritten graph when analysis ran, the
    /// caller's `original` otherwise. Verification and simulation must use
    /// this graph, not the compile input.
    pub fn mapped_dfg<'a>(&'a self, original: &'a Dfg) -> &'a Dfg {
        self.analyzed.as_ref().unwrap_or(original)
    }

    /// The higher-level plan (`None` for unguided baseline runs).
    pub fn plan(&self) -> Option<&HigherLevelPlan> {
        self.plan.as_ref()
    }

    /// Wall-clock of the lower-level mapping phase.
    pub fn mapping_time(&self) -> Duration {
        self.mapping_time
    }

    /// Total compile time: higher-level phases (if any) plus lower-level
    /// mapping.
    pub fn total_time(&self) -> Duration {
        self.mapping_time
            + self
                .plan
                .as_ref()
                .map(|p| p.clustering_time() + p.cluster_mapping_time())
                .unwrap_or_default()
    }

    /// Serialises the report as the canonical `panorama-compile-v1` JSON
    /// document (`kernel` and `arch` name the inputs, which the report
    /// itself does not carry).
    ///
    /// The document is *deterministic*: wall-clock timings are omitted and
    /// every included field — placement, routes, plan summary, search
    /// counters — is invariant under the portfolio's thread count, so two
    /// compiles of the same inputs serialise byte-identically. The serve
    /// daemon's result cache and its bit-identity guarantee both rest on
    /// this property.
    pub fn to_json(&self, kernel: &str, arch: &str) -> String {
        /// `[[a,b],[c]]`: one inner array per item of `lists`.
        fn index_lists<L: IntoIterator<Item = usize>>(
            w: &mut Writer,
            lists: impl IntoIterator<Item = L>,
        ) {
            w.open();
            for list in lists {
                w.open();
                for index in list {
                    w.uint(index);
                }
                w.close();
            }
            w.close();
        }
        let m = &self.mapping;
        let guided = self.plan.is_some();
        let mut w = Writer::new(&schema::COMPILE);
        w.key("kernel").str(kernel);
        w.key("arch").str(arch);
        let prefix = if guided { "Pan-" } else { "" };
        w.key("mapper").str(&format!("{prefix}{}", m.mapper()));
        w.key("guided").bool(guided);
        w.key("ii").uint(m.ii());
        w.key("mii").uint(m.mii());
        w.key("qom").fixed(m.qom());
        // Only present when the pre-mapping analyzer ran, so analyze-off
        // documents keep their exact historical bytes.
        if let Some(dfg) = &self.analyzed {
            w.key("analyzed_ops").uint(dfg.num_ops());
        }
        let slots = m.assignments().map(|(time, pe)| [time, pe.index()]);
        index_lists(w.key("placement"), slots);
        match m.routes() {
            Some(routes) => {
                let nodes = routes
                    .iter()
                    .map(|r| r.nodes.iter().map(|node| node.index()));
                index_lists(w.key("routes"), nodes);
            }
            None => w.key("routes").null(),
        }
        match &self.plan {
            Some(plan) => {
                w.key("plan").open();
                w.key("clusters").uint(plan.cdg().num_clusters());
                w.key("zeta1").uint(plan.cluster_map().zeta1());
                index_lists(w.key("histogram"), plan.cluster_map().histogram());
                w.close();
            }
            None => w.key("plan").null(),
        }
        let stats = m.stats();
        w.key("stats").open();
        w.key("ii_attempts").uint(stats.ii_attempts);
        w.key("router_iterations").uint(stats.router_iterations);
        w.key("anneal_moves").uint(stats.anneal_moves);
        w.close();
        w.finish()
    }
}
