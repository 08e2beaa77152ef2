//! The cluster-mapping driver ([`map_clusters`], Algorithm 1 lines 6–9),
//! its two stages ([`assign_rows`], [`assign_columns`]) and their results
//! ([`RowAssignment`], [`ClusterMap`]).

use crate::{column_scatter, row_scatter};
use panorama_cluster::{Cdg, CdgNodeId};
use panorama_ilp::{SolveError, SolveStats};
use std::error::Error;
use std::fmt;

/// Accumulated ILP solver effort across a cluster mapping's scattering
/// solves — the split&push statistics surfaced as trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpEffort {
    /// Individual ILP models solved (matching-cut splits + row placements).
    pub solves: u64,
    /// Branch & bound nodes explored in total.
    pub bnb_nodes: u64,
    /// Simplex pivots across every LP relaxation.
    pub simplex_pivots: u64,
    /// Presolve bound tightenings applied.
    pub presolve_reductions: u64,
    /// Solves that ended on the node budget and handed back their
    /// incumbent instead of a proven optimum.
    pub node_limited: u64,
}

impl IlpEffort {
    /// Folds one solve's counters into the running totals.
    pub fn absorb(&mut self, stats: SolveStats) {
        self.bnb_nodes += stats.nodes;
        self.simplex_pivots += stats.pivots;
        self.presolve_reductions += stats.presolve_reductions;
    }

    /// The effort spent since `earlier`, a snapshot of the same running
    /// totals (e.g. a cluster map's row-wise share: its
    /// [`ClusterMap::ilp_effort`] since its [`RowAssignment::ilp_effort`]).
    pub fn since(self, earlier: IlpEffort) -> IlpEffort {
        IlpEffort {
            solves: self.solves - earlier.solves,
            bnb_nodes: self.bnb_nodes - earlier.bnb_nodes,
            simplex_pivots: self.simplex_pivots - earlier.simplex_pivots,
            presolve_reductions: self.presolve_reductions - earlier.presolve_reductions,
            node_limited: self.node_limited - earlier.node_limited,
        }
    }
}

/// Tunables for the scattering ILPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterConfig {
    /// Highest ζ value tried before giving up (Algorithm 1 escalates
    /// ζ1/ζ2 from 1 until the ILP turns feasible).
    pub max_zeta: u32,
}

impl Default for ScatterConfig {
    fn default() -> Self {
        ScatterConfig { max_zeta: 16 }
    }
}

/// Error produced by cluster mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// Fewer CDG nodes than cluster rows: column-wise scattering cannot
    /// fill every row.
    TooFewClusters {
        /// CDG node count.
        k: usize,
        /// Cluster rows required.
        rows: usize,
    },
    /// Column scattering stayed infeasible up to the ζ cap.
    ZetaExhausted {
        /// The cap that was reached.
        max_zeta: u32,
    },
    /// Row scattering admitted no assignment.
    RowScatterInfeasible,
    /// Underlying ILP solver breakdown.
    Solver(SolveError),
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::TooFewClusters { k, rows } => {
                write!(f, "{k} CDG nodes cannot fill {rows} cluster rows")
            }
            PlaceError::ZetaExhausted { max_zeta } => {
                write!(f, "column scattering infeasible up to zeta {max_zeta}")
            }
            PlaceError::RowScatterInfeasible => write!(f, "row scattering is infeasible"),
            PlaceError::Solver(e) => write!(f, "ILP solver failed: {e}"),
        }
    }
}

impl Error for PlaceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlaceError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

/// A many-to-many assignment of CDG nodes to CGRA cluster-grid cells.
///
/// Produced by [`map_clusters`]; consumed by the lower-level mappers as a
/// placement restriction (each DFG node may only use FUs inside its
/// cluster's assigned cells) and by the experiment harness for the
/// Table 1a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    rows: usize,
    cols: usize,
    /// Cluster row per CDG node.
    row_of: Vec<usize>,
    /// Occupied cluster columns per CDG node (sorted, contiguous).
    cols_of: Vec<Vec<usize>>,
    zeta1: u32,
    zeta2: u32,
    effort: IlpEffort,
}

impl ClusterMap {
    /// `(R, C)` cluster-grid dimensions this map targets.
    pub fn grid(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Cluster row assigned to `node` by column-wise scattering.
    pub fn row_of(&self, node: CdgNodeId) -> usize {
        self.row_of[node.index()]
    }

    /// Cluster columns occupied by `node` (sorted).
    pub fn columns_of(&self, node: CdgNodeId) -> &[usize] {
        &self.cols_of[node.index()]
    }

    /// All cluster-grid cells `(row, col)` occupied by `node`.
    pub fn cells_of(&self, node: CdgNodeId) -> Vec<(usize, usize)> {
        let r = self.row_of(node);
        self.columns_of(node).iter().map(|&c| (r, c)).collect()
    }

    /// CDG nodes occupying cell `(row, col)`.
    pub fn nodes_at(&self, row: usize, col: usize) -> Vec<CdgNodeId> {
        (0..self.row_of.len())
            .filter(|&i| self.row_of[i] == row && self.cols_of[i].contains(&col))
            .map(CdgNodeId::from_index)
            .collect()
    }

    /// ζ1 used by the accepted column scattering.
    pub fn zeta1(&self) -> u32 {
        self.zeta1
    }

    /// ζ2 used by the accepted column scattering.
    pub fn zeta2(&self) -> u32 {
        self.zeta2
    }

    /// ILP solver effort spent producing this map (every ζ escalation
    /// attempt included).
    pub fn ilp_effort(&self) -> IlpEffort {
        self.effort
    }

    /// The paper's tie-breaker between candidate cluster mappings: lower
    /// ζ totals mean fewer permitted diagonal edges, i.e. lower
    /// inter-cluster routing complexity.
    pub fn routing_complexity(&self) -> u32 {
        self.zeta1 + self.zeta2
    }

    /// Per-cell CDG-node counts, row-major — the Table 1a "Cluster Mapping
    /// Result" histogram (e.g. `[2,2,1,1],[2,1,1,2],…`).
    pub fn histogram(&self) -> Vec<Vec<usize>> {
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.nodes_at(r, c).len()).collect())
            .collect()
    }

    /// Counts CDG edges whose endpoints are mapped to diagonally-offset
    /// cells (both row and column differ, no shared row/column adjacency).
    /// These are the edges the matching-cut constraints try to avoid.
    pub fn diagonal_edges(&self, cdg: &Cdg) -> usize {
        cdg.edges()
            .iter()
            .filter(|e| {
                let ca = self.cells_of(e.a);
                let cb = self.cells_of(e.b);
                // minimal (Δrow, Δcol) over assigned cell pairs
                let mut best: Option<(usize, usize)> = None;
                for &(ra, caa) in &ca {
                    for &(rb, cbb) in &cb {
                        let d = (ra.abs_diff(rb), caa.abs_diff(cbb));
                        let better = match best {
                            None => true,
                            Some(b) => d.0 + d.1 < b.0 + b.1,
                        };
                        if better {
                            best = Some(d);
                        }
                    }
                }
                matches!(best, Some((dr, dc)) if dr >= 1 && dc >= 1)
            })
            .count()
    }
}

/// Stage 1 of cluster mapping (paper Algorithm 1, lines 6–8): the row of
/// every CDG node after column-wise scattering with ζ escalation, the ζ
/// that produced it, and the ILP effort spent on the way.
///
/// ζ fixes the [routing complexity](RowAssignment::routing_complexity),
/// so candidates can be ranked before any of them is row-scattered;
/// [`assign_columns`] turns the assignment into a [`ClusterMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowAssignment {
    rows: usize,
    row_of: Vec<usize>,
    zeta: u32,
    effort: IlpEffort,
}

impl RowAssignment {
    /// ζ1 used by the accepted column scattering.
    pub fn zeta1(&self) -> u32 {
        self.zeta
    }

    /// ζ2 used by the accepted column scattering.
    pub fn zeta2(&self) -> u32 {
        self.zeta
    }

    /// The routing complexity of every cluster map built from this
    /// assignment (see [`ClusterMap::routing_complexity`]).
    pub fn routing_complexity(&self) -> u32 {
        self.zeta1() + self.zeta2()
    }

    /// ILP solver effort of column-wise scattering, every ζ escalation
    /// attempt included.
    pub fn ilp_effort(&self) -> IlpEffort {
        self.effort
    }
}

/// Maps a CDG onto an `rows × cols` cluster grid: column-wise scattering
/// with ζ escalation ([`assign_rows`]), then row-wise scattering
/// ([`assign_columns`]) (paper Algorithm 1, lines 6–9).
///
/// # Errors
///
/// As for [`assign_rows`], then as for [`assign_columns`].
pub fn map_clusters(
    cdg: &Cdg,
    rows: usize,
    cols: usize,
    config: &ScatterConfig,
) -> Result<ClusterMap, PlaceError> {
    assign_columns(cdg, assign_rows(cdg, rows, config)?, cols)
}

/// Stage 1 of [`map_clusters`]: column-wise scattering with ζ escalation
/// gives every CDG node one of `rows` cluster rows.
///
/// # Errors
///
/// * [`PlaceError::TooFewClusters`] when `cdg` has fewer nodes than
///   `rows`;
/// * [`PlaceError::ZetaExhausted`] when no ζ value up to the configured
///   cap makes column scattering feasible;
/// * [`PlaceError::Solver`] on solver breakdown.
pub fn assign_rows(
    cdg: &Cdg,
    rows: usize,
    config: &ScatterConfig,
) -> Result<RowAssignment, PlaceError> {
    // ζ escalation: a solution can be *feasible* at a low ζ yet badly
    // unbalanced — star-shaped CDGs admit only single-leaf matching cuts.
    // Keep escalating while the heaviest row exceeds 1.5× its fair share,
    // and fall back to the best-balanced assignment seen.
    let fair = cdg.total_dfg_nodes() as f64 / rows as f64;
    let mut best: Option<(f64, u32, Vec<usize>)> = None;
    let mut effort = IlpEffort::default();
    for zeta in 1..=config.max_zeta {
        let Some(row_of) = column_scatter(cdg, rows, zeta, zeta, &mut effort)? else {
            continue;
        };
        let mut loads = vec![0usize; rows];
        for n in cdg.cluster_ids() {
            loads[row_of[n.index()]] += cdg.size(n);
        }
        let score = *loads.iter().max().expect("rows >= 1") as f64 / fair.max(1.0);
        let better = best.as_ref().is_none_or(|(s, _, _)| score < *s);
        if better {
            best = Some((score, zeta, row_of));
        }
        if score <= 1.5 {
            break;
        }
    }
    let Some((_, zeta, row_of)) = best else {
        return Err(PlaceError::ZetaExhausted {
            max_zeta: config.max_zeta,
        });
    };
    Ok(RowAssignment {
        rows,
        row_of,
        zeta,
        effort,
    })
}

/// Stage 2 of [`map_clusters`]: row-wise scattering spreads each row of
/// `rows` over `cols` cluster columns. The map's
/// [`ilp_effort`](ClusterMap::ilp_effort) counts both stages.
///
/// # Errors
///
/// [`PlaceError::RowScatterInfeasible`] / [`PlaceError::Solver`] from
/// row-wise scattering.
pub fn assign_columns(
    cdg: &Cdg,
    rows: RowAssignment,
    cols: usize,
) -> Result<ClusterMap, PlaceError> {
    let RowAssignment {
        rows,
        row_of,
        zeta,
        mut effort,
    } = rows;
    let cols_of = row_scatter(cdg, &row_of, rows, cols, &mut effort)?;
    Ok(ClusterMap {
        rows,
        cols,
        row_of,
        cols_of,
        zeta1: zeta,
        zeta2: zeta,
        effort,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_cluster::Partition;
    use panorama_dfg::{Dfg, DfgBuilder, OpKind};

    fn grid_cdg() -> (Dfg, Cdg) {
        // 2×2 lattice of 4 groups (sizes 4 each), edges along the lattice
        let mut b = DfgBuilder::new("lattice");
        let mut groups = Vec::new();
        for g in 0..4 {
            let nodes: Vec<_> = (0..4)
                .map(|i| b.op(OpKind::Add, format!("g{g}_{i}")))
                .collect();
            for w in nodes.windows(2) {
                b.data(w[0], w[1]);
            }
            groups.push(nodes);
        }
        // lattice edges: 0-1, 2-3 (horizontal), 0-2, 1-3 (vertical)
        b.data(*groups[0].last().unwrap(), groups[1][0]);
        b.data(*groups[2].last().unwrap(), groups[3][0]);
        b.data(*groups[0].last().unwrap(), groups[2][0]);
        b.data(*groups[1].last().unwrap(), groups[3][0]);
        let dfg = b.build().unwrap();
        let labels: Vec<usize> = (0..4).flat_map(|g| std::iter::repeat_n(g, 4)).collect();
        let cdg = Cdg::new(&dfg, &Partition::new(labels, 4));
        (dfg, cdg)
    }

    /// Scaled idctrows cut into 12 contiguous op-index blocks: a fixed
    /// partition, so only the ILP stack can move its cluster map.
    fn idctrows_blocks() -> Cdg {
        use panorama_dfg::{kernels, KernelId, KernelScale};
        let dfg = kernels::generate(KernelId::IdctRows, KernelScale::Scaled);
        let (n, k) = (dfg.num_ops(), 12);
        let labels: Vec<usize> = (0..n).map(|i| i * k / n).collect();
        Cdg::new(&dfg, &Partition::new(labels, k))
    }

    #[test]
    fn assign_columns_after_assign_rows_is_map_clusters() {
        let config = ScatterConfig::default();
        let (_, lattice) = grid_cdg();
        let idctrows = idctrows_blocks();
        for (cdg, rows, cols) in [
            (&lattice, 2, 2),
            (&lattice, 1, 4),
            (&lattice, 4, 1),
            (&idctrows, 4, 4),
            (&idctrows, 2, 2),
        ] {
            let stage1 = assign_rows(cdg, rows, &config).unwrap();
            let map = assign_columns(cdg, stage1.clone(), cols).unwrap();
            let eager = map_clusters(cdg, rows, cols, &config).unwrap();
            assert_eq!(map.render(), eager.render(), "{rows}x{cols}");
            assert_eq!(map.ilp_effort(), eager.ilp_effort(), "{rows}x{cols}");
            assert_eq!(map, eager);
            // stage 1 already fixes the rows and the routing complexity
            assert_eq!(stage1.routing_complexity(), map.routing_complexity());
            for n in cdg.cluster_ids() {
                assert_eq!(stage1.row_of[n.index()], map.row_of(n));
            }
            let row_wise = map.ilp_effort().since(stage1.ilp_effort());
            assert_eq!(
                row_wise.solves + stage1.ilp_effort().solves,
                map.ilp_effort().solves
            );
        }
    }

    #[test]
    fn lattice_maps_onto_2x2_without_diagonals() {
        let (_, cdg) = grid_cdg();
        let map = map_clusters(&cdg, 2, 2, &ScatterConfig::default()).unwrap();
        assert_eq!(map.grid(), (2, 2));
        // every cell occupied by exactly one CDG node
        let hist = map.histogram();
        assert_eq!(hist, vec![vec![1, 1], vec![1, 1]]);
        assert_eq!(map.diagonal_edges(&cdg), 0, "lattice needs no diagonals");
        assert_eq!(map.routing_complexity(), 2); // zeta 1 + 1
    }

    #[test]
    fn cells_and_nodes_are_inverse() {
        let (_, cdg) = grid_cdg();
        let map = map_clusters(&cdg, 2, 2, &ScatterConfig::default()).unwrap();
        for n in cdg.cluster_ids() {
            for (r, c) in map.cells_of(n) {
                assert!(map.nodes_at(r, c).contains(&n));
            }
        }
    }

    #[test]
    fn imbalanced_cdg_produces_many_to_many() {
        // one giant group + three small ones on a 2×2 grid: the giant one
        // must span multiple columns (Figure 4)
        let mut b = DfgBuilder::new("imbalanced");
        let mut labels = Vec::new();
        let big: Vec<_> = (0..12)
            .map(|i| b.op(OpKind::Add, format!("b{i}")))
            .collect();
        for w in big.windows(2) {
            b.data(w[0], w[1]);
        }
        labels.extend(std::iter::repeat_n(0, 12));
        let mut prev = *big.last().unwrap();
        for g in 1..4 {
            let nodes: Vec<_> = (0..2)
                .map(|i| b.op(OpKind::Mul, format!("s{g}_{i}")))
                .collect();
            b.data(prev, nodes[0]);
            b.data(nodes[0], nodes[1]);
            prev = nodes[1];
            labels.extend(std::iter::repeat_n(g, 2));
        }
        let dfg = b.build().unwrap();
        let cdg = Cdg::new(&dfg, &Partition::new(labels, 4));
        let map = map_clusters(&cdg, 2, 2, &ScatterConfig::default()).unwrap();
        // 18 nodes over 4 cells → avg 4.5; the 12-node cluster spans 2 cols
        assert_eq!(map.columns_of(CdgNodeId::from_index(0)).len(), 2);
        // and some small clusters share a cell
        let hist = map.histogram();
        let max_share = hist.iter().flatten().max().copied().unwrap();
        assert!(max_share >= 2, "histogram {hist:?}");
    }

    /// Pins the search of the scattering ILPs — the dual simplex's pivot
    /// rules, the warm starts and the branch & bound tree: the effort
    /// counters and the assignment of one matching-cut split sequence at
    /// fixed ζ and of one full `map_clusters` call on a 4×4 cluster grid.
    /// The partition is fixed (contiguous op-index blocks), so this test
    /// moves only when the ILP stack changes a pivot choice, a tie-break,
    /// a rounding or the basis a node starts from.
    #[test]
    fn scattering_search_is_pinned() {
        let cdg = idctrows_blocks();
        let config = ScatterConfig::default();

        let mut effort = IlpEffort::default();
        let row_of = column_scatter(&cdg, 4, 2, 2, &mut effort).unwrap();
        assert_eq!(row_of, Some(vec![1, 0, 1, 0, 2, 0, 3, 1, 2, 3, 3, 2]));
        let pinned = |solves, bnb_nodes, simplex_pivots| IlpEffort {
            solves,
            bnb_nodes,
            simplex_pivots,
            presolve_reductions: 0,
            node_limited: 0,
        };
        assert_eq!(effort, pinned(3, 46, 138));

        let map = map_clusters(&cdg, 4, 4, &config).unwrap();
        assert_eq!(
            map.render(),
            "cluster map 4x4 (zeta 1/1)\n\
             \x20  {C3,C9}  {C3,C9}     {C8}     {C8}\n\
             \x20     {C4}     {C4} {C5,C11} {C5,C11}\n\
             \x20     {C7}     {C7}     {C6}     {C6}\n\
             \x20 {C2,C10} {C2,C10}  {C0,C1}  {C0,C1}\n"
        );
        assert_eq!(map.ilp_effort(), pinned(7, 179, 846));
    }

    /// Pins the cluster map of every scaled kernel's most balanced
    /// partition on the 2×2 grid of the 8×8 preset (k ∈ 2..=8, as the
    /// pipeline explores it). Together with the assignment asserts above
    /// this is the in-tree proof that a change to the ILP stack moved
    /// effort and nothing else.
    #[test]
    fn scaled_suite_cluster_maps_are_pinned() {
        use panorama_cluster::{explore_partitions, top_balanced, SpectralConfig};
        use panorama_dfg::{kernels, KernelId, KernelScale};

        let pinned: [&str; 12] = [
            "cluster map 2x2 (zeta 1/1) | {C1} {C1} | {C0,C2} {C0,C2}",
            "cluster map 2x2 (zeta 1/1) | {C0,C1} {C0,C1} | {C2} {C2}",
            "cluster map 2x2 (zeta 1/1) | {C1} {C1} | {C0,C2} {C0,C2}",
            "cluster map 2x2 (zeta 4/4) | {C0} {C0} | {C1} {C2,C3,C4}",
            "cluster map 2x2 (zeta 1/1) | {C0,C2,C3} {C0} | {C1} {C1}",
            "cluster map 2x2 (zeta 3/3) | {C0,C1,C2,C6} {C0} | {C3,C5} {C4}",
            "cluster map 2x2 (zeta 1/1) | {C0,C1} {C0} | {C2} {C3,C4}",
            "cluster map 2x2 (zeta 2/2) | {C0,C5} {C1,C4,C6} | {C2} {C3}",
            "cluster map 2x2 (zeta 2/2) | {C1,C2} {C2} | {C0,C3,C4} {C0}",
            "cluster map 2x2 (zeta 1/1) | {C1} {C1} | {C0,C2} {C0,C2}",
            "cluster map 2x2 (zeta 1/1) | {C0,C1} {C0,C1} | {C2} {C2}",
            "cluster map 2x2 (zeta 3/3) | {C0} {C0} | {C1,C3} {C2}",
        ];
        for (id, want) in KernelId::ALL.into_iter().zip(pinned) {
            let dfg = kernels::generate(id, KernelScale::Scaled);
            let parts = explore_partitions(&dfg, 2, 8, &SpectralConfig::default()).unwrap();
            let (_, part) = top_balanced(&parts, 1)[0];
            let cdg = Cdg::new(&dfg, part);
            let map = map_clusters(&cdg, 2, 2, &ScatterConfig::default()).unwrap();
            // one line per kernel: column padding squeezed, rows joined by " | "
            let squeezed: Vec<String> = map
                .render()
                .lines()
                .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
                .collect();
            assert_eq!(squeezed.join(" | "), want, "{}", id.name());
        }
    }

    #[test]
    fn error_displays() {
        assert!(PlaceError::TooFewClusters { k: 2, rows: 4 }
            .to_string()
            .contains("cannot fill"));
        assert!(PlaceError::ZetaExhausted { max_zeta: 8 }
            .to_string()
            .contains("zeta 8"));
    }
}

impl ClusterMap {
    /// Renders the cluster grid as text: each cell lists the CDG nodes it
    /// hosts (the Figure 4 picture).
    ///
    /// # Examples
    ///
    /// Cells render like `{C0,C3}`; empty cells as `{}`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let mut row = Vec::with_capacity(self.cols);
            for c in 0..self.cols {
                let names: Vec<String> = self
                    .nodes_at(r, c)
                    .iter()
                    .map(|n| format!("C{}", n.index()))
                    .collect();
                row.push(format!("{{{}}}", names.join(",")));
            }
            cells.push(row);
        }
        let width = cells
            .iter()
            .flatten()
            .map(std::string::String::len)
            .max()
            .unwrap_or(2);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cluster map {}x{} (zeta {}/{})",
            self.rows, self.cols, self.zeta1, self.zeta2
        );
        for row in &cells {
            let mut line = String::from("  ");
            for cell in row {
                line.push_str(&format!("{cell:>width$} "));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use panorama_cluster::Partition;
    use panorama_dfg::{DfgBuilder, OpKind};

    #[test]
    fn render_lists_every_node() {
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
        let pic = map.render();
        for c in 0..4 {
            assert!(pic.contains(&format!("C{c}")), "missing C{c} in:\n{pic}");
        }
        assert!(pic.starts_with("cluster map 2x2"));
    }
}
