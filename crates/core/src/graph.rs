//! The input graph: adjacency matrix, features, residency.

use std::sync::{Arc, OnceLock};

use gsampler_engine::{CachePlan, Residency};
use gsampler_ir::GraphStats;
use gsampler_matrix::{Csc, Dense, GraphMatrix, NodeId, SparseMatrix};

use crate::error::Result;
use crate::value::{SharedDense, Value};

/// An input graph for sampling: adjacency (stored CSC, like the paper's
/// systems — column `v` holds the in-edges of node `v`), optional node
/// features, and where the structure lives relative to the device
/// (graphs larger than device memory stay in host memory behind UVA).
#[derive(Debug, Clone)]
pub struct Graph {
    /// Human-readable name (dataset tag).
    pub name: String,
    /// The adjacency matrix in identity ID space.
    pub matrix: GraphMatrix,
    /// Optional `N × d` node feature matrix, as the shared handle programs
    /// read it through (it dereferences to the [`Dense`]).
    pub features: Option<SharedDense>,
    /// Where the structure lives (device vs UVA host memory, the latter
    /// possibly behind a [`CachePlan`]).
    pub residency: Residency,
    /// The pinned hot set when the graph is partially resident: which
    /// adjacency lists live on the device. `residency` carries the
    /// byte-weighted summary for the cost model; this map is what the
    /// dispatcher consults to count *actual* per-batch hits.
    cache_plan: Option<Arc<CachePlan>>,
    /// Executor value for the adjacency matrix, built on first compile.
    /// The CSC buffers are large; cloning them per compile would dwarf a
    /// plan-database hit, so every sampler compiled against this graph
    /// shares one `Arc`. Mutating `matrix` after a compile is not
    /// supported (the cached value would go stale).
    matrix_value: OnceLock<Arc<Value>>,
}

impl Graph {
    /// Wrap a CSC adjacency matrix.
    pub(crate) fn from_csc(name: impl Into<String>, csc: Csc) -> Graph {
        Graph {
            name: name.into(),
            matrix: GraphMatrix::from_sparse(SparseMatrix::Csc(csc)),
            features: None,
            residency: Residency::Device,
            cache_plan: None,
            matrix_value: OnceLock::new(),
        }
    }

    /// Build from an edge list of `(src, dst, weight)`; edge `(u, v)`
    /// appears in column `v` (an in-edge of `v`).
    pub fn from_edges(
        name: impl Into<String>,
        num_nodes: usize,
        edges: &[(NodeId, NodeId, f32)],
        weighted: bool,
    ) -> Result<Graph> {
        let mut cols: Vec<Vec<(NodeId, f32)>> = vec![Vec::new(); num_nodes];
        for &(u, v, w) in edges {
            cols[v as usize].push((u, w));
        }
        let csc = Csc::from_adjacency(num_nodes, &cols, weighted)?;
        Ok(Graph::from_csc(name, csc))
    }

    /// Attach node features (must have `num_nodes` rows).
    ///
    /// # Panics
    ///
    /// Panics if the feature row count does not match the node count.
    pub fn with_features(mut self, features: Dense) -> Graph {
        assert_eq!(
            features.nrows(),
            self.num_nodes(),
            "feature rows must match node count"
        );
        self.features = Some(SharedDense(Arc::new(Value::Dense(features))));
        self
    }

    /// Set the structure residency (UVA for graphs exceeding device
    /// memory, with a cache hit rate reflecting access skew). Drops any
    /// attached cache plan: a blended-rate residency and a membership map
    /// must not disagree.
    pub fn with_residency(mut self, residency: Residency) -> Graph {
        self.residency = residency;
        self.cache_plan = None;
        self
    }

    /// Make the graph partially resident behind `plan`: the plan's pinned
    /// rows are served from device memory, tail rows are charged the
    /// PCIe+transaction-padding term. Sets the summary residency to
    /// [`Residency::host_uva`] of the plan's predicted hit rate and keeps
    /// the membership map for per-batch hit counting at dispatch.
    pub fn with_cache_plan(mut self, plan: CachePlan) -> Graph {
        self.residency = Residency::host_uva(plan.hit_rate);
        self.cache_plan = Some(Arc::new(plan));
        self
    }

    /// The pinned-hot-set plan, when the graph is partially resident.
    pub fn cache_plan(&self) -> Option<&CachePlan> {
        self.cache_plan.as_deref()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.matrix.shape().0
    }

    /// Number of stored (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.matrix.nnz()
    }

    /// Average in-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Shared executor value for the adjacency matrix (deep-cloned from
    /// `matrix` exactly once, then reused by every compile).
    pub fn matrix_value(&self) -> Arc<Value> {
        self.matrix_value
            .get_or_init(|| Arc::new(Value::Matrix(self.matrix.clone())))
            .clone()
    }

    /// Coarse statistics for shape estimation.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            num_nodes: self.num_nodes(),
            num_edges: self.num_edges(),
            feature_dim: self.features.as_ref().map_or(0, |f| f.ncols()),
        }
    }

    /// Bytes of adjacency *structure* — the quantity the cache planner
    /// can pin on the device (feature storage is never cached).
    pub fn structure_bytes(&self) -> usize {
        self.matrix.data.size_bytes()
    }

    /// Approximate resident bytes of the whole graph — structure plus
    /// feature storage (for reporting; use [`Graph::structure_bytes`] for
    /// cache budgets).
    pub fn size_bytes(&self) -> usize {
        self.structure_bytes() + self.features.as_ref().map_or(0, |f| f.size_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_in_edge_columns() {
        let g =
            Graph::from_edges("toy", 4, &[(0, 1, 1.0), (2, 1, 0.5), (3, 0, 2.0)], true).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        // Column 1 (in-edges of node 1) holds rows {0, 2}.
        let csc = g.matrix.data.as_csc().unwrap();
        assert_eq!(csc.col_rows(1), &[0, 2]);
        assert!((g.avg_degree() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stats_include_feature_dim() {
        let g = Graph::from_edges("toy", 3, &[(0, 1, 1.0)], false)
            .unwrap()
            .with_features(Dense::zeros(3, 16));
        let s = g.stats();
        assert_eq!(s.num_nodes, 3);
        assert_eq!(s.feature_dim, 16);
    }

    #[test]
    fn cache_plan_sets_partial_residency_and_is_dropped_on_override() {
        let g = Graph::from_edges("toy", 4, &[(0, 1, 1.0), (2, 1, 0.5), (3, 0, 2.0)], true)
            .unwrap()
            .with_features(Dense::zeros(4, 8));
        // size_bytes reports structure + features; only structure is
        // cacheable.
        assert_eq!(g.size_bytes(), g.structure_bytes() + 4 * 8 * 4);
        let degrees = g.matrix.data.col_degrees();
        let g = g.with_cache_plan(gsampler_engine::plan_cache(&degrees, u64::MAX));
        let plan = g.cache_plan().expect("plan attached");
        assert_eq!(g.residency, Residency::host_uva(plan.hit_rate));
        assert!((plan.hit_rate - 1.0).abs() < 1e-12);
        assert!(plan.is_cached(0) && plan.is_cached(1));
        // Overriding the residency drops the (now inconsistent) plan.
        let g = g.with_residency(Residency::Device);
        assert!(g.cache_plan().is_none());
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn mismatched_features_panic() {
        let _ = Graph::from_edges("toy", 3, &[], false)
            .unwrap()
            .with_features(Dense::zeros(5, 4));
    }
}
