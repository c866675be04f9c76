//! Dataset presets mirroring the paper's evaluation graphs (Table 6).
//!
//! | paper graph     | nodes | edges | here (default scale)        |
//! |-----------------|-------|-------|------------------------------|
//! | LiveJournal     | 5M    | 69M   | 50k nodes, ~690k edges       |
//! | Ogbn-Products   | 2.5M  | 126M  | 25k nodes, ~1.26M edges      |
//! | Ogbn-Papers100M | 111M  | 1.6B  | 111k nodes, ~1.6M edges, UVA |
//! | Friendster      | 65M   | 1.8B  | 65k nodes, ~1.8M edges, UVA  |
//!
//! Each preset preserves the property the evaluation depends on: PD has
//! the largest average degree (~50), LJ the social-network skew, PP/FS
//! exceed device memory and run partially resident — a degree-skew hot
//! set pinned on device, tail lists behind UVA — and FS samples 1% of
//! nodes as frontiers.

use gsampler_core::{Graph, Residency};
use gsampler_engine::plan_cache;
use gsampler_matrix::NodeId;

use crate::features::{random_edge_weights, random_features};
use crate::rmat::{rmat_edges, RmatParams};

/// The four evaluation graphs plus a tiny preset for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// LiveJournal-shaped: directed social graph, avg degree ~14.
    LiveJournal,
    /// Ogbn-Products-shaped: undirected (symmetrized), avg degree ~50,
    /// the heaviest per-frontier compute.
    OgbnProducts,
    /// Ogbn-Papers100M-shaped: largest node count, UVA-resident.
    OgbnPapers,
    /// Friendster-shaped: UVA-resident, frontiers are 1% of nodes.
    Friendster,
    /// A small deterministic graph for tests.
    Tiny,
}

impl DatasetKind {
    /// All four paper datasets in the paper's column order.
    pub const PAPER: [DatasetKind; 4] = [
        DatasetKind::LiveJournal,
        DatasetKind::OgbnProducts,
        DatasetKind::OgbnPapers,
        DatasetKind::Friendster,
    ];

    /// Paper abbreviation (LJ/PD/PP/FS).
    pub fn abbr(&self) -> &'static str {
        match self {
            DatasetKind::LiveJournal => "LJ",
            DatasetKind::OgbnProducts => "PD",
            DatasetKind::OgbnPapers => "PP",
            DatasetKind::Friendster => "FS",
            DatasetKind::Tiny => "tiny",
        }
    }
}

/// A generated dataset: the graph plus its experiment conventions.
pub struct Dataset {
    /// The graph (with features and residency applied).
    pub graph: Graph,
    /// Which preset this is.
    pub kind: DatasetKind,
    /// The frontier seeds an epoch iterates over.
    pub frontiers: Vec<NodeId>,
}

impl Dataset {
    /// Generate a preset at `scale` (1.0 = the default reduced size;
    /// smaller values shrink further for quick runs). Deterministic per
    /// `seed`.
    pub fn generate(kind: DatasetKind, scale: f64, seed: u64) -> Dataset {
        let sc = |x: usize| ((x as f64 * scale) as usize).max(64);
        let (nodes, target_edges, params, undirected, residency) = match kind {
            DatasetKind::LiveJournal => (
                sc(50_000),
                sc(690_000),
                RmatParams::social(),
                false,
                Residency::Device,
            ),
            DatasetKind::OgbnProducts => (
                sc(25_000),
                sc(630_000), // doubled by symmetrization -> ~1.26M
                RmatParams::mild(),
                true,
                Residency::Device,
            ),
            // PP/FS exceed device memory: the residency is HostUva and the
            // cache hit rate is *derived* below from the generated degree
            // distribution and the leftover device memory (the paper's
            // future-work caching strategy, implemented in
            // `gsampler_engine::cache`). The placeholder set here is
            // replaced after generation.
            DatasetKind::OgbnPapers => (
                sc(111_000),
                sc(1_600_000),
                RmatParams::social(),
                false,
                Residency::HostUva {
                    cache_hit_rate: 0.0,
                },
            ),
            DatasetKind::Friendster => (
                sc(65_000),
                sc(900_000), // doubled by symmetrization -> ~1.8M
                RmatParams::social(),
                true,
                Residency::HostUva {
                    cache_hit_rate: 0.0,
                },
            ),
            DatasetKind::Tiny => (256, 2_048, RmatParams::mild(), true, Residency::Device),
        };

        let mut edges = rmat_edges(nodes, target_edges, params, seed);
        if undirected {
            let mut sym: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len() * 2);
            for &(u, v) in &edges {
                sym.push((u, v));
                sym.push((v, u));
            }
            sym.sort_unstable();
            sym.dedup();
            edges = sym;
        }
        let weights = random_edge_weights(edges.len(), seed ^ 0xBEEF);
        let weighted: Vec<(NodeId, NodeId, f32)> = edges
            .iter()
            .zip(&weights)
            .map(|(&(u, v), &w)| (u, v, w))
            .collect();

        let feature_dim = match kind {
            DatasetKind::OgbnProducts => 100,
            DatasetKind::Tiny => 16,
            _ => 128,
        };
        let mut graph = Graph::from_edges(kind.abbr(), nodes, &weighted, true)
            .expect("generated edges are in bounds")
            .with_features(random_features(nodes, feature_dim, seed ^ 0xFEED))
            .with_residency(residency);
        if matches!(residency, Residency::HostUva { .. }) {
            // Device memory left for adjacency caching: the paper's 16 GB
            // card holds roughly a third of PP/FS's *structure*. The
            // budget must be derived from structure bytes — features are
            // never pinned, and sizing the cache off the feature-inclusive
            // footprint would hand the planner several times the memory a
            // real card has free. Attach the full plan (not just a
            // blended rate) so dispatch can count actual per-batch hits
            // against the pinned set.
            let degrees = graph.matrix.data.col_degrees();
            let budget = (graph.structure_bytes() as f64 * 0.35) as u64;
            graph = graph.with_cache_plan(plan_cache(&degrees, budget));
        }
        let graph = graph;

        // FS samples a fraction of nodes as frontiers (1% in the paper).
        // At our reduced scale we keep 10% so the epoch still spans many
        // mini-batches — preserving the paper's *batch count* regime,
        // which super-batching and occupancy effects depend on, matters
        // more than preserving the literal fraction.
        let frontiers: Vec<NodeId> = match kind {
            DatasetKind::Friendster => (0..nodes).step_by(10).map(|v| v as NodeId).collect(),
            _ => (0..nodes as NodeId).collect(),
        };

        Dataset {
            graph,
            kind,
            frontiers,
        }
    }

    /// The tiny test preset at default scale.
    pub fn tiny(seed: u64) -> Dataset {
        Dataset::generate(DatasetKind::Tiny, 1.0, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_has_expected_shape() {
        let d = Dataset::tiny(1);
        assert_eq!(d.kind.abbr(), "tiny");
        assert_eq!(d.graph.num_nodes(), 256);
        assert!(d.graph.num_edges() > 500);
        assert!(d.graph.features.is_some());
        assert_eq!(d.frontiers.len(), 256);
    }

    #[test]
    fn products_preset_has_highest_degree() {
        let scale = 0.05;
        let pd = Dataset::generate(DatasetKind::OgbnProducts, scale, 2);
        let lj = Dataset::generate(DatasetKind::LiveJournal, scale, 2);
        assert!(
            pd.graph.avg_degree() > lj.graph.avg_degree(),
            "PD {} !> LJ {}",
            pd.graph.avg_degree(),
            lj.graph.avg_degree()
        );
    }

    #[test]
    fn large_presets_are_partially_resident_with_a_structure_budget_plan() {
        let pp = Dataset::generate(DatasetKind::OgbnPapers, 0.02, 3);
        let plan = pp.graph.cache_plan().expect("PP derives a cache plan");
        // The 35% budget is over *structure* bytes, not the feature-
        // inclusive footprint: the pinned set must fit it.
        let budget = (pp.graph.structure_bytes() as f64 * 0.35) as u64;
        assert!(plan.bytes_used <= budget, "{} > {budget}", plan.bytes_used);
        assert!(plan.cached_nodes > 0 && plan.cached_nodes < pp.graph.num_nodes());
        // Degree skew makes the byte-weighted hit rate exceed the raw
        // fraction of the structure that fits.
        assert!(
            plan.hit_rate > 0.35 && plan.hit_rate < 1.0,
            "{}",
            plan.hit_rate
        );
        assert!((1.0 - pp.graph.residency.pcie_fraction() - plan.hit_rate).abs() < 1e-12);
        let lj = Dataset::generate(DatasetKind::LiveJournal, 0.02, 3);
        assert!(matches!(lj.graph.residency, Residency::Device));
        assert!(lj.graph.cache_plan().is_none());
    }

    #[test]
    fn friendster_frontiers_are_a_fraction() {
        let fs = Dataset::generate(DatasetKind::Friendster, 0.1, 4);
        let frac = fs.frontiers.len() as f64 / fs.graph.num_nodes() as f64;
        assert!((frac - 0.10).abs() < 0.01, "frontier fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(DatasetKind::LiveJournal, 0.02, 9);
        let b = Dataset::generate(DatasetKind::LiveJournal, 0.02, 9);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.graph.matrix.global_edges(), b.graph.matrix.global_edges());
    }

    #[test]
    fn undirected_presets_are_symmetric() {
        let pd = Dataset::generate(DatasetKind::OgbnProducts, 0.02, 5);
        let edges: std::collections::HashSet<(u32, u32)> = pd
            .graph
            .matrix
            .global_edges()
            .into_iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        for &(r, c) in edges.iter().take(200) {
            assert!(edges.contains(&(c, r)), "missing reverse of ({r},{c})");
        }
    }
}
