//! Deterministic arbitrary-graph generation with shrinking.
//!
//! The fuzzer needs two things a plain seeded case loop does not give:
//! replayable fixtures and shrinking. A [`GraphSpec`] is a small,
//! serializable value that rebuilds the same [`Graph`] bit-for-bit from
//! its embedded seed, so a failing fuzz case is saved and replayed as a
//! fixture. Shrinking proposes strictly simpler specs (fewer nodes/edges,
//! plainer topology, fewer flags) and keeps any candidate on which the
//! failure reproduces.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gsampler_core::Graph;
use gsampler_matrix::{Dense, NodeId};

/// Edge-structure families the generator draws from. The skewed and
/// uniform families exercise the common case; star/chain/clique are the
/// degenerate shapes where sampling bugs (empty columns, hub columns,
/// max-degree columns) like to hide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Independent uniform (u, v) pairs.
    Uniform,
    /// RMAT-ish skew: in-degree concentrates on low node IDs.
    PowerLaw,
    /// Hub node 0 with spokes in both directions.
    Star,
    /// Path i <-> i+1.
    Chain,
    /// All-pairs among the active nodes.
    Clique,
}

impl Topology {
    /// Stable name used in corpus fixtures.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Uniform => "uniform",
            Topology::PowerLaw => "power-law",
            Topology::Star => "star",
            Topology::Chain => "chain",
            Topology::Clique => "clique",
        }
    }

    /// Parse a fixture name back.
    pub fn parse(s: &str) -> Option<Topology> {
        Some(match s {
            "uniform" => Topology::Uniform,
            "power-law" => Topology::PowerLaw,
            "star" => Topology::Star,
            "chain" => Topology::Chain,
            "clique" => Topology::Clique,
            _ => return None,
        })
    }
}

/// A reproducible description of one generated graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    /// Edge-structure family.
    pub topology: Topology,
    /// Total node count (including dangling tail when enabled).
    pub nodes: usize,
    /// Target edge count for the random families.
    pub edges: usize,
    /// Distinct quantized edge weights instead of all-1.0.
    pub weighted: bool,
    /// Sprinkle (v, v) self-loop edges.
    pub self_loops: bool,
    /// Store a random subset of edges twice (multigraph columns).
    pub duplicate_edges: bool,
    /// Reserve a tail of nodes with no edges at all (zero in- and
    /// out-degree; sampling them must yield empty columns, not errors).
    pub dangling: bool,
    /// Seed for the topology RNG; the same spec always builds the same
    /// graph.
    pub seed: u64,
}

impl GraphSpec {
    /// Draw a random spec. Sizes stay small on purpose: the differential
    /// oracle runs every algorithm several times per case, and shrunk
    /// repros should already start near-minimal.
    pub fn arbitrary(rng: &mut StdRng) -> GraphSpec {
        let topology = match rng.gen_range(0..10u32) {
            0..=3 => Topology::Uniform,
            4..=6 => Topology::PowerLaw,
            7 => Topology::Star,
            8 => Topology::Chain,
            _ => Topology::Clique,
        };
        let nodes = rng.gen_range(4..=96usize);
        let edges = rng.gen_range(nodes..=nodes * 6);
        GraphSpec {
            topology,
            nodes,
            edges,
            weighted: rng.gen_bool(0.5),
            self_loops: rng.gen_bool(0.3),
            duplicate_edges: rng.gen_bool(0.3),
            dangling: rng.gen_bool(0.3),
            seed: rng.gen::<u64>(),
        }
    }

    /// Node count excluding the dangling tail.
    fn active(&self) -> usize {
        if self.dangling {
            (self.nodes - self.nodes / 8).max(2)
        } else {
            self.nodes
        }
    }

    /// Deterministically build the described graph (with features, so
    /// model-driven algorithms always run).
    pub fn build(&self) -> Arc<Graph> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let active = self.active();
        let mut edges: Vec<(NodeId, NodeId, f32)> = Vec::new();
        let push = |edges: &mut Vec<(NodeId, NodeId, f32)>, u: usize, v: usize| {
            edges.push((u as NodeId, v as NodeId, 1.0));
        };
        match self.topology {
            Topology::Uniform => {
                for _ in 0..self.edges {
                    let u = rng.gen_range(0..active);
                    let v = rng.gen_range(0..active);
                    if u != v {
                        push(&mut edges, u, v);
                    }
                }
            }
            Topology::PowerLaw => {
                for _ in 0..self.edges {
                    let r: f64 = rng.gen::<f64>();
                    let v = ((r * r) * active as f64) as usize;
                    let u = rng.gen_range(0..active);
                    if u != v {
                        push(&mut edges, u, v.min(active - 1));
                    }
                }
            }
            Topology::Star => {
                for i in 1..active {
                    push(&mut edges, i, 0);
                    push(&mut edges, 0, i);
                }
            }
            Topology::Chain => {
                for i in 0..active.saturating_sub(1) {
                    push(&mut edges, i, i + 1);
                    push(&mut edges, i + 1, i);
                }
            }
            Topology::Clique => {
                let c = active.min(24);
                for u in 0..c {
                    for v in 0..c {
                        if u != v {
                            push(&mut edges, u, v);
                        }
                    }
                }
            }
        }
        if self.self_loops {
            let loops = (active / 8).max(1);
            for _ in 0..loops {
                let v = rng.gen_range(0..active);
                push(&mut edges, v, v);
            }
        }
        if self.duplicate_edges && !edges.is_empty() {
            let dups = (edges.len() / 10).max(1);
            for _ in 0..dups {
                let e = edges[rng.gen_range(0..edges.len())];
                edges.push(e);
            }
        }
        if self.weighted {
            for e in edges.iter_mut() {
                // Quantized weights: distinct but exactly representable.
                e.2 = 0.1 * rng.gen_range(1..=20u32) as f32;
            }
        }
        let graph = Graph::from_edges(
            format!("fuzz-{}-{:016x}", self.topology.name(), self.seed),
            self.nodes,
            &edges,
            self.weighted,
        )
        .expect("generated edge list must be valid");
        // Deterministic features (no RNG: feature content must not shift
        // when topology flags change edge-draw counts).
        let dim = 4usize;
        let feats: Vec<f32> = (0..self.nodes * dim)
            .map(|i| ((i * 31 + 7) % 13) as f32 / 13.0 + 0.05)
            .collect();
        Arc::new(graph.with_features(Dense::from_vec(self.nodes, dim, feats).unwrap()))
    }

    /// Deterministic frontier choice for this spec: strided node IDs,
    /// deliberately including the dangling tail when present.
    pub fn frontiers(&self, count: usize) -> Vec<NodeId> {
        let n = self.nodes.max(1);
        let stride = (n / count.max(1)).max(1);
        (0..count.min(n))
            .map(|i| ((i * stride) % n) as NodeId)
            .collect()
    }

    /// Strictly simpler candidate specs, most aggressive first. Every
    /// candidate is itself a valid spec; the shrink loop keeps whichever
    /// still fails and repeats until none do.
    pub(crate) fn shrink_candidates(&self) -> Vec<GraphSpec> {
        let mut out = Vec::new();
        if self.nodes > 4 {
            out.push(GraphSpec {
                nodes: (self.nodes / 2).max(4),
                edges: (self.edges / 2).max(4),
                ..self.clone()
            });
        }
        if self.topology != Topology::Chain {
            out.push(GraphSpec {
                topology: Topology::Chain,
                ..self.clone()
            });
        }
        if self.edges > self.nodes {
            out.push(GraphSpec {
                edges: self.nodes,
                ..self.clone()
            });
        }
        for flag in ["dup", "loops", "dangling", "weighted"] {
            let mut c = self.clone();
            let on = match flag {
                "dup" => std::mem::take(&mut c.duplicate_edges),
                "loops" => std::mem::take(&mut c.self_loops),
                "dangling" => std::mem::take(&mut c.dangling),
                _ => std::mem::take(&mut c.weighted),
            };
            if on {
                out.push(c);
            }
        }
        out
    }

    /// One-line summary for logs and fixtures.
    pub fn describe(&self) -> String {
        format!(
            "{} nodes={} edges={} weighted={} self_loops={} dups={} dangling={} seed={:#018x}",
            self.topology.name(),
            self.nodes,
            self.edges,
            self.weighted,
            self.self_loops,
            self.duplicate_edges,
            self.dangling,
            self.seed
        )
    }
}

/// Greedily shrink `spec` while `fails` keeps returning `true`, up to a
/// bounded number of attempts. Returns the smallest still-failing spec.
pub fn shrink(spec: &GraphSpec, mut fails: impl FnMut(&GraphSpec) -> bool) -> GraphSpec {
    let mut current = spec.clone();
    let mut budget = 64usize;
    'outer: while budget > 0 {
        for cand in current.shrink_candidates() {
            budget = budget.saturating_sub(1);
            if fails(&cand) {
                current = cand;
                continue 'outer;
            }
            if budget == 0 {
                break;
            }
        }
        break;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let spec = GraphSpec::arbitrary(&mut rng);
            let a = spec.build();
            let b = spec.build();
            assert_eq!(a.num_nodes(), b.num_nodes(), "{}", spec.describe());
            assert_eq!(a.matrix.global_edges(), b.matrix.global_edges());
        }
    }

    #[test]
    fn dangling_tail_has_no_edges() {
        let spec = GraphSpec {
            topology: Topology::Uniform,
            nodes: 32,
            edges: 64,
            weighted: false,
            self_loops: false,
            duplicate_edges: false,
            dangling: true,
            seed: 5,
        };
        let g = spec.build();
        let tail_start = spec.active();
        assert!(tail_start < 32);
        for (u, v, _) in g.matrix.global_edges() {
            assert!((u as usize) < tail_start);
            assert!((v as usize) < tail_start);
        }
    }

    #[test]
    fn shrink_reaches_a_fixed_point() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = GraphSpec {
            duplicate_edges: true,
            self_loops: true,
            ..GraphSpec::arbitrary(&mut rng)
        };
        // A failure that only depends on having >= 8 nodes.
        let min = shrink(&spec, |s| s.nodes >= 8);
        assert!(min.nodes >= 8 && min.nodes <= 15, "got {}", min.nodes);
        assert!(!min.duplicate_edges && !min.self_loops);
    }
}
