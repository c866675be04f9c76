//! Random graph generators: RMAT and planted partitions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gsampler_matrix::NodeId;

/// RMAT quadrant probabilities. The classic `(0.57, 0.19, 0.19, 0.05)`
/// setting produces the heavy power-law skew of social/web graphs; the
/// diagonal dominance controls hub strength.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// Probability of the top-left quadrant (hub-to-hub).
    pub a: f64,
    /// Top-right quadrant.
    pub b: f64,
    /// Bottom-left quadrant.
    pub c: f64,
}

impl RmatParams {
    /// The standard social-network skew.
    pub fn social() -> RmatParams {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// Milder skew (product co-purchase style).
    pub(crate) fn mild() -> RmatParams {
        RmatParams {
            a: 0.45,
            b: 0.22,
            c: 0.22,
        }
    }
}

/// Generate `num_edges` RMAT edges over `num_nodes` (rounded up to a power
/// of two internally, then rejected back into range). Self-loops are
/// dropped; duplicates are deduplicated, so the output can be slightly
/// smaller than requested.
pub fn rmat_edges(
    num_nodes: usize,
    num_edges: usize,
    params: RmatParams,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    assert!(num_nodes >= 2, "rmat needs at least two nodes");
    let levels = (num_nodes as f64).log2().ceil() as u32;
    let span = 1usize << levels;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(num_edges);
    let mut attempts = 0usize;
    let max_attempts = num_edges * 4 + 64;
    while edges.len() < num_edges && attempts < max_attempts {
        attempts += 1;
        let (mut r0, mut c0, mut sz) = (0usize, 0usize, span);
        while sz > 1 {
            sz /= 2;
            let x: f64 = rng.gen();
            if x < params.a {
                // top-left
            } else if x < params.a + params.b {
                c0 += sz;
            } else if x < params.a + params.b + params.c {
                r0 += sz;
            } else {
                r0 += sz;
                c0 += sz;
            }
        }
        if r0 >= num_nodes || c0 >= num_nodes || r0 == c0 {
            continue;
        }
        edges.push((r0 as NodeId, c0 as NodeId));
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Planted-partition (stochastic block model) graph: `communities` equal
/// blocks; node degrees ≈ `deg_in + deg_out`, with `deg_in` expected
/// intra-community neighbours and `deg_out` inter-community ones.
/// Homophilous by construction — the substrate for learnable labels.
pub fn planted_partition(
    num_nodes: usize,
    communities: usize,
    deg_in: usize,
    deg_out: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    assert!(communities >= 1 && num_nodes >= communities);
    let mut rng = StdRng::seed_from_u64(seed);
    let block = num_nodes / communities;
    let mut set = std::collections::HashSet::new();
    for v in 0..num_nodes {
        let comm = (v / block).min(communities - 1);
        let base = comm * block;
        let block_len = if comm == communities - 1 {
            num_nodes - base
        } else {
            block
        };
        for _ in 0..deg_in {
            if block_len <= 1 {
                break;
            }
            let u = base + rng.gen_range(0..block_len);
            if u != v {
                set.insert((u as NodeId, v as NodeId));
                set.insert((v as NodeId, u as NodeId));
            }
        }
        for _ in 0..deg_out {
            let u = rng.gen_range(0..num_nodes);
            if u != v {
                set.insert((u as NodeId, v as NodeId));
            }
        }
    }
    let mut edges: Vec<_> = set.into_iter().collect();
    edges.sort_unstable();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_respects_bounds_and_dedups() {
        let edges = rmat_edges(1000, 5000, RmatParams::social(), 1);
        assert!(!edges.is_empty());
        for &(u, v) in &edges {
            assert!(u != v);
            assert!((u as usize) < 1000 && (v as usize) < 1000);
        }
        let set: std::collections::HashSet<_> = edges.iter().collect();
        assert_eq!(set.len(), edges.len());
    }

    #[test]
    fn rmat_is_skewed() {
        let edges = rmat_edges(4096, 40_000, RmatParams::social(), 2);
        let mut deg = vec![0usize; 4096];
        for &(_, v) in &edges {
            deg[v as usize] += 1;
        }
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = deg.iter().sum();
        let top1pct: usize = deg.iter().take(41).sum();
        // The hottest 1% of nodes should hold far more than 1% of edges.
        assert!(
            top1pct as f64 / total as f64 > 0.08,
            "top-1% share = {}",
            top1pct as f64 / total as f64
        );
    }

    #[test]
    fn rmat_deterministic_per_seed() {
        let a = rmat_edges(512, 2000, RmatParams::social(), 7);
        let b = rmat_edges(512, 2000, RmatParams::social(), 7);
        assert_eq!(a, b);
        let c = rmat_edges(512, 2000, RmatParams::social(), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn planted_partition_is_homophilous() {
        let edges = planted_partition(1000, 10, 8, 2, 5);
        let block = 100;
        let intra = edges
            .iter()
            .filter(|&&(u, v)| (u as usize) / block == (v as usize) / block)
            .count();
        assert!(
            intra as f64 / edges.len() as f64 > 0.6,
            "intra fraction = {}",
            intra as f64 / edges.len() as f64
        );
    }
}
