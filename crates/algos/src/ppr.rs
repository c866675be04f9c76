//! Host-side PageRank / personalized PageRank for SEAL-style static bias.
//!
//! SEAL weighs neighbour sampling by PPR scores. Scores over the full
//! graph are batch-invariant, so the paper's pre-processing pass computes
//! them once; we compute them here at compile/setup time and feed them to
//! the sampler as a bound vector (`DESIGN.md` records the simplification
//! from per-pair PPR to a global PageRank prior).

use gsampler_core::Graph;

/// Power-iteration PageRank with damping `alpha`, `iters` iterations,
/// uniform teleport. Returns one score per node, summing to ~1.
// Indexing by node id across several same-length arrays is clearer here
// than zipped iterators.
#[allow(clippy::needless_range_loop)]
pub(crate) fn pagerank(graph: &Graph, alpha: f32, iters: usize) -> Vec<f32> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let csc = graph.matrix.data.to_csc();
    // Out-degree of each node (row space of the CSC = edge sources).
    let mut out_deg = vec![0usize; n];
    for &r in &csc.indices {
        out_deg[r as usize] += 1;
    }
    let mut rank = vec![1.0f32 / n as f32; n];
    let teleport = (1.0 - alpha) / n as f32;
    for _ in 0..iters {
        let mut next = vec![0.0f32; n];
        // Mass of dangling nodes is redistributed uniformly.
        let dangling: f32 = (0..n).filter(|&v| out_deg[v] == 0).map(|v| rank[v]).sum();
        let dangling_share = alpha * dangling / n as f32;
        for v in 0..n {
            let mut acc = 0.0f32;
            for pos in csc.col_range(v) {
                let src = csc.indices[pos] as usize;
                acc += rank[src] / out_deg[src] as f32;
            }
            next[v] = teleport + dangling_share + alpha * acc;
        }
        rank = next;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_sum_to_one_and_favor_hubs() {
        // Star: every node points to node 0.
        let edges: Vec<(u32, u32, f32)> = (1..10u32).map(|v| (v, 0, 1.0)).collect();
        let g = Graph::from_edges("star", 10, &edges, false).unwrap();
        let pr = pagerank(&g, 0.85, 30);
        let total: f32 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "sum {total}");
        for v in 1..10 {
            assert!(pr[0] > pr[v], "hub must outrank leaves");
        }
    }

    #[test]
    fn uniform_on_cycle() {
        let edges: Vec<(u32, u32, f32)> = (0..6u32).map(|v| (v, (v + 1) % 6, 1.0)).collect();
        let g = Graph::from_edges("cycle", 6, &edges, false).unwrap();
        let pr = pagerank(&g, 0.85, 50);
        for v in 1..6 {
            assert!((pr[v] - pr[0]).abs() < 1e-4);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges("empty", 0, &[], false).unwrap();
        assert!(pagerank(&g, 0.85, 5).is_empty());
    }
}
