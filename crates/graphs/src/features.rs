//! Feature and label synthesis.
//!
//! For timing experiments, features only need the right shape, so they are
//! random. For the end-to-end training experiments (paper Table 8) the
//! task must be *learnable*: nodes get community labels and features drawn
//! as `centroid[community] + noise`, so a GNN that aggregates homophilous
//! neighbourhoods genuinely converges — the accuracy column of Table 8
//! reproduces instead of being decorative.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gsampler_matrix::Dense;

/// Random features in `[-0.5, 0.5)`, the shape used for LJ/FS in the
/// paper ("randomly generate 128-dimension float feature vector").
pub(crate) fn random_features(num_nodes: usize, dim: usize, seed: u64) -> Dense {
    let mut rng = StdRng::seed_from_u64(seed);
    Dense::random(num_nodes, dim, 0.5, &mut rng)
}

/// Community labels for a planted-partition graph with `communities`
/// equal blocks: node `v`'s label is its block index.
pub fn community_labels(num_nodes: usize, communities: usize) -> Vec<usize> {
    let block = (num_nodes / communities).max(1);
    (0..num_nodes)
        .map(|v| (v / block).min(communities - 1))
        .collect()
}

/// Features correlated with community labels: each community has a random
/// centroid; node features are `centroid + U(-noise, noise)` per element.
/// With `noise` around 1.0 the task is learnable but not trivial.
pub fn community_features(
    labels: &[usize],
    communities: usize,
    dim: usize,
    noise: f32,
    seed: u64,
) -> Dense {
    let mut rng = StdRng::seed_from_u64(seed);
    let centroids: Vec<Vec<f32>> = (0..communities)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut out = Dense::zeros(labels.len(), dim);
    for (v, &label) in labels.iter().enumerate() {
        let row = out.row_mut(v);
        for (d, slot) in row.iter_mut().enumerate() {
            *slot = centroids[label][d] + rng.gen_range(-noise..noise);
        }
    }
    out
}

/// Random edge weights in `(0, 1]` (LADIES and AS-GCN need weighted
/// graphs; OGB graphs are unweighted so the paper's implementations use
/// synthetic weights too).
pub fn random_edge_weights(num_edges: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_edges)
        .map(|_| rng.gen_range(f32::EPSILON..1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_partition_evenly() {
        let labels = community_labels(100, 10);
        assert_eq!(labels.len(), 100);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[99], 9);
        for c in 0..10 {
            assert_eq!(labels.iter().filter(|&&l| l == c).count(), 10);
        }
    }

    #[test]
    fn community_features_are_separable() {
        let labels = community_labels(200, 4);
        let f = community_features(&labels, 4, 16, 0.3, 1);
        // Same-community rows are closer than cross-community rows on
        // average (crude separability check).
        let dist = |a: usize, b: usize| -> f32 {
            f.row(a)
                .iter()
                .zip(f.row(b))
                .map(|(x, y)| (x - y) * (x - y))
                .sum()
        };
        let same = dist(0, 1) + dist(50, 51) + dist(100, 101);
        let diff = dist(0, 51) + dist(50, 101) + dist(100, 151);
        assert!(same < diff, "same {same} !< diff {diff}");
    }

    #[test]
    fn weights_in_range_and_deterministic() {
        let w = random_edge_weights(1000, 9);
        assert!(w.iter().all(|&x| x > 0.0 && x <= 1.0));
        assert_eq!(w, random_edge_weights(1000, 9));
    }

    #[test]
    fn random_features_shape() {
        let f = random_features(50, 8, 2);
        assert_eq!(f.shape(), (50, 8));
    }
}
