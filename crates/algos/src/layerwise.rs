//! Layer-wise sampling algorithms: FastGCN, AS-GCN, LADIES.

use gsampler_core::builder::{Layer, LayerBuilder};
use gsampler_core::Axis;

/// One LADIES layer (paper Fig. 3b): squared edge weights are aggregated
/// per candidate row as sampling bias; after the collective select, edge
/// weights are debiased by the selection probability and re-normalized per
/// frontier for unbiased gradient estimation.
///
/// Pre-processing sinks `A ** 2` below the slice and hoists it onto the
/// full graph; fusion then samples without building the slice at all.
pub fn ladies_layer(width: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sub = a.slice_cols(&f);
    let row_probs = sub.pow(2.0).sum(Axis::Row);
    let sample = sub.collective_sample(width, Some(&row_probs));
    let select_probs = row_probs.gather_row_bias(&sample, &sub);
    let debiased = sample.div(&select_probs, Axis::Row);
    let colsum = debiased.sum(Axis::Col);
    let out = debiased.div(&colsum, Axis::Col);
    let next = out.row_nodes();
    b.output(&out);
    b.output_next_frontiers(&next);
    b.build()
}

/// Multi-layer LADIES.
pub fn ladies(width: usize, layers: usize) -> Vec<Layer> {
    (0..layers.max(1)).map(|_| ladies_layer(width)).collect()
}

/// One FastGCN layer: candidate bias is the node degree of the *full*
/// graph (batch-invariant — the pre-processing pass computes it once),
/// followed by importance-weight debiasing as in the FastGCN estimator.
pub fn fastgcn_layer(width: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let deg = a.degrees(Axis::Row);
    let sub = a.slice_cols(&f);
    let sample = sub.collective_sample(width, Some(&deg));
    let select_probs = deg.gather_row_bias(&sample, &sub);
    let out = sample.div(&select_probs, Axis::Row);
    let next = out.row_nodes();
    b.output(&out);
    b.output_next_frontiers(&next);
    b.build()
}

/// Multi-layer FastGCN.
pub fn fastgcn(width: usize, layers: usize) -> Vec<Layer> {
    (0..layers.max(1)).map(|_| fastgcn_layer(width)).collect()
}

/// One AS-GCN layer: candidate bias comes from a trainable linear model
/// `relu(features @ Wg)` (bound as `"Wg"`, shape `d × 1`), combined with
/// the structural bias (squared-weight aggregation); the model is updated
/// by the trainer between batches.
pub fn asgcn_layer(width: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let feats = b.dense_input("features");
    let wg = b.dense_input("Wg");
    let learned = feats.matmul(&wg).relu().column(0);
    let sub = a.slice_cols(&f);
    let structural = sub.pow(2.0).sum(Axis::Row);
    // Combined importance: learned score + structural aggregate, kept
    // strictly positive so every candidate stays reachable. The learned
    // score is node-indexed, so align it to the sub-matrix's row space
    // (which layout selection may have compacted).
    let aligned = learned
        .scalar(gsampler_core::EltOp::Add, 1e-6)
        .align_rows(&sub);
    let bias = structural.op(&aligned, gsampler_core::EltOp::Add);
    let sample = sub.collective_sample(width, Some(&bias));
    let select_probs = bias.gather_row_bias(&sample, &sub);
    let out = sample.div(&select_probs, Axis::Row);
    let next = out.row_nodes();
    b.output(&out);
    b.output_next_frontiers(&next);
    b.build()
}

/// Multi-layer AS-GCN.
pub fn asgcn(width: usize, layers: usize) -> Vec<Layer> {
    (0..layers.max(1)).map(|_| asgcn_layer(width)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_layerwise_builders_validate() {
        for layer in [ladies_layer(64), fastgcn_layer(64), asgcn_layer(64)] {
            layer.program.validate().unwrap();
        }
    }

    #[test]
    fn fastgcn_bias_is_batch_invariant() {
        // The degree reduce depends only on the graph, so the preprocess
        // pass must hoist exactly one node.
        let layer = fastgcn_layer(64);
        let r = gsampler_ir::passes::preprocess::run(&layer.program);
        assert_eq!(r.hoisted, 1);
    }

    #[test]
    fn multi_layer_counts() {
        assert_eq!(ladies(512, 3).len(), 3);
        assert_eq!(fastgcn(400, 2).len(), 2);
        assert_eq!(asgcn(512, 2).len(), 2);
    }
}
