//! Node-wise sampling algorithms: GraphSAGE, VR-GCN, ShaDow, SEAL, PASS,
//! GCN-BS, Thanos.

use gsampler_core::builder::{Layer, LayerBuilder, Mat};
use gsampler_core::{Axis, EltOp};

/// One GraphSAGE layer (paper Fig. 3a): extract, uniform node-wise select,
/// finalize. With all optimizations on, the extract and select fuse into a
/// single kernel.
pub fn graphsage_layer(fanout: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sub = a.slice_cols(&f);
    let sample = sub.individual_sample(fanout, None);
    let next = sample.row_nodes();
    b.output(&sample);
    b.output_next_frontiers(&next);
    b.build()
}

/// Multi-layer GraphSAGE with the given per-layer fanouts.
pub fn graphsage(fanouts: &[usize]) -> Vec<Layer> {
    fanouts.iter().map(|&k| graphsage_layer(k)).collect()
}

/// VR-GCN: uniform node-wise sampling with small fanout; the layer also
/// exposes the full candidate row set so the trainer can mix sampled
/// neighbours with historical activations (the variance-reduction trick).
pub(crate) fn vrgcn_layer(fanout: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sub = a.slice_cols(&f);
    let sample = sub.individual_sample(fanout, None);
    let next = sample.row_nodes();
    let candidates = sub.row_nodes();
    b.output(&sample);
    b.output_next_frontiers(&next);
    b.output(&candidates);
    b.build()
}

/// Multi-layer VR-GCN.
pub fn vrgcn(fanouts: &[usize]) -> Vec<Layer> {
    fanouts.iter().map(|&k| vrgcn_layer(k)).collect()
}

/// ShaDow's per-depth expansion layers: uniform node-wise sampling; the
/// driver unions all sampled nodes and induces the final subgraph
/// (paper Table 2: "induce a subgraph using all the sampled nodes").
pub fn shadow_expansion(fanouts: &[usize]) -> Vec<Layer> {
    graphsage(fanouts)
}

/// SEAL-style biased expansion: neighbours weighted by a precomputed
/// per-node PPR prior bound as `"ppr"`; the driver induces the subgraph.
///
/// The bias enters as an edge-probability matrix `1 · ppr[row]` so the
/// select step samples proportional to the candidate's PPR score.
pub(crate) fn seal_layer(fanout: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let ppr = b.vector_input("ppr");
    let sub = a.slice_cols(&f);
    let ones = sub.pow(0.0);
    let probs = ones.broadcast(&ppr, EltOp::Mul, Axis::Row);
    let sample = sub.individual_sample(fanout, Some(&probs));
    let next = sample.row_nodes();
    b.output(&sample);
    b.output_next_frontiers(&next);
    b.build()
}

/// Multi-layer SEAL expansion.
pub(crate) fn seal(fanouts: &[usize]) -> Vec<Layer> {
    fanouts.iter().map(|&k| seal_layer(k)).collect()
}

/// One PASS layer (paper Fig. 3c): three attention channels — two learned
/// feature projections (`W1`, `W2`) applied through SDDMM, plus the
/// degree-normalized adjacency — stacked and mapped to sampling bias by
/// `W3`, then node-wise sampling.
///
/// Bound inputs: `"features"` (auto-bound from the graph), `"W1"`, `"W2"`
/// (`d × hidden`), `"W3"` (`3 × 1`).
pub fn pass_layer(fanout: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sub = a.slice_cols(&f);
    let feats = b.dense_input("features");
    let w1 = b.dense_input("W1");
    let w2 = b.dense_input("W2");
    let w3 = b.dense_input("W3");
    // B: candidate-side projections; C: frontier-side projections.
    let b1 = feats.matmul(&w1);
    let c1 = feats.gather_rows(&f).matmul(&w1);
    let a1 = sub.sddmm(&b1, &c1);
    let b2 = feats.matmul(&w2);
    let c2 = feats.gather_rows(&f).matmul(&w2);
    let a2 = sub.sddmm(&b2, &c2);
    let a3 = sub.div(&sub.sum(Axis::Row), Axis::Row);
    let att = Mat::stack(&[&a1, &a2, &a3]);
    let bias = att.matmul(&w3.softmax()).relu();
    let probs = sub.with_edge_values(&bias, 0);
    let sample = sub.individual_sample(fanout, Some(&probs));
    let next = sample.row_nodes();
    b.output(&sample);
    b.output_next_frontiers(&next);
    b.build()
}

/// Multi-layer PASS.
pub fn pass(fanouts: &[usize]) -> Vec<Layer> {
    fanouts.iter().map(|&k| pass_layer(k)).collect()
}

/// GCN-BS / Thanos bandit layer: per-node arm weights maintained by the
/// host driver are bound as `"bandit"`; neighbours are sampled
/// proportional to their current arm weight. The driver updates the
/// weights from per-batch rewards (UCB-style for GCN-BS, EXP3-style for
/// Thanos — see `drivers::BanditState`).
pub fn bandit_layer(fanout: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let arms = b.vector_input("bandit");
    let sub = a.slice_cols(&f);
    let ones = sub.pow(0.0);
    let probs = ones.broadcast(&arms, EltOp::Mul, Axis::Row);
    let sample = sub.individual_sample(fanout, Some(&probs));
    let next = sample.row_nodes();
    b.output(&sample);
    b.output_next_frontiers(&next);
    b.build()
}

/// Multi-layer bandit sampler.
pub fn bandit(fanouts: &[usize]) -> Vec<Layer> {
    fanouts.iter().map(|&k| bandit_layer(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_layer_builders_validate() {
        for layer in [
            graphsage_layer(10),
            vrgcn_layer(2),
            seal_layer(5),
            pass_layer(5),
            bandit_layer(5),
        ] {
            layer.program.validate().unwrap();
            assert!(layer.next_frontier_output.is_some());
        }
    }

    #[test]
    fn multi_layer_counts() {
        assert_eq!(graphsage(&[25, 10]).len(), 2);
        assert_eq!(pass(&[10, 5]).len(), 2);
        assert_eq!(shadow_expansion(&[10, 5]).len(), 2);
    }

    #[test]
    fn pass_uses_three_attention_channels() {
        let layer = pass_layer(5);
        assert_eq!(
            layer
                .program
                .count_ops(|op| matches!(op, gsampler_ir::Op::Sddmm)),
            2
        );
        assert_eq!(
            layer
                .program
                .count_ops(|op| matches!(op, gsampler_ir::Op::StackEdgeValues)),
            1
        );
    }
}
