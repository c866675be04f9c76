//! Random-walk algorithms: DeepWalk, Node2Vec, and the walk layer shared
//! by GraphSAINT / PinSAGE / HetGNN drivers.
//!
//! A walk step is one ECSF layer with fanout 1 (paper §3.2: "if we set the
//! number of neighbors to sample as K=1, GraphSAGE becomes a vanilla
//! random walk"); `next_walk_frontier` keeps per-walker chains (dead ends
//! stay in place rather than collapsing walkers together).

use gsampler_core::builder::{Layer, LayerBuilder};

/// One uniform random-walk step (DeepWalk; paper Table 2 row 1).
///
/// Outputs: `[0]` the sampled step matrix (one edge per walker), `[1]` the
/// per-walker next frontier.
pub fn deepwalk_step() -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sub = a.slice_cols(&f);
    let step = sub.individual_sample(1, None);
    let next = step.next_walk_frontier();
    b.output(&step);
    b.output_next_frontiers(&next);
    b.build()
}

/// One Node2Vec step: the second-order bias (`1/p` return, `1` neighbour,
/// `1/q` explore) is computed against the previous frontier, bound per
/// step under the name `"prev"`.
pub fn node2vec_step(p: f32, q: f32) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let prev = b.nodes_input("prev");
    let sub = a.slice_cols(&f);
    let bias = sub.node2vec_bias(&prev, &a, p, q);
    let step = sub.individual_sample(1, Some(&bias));
    let next = step.next_walk_frontier();
    b.output(&step);
    b.output_next_frontiers(&next);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deepwalk_step_validates() {
        let layer = deepwalk_step();
        layer.program.validate().unwrap();
        assert_eq!(layer.next_frontier_output, Some(1));
    }

    #[test]
    fn node2vec_step_uses_prev_binding() {
        let layer = node2vec_step(2.0, 0.5);
        layer.program.validate().unwrap();
        assert!(layer
            .program
            .find_op(|op| matches!(op, gsampler_ir::Op::InputNodes(n) if n == "prev"))
            .is_some());
        assert!(layer
            .program
            .find_op(|op| matches!(op, gsampler_ir::Op::Node2VecBias { .. }))
            .is_some());
    }
}
