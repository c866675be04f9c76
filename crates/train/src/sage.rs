//! Graph convolution over sampled blocks.
//!
//! A sampled layer is a *block*: a bipartite matrix whose columns are the
//! destination (frontier) nodes and whose rows are their sampled sources.
//! The convolution is mean aggregation followed by a linear map and ReLU:
//!
//! ```text
//! H_dst = relu( (Â^T H_src) @ W )        Â = column-normalized block
//! ```
//!
//! Backward propagates `dH_src = Â · d_agg`, chaining through the blocks
//! in the reverse direction of the forward pass.

use std::collections::HashMap;

use gsampler_core::GraphSample;
use gsampler_matrix::{spmm, Dense, GraphMatrix, NodeId, SparseMatrix};

use crate::nn::Linear;

/// One training block: normalized bipartite adjacency plus its node IDs.
#[derive(Debug, Clone)]
pub struct Block {
    /// Column-normalized adjacency (rows = sources, cols = destinations).
    pub matrix: SparseMatrix,
    /// Global IDs of the rows (sources).
    pub rows: Vec<NodeId>,
    /// Global IDs of the columns (destinations).
    pub cols: Vec<NodeId>,
}

impl Block {
    /// Build from a sampled layer matrix: compact isolated rows, keep the
    /// ID lists, normalize columns so aggregation is a mean.
    pub(crate) fn from_matrix(m: &GraphMatrix) -> Block {
        let compacted = m.compact_rows();
        let rows = compacted.global_row_ids();
        let cols = compacted.global_col_ids();
        let mut data = compacted.data.clone();
        let degs = gsampler_matrix::reduce::reduce(
            &data,
            gsampler_matrix::ReduceOp::Count,
            gsampler_matrix::Axis::Col,
        );
        let safe: Vec<f32> = degs.iter().map(|&d| d.max(1.0)).collect();
        // Mean aggregation ignores the sampled edge weights' scale; the
        // weights themselves (LADIES debiasing) already encode importance,
        // so normalize by count.
        data = gsampler_matrix::broadcast::broadcast(
            &data,
            &safe,
            gsampler_matrix::EltOp::Div,
            gsampler_matrix::Axis::Col,
        )
        .expect("degree vector matches");
        Block {
            matrix: data,
            rows,
            cols,
        }
    }

    /// Edges in the block.
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }
}

/// Convert a multi-layer [`GraphSample`] into training blocks, deepest
/// first (the forward pass order). Layer `l`'s matrix is output 0 of that
/// layer by the conventions of `gsampler-algos`.
pub fn blocks_from_sample(sample: &GraphSample) -> Vec<Block> {
    sample
        .layers
        .iter()
        .rev()
        .filter_map(|outputs| outputs[0].as_matrix().map(Block::from_matrix))
        .collect()
}

/// A GNN: one [`Linear`] per block plus a classifier head dimensionality
/// baked into the last layer.
#[derive(Debug, Clone)]
pub struct GnnModel {
    /// One linear map per convolution, input-to-output order.
    pub layers: Vec<Linear>,
}

/// Cached intermediates of one forward pass (needed for backward).
pub struct ForwardTrace {
    /// Per conv: the aggregated (pre-linear) features.
    aggregated: Vec<Dense>,
    /// Per conv: the pre-ReLU linear output (`None` for the last layer,
    /// which emits raw logits).
    pre_relu: Vec<Option<Dense>>,
    /// The logits for the final destination nodes.
    pub logits: Dense,
}

impl GnnModel {
    /// Build with dimensions `[input, hidden, ..., classes]` — one linear
    /// per consecutive pair.
    pub fn new(dims: &[usize], seed: u64) -> GnnModel {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], seed.wrapping_add(i as u64)))
            .collect();
        GnnModel { layers }
    }

    /// Forward through `blocks` (deepest first). `features` is the full
    /// node-feature table; embeddings are gathered by global ID.
    ///
    /// # Panics
    ///
    /// Panics if the number of blocks does not match the number of layers.
    pub fn forward(&self, blocks: &[Block], features: &Dense) -> ForwardTrace {
        assert_eq!(blocks.len(), self.layers.len(), "one linear per block");
        let mut current: HashMap<NodeId, usize> = HashMap::new();
        let mut table = Dense::zeros(0, 0);
        let mut aggregated = Vec::with_capacity(blocks.len());
        let mut pre_relu = Vec::with_capacity(blocks.len());
        let mut logits = Dense::zeros(0, 0);

        for (li, (block, linear)) in blocks.iter().zip(&self.layers).enumerate() {
            // Source embeddings: raw features for the deepest conv,
            // previous conv output (by ID) afterwards.
            let h_src = if li == 0 {
                features
                    .gather_rows(&block.rows)
                    .expect("feature gather in range")
            } else {
                let mut out = Dense::zeros(block.rows.len(), table.ncols());
                for (i, id) in block.rows.iter().enumerate() {
                    if let Some(&pos) = current.get(id) {
                        out.row_mut(i).copy_from_slice(table.row(pos));
                    }
                    // Nodes outside the previous stage keep zeros
                    // (possible only for isolated fall-throughs).
                }
                out
            };
            let agg = spmm::spmm_t(&block.matrix, &h_src).expect("block dims");
            let z = linear.forward(&agg);
            let is_last = li + 1 == blocks.len();
            let h_dst = if is_last { z.clone() } else { z.relu() };

            let _ = h_src; // consumed by the aggregation above
            aggregated.push(agg);
            pre_relu.push(if is_last { None } else { Some(z) });

            current = block
                .cols
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i))
                .collect();
            table = h_dst.clone();
            if is_last {
                logits = h_dst;
            }
        }

        ForwardTrace {
            aggregated,
            pre_relu,
            logits,
        }
    }

    /// Backward from `dlogits`, accumulating gradients in every layer.
    pub fn backward(&mut self, blocks: &[Block], trace: &ForwardTrace, dlogits: &Dense) {
        let mut d_dst = dlogits.clone();
        for li in (0..blocks.len()).rev() {
            let dz = match &trace.pre_relu[li] {
                Some(z) => {
                    // ReLU gate.
                    let mut d = d_dst.clone();
                    for r in 0..d.nrows() {
                        for c in 0..d.ncols() {
                            if z.get(r, c) <= 0.0 {
                                d.set(r, c, 0.0);
                            }
                        }
                    }
                    d
                }
                None => d_dst.clone(),
            };
            let d_agg = self.layers[li].backward(&trace.aggregated[li], &dz);
            if li == 0 {
                break; // raw features receive no gradient
            }
            // dH_src = Â · d_agg, then re-index to the previous block's
            // destination order.
            let d_src = spmm::spmm(&blocks[li].matrix, &d_agg).expect("block dims");
            let prev_cols = &blocks[li - 1].cols;
            let index: HashMap<NodeId, usize> = blocks[li]
                .rows
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i))
                .collect();
            let mut d_prev = Dense::zeros(prev_cols.len(), d_src.ncols());
            for (i, id) in prev_cols.iter().enumerate() {
                if let Some(&pos) = index.get(id) {
                    d_prev.row_mut(i).copy_from_slice(d_src.row(pos));
                }
            }
            d_dst = d_prev;
        }
    }

    /// One optimizer step over every layer.
    pub fn step(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.step(lr);
        }
    }

    /// Full-graph inference (for evaluation): `L` rounds of mean
    /// aggregation over the full normalized adjacency.
    pub(crate) fn infer_full(&self, adj: &SparseMatrix, features: &Dense) -> Dense {
        let degs = gsampler_matrix::reduce::reduce(
            adj,
            gsampler_matrix::ReduceOp::Count,
            gsampler_matrix::Axis::Col,
        );
        let safe: Vec<f32> = degs.iter().map(|&d| d.max(1.0)).collect();
        let norm = gsampler_matrix::broadcast::broadcast(
            adj,
            &safe,
            gsampler_matrix::EltOp::Div,
            gsampler_matrix::Axis::Col,
        )
        .expect("degree vector");
        let mut h = features.clone();
        for (li, layer) in self.layers.iter().enumerate() {
            let agg = spmm::spmm_t(&norm, &h).expect("square adj");
            let z = layer.forward(&agg);
            h = if li + 1 == self.layers.len() {
                z
            } else {
                z.relu()
            };
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsampler_matrix::Csc;

    fn toy_block() -> Block {
        // 3 sources, 2 destinations; dst 0 <- {0, 1}, dst 1 <- {2}.
        let csc = Csc::new(3, 2, vec![0, 2, 3], vec![0, 1, 2], None).unwrap();
        let gm = GraphMatrix::from_sparse(SparseMatrix::Csc(csc));
        Block::from_matrix(&gm)
    }

    #[test]
    fn block_normalizes_columns() {
        let b = toy_block();
        let sums = gsampler_matrix::reduce::reduce(
            &b.matrix,
            gsampler_matrix::ReduceOp::Sum,
            gsampler_matrix::Axis::Col,
        );
        for s in sums {
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert_eq!(b.rows, vec![0, 1, 2]);
        assert_eq!(b.cols, vec![0, 1]);
    }

    #[test]
    fn forward_aggregates_means() {
        let b = toy_block();
        let features = Dense::from_vec(3, 2, vec![2.0, 0.0, 4.0, 0.0, 6.0, 6.0]).unwrap();
        let model = GnnModel::new(&[2, 2], 1);
        let trace = model.forward(&[b], &features);
        // Aggregated dst 0 = mean of rows 0,1 = [3, 0]; dst 1 = [6, 6].
        assert_eq!(trace.aggregated[0].get(0, 0), 3.0);
        assert_eq!(trace.aggregated[0].get(1, 1), 6.0);
        assert_eq!(trace.logits.shape(), (2, 2));
    }

    #[test]
    fn training_blocks_learn_separable_task() {
        // One-block "GNN" on a bipartite toy task: destinations whose
        // sources have positive features are class 0, negative class 1.
        let csc = Csc::new(4, 4, vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3], None).unwrap();
        let gm = GraphMatrix::from_sparse(SparseMatrix::Csc(csc));
        let block = Block::from_matrix(&gm);
        let features =
            Dense::from_vec(4, 2, vec![1.0, 0.5, -1.0, -0.5, 0.8, 0.4, -0.9, -0.6]).unwrap();
        let labels = vec![0usize, 1, 0, 1];
        let mut model = GnnModel::new(&[2, 2], 3);
        let mut acc = 0.0;
        for _ in 0..200 {
            let trace = model.forward(std::slice::from_ref(&block), &features);
            let (_, dl, correct) = crate::nn::softmax_cross_entropy(&trace.logits, &labels);
            model.backward(std::slice::from_ref(&block), &trace, &dl);
            model.step(0.05);
            acc = correct as f32 / 4.0;
        }
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn infer_full_shapes() {
        let csc = Csc::new(3, 3, vec![0, 1, 2, 3], vec![1, 2, 0], None).unwrap();
        let adj = SparseMatrix::Csc(csc);
        let features = Dense::zeros(3, 4);
        let model = GnnModel::new(&[4, 8, 2], 2);
        // Build two identical blocks is not needed; inference runs on the
        // full adjacency regardless of sampling.
        let out = model.infer_full(&adj, &features);
        assert_eq!(out.shape(), (3, 2));
    }
}
