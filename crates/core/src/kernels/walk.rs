//! Random-walk kernels: per-walker frontier advancement and the
//! second-order Node2Vec transition bias.

use rand::rngs::StdRng;

use gsampler_ir::Op;
use gsampler_matrix::{GraphMatrix, NodeId};

use crate::error::{Error, Result};
use crate::value::Value;

use super::eltwise::{want_matrix, want_nodes, with_data};
use super::ExecCtx;

/// Per-walker finalize: each column's sampled row becomes that walker's
/// next node; dead-end walkers stay where they are, lifted into the
/// column's block row range so the output splits per group like any other
/// row-space node list.
pub fn next_walk_frontier(m: &GraphMatrix, ctx: &ExecCtx<'_>) -> Result<Value> {
    let csc = m.data.csc();
    let out: Vec<NodeId> = (0..csc.ncols)
        .map(|c| match csc.indices.get(csc.col_range(c)) {
            Some(&[row, ..]) => m.global_row(row as usize),
            _ => ctx.row_offset(c) + m.global_col(c),
        })
        .collect();
    Ok(Value::Nodes(out))
}

/// Second-order Node2Vec bias: candidate `r` for walker `c` is weighted
/// `1/p` when returning to the previous node, `1` when staying in its
/// neighbourhood, `1/q` otherwise.
pub fn node2vec_bias(
    m: &GraphMatrix,
    prev: &[NodeId],
    graph: &GraphMatrix,
    p: f32,
    q: f32,
    ctx: &ExecCtx<'_>,
) -> Result<Value> {
    if prev.len() != m.shape().1 {
        return Err(Error::Execution(format!(
            "node2vec_bias: prev length {} != columns {}",
            prev.len(),
            m.shape().1
        )));
    }
    let gcsc = graph.data.csc();
    let n = ctx.n.max(1);
    let biases: Vec<f32> = m
        .data
        .iter_edges()
        .map(|(r, c, _)| {
            let cand = (m.global_row(r as usize) as usize % n) as NodeId;
            let prev_node = prev[c as usize];
            if cand == prev_node {
                1.0 / p
            } else if gcsc.contains_edge(cand, prev_node as usize)
                || gcsc.contains_edge(prev_node, cand as usize)
            {
                1.0
            } else {
                1.0 / q
            }
        })
        .collect();
    Ok(Value::Matrix(with_data(m, m.data.with_values(biases))))
}

/// Random-walk operator family: evaluate `op` on `inputs`.
pub(super) fn run(
    op: &Op,
    inputs: &[&Value],
    ctx: &ExecCtx<'_>,
    _rngs: &mut [StdRng],
) -> Result<Value> {
    match op {
        Op::NextWalkFrontier => {
            let m = want_matrix(inputs[0], "next_walk_frontier")?;
            next_walk_frontier(m, ctx)
        }
        Op::Node2VecBias { p, q } => {
            let m = want_matrix(inputs[0], "node2vec_bias")?;
            let prev = want_nodes(inputs[1], "node2vec_bias")?;
            let g = want_matrix(inputs[2], "node2vec_bias")?;
            node2vec_bias(m, prev, g, *p, *q, ctx)
        }
        other => Err(Error::Execution(format!(
            "walk kernel cannot evaluate {other:?}"
        ))),
    }
}
