//! Matrix-algebra kernels: SpMM, SDDMM, dense GEMM, softmax, and the
//! dense/edge-value plumbing the model-driven samplers use.

use rand::rngs::StdRng;

use gsampler_ir::Op;
use gsampler_matrix::{eltwise, spmm, Dense, GraphMatrix, NodeId, SparseMatrix};

use crate::error::{Error, Result};
use crate::value::Value;

use super::eltwise::{want_matrix, want_nodes, with_data};
use super::ExecCtx;

pub(super) fn want_dense<'v>(v: &'v Value, what: &str) -> Result<&'v Dense> {
    v.as_dense()
        .ok_or_else(|| Error::Execution(format!("{what}: expected dense, got {}", v.kind_name())))
}

/// SDDMM where the left feature table is indexed by each row's *global*
/// ID: a full-graph table (`N` rows) is consumed directly by compacted
/// sub-matrices, and through `id mod N` by block-diagonal super-batched
/// ones. Any other size mismatch is a genuine shape error.
pub fn sddmm(m: &GraphMatrix, b: &Dense, c: &Dense, period: usize) -> Result<Value> {
    if b.ncols() != c.ncols() {
        return Err(gsampler_matrix::Error::ShapeMismatch {
            op: "sddmm feature dims",
            lhs: b.shape(),
            rhs: c.shape(),
        }
        .into());
    }
    if c.nrows() != m.shape().1 {
        return Err(gsampler_matrix::Error::ShapeMismatch {
            op: "sddmm rhs rows",
            lhs: m.shape(),
            rhs: c.shape(),
        }
        .into());
    }
    let bn = b.nrows();
    let wrap_ok = bn == period;
    let nrows = m.shape().0;
    let mut dots: Vec<f32> = Vec::with_capacity(m.nnz());
    for (r, col, _) in m.data.iter_edges() {
        let g = m.global_row(r as usize) as usize;
        let idx = if g < bn {
            g
        } else if wrap_ok {
            g % bn
        } else {
            return Err(gsampler_matrix::Error::ShapeMismatch {
                op: "sddmm lhs rows",
                lhs: (nrows, m.shape().1),
                rhs: b.shape(),
            }
            .into());
        };
        let br = b.row(idx);
        let cr = c.row(col as usize);
        dots.push(br.iter().zip(cr).map(|(&x, &y)| x * y).sum());
    }
    let mut data = m.data.clone();
    data.set_values(dots);
    Ok(Value::Matrix(with_data(m, data)))
}

/// Matrix-algebra operator family: evaluate `op` on `inputs`.
pub(super) fn run(
    op: &Op,
    inputs: &[&Value],
    ctx: &ExecCtx<'_>,
    _rngs: &mut [StdRng],
) -> Result<Value> {
    match op {
        Op::Spmm => {
            let m = want_matrix(inputs[0], "spmm")?;
            let d = want_dense(inputs[1], "spmm")?;
            Ok(Value::Dense(spmm::spmm(&m.data, d)?))
        }
        Op::SpmmT => {
            let m = want_matrix(inputs[0], "spmm_t")?;
            let d = want_dense(inputs[1], "spmm_t")?;
            Ok(Value::Dense(spmm::spmm_t(&m.data, d)?))
        }
        Op::Gemm => {
            let a = want_dense(inputs[0], "gemm")?;
            let b = want_dense(inputs[1], "gemm")?;
            Ok(Value::Dense(a.matmul(b)?))
        }
        Op::GemmT => {
            let a = want_dense(inputs[0], "gemm_t")?;
            let b = want_dense(inputs[1], "gemm_t")?;
            Ok(Value::Dense(a.matmul_t(b)?))
        }
        Op::Sddmm => {
            let m = want_matrix(inputs[0], "sddmm")?;
            let b = want_dense(inputs[1], "sddmm")?;
            let c = want_dense(inputs[2], "sddmm")?;
            sddmm(m, b, c, ctx.n)
        }
        Op::DenseUnary(o) => {
            let d = want_dense(inputs[0], "dense_unary")?;
            Ok(Value::Dense(d.map(|x| o.apply(x))))
        }
        Op::DenseSoftmaxRows => {
            let d = want_dense(inputs[0], "softmax_rows")?;
            Ok(Value::Dense(d.softmax_rows()))
        }
        Op::DenseSoftmaxFlat => {
            let d = want_dense(inputs[0], "softmax_flat")?;
            Ok(Value::Dense(d.softmax_flat()))
        }
        Op::DenseColumn { col } => {
            let d = want_dense(inputs[0], "dense_column")?;
            if *col >= d.ncols() {
                return Err(Error::Execution(format!(
                    "dense_column: column {col} out of {}",
                    d.ncols()
                )));
            }
            Ok(Value::Vector(
                (0..d.nrows()).map(|r| d.get(r, *col)).collect(),
            ))
        }
        Op::DenseGatherRows => {
            let d = want_dense(inputs[0], "dense_gather_rows")?;
            let idx = want_nodes(inputs[1], "dense_gather_rows")?;
            // Block IDs wrap into a full-graph table; any other
            // oversize index is a genuine error (surfaced by
            // gather_rows).
            let wrap_ok = d.nrows() == ctx.n;
            let wrapped: Vec<NodeId> = idx
                .iter()
                .map(|&i| {
                    if wrap_ok {
                        (i as usize % d.nrows().max(1)) as NodeId
                    } else {
                        i
                    }
                })
                .collect();
            Ok(Value::Dense(d.gather_rows(&wrapped)?))
        }
        Op::StackEdgeValues => {
            let mats: Vec<&SparseMatrix> = inputs
                .iter()
                .map(|v| want_matrix(v, "stack_edge_values").map(|m| &m.data))
                .collect::<Result<Vec<_>>>()?;
            Ok(Value::Dense(eltwise::stack_edge_values(&mats)?))
        }
        Op::EdgeValuesFromDense { col } => {
            let m = want_matrix(inputs[0], "edge_values_from_dense")?;
            let d = want_dense(inputs[1], "edge_values_from_dense")?;
            if d.nrows() != m.nnz() || *col >= d.ncols() {
                return Err(Error::Execution(format!(
                    "edge_values_from_dense: dense {}x{} incompatible with nnz {} col {col}",
                    d.nrows(),
                    d.ncols(),
                    m.nnz()
                )));
            }
            let values: Vec<f32> = (0..m.nnz()).map(|e| d.get(e, *col)).collect();
            let mut data = m.data.clone();
            data.set_values(values);
            Ok(Value::Matrix(with_data(m, data)))
        }
        other => Err(Error::Execution(format!(
            "matmul kernel cannot evaluate {other:?}"
        ))),
    }
}
