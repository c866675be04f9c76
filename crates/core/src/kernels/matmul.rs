//! Matrix-algebra kernels: SpMM, SDDMM, dense GEMM, softmax, and the
//! dense/edge-value plumbing the model-driven samplers use.
//!
//! Nothing is computed here: an arm unwraps its operands, calls the one
//! routine `gsampler-matrix` has for the operator (the one SDDMM is
//! `spmm::sddmm_by_id`, handed the row IDs and the node period) and
//! re-attaches the ID spaces.

use gsampler_ir::Op;
use gsampler_matrix::{eltwise, spmm, Dense, NodeId, SparseMatrix};

use crate::error::{Error, Result};
use crate::value::Value;

use super::eltwise::{want_matrix, want_nodes, with_data};
use super::ExecCtx;

pub(super) fn want_dense<'v>(v: &'v Value, what: &str) -> Result<&'v Dense> {
    v.as_dense()
        .ok_or_else(|| Error::Execution(format!("{what}: expected dense, got {}", v.kind_name())))
}

fn want_patterns<'v>(values: &[&'v Value], what: &str) -> Result<Vec<&'v SparseMatrix>> {
    let data = |v: &&'v Value| want_matrix(v, what).map(|m| &m.data);
    values.iter().map(data).collect()
}

/// Matrix-algebra operator family: evaluate `op` on `inputs`.
pub(super) fn run(
    op: &Op,
    inputs: &[&Value],
    ctx: &ExecCtx<'_>,
    _keys: &[gsampler_runtime::Key],
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
            let row_ids = m.row_ids.as_ref().map(|ids| ids.as_slice());
            let data = spmm::sddmm_by_id(&m.data, row_ids, ctx.n, b, c)?;
            Ok(Value::Matrix(with_data(m, data)))
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
            Ok(Value::Vector(d.column(*col)))
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
            let mats = want_patterns(inputs, "stack_edge_values")?;
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
            Ok(Value::Matrix(with_data(
                m,
                m.data.with_values(d.column(*col)),
            )))
        }
        other => Err(Error::Execution(format!(
            "matmul kernel cannot evaluate {other:?}"
        ))),
    }
}
