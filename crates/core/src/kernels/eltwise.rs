//! Edge-map, reduce, and vector kernels: element-wise sparse ops,
//! broadcasts, reductions, vector algebra, and the fused edge-map chains
//! the fusion pass emits.
//!
//! A fused chain owns its edge *values* and borrows its input's structure:
//! [`apply_steps`] maps a value array laid over the input matrix's pattern,
//! and `Op::FusedEdgeMapReduce` reduces that array over the same pattern
//! (`reduce::reduce_with`), so only `Op::FusedEdgeMap`, whose output is a
//! matrix, ever clones one.
//!
//! Also home of [`fit_vector`], the single axis-parameterized helper that
//! adapts node-indexed vectors to a matrix's row/column dimension (the
//! former `fit_row_vector` / `fit_row_vector_checked` /
//! `fit_col_vector_checked` trio).

use std::borrow::Cow;

use gsampler_ir::op::EdgeMapStep;
use gsampler_ir::Op;
use gsampler_matrix::{broadcast, eltwise, reduce, Axis, GraphMatrix, NodeId, SparseMatrix};

use crate::error::{Error, Result};
use crate::value::Value;

use super::ExecCtx;

/// Keep a matrix's ID spaces while swapping its data (same pattern).
pub(crate) fn with_data(m: &GraphMatrix, data: SparseMatrix) -> GraphMatrix {
    GraphMatrix {
        data,
        row_ids: m.row_ids.clone(),
        col_ids: m.col_ids.clone(),
    }
}

/// How [`fit_vector`] treats an index beyond the vector's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitMode {
    /// Out-of-range IDs are an error unless the vector spans exactly one
    /// period (a full-graph node-indexed table), in which case block IDs
    /// wrap by `id mod period`.
    Strict,
    /// Always wrap by `id mod len` — for internal paths where the caller
    /// guarantees a full-graph node-indexed vector.
    Wrap,
}

/// Adapt a vector to a matrix's `axis` dimension: identical length passes
/// through (borrowed, not copied); otherwise each position is looked up by
/// its global ID along that axis (directly for compacted sub-matrices,
/// modulo the graph's node count `period` for block-diagonal super-batched
/// ones).
pub(crate) fn fit_vector<'v>(
    m: &GraphMatrix,
    v: &'v [f32],
    axis: Axis,
    period: usize,
    mode: FitMode,
) -> Result<Cow<'v, [f32]>> {
    let dim = match axis {
        Axis::Row => m.shape().0,
        Axis::Col => m.shape().1,
    };
    if v.len() == dim {
        return Ok(Cow::Borrowed(v));
    }
    let len = v.len();
    (0..dim)
        .map(|i| {
            let g = match axis {
                Axis::Row => m.global_row(i),
                Axis::Col => m.global_col(i),
            } as usize;
            if g < len {
                Ok(v[g])
            } else if len == period || mode == FitMode::Wrap {
                Ok(v[g % len.max(1)])
            } else {
                let name = match axis {
                    Axis::Row => "row",
                    Axis::Col => "column",
                };
                Err(Error::Execution(format!(
                    "{name} vector of length {len} cannot index {name} id {g} (period {period})"
                )))
            }
        })
        .collect::<Result<Vec<f32>>>()
        .map(Cow::Owned)
}

/// Strict row/column fit — errors on a genuine length mismatch.
pub(crate) fn fit_axis_vector<'v>(
    m: &GraphMatrix,
    v: &'v [f32],
    axis: Axis,
    period: usize,
) -> Result<Cow<'v, [f32]>> {
    fit_vector(m, v, axis, period, FitMode::Strict)
}

/// Infallible row fit for internal paths where the vector is known to be
/// full-graph node-indexed.
pub(crate) fn fit_row_vector<'v>(m: &GraphMatrix, v: &'v [f32]) -> Cow<'v, [f32]> {
    fit_vector(m, v, Axis::Row, usize::MAX, FitMode::Wrap).expect("wrap-mode fit cannot fail")
}

/// Apply a fused edge-map chain in place to `values`, the edge values of
/// `m`'s pattern in storage order.
pub(crate) fn apply_steps(
    values: &mut [f32],
    m: &GraphMatrix,
    steps: &[EdgeMapStep],
    inputs: &[&Value],
    period: usize,
) -> Result<()> {
    for step in steps {
        match step {
            EdgeMapStep::Scalar(op, s) => {
                let op = *op;
                let s = *s;
                for v in values.iter_mut() {
                    *v = op.apply(*v, s);
                }
            }
            EdgeMapStep::Unary(op) => {
                let op = *op;
                for v in values.iter_mut() {
                    *v = op.apply(*v);
                }
            }
            EdgeMapStep::Broadcast(op, axis, pos) => {
                let v = want_vector(inputs[*pos], "fused broadcast")?;
                let fitted = fit_axis_vector(m, v, *axis, period)?;
                broadcast::broadcast_values(&m.data, values, &fitted, *op, *axis)?;
            }
        }
    }
    Ok(())
}

/// `row_probs[sample_A.row()]`: the bias of every sampled row.
///
/// A vector as long as `source` has rows is aligned with them (LADIES'
/// `row_probs`, reduced from `source`): a sampled row reads it at its
/// position in `source`'s row space. Any other vector — every vector when
/// there is no source — is node-indexed (FastGCN's `degrees`, an
/// extract-reduce) and is read by global ID with [`fit_row_vector`]'s
/// wrap, as `collective_sample` read it when it drew the rows. A global
/// ID's position is its own without row IDs, else read from a flat table
/// over them (the last duplicate winning).
pub fn gather_row_bias(
    v: &[f32],
    sampled: &GraphMatrix,
    source: Option<&GraphMatrix>,
) -> Result<Value> {
    let nrows = sampled.shape().0;
    let Some(source) = source.filter(|s| s.shape().0 == v.len()) else {
        if v.is_empty() && nrows > 0 {
            let empty = "gather_row_bias: empty bias vector".to_string();
            return Err(Error::Execution(empty));
        }
        let by_id = |r| v[sampled.global_row(r) as usize % v.len()];
        return Ok(Value::Vector((0..nrows).map(by_id).collect()));
    };
    let table = source.row_ids.as_deref().map(|ids| {
        let mut at = vec![usize::MAX; ids.iter().max().map_or(0, |&g| g as usize + 1)];
        ids.iter()
            .enumerate()
            .for_each(|(pos, &g)| at[g as usize] = pos);
        at
    });
    let at = |g: usize| table.as_ref().map_or(Some(g), |at| at.get(g).copied());
    let lookup = |r| {
        let g = sampled.global_row(r);
        let pos = at(g as usize).filter(|&pos| pos < v.len());
        pos.map(|pos| v[pos]).ok_or_else(|| {
            Error::Execution(format!(
                "gather_row_bias: row {g} missing from source space"
            ))
        })
    };
    (0..nrows)
        .map(lookup)
        .collect::<Result<_>>()
        .map(Value::Vector)
}

pub(super) fn want_matrix<'v>(v: &'v Value, what: &str) -> Result<&'v GraphMatrix> {
    v.as_matrix()
        .ok_or_else(|| Error::Execution(format!("{what}: expected matrix, got {}", v.kind_name())))
}

pub(super) fn want_vector<'v>(v: &'v Value, what: &str) -> Result<&'v [f32]> {
    v.as_vector()
        .ok_or_else(|| Error::Execution(format!("{what}: expected vector, got {}", v.kind_name())))
}

pub(super) fn want_nodes<'v>(v: &'v Value, what: &str) -> Result<&'v [NodeId]> {
    v.as_nodes()
        .ok_or_else(|| Error::Execution(format!("{what}: expected nodes, got {}", v.kind_name())))
}

/// Edge-map / reduce / vector operator family: evaluate `op` on `inputs`.
pub(super) fn run(
    op: &Op,
    inputs: &[&Value],
    ctx: &ExecCtx<'_>,
    _keys: &[gsampler_runtime::Key],
) -> Result<Value> {
    match op {
        Op::ScalarOp(o, s) => {
            let m = want_matrix(inputs[0], "scalar_op")?;
            let data = eltwise::scalar_op(&m.data, *s, *o);
            Ok(Value::Matrix(with_data(m, data)))
        }
        Op::UnaryOp(o) => {
            let m = want_matrix(inputs[0], "unary_op")?;
            let data = eltwise::unary_op(&m.data, *o);
            Ok(Value::Matrix(with_data(m, data)))
        }
        Op::Broadcast(o, axis) => {
            let m = want_matrix(inputs[0], "broadcast")?;
            let v = want_vector(inputs[1], "broadcast")?;
            let fitted = fit_axis_vector(m, v, *axis, ctx.n)?;
            let data = broadcast::broadcast(&m.data, &fitted, *o, *axis)?;
            Ok(Value::Matrix(with_data(m, data)))
        }
        Op::SparseElt(o) => {
            let a = want_matrix(inputs[0], "sparse_elt")?;
            let b = want_matrix(inputs[1], "sparse_elt")?;
            let data = eltwise::sparse_op(&a.data, &b.data, *o)?;
            Ok(Value::Matrix(with_data(a, data)))
        }
        Op::Reduce(o, axis) => {
            let m = want_matrix(inputs[0], "reduce")?;
            Ok(Value::Vector(reduce::reduce(&m.data, *o, *axis)))
        }
        Op::VectorOp(o) => {
            let a = want_vector(inputs[0], "vector_op")?;
            let b = want_vector(inputs[1], "vector_op")?;
            // Under super-batching, a block-space vector (length S·N)
            // may combine with a base-space one (length N): tile the
            // shorter periodically, mirroring `fit_vector`.
            let (long, short, flipped) = if a.len() >= b.len() {
                (a, b, false)
            } else {
                (b, a, true)
            };
            if short.is_empty() || long.len() % short.len() != 0 {
                return Err(Error::Execution(format!(
                    "vector_op length mismatch: {} vs {}",
                    a.len(),
                    b.len()
                )));
            }
            let out: Vec<f32> = long
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let y = short[i % short.len()];
                    if flipped {
                        o.apply(y, x)
                    } else {
                        o.apply(x, y)
                    }
                })
                .collect();
            Ok(Value::Vector(out))
        }
        Op::VectorScalar(o, s) => {
            let a = want_vector(inputs[0], "vector_scalar")?;
            Ok(Value::Vector(a.iter().map(|&x| o.apply(x, *s)).collect()))
        }
        Op::VectorSum => {
            let a = want_vector(inputs[0], "vector_sum")?;
            Ok(Value::Scalar(a.iter().sum()))
        }
        Op::VectorNormalize => {
            let a = want_vector(inputs[0], "vector_normalize")?;
            let total: f32 = a.iter().sum();
            if total > 0.0 {
                Ok(Value::Vector(a.iter().map(|&x| x / total).collect()))
            } else {
                Ok(Value::Vector(a.to_vec()))
            }
        }
        Op::GatherVector => {
            let v = want_vector(inputs[0], "gather_vector")?;
            let idx = want_nodes(inputs[1], "gather_vector")?;
            idx.iter()
                .map(|&i| {
                    v.get(i as usize).copied().ok_or_else(|| {
                        Error::Execution(format!("gather_vector index {i} out of range"))
                    })
                })
                .collect::<Result<Vec<f32>>>()
                .map(Value::Vector)
        }
        Op::GatherRowBias => {
            let v = want_vector(inputs[0], "gather_row_bias")?;
            let sampled = want_matrix(inputs[1], "gather_row_bias")?;
            let source = inputs.get(2).map(|s| want_matrix(s, "gather_row_bias"));
            gather_row_bias(v, sampled, source.transpose()?)
        }
        Op::FusedExtractReduce { reduce: rop } => {
            // Each group folds its own columns onto its own block of rows.
            let m = want_matrix(inputs[0], "fused_extract_reduce")?;
            let csc = m.data.csc();
            ctx.check_frontiers(csc.ncols, "fused_extract_reduce")?;
            let (cols, block) = (ctx.concat_frontiers, ctx.s > 1 && csc.nrows == ctx.n);
            let groups = if block {
                ctx.col_offsets
            } else {
                &[0, cols.len()]
            };
            let value_of = |e: usize| csc.values.as_ref().map_or(1.0, |v| v[e]);
            Ok(Value::Vector(reduce::reduce_col_groups(
                &csc, cols, groups, *rop, value_of,
            )))
        }
        Op::AlignRowVector => {
            let v = want_vector(inputs[0], "align_row_vector")?;
            let m = want_matrix(inputs[1], "align_row_vector")?;
            Ok(Value::Vector(fit_row_vector(m, v).into_owned()))
        }
        Op::FusedEdgeMap { steps } => {
            let m = want_matrix(inputs[0], "fused_edge_map")?;
            let mut data = m.data.clone();
            apply_steps(data.values_mut(), m, steps, inputs, ctx.n)?;
            Ok(Value::Matrix(with_data(m, data)))
        }
        Op::FusedEdgeMapReduce {
            steps,
            reduce: rop,
            axis,
        } => {
            let m = want_matrix(inputs[0], "fused_edge_map_reduce")?;
            let mut values = m.data.values_or_ones();
            apply_steps(&mut values, m, steps, inputs, ctx.n)?;
            let reduced = reduce::reduce_with(&m.data, *rop, *axis, |e| values[e]);
            Ok(Value::Vector(reduced))
        }
        other => Err(Error::Execution(format!(
            "eltwise kernel cannot evaluate {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsampler_matrix::Csc;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// 4×3 matrix whose rows carry global IDs (compacted sub-matrix).
    fn compacted() -> GraphMatrix {
        let csc = Csc {
            nrows: 4,
            ncols: 3,
            indptr: vec![0, 2, 3, 4],
            indices: vec![0, 2, 1, 3],
            values: Some(vec![1.0, 2.0, 3.0, 4.0]),
        };
        GraphMatrix {
            data: SparseMatrix::Csc(csc),
            row_ids: Some(Arc::new(vec![10, 25, 40, 55])),
            col_ids: Some(Arc::new(vec![0, 1, 2])),
        }
    }

    #[test]
    fn exact_length_passes_through_both_axes() {
        let m = compacted();
        let rows = fit_axis_vector(&m, &[1.0, 2.0, 3.0, 4.0], Axis::Row, 64).unwrap();
        assert_eq!(rows, vec![1.0, 2.0, 3.0, 4.0]);
        let cols = fit_axis_vector(&m, &[5.0, 6.0, 7.0], Axis::Col, 64).unwrap();
        assert_eq!(cols, vec![5.0, 6.0, 7.0]);
    }

    #[test]
    fn node_indexed_vector_is_gathered_by_global_id() {
        let m = compacted();
        let table: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let rows = fit_axis_vector(&m, &table, Axis::Row, 64).unwrap();
        assert_eq!(rows, vec![10.0, 25.0, 40.0, 55.0]);
    }

    #[test]
    fn period_vector_wraps_block_ids() {
        // Block-diagonal IDs (period 32) index a period-length table mod N.
        let mut m = compacted();
        m.row_ids = Some(Arc::new(vec![10, 25, 32 + 4, 32 + 20]));
        let table: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let rows = fit_axis_vector(&m, &table, Axis::Row, 32).unwrap();
        assert_eq!(rows, vec![10.0, 25.0, 4.0, 20.0]);
    }

    #[test]
    fn strict_mode_rejects_period_mismatch_on_rows() {
        let m = compacted();
        // Length 20: neither the row count (4) nor the period (64), and
        // row id 25 is out of range -> error names the row axis.
        let err = fit_axis_vector(&m, &[1.0; 20], Axis::Row, 64).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("row vector of length 20"), "got: {msg}");
        assert!(msg.contains("period 64"), "got: {msg}");
    }

    #[test]
    fn strict_mode_rejects_period_mismatch_on_cols() {
        let mut m = compacted();
        m.col_ids = Some(Arc::new(vec![0, 30, 45]));
        let err = fit_axis_vector(&m, &[1.0; 7], Axis::Col, 64).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("column vector of length 7"), "got: {msg}");
    }

    #[test]
    fn wrap_mode_never_fails() {
        let m = compacted();
        let fitted = fit_row_vector(&m, &[1.0, 2.0, 3.0]);
        // IDs 10, 25, 40, 55 wrap mod 3.
        assert_eq!(fitted, vec![2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn gather_row_bias_matches_a_hash_map_of_the_source_rows() {
        // Ascending, unsorted and duplicated source row spaces (the last
        // duplicate wins, as collecting into a map does), and none at all.
        let spaces: [Option<Vec<NodeId>>; 4] = [
            Some(vec![3, 10, 25, 40, 55, 70]),
            Some(vec![55, 3, 70, 10, 40, 25]),
            Some(vec![10, 55, 10, 25, 55, 40]),
            None,
        ];
        let bias: Vec<f32> = (0..6).map(|i| 0.5 + i as f32).collect();
        for ids in spaces {
            let mut source = compacted();
            source.data = SparseMatrix::Csc(Csc::empty(6, 3));
            source.row_ids = ids.clone().map(Arc::new);
            let known = ids.clone().unwrap_or_else(|| (0..6).collect());
            let mut sampled = compacted();
            sampled.row_ids = Some(Arc::new(vec![known[4], known[0], known[2], known[4]]));
            let map: HashMap<NodeId, usize> =
                known.iter().enumerate().map(|(i, &g)| (g, i)).collect();
            let want: Vec<f32> = (0..4).map(|r| bias[map[&sampled.global_row(r)]]).collect();
            let got = gather_row_bias(&bias, &sampled, Some(&source)).unwrap();
            assert_eq!(got.as_vector().unwrap(), &want[..], "source rows {ids:?}");

            // Below, between and above the known IDs: a typed error.
            for absent in [0, 41, 99] {
                let known_id = known.contains(&absent);
                sampled.row_ids = Some(Arc::new(vec![known[1], absent, known[1], known[1]]));
                let out = gather_row_bias(&bias, &sampled, Some(&source));
                assert_eq!(out.is_ok(), known_id, "row {absent} in {ids:?}");
                if let Err(e) = out {
                    assert!(e.to_string().contains("missing from source space"));
                }
            }
        }
    }
}
