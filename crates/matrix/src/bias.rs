//! A per-edge sampling bias evaluated inside the node-wise pick.
//!
//! PASS builds its bias from per-edge channels — SDDMM dots of hoisted
//! feature products and edge maps of the extract's own values — combined
//! through a small projection; GCN-BS, Thanos and SEAL bias by a row
//! vector. Materialized, each channel and the combined bias is an
//! nnz-sized array the select reads once. [`EdgeBias`] is the same
//! arithmetic as a [`ColumnBias`]: [`crate::sample::select`] asks it for
//! one column's weights at a time, inside its parallel region, and no
//! array wider than a column is ever written.
//!
//! Every per-edge operation runs in the f32 order of the chain it replaces
//! — a dot is `dense::dots` (what [`crate::spmm::sddmm_by_id`] runs), a map step
//! is the edge-map kernel's `op.apply`, the combine sums the channels from
//! `0.0` in stack order, skipping a zero as the GEMM does — so the weights,
//! and the picks drawn from them, are bit-identical.

use std::borrow::Cow;
use std::ops::Range;

use crate::csc::Csc;
use crate::dense::{dots, Dense};
use crate::eltwise::UnaryOp;
use crate::error::{Error, Result};
use crate::sample::ColumnBias;
use crate::spmm::RowsById;
use crate::EltOp;

/// One edge-map step of a [`Channel::Map`], its vector resolved: a row
/// vector is read at the edge's row (in the matrix's row space), a column
/// vector at its column.
#[derive(Debug, Clone)]
pub enum MapStep<'a> {
    /// `value = op(value, scalar)`.
    Scalar(EltOp, f32),
    /// `value = unary(value)`.
    Unary(UnaryOp),
    /// `value = op(value, v[row])`.
    Row(EltOp, Cow<'a, [f32]>),
    /// `value = op(value, v[col])`.
    Col(EltOp, Cow<'a, [f32]>),
}

/// One per-edge value of an [`EdgeBias`].
#[derive(Clone)]
pub enum Channel<'a> {
    /// `B.row(row) · C.row(col)`: an SDDMM, `B` read by row ID.
    Dot(RowsById<'a>, &'a Dense),
    /// The edge's own value (`1.0` unweighted) through these steps.
    Map(Vec<MapStep<'a>>),
}

/// A sampling bias over the entries of `src`: one channel as it stands,
/// or `unary(Σ_k [a_k ≠ 0] a_k · W[k, col])` over several.
pub struct EdgeBias<'a> {
    src: &'a Csc,
    channels: Vec<Channel<'a>>,
    /// `W[k, col]` per channel and the unary maps, when combined.
    combine: Option<(Vec<f32>, Vec<UnaryOp>)>,
}

impl<'a> EdgeBias<'a> {
    /// The bias over `src`'s entries: its one channel as it stands, or with
    /// `combine = (w, col, unary)`, `unary(Σ_k [a_k ≠ 0] a_k · w[k, col])`
    /// over the channels — what stacking them, projecting by `w`, mapping
    /// and reading column `col` computes. `w` needs one row per channel.
    pub fn new(
        src: &'a Csc,
        channels: Vec<Channel<'a>>,
        combine: Option<(&Dense, usize, Vec<UnaryOp>)>,
    ) -> Result<EdgeBias<'a>> {
        let k = channels.len();
        let combine = match combine {
            None if k == 1 => None,
            Some((w, col, unary)) if k == w.nrows() && col < w.ncols() => {
                Some(((0..k).map(|ch| w.get(ch, col)).collect(), unary))
            }
            other => {
                let w = other.map(|(w, col, _)| (w.shape(), col));
                let reason = format!("{k} bias channels combined by {w:?}");
                return Err(Error::InvalidStructure { reason });
            }
        };
        Ok(EdgeBias {
            src,
            channels,
            combine,
        })
    }

    /// Channel `ch`'s values on output column `c`'s entries `range`.
    fn channel(&self, ch: usize, c: usize, range: Range<usize>, out: &mut [f32]) {
        let rows = &self.src.indices[range.clone()];
        match &self.channels[ch] {
            Channel::Dot(_, _) if rows.is_empty() => {}
            Channel::Dot(lhs, rhs) => dots(rhs.row(c), |e| lhs.row(rows[e] as usize), out),
            Channel::Map(steps) => {
                match &self.src.values {
                    Some(v) => out.copy_from_slice(&v[range]),
                    None => out.fill(1.0),
                }
                for step in steps {
                    match step {
                        MapStep::Scalar(op, s) => {
                            out.iter_mut().for_each(|v| *v = op.apply(*v, *s))
                        }
                        MapStep::Unary(op) => out.iter_mut().for_each(|v| *v = op.apply(*v)),
                        MapStep::Row(op, x) => (out.iter_mut().zip(rows))
                            .for_each(|(v, &r)| *v = op.apply(*v, x[r as usize])),
                        MapStep::Col(op, x) => out.iter_mut().for_each(|v| *v = op.apply(*v, x[c])),
                    }
                }
            }
        }
    }
}

impl ColumnBias for EdgeBias<'_> {
    fn weights<'s>(
        &'s self,
        c: usize,
        range: Range<usize>,
        scratch: &'s mut Vec<f32>,
    ) -> &'s [f32] {
        let (deg, k) = (range.len(), self.channels.len());
        let Some((w, unary)) = &self.combine else {
            scratch.resize(deg, 0.0);
            self.channel(0, c, range, &mut scratch[..deg]);
            return &scratch[..deg];
        };
        scratch.resize((k + 1) * deg, 0.0);
        let (channels, out) = scratch[..(k + 1) * deg].split_at_mut(k * deg);
        for (ch, values) in channels.chunks_exact_mut(deg.max(1)).enumerate() {
            self.channel(ch, c, range.clone(), values);
        }
        for (e, o) in out.iter_mut().enumerate() {
            let mut acc = 0f32;
            for (ch, &weight) in w.iter().enumerate() {
                let a = channels[ch * deg + e];
                if a != 0.0 {
                    acc += a * weight;
                }
            }
            *o = unary.iter().fold(acc, |x, op| op.apply(x));
        }
        out
    }
}
