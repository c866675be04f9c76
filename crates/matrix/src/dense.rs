//! Minimal dense matrix module.
//!
//! Model-driven sampling algorithms (PASS, AS-GCN) interleave sparse graph
//! operators with dense tensor computation — feature projections, softmax,
//! ReLU. This module provides the dense half: a row-major `f32` matrix with
//! exactly the operations those algorithms (and the GNN trainer in
//! `gsampler-train`) need. It deliberately avoids BLAS bindings to stay
//! within the sanctioned dependency set.
//!
//! # GEMM
//!
//! [`Dense::matmul`] hands the pool blocks of [`BLOCK_ROWS`] output rows and
//! fills a block one [`TILE_ROWS`] × [`TILE_COLS`] panel at a time: a panel
//! accumulates in locals across the whole inner loop, so an output element
//! is stored once and one loaded `rhs` segment serves four rows.
//!
//! The summation order is part of the result (goldens, the eager baseline
//! and CSE's gather-through-GEMM rewrite pin the bits): every element is
//! `0.0 + a[i,0]·b[0,j] + a[i,1]·b[1,j] + …` in ascending `k`, whatever the
//! tiling or thread count. A left element equal to `0.0` is skipped, not
//! multiplied — the shortcut ReLU activations want — so `0 × inf` and
//! `0 × NaN` contribute `0`, not `NaN`.

use gsampler_runtime::parallel_scatter;

use crate::error::{Error, Result};
use crate::par_gate;

/// Output rows per parallel segment of [`Dense::matmul`], and the output
/// rows × columns of one register panel.
const BLOCK_ROWS: usize = 64;
const TILE_ROWS: usize = 4;
const TILE_COLS: usize = 16;

/// `out[e] = x · y(e)`, each summed left to right from `-0.0` —
/// `Iterator::sum::<f32>`'s identity; a `+0.0` start misses an all-`-0.0`
/// dot. The fixed order makes a dot one chain of dependent adds, so the
/// instruction-level parallelism comes from running four chains abreast.
#[inline]
pub(crate) fn dots<'a>(x: &[f32], y: impl Fn(usize) -> &'a [f32], out: &mut [f32]) {
    let k = x.len();
    let done = out.len() & !3;
    for (q, quad) in out.chunks_exact_mut(4).enumerate() {
        let e = 4 * q;
        let (y0, y1, y2, y3) = (&y(e)[..k], &y(e + 1)[..k], &y(e + 2)[..k], &y(e + 3)[..k]);
        let mut acc = [-0.0f32; 4];
        for j in 0..k {
            acc[0] += x[j] * y0[j];
            acc[1] += x[j] * y1[j];
            acc[2] += x[j] * y2[j];
            acc[3] += x[j] * y3[j];
        }
        quad.copy_from_slice(&acc);
    }
    for (e, slot) in out.iter_mut().enumerate().skip(done) {
        *slot = x.iter().zip(y(e)).fold(-0.0, |acc, (&a, &b)| acc + a * b);
    }
}

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Dense {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Dense {
        Dense {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Dense> {
        if data.len() != rows * cols {
            return Err(Error::LengthMismatch {
                op: "Dense::from_vec",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Dense { rows, cols, data })
    }

    /// Fill with uniform random values in `[-scale, scale)` (Xavier-ish init).
    pub fn random(rows: usize, cols: usize, scale: f32, rng: &mut impl rand::Rng) -> Dense {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Dense { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` shape tuple.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "dense index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "dense index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow the full row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the full row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Column `c` as a vector (one strided read); panics if `c >= cols`.
    pub fn column(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "dense index out of bounds");
        let strided = self.data.iter().skip(c).step_by(self.cols);
        strided.copied().collect()
    }

    /// Consume into the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Gather rows by index: `out.row(i) = self.row(idx[i])`.
    pub fn gather_rows(&self, idx: &[u32]) -> Result<Dense> {
        if let Some(&bad) = idx.iter().find(|&&src| src as usize >= self.rows) {
            let (op, index, bound) = ("Dense::gather_rows", bad as usize, self.rows);
            return Err(Error::IndexOutOfBounds { op, index, bound });
        }
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &src in idx {
            data.extend_from_slice(self.row(src as usize));
        }
        Dense::from_vec(idx.len(), self.cols, data)
    }

    /// Matrix multiplication `self @ rhs` (module docs: tiling, fixed order).
    pub fn matmul(&self, rhs: &Dense) -> Result<Dense> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                op: "Dense::matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Dense::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        let flops = self.rows * self.cols * n;
        let offsets: Vec<usize> = (0..=self.rows.div_ceil(BLOCK_ROWS))
            .map(|b| (b * BLOCK_ROWS).min(self.rows) * n)
            .collect();
        parallel_scatter(&mut out.data, &offsets, par_gate(flops), |b, block| {
            for (t, tile) in block.chunks_mut(TILE_ROWS * n.max(1)).enumerate() {
                let (i, rows) = (b * BLOCK_ROWS + t * TILE_ROWS, tile.len() / n.max(1));
                for j in (0..n).step_by(TILE_COLS) {
                    // Constant trip counts keep a full panel in registers.
                    match (rows, (n - j).min(TILE_COLS)) {
                        (TILE_ROWS, TILE_COLS) => self.panel(rhs, i, TILE_ROWS, j, TILE_COLS, tile),
                        (rows, w) => self.panel(rhs, i, rows, j, w, tile),
                    }
                }
            }
        });
        Ok(out)
    }

    /// Rows `i..i + rows`, columns `j..j + w` of `self @ rhs`, into `out[i..]`.
    #[inline(always)]
    fn panel(&self, rhs: &Dense, i: usize, rows: usize, j: usize, w: usize, out: &mut [f32]) {
        let n = rhs.cols;
        let mut acc = [[0f32; TILE_COLS]; TILE_ROWS];
        for k in 0..self.cols {
            let b = &rhs.data[k * n + j..k * n + j + w];
            for (r, acc) in acc[..rows].iter_mut().enumerate() {
                let a = self.data[(i + r) * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in acc[..w].iter_mut().zip(b) {
                    *o += a * b;
                }
            }
        }
        for (r, acc) in acc[..rows].iter().enumerate() {
            out[r * n + j..r * n + j + w].copy_from_slice(&acc[..w]);
        }
    }

    /// `self @ rhs.T` (PASS' dense attention, `(B @ W) @ (C @ W).T`): one
    /// output row per pool segment, each dot in strict order ([`dots`]).
    pub fn matmul_t(&self, rhs: &Dense) -> Result<Dense> {
        if self.cols != rhs.cols {
            return Err(Error::ShapeMismatch {
                op: "Dense::matmul_t",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Dense::zeros(self.rows, rhs.rows);
        let flops = self.rows * self.cols * rhs.rows;
        let offsets: Vec<usize> = (0..=self.rows).map(|r| r * rhs.rows).collect();
        parallel_scatter(&mut out.data, &offsets, par_gate(flops), |i, row| {
            dots(self.row(i), |j| rhs.row(j), row);
        });
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Dense {
        Dense {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// ReLU (`max(x, 0)`).
    pub fn relu(&self) -> Dense {
        self.map(|x| x.max(0.0))
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Dense) -> Result<Dense> {
        self.zip(rhs, "Dense::add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Dense) -> Result<Dense> {
        self.zip(rhs, "Dense::sub", |a, b| a - b)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Dense {
        self.map(|x| x * s)
    }

    fn zip(&self, rhs: &Dense, op: &'static str, f: impl Fn(f32, f32) -> f32) -> Result<Dense> {
        if self.shape() != rhs.shape() {
            return Err(Error::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(Dense {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Row-wise softmax (numerically stabilized by max subtraction).
    pub fn softmax_rows(&self) -> Dense {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Softmax over the whole buffer viewed as one distribution (used for
    /// PASS' `W3.softmax()` over a small projection vector).
    pub fn softmax_flat(&self) -> Dense {
        let max = self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = self.data.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        Dense {
            rows: self.rows,
            cols: self.cols,
            data: exps
                .into_iter()
                .map(|e| e / sum.max(f32::MIN_POSITIVE))
                .collect(),
        }
    }

    /// Sum of each column (length `cols`).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Index of the maximum entry in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Approximate resident size in bytes (for the memory tracker).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Dense::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.shape(), (2, 3));
        assert!(Dense::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matmul_correctness() {
        let a = Dense::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Dense::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Dense::from_vec(2, 3, vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0]).unwrap();
        let b = Dense::from_vec(4, 3, (0..12).map(|x| x as f32).collect()).unwrap();
        let fast = a.matmul_t(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.add(&Dense::zeros(3, 2)).is_err());
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let m = Dense::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Softmax is monotone: larger input -> larger probability.
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn softmax_flat_distribution() {
        let m = Dense::from_vec(1, 3, vec![0.0, 0.0, 0.0]).unwrap();
        let s = m.softmax_flat();
        for c in 0..3 {
            assert!((s.get(0, c) - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn gather_rows() {
        let m = Dense::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let g = m.gather_rows(&[2, 0, 2]).unwrap();
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
        assert!(m.gather_rows(&[9]).is_err());
    }

    #[test]
    fn reductions() {
        let m = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
        assert_eq!(m.argmax_rows(), vec![1, 1]);
        assert!((m.norm() - (30f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn elementwise_ops() {
        let a = Dense::from_vec(1, 3, vec![1.0, -2.0, 3.0]).unwrap();
        let b = Dense::from_vec(1, 3, vec![2.0, 2.0, 2.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[3.0, 0.0, 5.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-1.0, -4.0, 1.0]);
        assert_eq!(a.relu().as_slice(), &[1.0, 0.0, 3.0]);
        assert_eq!(a.scale(10.0).as_slice(), &[10.0, -20.0, 30.0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        use rand::SeedableRng;
        let mut r1 = rand::rngs::StdRng::seed_from_u64(42);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(42);
        let a = Dense::random(3, 3, 0.5, &mut r1);
        let b = Dense::random(3, 3, 0.5, &mut r2);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }
}
