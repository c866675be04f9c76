//! Dense layers, loss, and optimizer with hand-written backward passes.

use gsampler_matrix::Dense;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully-connected layer `y = x @ W + b` with gradient accumulators.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `(in, out)`.
    pub w: Dense,
    /// Bias `(out)`.
    pub b: Vec<f32>,
    grad_w: Dense,
    grad_b: Vec<f32>,
    adam_w: Adam,
    adam_b: Adam,
}

impl Linear {
    /// Xavier-style initialization.
    pub fn new(input: usize, output: usize, seed: u64) -> Linear {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (6.0 / (input + output) as f32).sqrt();
        Linear {
            w: Dense::random(input, output, scale, &mut rng),
            b: vec![0.0; output],
            grad_w: Dense::zeros(input, output),
            grad_b: vec![0.0; output],
            adam_w: Adam::new(input * output),
            adam_b: Adam::new(output),
        }
    }

    /// Forward: `x (n, in) -> (n, out)`.
    pub fn forward(&self, x: &Dense) -> Dense {
        let mut y = x.matmul(&self.w).expect("linear dims");
        for r in 0..y.nrows() {
            let row = y.row_mut(r);
            for (v, &bias) in row.iter_mut().zip(&self.b) {
                *v += bias;
            }
        }
        y
    }

    /// Backward: accumulate `dW = x^T dy`, `db = colsum dy`; return
    /// `dx = dy W^T`.
    pub fn backward(&mut self, x: &Dense, dy: &Dense) -> Dense {
        let dw = x.transpose().matmul(dy).expect("grad dims");
        self.grad_w = self.grad_w.add(&dw).expect("same shape");
        for (g, s) in self.grad_b.iter_mut().zip(dy.col_sums()) {
            *g += s;
        }
        dy.matmul(&self.w.transpose()).expect("dx dims")
    }

    /// Apply one Adam step and clear gradients.
    pub fn step(&mut self, lr: f32) {
        self.adam_w
            .step(self.w.as_mut_slice(), self.grad_w.as_slice(), lr);
        self.adam_b.step(&mut self.b, &self.grad_b, lr);
        self.grad_w = Dense::zeros(self.w.nrows(), self.w.ncols());
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// Adam optimizer state for one flat parameter tensor.
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Fresh state for `len` parameters.
    pub fn new(len: usize) -> Adam {
        Adam {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    /// One update with the standard `(0.9, 0.999, 1e-8)` hyper-parameters.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        self.t += 1;
        let c1 = 1.0 - B1.powi(self.t as i32);
        let c2 = 1.0 - B2.powi(self.t as i32);
        for ((p, &g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let mh = *m / c1;
            let vh = *v / c2;
            *p -= lr * mh / (vh.sqrt() + EPS);
        }
    }
}

/// Softmax cross-entropy over logits `(n, classes)`.
///
/// Returns `(mean_loss, dlogits, correct_predictions)`.
pub(crate) fn softmax_cross_entropy(logits: &Dense, labels: &[usize]) -> (f32, Dense, usize) {
    let n = logits.nrows();
    assert_eq!(labels.len(), n, "one label per row");
    let probs = logits.softmax_rows();
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    let mut correct = 0usize;
    let preds = probs.argmax_rows();
    for (r, &label) in labels.iter().enumerate() {
        let p = probs.get(r, label).max(1e-12);
        loss -= p.ln();
        grad.set(r, label, grad.get(r, label) - 1.0);
        if preds[r] == label {
            correct += 1;
        }
    }
    let scale = 1.0 / n.max(1) as f32;
    (loss * scale, grad.scale(scale), correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_shapes_and_bias() {
        let mut l = Linear::new(3, 2, 1);
        l.b = vec![1.0, -1.0];
        let x = Dense::zeros(4, 3);
        let y = l.forward(&x);
        assert_eq!(y.shape(), (4, 2));
        assert_eq!(y.get(0, 0), 1.0);
        assert_eq!(y.get(3, 1), -1.0);
    }

    #[test]
    fn linear_gradient_check() {
        // Numerical gradient check on a tiny layer.
        let mut l = Linear::new(2, 2, 3);
        let x = Dense::from_vec(1, 2, vec![0.5, -0.3]).unwrap();
        let labels = vec![1usize];
        let loss_of = |l: &Linear, x: &Dense| {
            let y = l.forward(x);
            softmax_cross_entropy(&y, &labels).0
        };
        let base = loss_of(&l, &x);
        // Analytic gradient.
        let y = l.forward(&x);
        let (_, dy, _) = softmax_cross_entropy(&y, &labels);
        let _ = l.backward(&x, &dy);
        let analytic = l.grad_w.get(0, 0);
        // Numeric gradient.
        let eps = 1e-3;
        let mut l2 = l.clone();
        let old = l2.w.get(0, 0);
        l2.w.set(0, 0, old + eps);
        let numeric = (loss_of(&l2, &x) - base) / eps;
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn adam_decreases_quadratic() {
        // Minimize f(p) = (p - 3)^2 with Adam.
        let mut p = vec![0.0f32];
        let mut adam = Adam::new(1);
        for _ in 0..500 {
            let g = 2.0 * (p[0] - 3.0);
            adam.step(&mut p, &[g], 0.05);
        }
        assert!((p[0] - 3.0).abs() < 0.1, "p = {}", p[0]);
    }

    #[test]
    fn cross_entropy_decreases_with_confidence() {
        let good = Dense::from_vec(1, 3, vec![0.0, 5.0, 0.0]).unwrap();
        let bad = Dense::from_vec(1, 3, vec![5.0, 0.0, 0.0]).unwrap();
        let (lg, _, cg) = softmax_cross_entropy(&good, &[1]);
        let (lb, _, cb) = softmax_cross_entropy(&bad, &[1]);
        assert!(lg < lb);
        assert_eq!(cg, 1);
        assert_eq!(cb, 0);
    }

    #[test]
    fn training_a_linear_classifier_converges() {
        // Two separable clusters.
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            xs.extend_from_slice(&[sign * 1.0 + 0.01 * i as f32, sign * -0.5]);
            labels.push(if sign > 0.0 { 0usize } else { 1 });
        }
        let x = Dense::from_vec(20, 2, xs).unwrap();
        let mut l = Linear::new(2, 2, 5);
        let mut final_acc = 0.0;
        for _ in 0..200 {
            let y = l.forward(&x);
            let (_, dy, correct) = softmax_cross_entropy(&y, &labels);
            l.backward(&x, &dy);
            l.step(0.05);
            final_acc = correct as f32 / 20.0;
        }
        assert!(final_acc > 0.95, "accuracy {final_acc}");
    }
}
