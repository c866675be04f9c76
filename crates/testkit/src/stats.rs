//! Statistical validators: chi-squared frequency tests against analytic
//! target distributions.
//!
//! Where two engines intentionally draw from independent RNG streams
//! (e.g. the optimized pipeline vs the vertex-centric baseline, or
//! super-batched vs sequential execution), exact comparison is
//! meaningless — but both must still realize the *same distribution*.
//! These helpers generalize the star-graph test of
//! `tests/baseline_equivalence.rs` into reusable machinery.

/// Pearson chi-squared statistic of observed counts against expected
/// probabilities over `trials` draws. Categories with expected count
/// below 1e-12 must observe zero (returns infinity otherwise).
pub(crate) fn chi_squared(observed: &[u64], expected_probs: &[f64], trials: u64) -> f64 {
    assert_eq!(observed.len(), expected_probs.len());
    let mut stat = 0.0;
    for (&o, &p) in observed.iter().zip(expected_probs) {
        let e = p * trials as f64;
        if e < 1e-12 {
            if o > 0 {
                return f64::INFINITY;
            }
            continue;
        }
        let d = o as f64 - e;
        stat += d * d / e;
    }
    stat
}

/// Approximate upper critical value of the chi-squared distribution with
/// `df` degrees of freedom at significance `alpha` (one of the baked-in
/// z-scores), via the Wilson–Hilferty cube approximation. Accurate to a
/// few percent for df >= 1 — plenty for a pass/fail gate at alpha=1e-3.
pub(crate) fn chi_squared_critical(df: usize, alpha: f64) -> f64 {
    let z = if (alpha - 0.001).abs() < 1e-12 {
        3.0902
    } else if (alpha - 0.01).abs() < 1e-12 {
        2.3263
    } else if (alpha - 0.05).abs() < 1e-12 {
        1.6449
    } else {
        panic!("unsupported alpha {alpha}; use 0.05, 0.01, or 0.001")
    };
    let d = df as f64;
    let t = 1.0 - 2.0 / (9.0 * d) + z * (2.0 / (9.0 * d)).sqrt();
    d * t * t * t
}

/// Assert observed counts fit the expected distribution at alpha=1e-3.
/// `label` names the check in the failure message.
pub fn assert_fits(label: &str, observed: &[u64], expected_probs: &[f64], trials: u64) {
    let live = expected_probs.iter().filter(|&&p| p > 1e-12).count();
    assert!(live >= 2, "{label}: need at least two live categories");
    let stat = chi_squared(observed, expected_probs, trials);
    let crit = chi_squared_critical(live - 1, 0.001);
    assert!(
        stat <= crit,
        "{label}: chi-squared {stat:.2} exceeds critical {crit:.2} (df={}, n={trials}); \
         observed={observed:?}, expected_probs={expected_probs:?}",
        live - 1
    );
}

/// Exact per-candidate inclusion probabilities for weighted sampling of
/// `k` items *without replacement* (successive-draw model: at each step,
/// pick among the remaining with probability proportional to weight).
/// Computed by exhaustive enumeration over ordered prefixes — fine for
/// the tiny candidate sets the statistical tests use (n <= 8, k <= 3).
pub fn inclusion_probabilities_without_replacement(weights: &[f32], k: usize) -> Vec<f64> {
    let n = weights.len();
    let k = k.min(n);
    let mut incl = vec![0.0f64; n];
    // DFS over ordered selections, carrying path probability.
    fn dfs(weights: &[f32], chosen: &mut Vec<usize>, prob: f64, k: usize, incl: &mut [f64]) {
        if chosen.len() == k {
            for &c in chosen.iter() {
                incl[c] += prob;
            }
            return;
        }
        let rem: f64 = weights
            .iter()
            .enumerate()
            .filter(|(i, _)| !chosen.contains(i))
            .map(|(_, &w)| w as f64)
            .sum();
        if rem <= 0.0 {
            // All remaining weight is zero: every remaining candidate is
            // equally likely (the sampler must still fill k slots).
            let remaining: Vec<usize> =
                (0..weights.len()).filter(|i| !chosen.contains(i)).collect();
            let p = prob / remaining.len() as f64;
            for i in remaining {
                chosen.push(i);
                dfs(weights, chosen, p, k, incl);
                chosen.pop();
            }
            return;
        }
        for i in 0..weights.len() {
            if chosen.contains(&i) || weights[i] <= 0.0 {
                continue;
            }
            let p = prob * weights[i] as f64 / rem;
            chosen.push(i);
            dfs(weights, chosen, p, k, incl);
            chosen.pop();
        }
    }
    let mut chosen = Vec::new();
    dfs(weights, &mut chosen, 1.0, k, &mut incl);
    incl
}

/// Assert per-category inclusion counts (k selections per trial, so NOT
/// multinomial) match expected inclusion probabilities within a z-bound
/// of 4.5 sigma per category — a per-binomial gate with comparable
/// strictness to the chi-squared one.
pub fn assert_inclusion_fits(label: &str, observed: &[u64], inclusion_probs: &[f64], trials: u64) {
    assert_eq!(observed.len(), inclusion_probs.len());
    for (i, (&o, &p)) in observed.iter().zip(inclusion_probs).enumerate() {
        let mean = p * trials as f64;
        let var = (p * (1.0 - p)).max(0.0) * trials as f64;
        if var < 1e-12 {
            let diff = (o as f64 - mean).abs();
            assert!(
                diff < 1e-9,
                "{label}: degenerate category {i} observed {o}, expected {mean}"
            );
            continue;
        }
        let z = (o as f64 - mean) / var.sqrt();
        assert!(
            z.abs() <= 4.5,
            "{label}: category {i} z-score {z:.2} (observed {o}, expected {mean:.1} of {trials})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_values_match_tables() {
        // Reference values: chi2inv(0.999, df) = 10.83 (df=1), 16.27
        // (df=3), 27.88 (df=9).
        assert!((chi_squared_critical(1, 0.001) - 10.83).abs() < 0.6);
        assert!((chi_squared_critical(3, 0.001) - 16.27).abs() < 0.5);
        assert!((chi_squared_critical(9, 0.001) - 27.88).abs() < 0.5);
    }

    #[test]
    fn uniform_counts_pass_biased_counts_fail() {
        let probs = vec![0.25; 4];
        assert_fits("uniform", &[250, 248, 252, 250], &probs, 1000);
        let stat = chi_squared(&[400, 200, 200, 200], &probs, 1000);
        assert!(stat > chi_squared_critical(3, 0.001));
    }

    #[test]
    fn inclusion_probs_sum_to_k_and_order_by_weight() {
        let w = [4.0f32, 2.0, 1.0, 1.0];
        let p = inclusion_probabilities_without_replacement(&w, 2);
        let total: f64 = p.iter().sum();
        assert!((total - 2.0).abs() < 1e-9, "sum {total}");
        assert!(p[0] > p[1] && p[1] > p[2]);
        assert!((p[2] - p[3]).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_candidates_are_never_included_when_enough_positive() {
        let w = [3.0f32, 2.0, 0.0, 1.0];
        let p = inclusion_probabilities_without_replacement(&w, 2);
        assert_eq!(p[2], 0.0);
    }
}
