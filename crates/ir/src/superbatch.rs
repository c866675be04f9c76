//! Super-batch planning (paper §4.4).
//!
//! Small mini-batches under-utilize the device (Fig. 6), so gSampler
//! samples several mini-batches *together*: their frontiers are
//! concatenated and every batch's row space is shifted into its own ID
//! range, which makes the combined extract a block-diagonal matrix —
//! batches cannot interfere, per-column operators need no changes, and
//! per-row reductions/selections stay per-batch because the row spaces are
//! disjoint. The executor in `gsampler-core` implements the segmented
//! runtime; this module implements the planning: a grid search for the
//! largest super-batch factor whose transient memory fits the budget.

use crate::estimate::{estimate_shapes, estimate_transient_bytes, GraphStats};
use crate::program::Program;

/// Result of the super-batch grid search.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperBatchPlan {
    /// Number of mini-batches to sample together (1 = disabled).
    pub factor: usize,
    /// Estimated transient bytes at the chosen factor.
    pub est_bytes: f64,
    /// The memory budget used for the search.
    pub budget_bytes: f64,
    /// Whether `est_bytes` actually fits the budget. The grid search
    /// never returns a factor below 1, so an unsatisfiable budget
    /// (even a single batch is estimated over it) still yields
    /// `factor: 1` — but with `fits: false` so callers can warn or
    /// reject instead of silently over-committing memory.
    pub fits: bool,
}

/// Candidate factors tried by the grid search.
const FACTORS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Pick the largest factor whose estimated transient memory fits
/// `budget_bytes`; never returns less than 1.
pub fn plan(
    program: &Program,
    stats: &GraphStats,
    batch_size: usize,
    budget_bytes: f64,
) -> SuperBatchPlan {
    let at = |f: usize| (f, transient_bytes(program, stats, batch_size * f));
    let (mut chosen, mut chosen_bytes) = at(1);
    for &f in FACTORS.iter().skip(1) {
        let next = at(f);
        if next.1 > budget_bytes {
            break;
        }
        (chosen, chosen_bytes) = next;
    }
    let fits = chosen_bytes <= budget_bytes;
    if !fits {
        gsampler_obs::event(
            "warn",
            "superbatch.unsatisfiable",
            &[
                ("batch_size", gsampler_obs::Arg::Num(batch_size as f64)),
                ("est_bytes", gsampler_obs::Arg::Num(chosen_bytes)),
                ("budget_bytes", gsampler_obs::Arg::Num(budget_bytes)),
            ],
        );
    }
    gsampler_obs::event(
        "plan",
        "superbatch",
        &[
            ("factor", gsampler_obs::Arg::Num(chosen as f64)),
            ("est_bytes", gsampler_obs::Arg::Num(chosen_bytes)),
            ("budget_bytes", gsampler_obs::Arg::Num(budget_bytes)),
            ("fits", gsampler_obs::Arg::from(fits)),
        ],
    );
    SuperBatchPlan {
        factor: chosen,
        est_bytes: chosen_bytes,
        budget_bytes,
        fits,
    }
}

/// Estimated peak transient bytes of one execution of `program` over
/// `cols` frontier columns (the §4.4 size model). Pure: no planning, no
/// trace event — also the serving layer's admission estimate.
pub fn transient_bytes(program: &Program, stats: &GraphStats, cols: usize) -> f64 {
    let shapes = estimate_shapes(program, stats, cols);
    estimate_transient_bytes(program, &shapes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn stats() -> GraphStats {
        GraphStats {
            num_nodes: 2_400_000,
            num_edges: 123_000_000,
            feature_dim: 100,
        }
    }

    fn graphsage() -> Program {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let s = p.add(Op::FusedExtractSelect { k: 10 }, vec![g, f]);
        let next = p.add(Op::RowNodes, vec![s]);
        p.mark_output(s);
        p.mark_output(next);
        p
    }

    #[test]
    fn bigger_budget_bigger_factor() {
        let p = graphsage();
        let small = plan(&p, &stats(), 512, 1e6);
        let large = plan(&p, &stats(), 512, 1e9);
        assert!(large.factor > small.factor);
        assert!(large.est_bytes <= 1e9);
        assert!(large.fits);
    }

    #[test]
    fn factor_never_below_one() {
        let p = graphsage();
        let tiny = plan(&p, &stats(), 512, 1.0);
        assert_eq!(tiny.factor, 1);
        // Regression: a factor-1 plan over an unsatisfiable budget used
        // to be indistinguishable from a fitting one.
        assert!(!tiny.fits);
        assert!(tiny.est_bytes > tiny.budget_bytes);
    }

    #[test]
    fn factor_caps_at_grid_max() {
        let p = graphsage();
        let huge = plan(&p, &stats(), 16, 1e15);
        assert_eq!(huge.factor, 128);
        assert!(huge.fits);
    }

    #[test]
    fn memory_estimate_monotone_in_factor() {
        let p = graphsage();
        let b1 = transient_bytes(&p, &stats(), 512);
        let b8 = transient_bytes(&p, &stats(), 512 * 8);
        assert!(b8 > b1 * 4.0);
    }
}
