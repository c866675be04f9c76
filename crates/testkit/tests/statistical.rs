//! Statistical validation of the randomized select kernels against
//! analytic target distributions — chi-squared for single-pick
//! frequencies, per-binomial z-bounds for k-per-trial inclusion counts.
//!
//! These generalize the star-graph check in `tests/baseline_equivalence.rs`
//! and add the regression guard for biased (PASS-style) selection without
//! replacement: the Efraimidis–Spirakis kernel must match the exact
//! successive-draw inclusion probabilities, not the with-replacement ones.
//! Weighted draws *with* replacement (inverse CDF) are held to their own
//! closed form, one DeepWalk and one Node2Vec step to their transitions,
//! and the model-driven selects (the bandits, PASS, AS-GCN) to their
//! biases end to end.

use std::sync::Arc;

use gsampler_baselines::EagerSampler;
use gsampler_core::builder::LayerBuilder;
use gsampler_core::{compile, Bindings, DeviceProfile, Graph, Key, SamplerConfig};
use gsampler_matrix::sample::{
    collective_sample_seeded, collective_select, individual_sample, individual_sample_seeded,
    weighted_sample_without_replacement,
};
use gsampler_runtime::{num_threads, pool_metrics};
use gsampler_testkit::stats;

/// A star: node 0 has 6 in-neighbours with distinct weights 1..=6.
fn star() -> Arc<Graph> {
    let edges: Vec<(u32, u32, f32)> = (1..7u32).map(|r| (r, 0, r as f32)).collect();
    Arc::new(Graph::from_edges("star", 7, &edges, true).unwrap())
}

const TRIALS: u64 = 1800;

/// Uniform probabilities over the six spokes (index = node ID).
fn uniform_spokes() -> Vec<f64> {
    let mut p = vec![1.0 / 6.0; 7];
    p[0] = 0.0;
    p
}

#[test]
fn optimized_pipeline_fanout_is_uniform() {
    let graph = star();
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let s = a.slice_cols(&f).individual_sample(1, None);
    let next = s.row_nodes();
    b.output(&s);
    b.output_next_frontiers(&next);
    let gs = compile(
        graph,
        vec![b.build()],
        SamplerConfig {
            batch_size: 1,
            ..SamplerConfig::new()
        },
    )
    .unwrap();
    let mut counts = [0u64; 7];
    for t in 0..TRIALS {
        let out = gs.sample_batch_seeded(&[0], &Bindings::new(), t).unwrap();
        let v = out.layers[0][1].as_nodes().unwrap()[0];
        counts[v as usize] += 1;
    }
    stats::assert_fits("optimized fanout-1", &counts, &uniform_spokes(), TRIALS);
}

#[test]
fn eager_engine_fanout_is_uniform() {
    let eager = EagerSampler::new(star(), DeviceProfile::v100(), 3);
    let mut counts = [0u64; 7];
    for t in 0..TRIALS {
        let layers = eager.graphsage_batch(&[0], &[1], t);
        for v in layers[0].row_nodes() {
            counts[v as usize] += 1;
        }
    }
    stats::assert_fits("eager fanout-1", &counts, &uniform_spokes(), TRIALS);
}

#[test]
fn deepwalk_step_is_uniform_over_in_neighbours() {
    // One DeepWalk step through the walk driver: a walker at the star's
    // hub moves to one of its six in-neighbours, each with probability 1/6,
    // whatever the spoke's edge weight.
    let config = SamplerConfig {
        batch_size: 1,
        ..SamplerConfig::new()
    };
    let gs = compile(star(), vec![gsampler_algos::walks::deepwalk_step()], config).unwrap();
    let mut counts = [0u64; 7];
    for t in 0..TRIALS {
        let trace = gsampler_algos::drivers::run_walk_batch(&gs, &[0], 1, false, 0.0, t).unwrap();
        counts[trace.positions[0][0] as usize] += 1;
    }
    stats::assert_fits("deepwalk step", &counts, &uniform_spokes(), TRIALS);
}

#[test]
fn asgcn_select_matches_the_combined_bias() {
    // AS-GCN end to end through the collective select: candidate row `r`'s
    // bias is its structural term `sum(A[r, f]^2)` plus the learned
    // `relu(X Wg)[r] + 1e-6`. With k = 1 a row is drawn with probability
    // proportional to that sum. Dropping either term, or reading the
    // learned score at another row, moves spoke 1 from 3/107.5 of the mass
    // to 1/91 or further.
    let x: [[f32; 2]; 7] = [
        [-1.0, 0.0],
        [2.0, 0.0],
        [0.0, 2.0],
        [5.0, 2.0],
        [1.0, 1.0],
        [0.0, 0.0],
        [10.0, 0.0],
    ];
    let wg = [1.0f32, -0.5];
    let learned = |r: usize| (x[r][0] * wg[0] + x[r][1] * wg[1]).max(0.0) + 1e-6;
    // Spoke `r` enters the hub with weight `r`; row 0 has no edge into it.
    let bias: Vec<f64> = (0..7)
        .map(|r| ((r * r) as f32 + learned(r)) as f64)
        .collect();
    let total: f64 = bias.iter().sum();
    let expected: Vec<f64> = bias.iter().map(|b| b / total).collect();

    let features = gsampler_matrix::Dense::from_vec(7, 2, x.concat()).unwrap();
    let graph = Arc::new(Arc::unwrap_or_clone(star()).with_features(features));
    let wg = gsampler_matrix::Dense::from_vec(2, 1, wg.to_vec()).unwrap();
    let bindings = Bindings::new().dense("Wg", wg);
    let sampler = one_batch(graph, gsampler_algos::layerwise::asgcn_layer(1));
    let mut counts = [0u64; 7];
    for t in 0..TRIALS {
        let out = sampler.sample_batch_seeded(&[0], &bindings, t).unwrap();
        for &r in out.layers[0][1].as_nodes().unwrap() {
            counts[r as usize] += 1;
        }
    }
    stats::assert_fits("AS-GCN select k=1", &counts, &expected, TRIALS);
}

#[test]
fn node2vec_step_matches_the_second_order_transition() {
    // A walker at 0 that came from 1 picks among 0's in-neighbours 1..=6:
    // back to 1 with weight 1/p, to 2 and 3 (adjacent to 1, one edge each
    // way) with weight 1, and to 4..=6 with weight 1/q.
    let (p, q) = (0.5f32, 2.0f32);
    let mut edges: Vec<(u32, u32, f32)> = (1..7u32).map(|r| (r, 0, 1.0)).collect();
    edges.extend([(2, 1, 1.0), (1, 3, 1.0)]);
    let graph = Arc::new(Graph::from_edges("n2v", 7, &edges, false).unwrap());
    let config = SamplerConfig {
        batch_size: 1,
        ..SamplerConfig::new()
    };
    let gs = compile(
        graph,
        vec![gsampler_algos::walks::node2vec_step(p, q)],
        config,
    )
    .unwrap();
    let bindings = Bindings::new().node_list("prev", vec![1]);
    let mut counts = [0u64; 7];
    for t in 0..TRIALS {
        let out = gs.sample_batch_seeded(&[0], &bindings, t).unwrap();
        counts[out.layers[0][1].as_nodes().unwrap()[0] as usize] += 1;
    }
    let (p, q) = (p as f64, q as f64);
    let weights = [0.0, 1.0 / p, 1.0, 1.0, 1.0 / q, 1.0 / q, 1.0 / q];
    let total: f64 = weights.iter().sum();
    let expected: Vec<f64> = weights.iter().map(|w| w / total).collect();
    stats::assert_fits("node2vec step p=0.5 q=2", &counts, &expected, TRIALS);
}

#[test]
fn biased_individual_sample_matches_analytic_inclusion() {
    // The PASS select path: individual_sample with an edge-bias matrix.
    // On the star's single frontier column the six candidate edges carry
    // weights 1..=6; picking k=2 without replacement must match the exact
    // successive-draw inclusion probabilities (the with-replacement or
    // squared-bias variants fail this gate decisively).
    let graph = star();
    let col = graph.matrix.slice_cols_global(&[0]).unwrap();
    let weights: Vec<f32> = col.data.to_csc().values_or_ones();
    assert_eq!(weights.len(), 6);
    let expected = stats::inclusion_probabilities_without_replacement(&weights, 2);

    let mut counts = vec![0u64; 6];
    for t in 0..3000u64 {
        let key = Key::new(0x9A55 ^ t);
        let picked = individual_sample_seeded(&col.data, 2, Some(&col.data), &key).unwrap();
        // The column slice keeps the identity row space: row = spoke ID.
        for (r, _, _) in picked.iter_edges() {
            // Edge for spoke r sits at CSC position r-1 in the column.
            counts[r as usize - 1] += 1;
        }
    }
    stats::assert_inclusion_fits("biased select k=2", &counts, &expected, 3000);
}

/// The spokes (by ID) a one-layer sampler on `star()` picks from frontier
/// 0 over `trials` seeded calls, counted per spoke `1..=6` at index `r - 1`.
fn spoke_counts(sampler: &gsampler_core::Sampler, bindings: &Bindings, trials: u64) -> Vec<u64> {
    let mut counts = vec![0u64; 6];
    for t in 0..trials {
        let out = sampler.sample_batch_seeded(&[0], bindings, t).unwrap();
        for &r in out.layers[0][1].as_nodes().unwrap() {
            counts[r as usize - 1] += 1;
        }
    }
    counts
}

fn one_batch(graph: Arc<Graph>, layer: gsampler_core::builder::Layer) -> gsampler_core::Sampler {
    let config = SamplerConfig {
        batch_size: 1,
        ..SamplerConfig::new()
    };
    compile(graph, vec![layer], config).unwrap()
}

#[test]
fn bandit_select_matches_arm_weights() {
    // GCN-BS / Thanos: spoke `r` is drawn with weight `arms[r]` (the
    // layer's `pow(0) · arms[row]`), whatever its edge weight; a zero arm
    // is never drawn. Reading the arms by column instead reads `arms[0]`
    // for every spoke, a uniform draw this gate rejects.
    let arms = vec![9.0f32, 0.5, 3.0, 0.0, 1.0, 2.0, 4.0];
    let bindings = Bindings::new().vector("bandit", arms.clone());
    let sampler = one_batch(star(), gsampler_algos::nodewise::bandit_layer(2));
    let trials = 3000;
    let counts = spoke_counts(&sampler, &bindings, trials);
    let expected = stats::inclusion_probabilities_without_replacement(&arms[1..], 2);
    stats::assert_inclusion_fits("bandit select k=2", &counts, &expected, trials);
}

#[test]
fn pass_select_matches_the_attention_bias() {
    // PASS end to end: spoke `r`'s bias is
    // `relu(s_1 a_1 + s_2 a_2 + s_3 a_3)` with `s = softmax(W3)`,
    // `a_i = (X W_i)[r] · (X W_i)[0]`, and `a_3 = 1` (the spoke's edge
    // weight over its row sum in the one-column slice). Spoke 1's sum is
    // negative, so it is clamped to 0 and never drawn.
    let x: [[f64; 2]; 7] = [
        [1.0, 1.0],
        [-2.0, 0.5],
        [-0.5, 1.0],
        [0.0, 1.0],
        [1.0, 0.5],
        [2.0, 1.5],
        [3.0, 0.5],
    ];
    let w1 = [[1.0, 0.0], [0.0, 0.5]];
    let w2 = [[0.5, 0.0], [-0.5, 1.0]];
    let w3 = [0.7, -0.4, 0.2];
    let project = |w: &[[f64; 2]; 2], r: usize| -> [f64; 2] {
        [0, 1].map(|j| x[r][0] * w[0][j] + x[r][1] * w[1][j])
    };
    let dot = |w: &[[f64; 2]; 2], r: usize| {
        let (p, q) = (project(w, r), project(w, 0));
        p[0] * q[0] + p[1] * q[1]
    };
    let z: f64 = w3.iter().map(|v: &f64| v.exp()).sum();
    let s = w3.map(|v| v.exp() / z);
    let bias: Vec<f32> = (1..7)
        .map(|r| (s[0] * dot(&w1, r) + s[1] * dot(&w2, r) + s[2]).max(0.0) as f32)
        .collect();
    assert_eq!(bias[0], 0.0, "spoke 1 is clamped");
    assert!(bias[1..].iter().all(|&b| b > 0.0), "{bias:?}");

    let dense = |rows: usize, v: Vec<f64>| {
        gsampler_matrix::Dense::from_vec(
            rows,
            v.len() / rows,
            v.iter().map(|&x| x as f32).collect(),
        )
        .unwrap()
    };
    let features = dense(7, x.iter().flatten().copied().collect());
    let graph = Arc::new(Arc::unwrap_or_clone(star()).with_features(features));
    let bindings = Bindings::new()
        .dense("W1", dense(2, w1.iter().flatten().copied().collect()))
        .dense("W2", dense(2, w2.iter().flatten().copied().collect()))
        .dense("W3", dense(3, w3.to_vec()));
    let sampler = one_batch(graph, gsampler_algos::nodewise::pass_layer(2));
    let trials = 3000;
    let counts = spoke_counts(&sampler, &bindings, trials);
    let expected = stats::inclusion_probabilities_without_replacement(&bias, 2);
    stats::assert_inclusion_fits("PASS select k=2", &counts, &expected, trials);
}

#[test]
fn weighted_with_replacement_matches_analytic_inclusion() {
    // The inverse-CDF path: k=3 weighted draws with replacement keep their
    // distinct outcomes, so spoke i (weight i of 21) is included with
    // probability 1 - (1 - i/21)^3. Uniform draws (0.42 for every spoke)
    // or one draw per column fail it decisively.
    let graph = star();
    let col = graph.matrix.slice_cols_global(&[0]).unwrap();
    let weights: Vec<f32> = col.data.to_csc().values_or_ones();
    let total: f32 = weights.iter().sum();
    assert_eq!(total, 21.0);
    let miss = |w: f32| 1.0 - (w / total) as f64;
    let expected: Vec<f64> = weights.iter().map(|&w| 1.0 - miss(w).powi(3)).collect();

    let mut counts = vec![0u64; 6];
    for t in 0..3000u64 {
        let key = [Key::new(0xA11A5 ^ t)];
        let picked = individual_sample(&col.data, 3, true, Some(&col.data), &key, &[0]).unwrap();
        assert!(picked.nnz() <= 3);
        for (r, _, _) in picked.iter_edges() {
            counts[r as usize - 1] += 1;
        }
    }
    stats::assert_inclusion_fits(
        "weighted select k=3 with replacement",
        &counts,
        &expected,
        3000,
    );
}

#[test]
fn collective_sample_follows_degree_weights() {
    // Default collective bias is the row degree; with k=1 the pick is a
    // plain multinomial over deg/sum(deg) — chi-squared applies exactly.
    let edges: Vec<(u32, u32, f32)> = vec![
        (0, 1, 1.0),
        (0, 2, 1.0),
        (0, 3, 1.0),
        (1, 2, 1.0),
        (1, 3, 1.0),
        (2, 3, 1.0),
    ];
    let graph = Graph::from_edges("deg", 4, &edges, false).unwrap();
    let expected = [3.0 / 6.0, 2.0 / 6.0, 1.0 / 6.0, 0.0];
    let mut counts = [0u64; 4];
    for t in 0..TRIALS {
        let key = Key::new(0xC011 ^ t);
        let out = collective_sample_seeded(&graph.matrix.data, 1, None, &key).unwrap();
        assert_eq!(out.rows.len(), 1);
        counts[out.rows[0] as usize] += 1;
    }
    stats::assert_fits("collective k=1 degree bias", &counts, &expected, TRIALS);
}

#[test]
fn segmented_collective_select_matches_analytic_inclusion_per_segment() {
    // The super-batched layer-wise select: 16 segments of 256 rows, each
    // with six candidates of its own weights among zero rows, k = 2 per
    // segment with the segment's own key. Every segment's inclusion counts
    // must match the exact successive-draw probabilities of its weights.
    // 16 x 256 weights open the pool's size gate, so wherever the pool is
    // wider than one thread (ci.sh runs the suite at GSAMPLER_THREADS=2)
    // the segments are drawn split across workers.
    const SEGMENTS: usize = 16;
    const ROWS: usize = 256;
    let (k, trials) = (2, 2000u64);
    let candidate = |b: usize, j: usize| b * ROWS + 17 + 37 * j + b;
    let segment_weights = |b: usize| -> Vec<f32> {
        (0..6)
            .map(|j| ((j + b) % 6 + 1) as f32 * (1.0 + b as f32 / 8.0))
            .collect()
    };
    let mut weights = vec![0f32; SEGMENTS * ROWS];
    for b in 0..SEGMENTS {
        for (j, w) in segment_weights(b).into_iter().enumerate() {
            weights[candidate(b, j)] = w;
        }
    }
    let runs: Vec<usize> = (0..=SEGMENTS).map(|b| b * ROWS).collect();
    let mut counts = vec![[0u64; 6]; SEGMENTS];
    let before = pool_metrics();
    for t in 0..trials {
        let keys: Vec<Key> = (0..SEGMENTS as u64)
            .map(|b| Key::new(0x5E65 ^ t.wrapping_mul(0x9E37_79B9)).child(b))
            .collect();
        let rows = collective_select(&weights, k, &runs, &keys).unwrap();
        assert_eq!(rows.len(), SEGMENTS * k);
        for r in rows {
            let b = r as usize / ROWS;
            let j = (0..6).position(|j| candidate(b, j) == r as usize);
            counts[b][j.expect("a zero-bias row was selected")] += 1;
        }
    }
    if num_threads() >= 2 {
        assert!(pool_metrics().since(&before).regions >= trials);
    }
    for (b, seen) in counts.iter().enumerate() {
        let expected = stats::inclusion_probabilities_without_replacement(&segment_weights(b), k);
        let label = format!("segment {b} of {SEGMENTS}, k={k}");
        stats::assert_inclusion_fits(&label, seen, &expected, trials);
    }
}

#[test]
fn weighted_without_replacement_matches_analytic_inclusion() {
    // Direct kernel-level guard for the Efraimidis-Spirakis implementation
    // (shared by individual, collective, and PASS selection).
    let weights = [5.0f32, 3.0, 1.0, 1.0];
    let k = 2;
    let expected = stats::inclusion_probabilities_without_replacement(&weights, k);
    let trials = 4000u64;
    let mut counts = vec![0u64; weights.len()];
    for t in 0..trials {
        let key = Key::new(0xE5 ^ t.wrapping_mul(0x9E37_79B9));
        for i in weighted_sample_without_replacement(&weights, k, key, 0) {
            counts[i] += 1;
        }
    }
    stats::assert_inclusion_fits("E-S inclusion [5,3,1,1] k=2", &counts, &expected, trials);
}

#[test]
fn zero_weight_candidates_are_never_selected() {
    let weights = [2.0f32, 0.0, 3.0, 0.0, 1.0];
    for t in 0..500u64 {
        let picked = weighted_sample_without_replacement(&weights, 3, Key::new(t), 0);
        assert_eq!(picked.len(), 3);
        assert!(
            !picked.contains(&1) && !picked.contains(&3),
            "zero-weight candidate selected at trial {t}: {picked:?}"
        );
    }
}
