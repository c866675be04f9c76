//! Structural invariants of sampled outputs, checked against the input
//! graph: sampled edges exist, fanout/width bounds hold, walkers follow
//! edges.

use gsampler_algos::drivers::WalkTrace;
use gsampler_core::{Graph, GraphSample, Value};
use gsampler_matrix::Csc;

/// The per-layer size bound of an algorithm's samples.
pub enum Bound<'a> {
    /// Node-wise: at most `fanouts[layer]` sampled edges per frontier.
    Fanouts(&'a [usize]),
    /// Layer-wise: at most this many distinct sampled rows per layer.
    Width(usize),
}

/// Violations kept per run; one is enough to fail, a few help debugging.
const MAX_VIOLATIONS: usize = 8;

fn note(violations: &mut Vec<String>, what: impl FnOnce() -> String) {
    if violations.len() < MAX_VIOLATIONS {
        violations.push(what());
    }
}

fn graph_csc(graph: &Graph) -> &Csc {
    graph
        .matrix
        .data
        .as_csc()
        .expect("dataset graphs are stored as CSC")
}

/// Check one mini-batch sample: every matrix output's edges exist in
/// `graph`, and each layer's first output respects `bound`.
pub fn verify_sample(
    graph: &Graph,
    sample: &GraphSample,
    bound: &Bound<'_>,
    batch: usize,
    violations: &mut Vec<String>,
) {
    let csc = graph_csc(graph);
    for (l, layer) in sample.layers.iter().enumerate() {
        for value in layer {
            let Value::Matrix(m) = value else { continue };
            for (r, c, _) in m.global_edges() {
                if !csc.contains_edge(r, c as usize) {
                    note(violations, || {
                        format!(
                            "batch {batch} layer {l}: sampled edge {r}->{c} is not in the graph"
                        )
                    });
                }
            }
        }
        let Some(Value::Matrix(m)) = layer.first() else {
            note(violations, || {
                format!("batch {batch} layer {l}: first output is not a matrix")
            });
            continue;
        };
        match bound {
            Bound::Fanouts(fanouts) => {
                let k = fanouts[l.min(fanouts.len() - 1)];
                if let Some(d) = m.data.col_degrees().into_iter().find(|&d| d > k) {
                    note(violations, || {
                        format!("batch {batch} layer {l}: a frontier kept {d} edges, fanout is {k}")
                    });
                }
            }
            Bound::Width(width) => {
                let rows = m.data.row_degrees().into_iter().filter(|&d| d > 0).count();
                if rows > *width {
                    note(violations, || {
                        format!("batch {batch} layer {l}: {rows} sampled rows, width is {width}")
                    });
                }
            }
        }
    }
}

/// Check one group's walk: `length` steps, each walker either moving to
/// an in-neighbour of its position or staying put at a dead end.
pub fn verify_walk(graph: &Graph, trace: &WalkTrace, length: usize, violations: &mut Vec<String>) {
    let csc = graph_csc(graph);
    if trace.positions.len() != length {
        note(violations, || {
            format!(
                "walk recorded {} steps, expected {length}",
                trace.positions.len()
            )
        });
    }
    let mut at = &trace.seeds;
    for (step, next) in trace.positions.iter().enumerate() {
        if next.len() != at.len() {
            note(violations, || {
                format!("step {step}: {} walkers became {}", at.len(), next.len())
            });
            return;
        }
        for (&from, &to) in at.iter().zip(next) {
            let dead_end = csc.col_degree(from as usize) == 0;
            let ok = if dead_end {
                to == from
            } else {
                csc.contains_edge(to, from as usize)
            };
            if !ok {
                note(violations, || {
                    format!("step {step}: walker moved {from}->{to} without an edge")
                });
            }
        }
        at = next;
    }
}
