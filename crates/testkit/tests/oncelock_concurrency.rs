//! Barrier-based regression test for the lazily-built
//! [`Graph::matrix_value`]: it sits behind `OnceLock::get_or_init`, and
//! concurrent first-touch must converge on exactly one value — a racer
//! must never observe a second, half-built instance.
//!
//! The cache feeds the serving layer directly (every tenant session reads
//! the shared graph's matrix value), so a first-touch race would silently
//! break cross-tenant bit-identity.

use std::sync::{Arc, Barrier};

use gsampler_core::Graph;
use gsampler_graphs::{Dataset, DatasetKind};

const RACERS: usize = 16;

#[test]
fn matrix_value_concurrent_first_touch_yields_one_arc() {
    for round in 0..8 {
        let graph = Arc::new(Dataset::generate(DatasetKind::Tiny, 1.0, round).graph);
        let barrier = Arc::new(Barrier::new(RACERS));
        let values: Vec<Arc<gsampler_core::Value>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..RACERS)
                .map(|_| {
                    let graph: &Graph = &graph;
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        graph.matrix_value()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for v in &values[1..] {
            assert!(
                Arc::ptr_eq(&values[0], v),
                "round {round}: racers saw distinct matrix-value Arcs"
            );
        }
    }
}
