//! Deterministic work counter for node-wise selection: heap allocations
//! must not scale with the number of frontier columns. One flat pick
//! buffer per launch and one scratch set-up per 256-column chunk replace a
//! `Vec` (and a `HashSet`) per column, so quadrupling the frontiers of a
//! 16-group GraphSAGE super-batch adds well under one allocation per
//! twenty added columns.
//!
//! A single test in its own binary, so nothing else allocates while the
//! process-wide counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gsampler_core::{Bindings, OptConfig, Value};
use gsampler_testkit::drive;
use gsampler_testkit::gen::{GraphSpec, Topology};
use gsampler_testkit::oracle::oracle_hyper;
use rand::rngs::StdRng;
use rand::SeedableRng;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect on an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn selection_allocations_do_not_scale_with_frontier_columns() {
    let spec = GraphSpec {
        topology: Topology::PowerLaw,
        nodes: 4096,
        edges: 40_000,
        weighted: false,
        self_loops: false,
        duplicate_edges: false,
        dangling: true,
        seed: 0x5E1EC7,
    };
    let graph = spec.build();
    let config = drive::sampler_config(OptConfig::all(), 7, 1024);
    let sampler = drive::compile_algorithm(&graph, "GraphSAGE", &oracle_hyper(), config, None)
        .expect("compile failed")
        .expect("no fault");

    // (allocations, sampled columns over every layer) of one 16-group call.
    let measure = |per_group: usize| -> (u64, usize) {
        let groups = |shift: usize| -> Vec<Vec<u32>> {
            (0..16)
                .map(|b| {
                    (0..per_group)
                        .map(|i| ((i * 3 + b * 17 + shift) % spec.nodes) as u32)
                        .collect()
                })
                .collect()
        };
        let mut rngs: Vec<StdRng> = (0..16).map(StdRng::seed_from_u64).collect();
        // Warm the worker pool and every lazily built table first.
        sampler
            .sample_groups(groups(1), &Bindings::new(), &mut rngs)
            .expect("warm-up failed");
        let input = groups(0);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let samples = sampler
            .sample_groups(input, &Bindings::new(), &mut rngs)
            .expect("super-batch failed");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let matrices = samples.iter().flat_map(|s| s.layers.iter().flatten());
        let columns = matrices
            .filter_map(Value::as_matrix)
            .map(|m| m.shape().1)
            .sum();
        (allocations, columns)
    };

    let (small_allocs, small_cols) = measure(256);
    let (large_allocs, large_cols) = measure(1024);
    assert!(large_cols >= small_cols + 16 * (1024 - 256));
    let added = (large_cols - small_cols) as f64;
    let per_column = (large_allocs as f64 - small_allocs as f64) / added;
    assert!(
        per_column < 0.05,
        "{small_allocs} allocations for {small_cols} columns, {large_allocs} for {large_cols}: \
         {per_column:.3} per added column"
    );
}
