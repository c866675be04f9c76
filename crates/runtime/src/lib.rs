//! Persistent thread-pool runtime for gsampler-rs.
//!
//! The paper's sampling operators are massively data-parallel GPU kernels;
//! this crate is the CPU stand-in: a pool of **long-lived worker threads**
//! that park between kernels (no per-call spawn storms), with one
//! scheduling discipline on top: **work-queue claiming**. Every parallel
//! region's participants claim ranges from one shared counter until it
//! drains — uniform chunks of a per-item map ([`parallel::parallel_for_chunks`],
//! [`parallel::parallel_map`]: per-edge value combines, COO SDDMM,
//! compaction bitmaps and renames, slice segment counts) or caller-defined
//! output segments ([`parallel::parallel_scatter`],
//! [`parallel::parallel_scatter2`]: per-frontier sampling, variable-length
//! gathers, SpMM rows, dense GEMM row blocks and format conversions).
//!
//! Determinism is a hard requirement: kernel outputs must be bit-identical
//! at any thread count. The rule every parallel kernel follows is that
//! *work decomposition is a function of the input only* — chunk boundaries
//! that feed RNG or accumulation order never depend on how many threads
//! happen to run. Randomized kernels draw per-item streams from
//! [`RngPool`] (SplitMix64-derived independent generators), so the stream
//! an item consumes is keyed by its index, not by the worker that executes
//! it.
//!
//! The number of workers comes from [`parallel::num_threads`]:
//! `GSAMPLER_THREADS` overrides (determinism tests, CI reproducibility),
//! otherwise the host's available parallelism capped at 16.

#![warn(missing_docs)]

pub mod arena;
pub mod cancel;
pub mod parallel;
pub mod rng;

pub use arena::{
    arena_metrics, take as take_scratch, take_filled as take_scratch_filled, ArenaMetrics, Recycled,
};
pub use cancel::{CancelCause, CancelScope, CancelToken};
pub use parallel::{
    num_threads, parallel_for_chunks, parallel_map, parallel_scatter, parallel_scatter2,
    pool_metrics, set_worker_fault_hook, PoolError, PoolMetrics, WorkerFault, WorkerFaultHook,
};
pub use rng::RngPool;

/// Serializes every unit test of this binary that installs the one-slot
/// worker fault hook, so none of them can clear or overwrite another's
/// hook between installing it and dispatching the region it is meant for.
#[cfg(test)]
pub(crate) fn test_globals_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}
