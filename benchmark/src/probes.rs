//! Microprobes of the traced run: direct calls into `gsampler_matrix` and
//! `gsampler_runtime` on the workload's own graph and first window, each
//! timed [`PROBE_CALLS`] times with the median reported.

use std::time::{Duration, Instant};

use gsampler_core::Graph;
use gsampler_engine::RngPool;
use gsampler_matrix::{compact, convert, sample, slice, spmm, Dense, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::schema::Metrics;
use crate::stats::median;

/// Calls per microprobe; the median is reported.
pub const PROBE_CALLS: usize = 20;

/// Gap before each probe call, spent spinning on the calling thread: long
/// enough for pool workers to park and their core to go idle while the
/// caller stays hot, so every call starts from the same state whatever
/// ran before the probes.
const PROBE_GAP: Duration = Duration::from_millis(1);

/// Median microseconds of `PROBE_CALLS` calls of `f`, each inside its own
/// `bench/<span>` span and each after spinning for `gap`.
pub fn probe<T>(span: &str, gap: Duration, mut f: impl FnMut() -> T) -> f64 {
    let mut us = Vec::with_capacity(PROBE_CALLS);
    for _ in 0..PROBE_CALLS {
        let idle = Instant::now();
        while idle.elapsed() < gap {
            std::hint::spin_loop();
        }
        let _span = gsampler_obs::span("bench", span);
        let start = Instant::now();
        std::hint::black_box(f());
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// `matrix.*`: the sampling-path kernels on the graph's CSC sliced at
/// `window`, and the dense kernels at the shapes PASS uses (hidden 16).
pub fn matrix(m: &mut Metrics, graph: &Graph, window: &[NodeId]) -> Result<(), String> {
    const HIDDEN: usize = 16;
    let full = &graph.matrix.data;
    let csc = full.as_csc().ok_or("dataset graphs are stored as CSC")?;
    let sub = slice::slice_cols(full, window).map_err(|e| e.to_string())?;
    let pool = RngPool::new(1);
    let mut rng = StdRng::seed_from_u64(1);
    let (nrows, ncols) = sub.shape();
    let by_col = Dense::random(ncols, HIDDEN, 0.3, &mut rng);
    let by_row = Dense::random(nrows, HIDDEN, 0.3, &mut rng);
    let feats = match &graph.features {
        Some(f) => f.gather_rows(window).map_err(|e| e.to_string())?,
        None => Dense::random(window.len(), HIDDEN, 0.3, &mut rng),
    };
    let weights = Dense::random(feats.ncols(), HIDDEN, 0.3, &mut rng);

    m.set(
        "matrix.slice_cols_us",
        probe("matrix.slice_cols", PROBE_GAP, || {
            slice::slice_cols(full, window)
        }),
    );
    m.set(
        "matrix.individual_sample_us",
        probe("matrix.individual_sample", PROBE_GAP, || {
            sample::individual_sample_seeded(&sub, 25, None, &pool)
        }),
    );
    m.set(
        "matrix.collective_sample_us",
        probe("matrix.collective_sample", PROBE_GAP, || {
            sample::collective_sample_seeded(&sub, 512, None, &pool)
        }),
    );
    m.set(
        "matrix.compact_rows_us",
        probe("matrix.compact_rows", PROBE_GAP, || {
            compact::compact_rows(&sub)
        }),
    );
    m.set(
        "matrix.spmm_us",
        probe("matrix.spmm", PROBE_GAP, || spmm::spmm(&sub, &by_col)),
    );
    m.set(
        "matrix.sddmm_us",
        probe("matrix.sddmm", PROBE_GAP, || {
            spmm::sddmm(&sub, &by_row, &by_col)
        }),
    );
    m.set(
        "matrix.gemm_us",
        probe("matrix.gemm", PROBE_GAP, || feats.matmul(&weights)),
    );
    m.set(
        "matrix.csc_to_csr_us",
        probe("matrix.csc_to_csr", PROBE_GAP, || convert::csc_to_csr(csc)),
    );
    Ok(())
}

/// `runtime.pool.dispatch_us`: the round trip of an empty parallel region
/// that is just wide enough to leave the calling thread. Each call
/// starts from idle, so it pays what a sparse launcher pays: waking a
/// parked worker on an idle core.
pub fn pool_dispatch(m: &mut Metrics) {
    let width = gsampler_runtime::num_threads();
    m.set(
        "runtime.pool.dispatch_us",
        probe("runtime.parallel_for_chunks", PROBE_GAP, || {
            gsampler_runtime::parallel_for_chunks(width, 1, |_, _| {})
        }),
    );
}
