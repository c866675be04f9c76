//! The persistent worker pool and the scheduling primitives built on it.
//!
//! Workers are spawned once (lazily, up to the largest requested width) and
//! park on a condvar between parallel regions — a kernel-sized region costs
//! a queue push and a wakeup, not a thread spawn. The caller thread always
//! participates as worker 0, so a width-`t` region occupies the caller plus
//! `t - 1` pool workers.
//!
//! Two disciplines are layered on the pool:
//!
//! - [`parallel_for_chunks`] / [`parallel_map`]: static chunking for
//!   uniform loops.
//! - [`parallel_scatter`] / [`parallel_scatter2`]: segments claimed
//!   dynamically from a shared counter, for skewed loops (power-law
//!   degrees) where static chunks would straggle.
//!
//! Both guarantee that the *decomposition visible to kernels* (which items
//! exist, what order their outputs land in) depends only on the input
//! sizes, never on the thread count — the invariant that keeps seeded
//! sampling bit-identical under any `GSAMPLER_THREADS`.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// The typed panic payload a parallel region unwinds with when a pool
/// worker (not the caller) panicked. Callers that `catch_unwind` a region
/// can downcast to this to recover the original worker-side panic message
/// instead of a generic string, decide the failure is region-local, and
/// keep the process alive — the pool itself has already replaced the dead
/// worker by the time this unwinds.
#[derive(Debug, Clone)]
pub struct PoolError {
    message: String,
}

impl PoolError {
    fn new(message: String) -> PoolError {
        PoolError { message }
    }

    /// The original panic payload, rendered as text (`&str`/`String`
    /// payloads verbatim; other payload types are named as opaque).
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool worker panicked: {}", self.message)
    }
}

impl std::error::Error for PoolError {}

/// Render a panic payload as text, preserving the common payload types.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(e) = payload.downcast_ref::<PoolError>() {
        e.message.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// A fault the installed hook asks the pool to inject into the next
/// dispatched region (consumed by exactly one spawned-side participant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Panic inside a worker's participant share.
    Panic,
    /// Stall the participant for `ms` milliseconds before its share runs
    /// (the region still completes successfully).
    Stall {
        /// Injected delay in milliseconds.
        ms: u64,
    },
}

/// A fault-injection hook polled once per dispatched region, on the
/// calling thread, in dispatch order — so a deterministic program yields a
/// deterministic fault placement regardless of worker scheduling.
pub type WorkerFaultHook = Arc<dyn Fn() -> Option<WorkerFault> + Send + Sync>;

static FAULT_HOOK_ON: AtomicBool = AtomicBool::new(false);
static FAULT_HOOK: OnceLock<Mutex<Option<WorkerFaultHook>>> = OnceLock::new();

/// Install (or, with `None`, remove) the worker fault-injection hook.
/// With no hook installed the per-region cost is one relaxed atomic load.
pub fn set_worker_fault_hook(hook: Option<WorkerFaultHook>) {
    let slot = FAULT_HOOK.get_or_init(|| Mutex::new(None));
    let mut g = slot.lock().unwrap_or_else(|p| p.into_inner());
    FAULT_HOOK_ON.store(hook.is_some(), Ordering::SeqCst);
    *g = hook;
}

fn poll_worker_fault() -> Option<WorkerFault> {
    if !FAULT_HOOK_ON.load(Ordering::Relaxed) {
        return None;
    }
    let hook = {
        let slot = FAULT_HOOK.get()?;
        slot.lock().unwrap_or_else(|p| p.into_inner()).clone()
    };
    hook.and_then(|h| h())
}

/// Default cap on auto-detected worker count (keeps test environments and
/// oversubscribed CI hosts well-behaved).
pub const DEFAULT_THREAD_CAP: usize = 16;

/// Hard upper bound on pool workers, even under `GSAMPLER_THREADS`.
const MAX_WORKERS: usize = 255;

/// Number of worker threads a parallel region may use.
///
/// The `GSAMPLER_THREADS` environment variable overrides the detected
/// value (set it to `1` to force every kernel sequential, or to a fixed
/// count for reproducible CI runs); otherwise the host's available
/// parallelism is used, capped at [`DEFAULT_THREAD_CAP`].
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("GSAMPLER_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_WORKERS + 1);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(DEFAULT_THREAD_CAP)
}

thread_local! {
    /// True on pool workers and inside a caller's own region share: nested
    /// parallel calls run inline instead of re-entering the queue.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Width a region of `len` items with the given minimum chunk should use
/// (1 = run inline).
fn plan_threads(len: usize, min_chunk: usize) -> usize {
    let min_chunk = min_chunk.max(1);
    if len <= min_chunk || IN_POOL.with(|f| f.get()) {
        return 1;
    }
    let t = num_threads();
    if t <= 1 {
        1
    } else {
        t.min(len.div_ceil(min_chunk))
    }
}

/// A type-erased pointer to a region closure. The dispatching caller
/// blocks until every participant has finished, which is what makes the
/// lifetime erasure sound.
struct RawFunc(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` and is only dereferenced between job
// publication and the caller's completion wait.
unsafe impl Send for RawFunc {}
// SAFETY: see above.
unsafe impl Sync for RawFunc {}

/// One parallel region, shared between the pool workers executing it.
struct Job {
    func: RawFunc,
    /// Spawned-side participants wanted (the caller is extra).
    max: usize,
    finished: AtomicUsize,
    busy_ns: AtomicU64,
    panicked: AtomicBool,
    /// First worker-side panic payload, preserved for the caller.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Injected fault for this region, consumed by one participant.
    fault: Mutex<Option<WorkerFault>>,
    /// The dispatching caller's cancel token, forwarded to spawned
    /// participants for the duration of their share so chunk-claim
    /// loops observe the same deadline the caller does.
    cancel: Option<crate::cancel::CancelToken>,
}

struct PendingJob {
    job: Arc<Job>,
    claimed: usize,
}

struct PoolState {
    queue: VecDeque<PendingJob>,
    spawned: usize,
}

/// The persistent pool: parked workers plus a job queue.
struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            spawned: 0,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

// Cumulative parallel-region accounting (drives the per-kernel
// thread-count / efficiency columns in `ExecStats`).
static REGIONS: AtomicU64 = AtomicU64::new(0);
static THREADS_SUM: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: AtomicU64 = AtomicU64::new(0);
static CAPACITY_NS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of cumulative pool activity. Subtract two snapshots (taken
/// around a kernel) to attribute regions to that kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Parallel regions dispatched (inline/sequential runs not counted).
    pub regions: u64,
    /// Sum of participant counts over all regions.
    pub threads_sum: u64,
    /// Nanoseconds of actual work across all participants.
    pub busy_ns: u64,
    /// Nanoseconds of capacity: region wall time × participants.
    pub capacity_ns: u64,
}

impl PoolMetrics {
    /// Add another sample into this one (aggregation across kernels).
    pub fn accumulate(&mut self, other: &PoolMetrics) {
        self.regions += other.regions;
        self.threads_sum += other.threads_sum;
        self.busy_ns += other.busy_ns;
        self.capacity_ns += other.capacity_ns;
    }

    /// The delta from `earlier` to this snapshot.
    pub fn since(&self, earlier: &PoolMetrics) -> PoolMetrics {
        PoolMetrics {
            regions: self.regions.saturating_sub(earlier.regions),
            threads_sum: self.threads_sum.saturating_sub(earlier.threads_sum),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            capacity_ns: self.capacity_ns.saturating_sub(earlier.capacity_ns),
        }
    }

    /// Average participants per region (1.0 when no region ran — the
    /// kernel was sequential).
    pub fn avg_threads(&self) -> f64 {
        if self.regions == 0 {
            1.0
        } else {
            self.threads_sum as f64 / self.regions as f64
        }
    }

    /// Fraction of the occupied capacity that did useful work, in
    /// `(0, 1]` (1.0 when no region ran: a sequential kernel wastes no
    /// worker time).
    pub fn efficiency(&self) -> f64 {
        if self.capacity_ns == 0 {
            1.0
        } else {
            (self.busy_ns as f64 / self.capacity_ns as f64).min(1.0)
        }
    }
}

/// Snapshot the cumulative pool metrics.
pub fn pool_metrics() -> PoolMetrics {
    PoolMetrics {
        regions: REGIONS.load(Ordering::Relaxed),
        threads_sum: THREADS_SUM.load(Ordering::Relaxed),
        busy_ns: BUSY_NS.load(Ordering::Relaxed),
        capacity_ns: CAPACITY_NS.load(Ordering::Relaxed),
    }
}

fn worker_loop(pool: &'static Pool) {
    IN_POOL.with(|f| f.set(true));
    let mut guard = pool.state.lock().unwrap_or_else(|p| p.into_inner());
    loop {
        if let Some(front) = guard.queue.front_mut() {
            let idx = front.claimed;
            front.claimed += 1;
            let job = Arc::clone(&front.job);
            if front.claimed >= job.max {
                guard.queue.pop_front();
            }
            drop(guard);
            let survived = run_participant(&job, idx + 1);
            // Touch the lock before notifying so a caller between its
            // `finished` check and its wait cannot miss the wakeup. A
            // worker that panicked exits its thread (its stack may be
            // poisoned); the pool self-heals by respawning a replacement
            // here if jobs are still queued, or lazily at the next
            // dispatch otherwise.
            {
                let mut g = pool.state.lock().unwrap_or_else(|p| p.into_inner());
                if !survived {
                    g.spawned -= 1;
                    if !g.queue.is_empty() {
                        g.spawned += 1;
                        let respawned = std::thread::Builder::new()
                            .name("gsampler-worker-respawn".to_string())
                            .spawn(move || worker_loop(pool));
                        if respawned.is_err() {
                            g.spawned -= 1;
                        }
                    }
                }
            }
            pool.done_cv.notify_all();
            if !survived {
                return;
            }
            guard = pool.state.lock().unwrap_or_else(|p| p.into_inner());
        } else {
            guard = pool.work_cv.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Run one spawned-side participant share. Returns `false` when the share
/// panicked (the worker thread must then exit: its successor is respawned
/// by the pool).
fn run_participant(job: &Job, tid: usize) -> bool {
    let start = Instant::now();
    // SAFETY: the dispatching caller blocks until `finished == max`, so
    // the closure (and everything it borrows) outlives this call.
    let f = unsafe { &*job.func.0 };
    let fault = job.fault.lock().unwrap_or_else(|p| p.into_inner()).take();
    // Spawned participants inherit the caller's cancel token so the
    // chunk-claim loops inside `f` poll the right deadline.
    let cancel = job.cancel.as_ref().map(|t| crate::cancel::scope(t.clone()));
    let result = catch_unwind(AssertUnwindSafe(|| {
        match fault {
            Some(WorkerFault::Panic) => panic!("injected fault: worker panic (participant {tid})"),
            Some(WorkerFault::Stall { ms }) => {
                std::thread::sleep(std::time::Duration::from_millis(ms))
            }
            None => {}
        }
        f(tid)
    }));
    drop(cancel);
    let survived = match result {
        Ok(()) => true,
        Err(payload) => {
            let mut slot = job.payload.lock().unwrap_or_else(|p| p.into_inner());
            if slot.is_none() {
                *slot = Some(payload);
            }
            job.panicked.store(true, Ordering::SeqCst);
            false
        }
    };
    job.busy_ns
        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    job.finished.fetch_add(1, Ordering::SeqCst);
    survived
}

/// Run `f(participant)` for participants `0..=extra` (0 on the calling
/// thread, the rest on pool workers), blocking until all finish.
fn dispatch(extra: usize, f: &(dyn Fn(usize) + Sync)) {
    debug_assert!(extra >= 1, "dispatch needs at least one pool worker");
    let pool = pool();
    let mut region_span = gsampler_obs::span("pool", "pool.region");
    let region_start = Instant::now();
    // SAFETY: lifetime erasure — `dispatch` does not return until every
    // participant has finished with the closure.
    let func = RawFunc(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
    } as *const _);
    // Fault injection is decided here, on the calling thread, once per
    // region: the placement (which region fails) is then a pure function
    // of dispatch order, independent of worker scheduling.
    let injected = poll_worker_fault();
    let job = Arc::new(Job {
        func,
        max: extra,
        finished: AtomicUsize::new(0),
        busy_ns: AtomicU64::new(0),
        panicked: AtomicBool::new(false),
        payload: Mutex::new(None),
        fault: Mutex::new(injected),
        cancel: crate::cancel::current(),
    });
    {
        let mut g = pool.state.lock().unwrap_or_else(|p| p.into_inner());
        while g.spawned < extra.min(MAX_WORKERS) {
            g.spawned += 1;
            let name = format!("gsampler-worker-{}", g.spawned);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(pool))
                .expect("failed to spawn gsampler pool worker");
        }
        g.queue.push_back(PendingJob {
            job: Arc::clone(&job),
            claimed: 0,
        });
    }
    if extra == 1 {
        pool.work_cv.notify_one();
    } else {
        pool.work_cv.notify_all();
    }

    // The caller is participant 0; nested parallel calls inside its share
    // run inline.
    let caller_start = Instant::now();
    let was_in_pool = IN_POOL.with(|flag| flag.replace(true));
    let caller_result = catch_unwind(AssertUnwindSafe(|| f(0)));
    IN_POOL.with(|flag| flag.set(was_in_pool));
    let caller_busy = caller_start.elapsed().as_nanos() as u64;

    let mut g = pool.state.lock().unwrap_or_else(|p| p.into_inner());
    while job.finished.load(Ordering::SeqCst) < job.max {
        g = pool.done_cv.wait(g).unwrap_or_else(|p| p.into_inner());
    }
    drop(g);

    let wall = region_start.elapsed().as_nanos() as u64;
    let threads = (extra + 1) as u64;
    let busy = caller_busy + job.busy_ns.load(Ordering::Relaxed);
    REGIONS.fetch_add(1, Ordering::Relaxed);
    THREADS_SUM.fetch_add(threads, Ordering::Relaxed);
    BUSY_NS.fetch_add(busy, Ordering::Relaxed);
    CAPACITY_NS.fetch_add(wall.saturating_mul(threads), Ordering::Relaxed);

    region_span.arg("participants", threads);
    region_span.arg("busy_us", busy as f64 / 1e3);
    region_span.arg(
        "occupancy",
        busy as f64 / wall.saturating_mul(threads).max(1) as f64,
    );
    drop(region_span);

    match caller_result {
        Err(payload) => resume_unwind(payload),
        Ok(()) if job.panicked.load(Ordering::SeqCst) => {
            // Re-raise a worker-side panic on the caller as a typed
            // [`PoolError`] carrying the original payload: upstream
            // recovery layers can downcast it, fail just this job, and
            // continue on the already-healed pool.
            let payload = job.payload.lock().unwrap_or_else(|p| p.into_inner()).take();
            let message = match payload {
                Some(p) => panic_message(p.as_ref()),
                None => "worker panic payload missing".to_string(),
            };
            std::panic::panic_any(PoolError::new(message));
        }
        Ok(()) => {}
    }
}

/// Run `f(start, end)` over disjoint chunks of `0..len` on the pool.
/// `f` must be safe to call concurrently on disjoint ranges.
///
/// Falls back to a single inline call for small inputs where region
/// overhead would dominate, and for nested calls from inside a region.
pub fn parallel_for_chunks<F>(len: usize, min_chunk: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    if len == 0 {
        return;
    }
    let threads = plan_threads(len, min_chunk);
    if threads <= 1 {
        f(0, len);
        return;
    }
    let chunk = len.div_ceil(threads).max(min_chunk.max(1));
    let participants = len.div_ceil(chunk);
    if participants <= 1 {
        f(0, len);
        return;
    }
    dispatch(participants - 1, &|tid| {
        // Chunk-boundary cancel check: a fired token skips the share
        // (the caller discards the region's output on the same poll).
        if crate::cancel::poll().is_some() {
            return;
        }
        let start = tid * chunk;
        if start < len {
            f(start, (start + chunk).min(len));
        }
    });
}

/// Map `0..len` through `f` into a vector, in parallel, preserving order.
pub fn parallel_map<T, F>(len: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); len];
    {
        let out_ptr = SendPtr(out.as_mut_ptr());
        parallel_for_chunks(len, min_chunk, |start, end| {
            let ptr = out_ptr;
            for i in start..end {
                // SAFETY: each chunk writes a disjoint index range of a
                // buffer that outlives the region, so no two threads
                // alias the same element.
                unsafe {
                    *ptr.0.add(i) = f(i);
                }
            }
        });
    }
    out
}

/// Fill `out` segment-by-segment: segment `i` is `out[offsets[i]..
/// offsets[i + 1]]` and is passed to `f(i, segment)`. Segments are claimed
/// dynamically, so skewed segment sizes balance across workers; the
/// segment → range mapping is input-defined, keeping output layout
/// independent of the thread count.
///
/// # Panics
///
/// Panics if `offsets` is not non-decreasing or addresses beyond
/// `out.len()` (the invariant that makes concurrent segment writes
/// disjoint).
pub fn parallel_scatter<T, F>(out: &mut [T], offsets: &[usize], min_items: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let segs = offsets.len().saturating_sub(1);
    if segs == 0 {
        return;
    }
    assert!(
        offsets[segs] <= out.len(),
        "parallel_scatter: offsets exceed the output buffer"
    );
    let total = offsets[segs].saturating_sub(offsets[0]);
    // Cap by segment count: a region can never use more workers than there
    // are segments to claim, and with one segment the queue round-trip is
    // pure overhead — run inline on the caller.
    let threads = plan_threads(total, min_items).min(segs);
    if threads <= 1 {
        // Safe range indexing already panics on a decreasing or
        // out-of-bounds segment, so the inline path skips the O(segs)
        // monotonicity scan — it exists to justify the *unsafe* disjoint
        // writes below, and at width 1 it would be the dominant cost of
        // fine-grained dispatch.
        for i in 0..segs {
            f(i, &mut out[offsets[i]..offsets[i + 1]]);
        }
        return;
    }
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "parallel_scatter: offsets must be non-decreasing"
    );
    let base = SendPtr(out.as_mut_ptr());
    let grain = (segs / (threads * 8)).max(1);
    let queue = WorkQueue::new();
    let q = &queue;
    let fr = &f;
    dispatch(threads - 1, &move |_tid| {
        while let Some((s, e)) = q.claim(segs, grain) {
            // Claim-boundary cancel check: back out between chunks; the
            // caller discards the region's (partial) output.
            if crate::cancel::poll().is_some() {
                break;
            }
            for i in s..e {
                let (a, b) = (offsets[i], offsets[i + 1]);
                let ptr = base;
                // SAFETY: offsets are non-decreasing and bounded, so the
                // segments of distinct `i` never overlap.
                let segment = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(a), b - a) };
                fr(i, segment);
            }
        }
    });
}

/// Like [`parallel_scatter`] but fills two buffers that share one segment
/// layout (e.g. a sparse matrix's `indices` and `values`).
///
/// # Panics
///
/// Panics under the same conditions as [`parallel_scatter`], applied to
/// both buffers.
pub fn parallel_scatter2<A, B, F>(
    a: &mut [A],
    b: &mut [B],
    offsets: &[usize],
    min_items: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    let segs = offsets.len().saturating_sub(1);
    if segs == 0 {
        return;
    }
    assert!(
        offsets[segs] <= a.len() && offsets[segs] <= b.len(),
        "parallel_scatter2: offsets exceed an output buffer"
    );
    let total = offsets[segs].saturating_sub(offsets[0]);
    // Same segment-count cap as `parallel_scatter`: surplus workers would
    // only spin on a drained queue.
    let threads = plan_threads(total, min_items).min(segs);
    if threads <= 1 {
        // As in `parallel_scatter`, safe range indexing enforces the
        // segment invariants one segment at a time; the full monotonicity
        // scan is deferred to the parallel path that needs it for the
        // unsafe disjoint writes.
        for i in 0..segs {
            let (s, e) = (offsets[i], offsets[i + 1]);
            f(i, &mut a[s..e], &mut b[s..e]);
        }
        return;
    }
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "parallel_scatter2: offsets must be non-decreasing"
    );
    let base_a = SendPtr(a.as_mut_ptr());
    let base_b = SendPtr(b.as_mut_ptr());
    let grain = (segs / (threads * 8)).max(1);
    let queue = WorkQueue::new();
    let q = &queue;
    let fr = &f;
    dispatch(threads - 1, &move |_tid| {
        while let Some((s, e)) = q.claim(segs, grain) {
            if crate::cancel::poll().is_some() {
                break;
            }
            for i in s..e {
                let (lo, hi) = (offsets[i], offsets[i + 1]);
                let (pa, pb) = (base_a, base_b);
                // SAFETY: offsets are non-decreasing and bounded in both
                // buffers, so segments of distinct `i` never overlap.
                let seg_a = unsafe { std::slice::from_raw_parts_mut(pa.0.add(lo), hi - lo) };
                let seg_b = unsafe { std::slice::from_raw_parts_mut(pb.0.add(lo), hi - lo) };
                fr(i, seg_a, seg_b);
            }
        }
    });
}

/// Wrapper making a raw pointer `Send + Copy` for disjoint-range writes.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

// SAFETY: only used for writes to provably disjoint index ranges.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: see above — shared access is never to overlapping elements.
unsafe impl<T> Sync for SendPtr<T> {}

/// A saturating atomic work counter for dynamic chunk claiming in loops
/// whose per-item cost is skewed (e.g. power-law degree distributions).
struct WorkQueue {
    next: AtomicUsize,
}

impl WorkQueue {
    /// Create a queue starting at item 0.
    fn new() -> WorkQueue {
        WorkQueue {
            next: AtomicUsize::new(0),
        }
    }

    /// Claim the next chunk of up to `chunk` items below `len`, returning
    /// the claimed range or `None` when exhausted.
    ///
    /// The internal cursor never advances past `len`, so a drained queue
    /// can be polled indefinitely (a spinning worker waiting for
    /// stragglers) without overflowing the counter.
    fn claim(&self, len: usize, chunk: usize) -> Option<(usize, usize)> {
        let chunk = chunk.max(1);
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            if cur >= len {
                return None;
            }
            let end = (cur + chunk).min(len);
            match self
                .next
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some((cur, end)),
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    #[allow(clippy::needless_range_loop)] // index range mirrors the API
    fn parallel_for_covers_every_index_once() {
        let hits: Vec<AtomicU64> = (0..10_000).map(|_| AtomicU64::new(0)).collect();
        parallel_for_chunks(hits.len(), 64, |start, end| {
            for i in start..end {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(5000, 16, |i| i * 2);
        assert_eq!(out.len(), 5000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn small_input_runs_inline() {
        let out = parallel_map(3, 1000, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<usize> = parallel_map(0, 16, |i| i);
        assert!(out.is_empty());
        parallel_for_chunks(0, 16, |_, _| panic!("must not run"));
    }

    #[test]
    fn scatter_fills_segments() {
        // Segments of wildly different sizes, including empty ones.
        let offsets = vec![0usize, 3, 3, 10, 4096, 4100];
        let mut out = vec![0u32; 4100];
        parallel_scatter(&mut out, &offsets, 1, |seg, slice| {
            for v in slice.iter_mut() {
                *v = seg as u32 + 1;
            }
        });
        assert!(out[0..3].iter().all(|&v| v == 1));
        assert!(out[3..10].iter().all(|&v| v == 3));
        assert!(out[10..4096].iter().all(|&v| v == 4));
        assert!(out[4096..4100].iter().all(|&v| v == 5));
    }

    #[test]
    fn scatter2_fills_both_buffers() {
        let offsets = vec![0usize, 100, 2500, 2500, 5000];
        let mut a = vec![0u32; 5000];
        let mut b = vec![0f32; 5000];
        parallel_scatter2(&mut a, &mut b, &offsets, 1, |seg, sa, sb| {
            for (x, y) in sa.iter_mut().zip(sb.iter_mut()) {
                *x = seg as u32;
                *y = seg as f32 * 0.5;
            }
        });
        assert!(a[0..100].iter().all(|&v| v == 0));
        assert!(a[100..2500].iter().all(|&v| v == 1));
        assert!(a[2500..5000].iter().all(|&v| v == 3));
        assert!(b[2500..5000].iter().all(|&v| v == 1.5));
    }

    // Descending offsets still panic on the inline path — via safe range
    // indexing rather than the up-front scan the parallel path runs.
    #[test]
    #[should_panic]
    fn scatter_rejects_descending_offsets() {
        let mut out = vec![0u8; 10];
        parallel_scatter(&mut out, &[0, 5, 2], 1, |_, _| {});
    }

    #[test]
    fn pool_survives_many_regions() {
        let before = pool_metrics();
        for round in 0..50 {
            let out = parallel_map(2048, 1, |i| i + round);
            assert_eq!(out[7], 7 + round);
        }
        // Either everything ran inline (1-thread env) or regions were
        // dispatched without respawning per call (workers persist).
        let delta = pool_metrics().since(&before);
        assert!(delta.regions <= 50 * 16);
        assert!(delta.avg_threads() >= 1.0);
        assert!(delta.efficiency() > 0.0 && delta.efficiency() <= 1.0);
    }

    #[test]
    fn work_queue_partitions() {
        let q = WorkQueue::new();
        let mut total = 0;
        while let Some((s, e)) = q.claim(100, 7) {
            total += e - s;
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn work_queue_drained_claim_saturates() {
        // Regression: `claim` used to `fetch_add` unconditionally, so a
        // drained queue polled in a loop would march `next` toward
        // overflow. The cursor must pin at `len`.
        let position = |q: &WorkQueue| q.next.load(Ordering::Relaxed);
        let q = WorkQueue::new();
        while q.claim(100, 9).is_some() {}
        assert_eq!(position(&q), 100);
        for _ in 0..10_000 {
            assert!(q.claim(100, 9).is_none());
        }
        assert_eq!(position(&q), 100);
        // Zero-length queues must not advance at all.
        let empty = WorkQueue::new();
        assert!(empty.claim(0, 4).is_none());
        assert_eq!(position(&empty), 0);
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    /// A hook that injects `fault` for the first region dispatched from
    /// the installing thread. Filtering on the thread id keeps concurrent
    /// tests in this binary from consuming each other's faults.
    fn one_shot_hook(fault: WorkerFault) -> WorkerFaultHook {
        let me = std::thread::current().id();
        let fired = Arc::new(AtomicBool::new(false));
        Arc::new(move || {
            if std::thread::current().id() == me && !fired.swap(true, Ordering::SeqCst) {
                Some(fault)
            } else {
                None
            }
        })
    }

    #[test]
    fn worker_panic_payload_is_preserved_and_pool_heals() {
        if num_threads() < 2 {
            return; // inline mode: no worker-side participants exist
        }
        let result = catch_unwind(|| {
            parallel_for_chunks(10_000, 1, |start, _end| {
                if start > 0 {
                    panic!("chunk {start} exploded");
                }
            });
        });
        let payload = result.expect_err("worker panic must fail the region");
        let err = payload
            .downcast_ref::<PoolError>()
            .expect("worker-side panics must surface as PoolError");
        assert!(
            err.message().contains("exploded"),
            "original payload lost: {err}"
        );
        // The pool replaced the dead workers: later regions still work.
        let out = parallel_map(10_000, 1, |i| i + 1);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn injected_worker_panic_fails_only_the_faulted_region() {
        if num_threads() < 2 {
            return;
        }
        let _globals = crate::test_globals_guard();
        set_worker_fault_hook(Some(one_shot_hook(WorkerFault::Panic)));
        let result = catch_unwind(|| parallel_map(10_000, 1, |i| i * 3));
        set_worker_fault_hook(None);
        let payload = result.expect_err("injected worker panic must fail the region");
        let err = payload.downcast_ref::<PoolError>().expect("typed payload");
        assert!(err.message().contains("injected fault"), "got: {err}");
        let out = parallel_map(10_000, 1, |i| i * 3);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn cancelled_token_short_circuits_regions() {
        if num_threads() < 2 {
            return;
        }
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let _scope = crate::cancel::scope(token);
        let ran = AtomicU64::new(0);
        let offsets: Vec<usize> = (0..=100_000).collect();
        let mut out = vec![0u8; 100_000];
        parallel_scatter(&mut out, &offsets, 16, |_, seg| {
            ran.fetch_add(seg.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(
            ran.load(Ordering::Relaxed),
            0,
            "dynamic claims must stop at the first poll of a fired token"
        );
        parallel_for_chunks(100_000, 16, |s, e| {
            ran.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(
            ran.load(Ordering::Relaxed),
            0,
            "static chunks must skip their share under a fired token"
        );
    }

    #[test]
    fn live_token_changes_nothing() {
        let token = crate::cancel::CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let _scope = crate::cancel::scope(token);
        let out = parallel_map(5000, 16, |i| i * 2);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
        let offsets: Vec<usize> = (0..=5_000).collect();
        let mut hits = vec![0u8; 5_000];
        parallel_scatter(&mut hits, &offsets, 16, |_, seg| seg[0] += 1);
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn injected_worker_stall_still_completes() {
        if num_threads() < 2 {
            return;
        }
        let _globals = crate::test_globals_guard();
        set_worker_fault_hook(Some(one_shot_hook(WorkerFault::Stall { ms: 2 })));
        let out = parallel_map(10_000, 1, |i| i + 7);
        set_worker_fault_hook(None);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 7));
    }

    #[test]
    fn nested_regions_run_inline() {
        let hits: Vec<AtomicU64> = (0..256).map(|_| AtomicU64::new(0)).collect();
        parallel_for_chunks(16, 1, |s, e| {
            for outer in s..e {
                // A nested region must not deadlock the pool.
                parallel_for_chunks(16, 1, |ns, ne| {
                    for inner in ns..ne {
                        hits[outer * 16 + inner].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
