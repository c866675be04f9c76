//! Batch arenas: recycled scratch buffers for per-batch kernel scratch.
//!
//! The compaction/relabel/slice path allocates the same family of scratch
//! vectors every mini-batch (hit bitsets, old→new id maps, staging edge
//! lists). On a training loop that is thousands of identical
//! allocate/free cycles per epoch, all hitting the global allocator. The
//! arena keeps those buffers alive between batches instead: a kernel
//! *takes* a buffer of the type it needs, uses it as an ordinary `Vec`,
//! and the buffer returns to a thread-local pool on drop — cleared, with
//! its capacity intact — so the steady-state per-batch allocation count is
//! near zero.
//!
//! Design constraints this has to respect:
//!
//! - **Determinism / no state leakage.** A recycled buffer is
//!   indistinguishable from a fresh one: [`take`] always hands out an
//!   *empty* vector (`len == 0`), and [`take_filled`] hands out one filled
//!   with the requested element. Only spare `capacity` is reused, never
//!   contents — kernel output can therefore never depend on what ran
//!   before (covered by the testkit back-to-back-epoch fingerprint test).
//! - **Thread safety without locks.** Pools are `thread_local`; the worker
//!   pool's threads each keep their own free lists. A buffer taken on one
//!   thread and dropped on another simply migrates pools — still correct,
//!   just a different reuse pattern.
//! - **Bounded footprint.** Each per-thread, per-type pool keeps at most
//!   [`MAX_POOLED`] buffers and drops oversized ones (>
//!   [`MAX_POOLED_BYTES`]) on the floor, so one giant batch cannot pin
//!   memory forever.
//!
//! Reuse is observable through [`arena_metrics`], mirroring
//! [`crate::pool_metrics`]: the executor snapshots it around each kernel
//! and reports per-kernel arena activity in `ExecStats`.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum buffers kept per thread per element type.
const MAX_POOLED: usize = 16;

/// Buffers above this byte size are freed instead of pooled.
const MAX_POOLED_BYTES: usize = 64 << 20;

// Cumulative arena accounting (process-global, like the pool counters).
static TAKES: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static BYTES_REUSED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of cumulative arena activity. Subtract two snapshots (taken
/// around a kernel) to attribute buffer reuse to that kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaMetrics {
    /// Buffers requested from the arena.
    pub takes: u64,
    /// Requests satisfied from the recycle pool (no heap allocation).
    pub hits: u64,
    /// Capacity bytes handed back out instead of freshly allocated.
    pub bytes_reused: u64,
}

impl ArenaMetrics {
    /// Add another sample into this one (aggregation across kernels).
    pub fn accumulate(&mut self, other: &ArenaMetrics) {
        self.takes += other.takes;
        self.hits += other.hits;
        self.bytes_reused += other.bytes_reused;
    }

    /// The delta from `earlier` to this snapshot.
    pub fn since(&self, earlier: &ArenaMetrics) -> ArenaMetrics {
        ArenaMetrics {
            takes: self.takes.saturating_sub(earlier.takes),
            hits: self.hits.saturating_sub(earlier.hits),
            bytes_reused: self.bytes_reused.saturating_sub(earlier.bytes_reused),
        }
    }

    /// Fraction of takes served without allocating (1.0 when nothing was
    /// taken: an arena-free kernel allocates nothing by definition).
    pub fn hit_rate(&self) -> f64 {
        if self.takes == 0 {
            1.0
        } else {
            self.hits as f64 / self.takes as f64
        }
    }
}

/// Snapshot the cumulative arena metrics.
pub fn arena_metrics() -> ArenaMetrics {
    ArenaMetrics {
        takes: TAKES.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        bytes_reused: BYTES_REUSED.load(Ordering::Relaxed),
    }
}

/// Element types the arena can recycle. Implemented for the scratch
/// element types the hot kernels actually use; the only requirement is a
/// cheap way to reach the per-thread pool for the type.
pub trait Poolable: Sized + 'static {
    /// Run `f` with the calling thread's free list for this type.
    fn with_pool<R>(f: impl FnOnce(&mut Vec<Vec<Self>>) -> R) -> R;
}

macro_rules! poolable {
    ($($t:ty => $tls:ident),* $(,)?) => {$(
        thread_local! {
            static $tls: RefCell<Vec<Vec<$t>>> = const { RefCell::new(Vec::new()) };
        }
        impl Poolable for $t {
            fn with_pool<R>(f: impl FnOnce(&mut Vec<Vec<Self>>) -> R) -> R {
                $tls.with(|p| f(&mut p.borrow_mut()))
            }
        }
    )*};
}

poolable! {
    u32 => POOL_U32,
    u64 => POOL_U64,
    usize => POOL_USIZE,
    f32 => POOL_F32,
}

/// A scratch `Vec` borrowed from the batch arena. Derefs to `Vec<T>`; on
/// drop the buffer is cleared and returned to the dropping thread's pool.
#[derive(Debug)]
pub struct Recycled<T: Poolable> {
    buf: Vec<T>,
}

impl<T: Poolable> Deref for Recycled<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: Poolable> DerefMut for Recycled<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: Poolable> Recycled<T> {
    /// Consume the guard, keeping the buffer (it will not be recycled).
    /// For outputs that must outlive the batch.
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(&mut self.buf)
    }
}

impl<T: Poolable> Drop for Recycled<T> {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 || std::mem::size_of_val(buf.as_slice()) > MAX_POOLED_BYTES {
            return;
        }
        buf.clear();
        T::with_pool(|pool| {
            if pool.len() < MAX_POOLED {
                pool.push(buf);
            }
        });
    }
}

/// Take an **empty** scratch vector with at least `capacity` spare
/// capacity, reusing a recycled buffer when one is available.
pub fn take<T: Poolable>(capacity: usize) -> Recycled<T> {
    TAKES.fetch_add(1, Ordering::Relaxed);
    let recycled = T::with_pool(|pool| {
        // Hand out the largest pooled buffer: growing a too-small one
        // still reallocs, but it frees the old block immediately and
        // keeps the pool from accumulating dead small buffers.
        let best = pool
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i)?;
        Some(pool.swap_remove(best))
    });
    match recycled {
        Some(mut buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            BYTES_REUSED.fetch_add(
                (buf.capacity().min(capacity) * std::mem::size_of::<T>()) as u64,
                Ordering::Relaxed,
            );
            buf.clear();
            if buf.capacity() < capacity {
                buf.reserve(capacity - buf.len());
            }
            Recycled { buf }
        }
        None => Recycled {
            buf: Vec::with_capacity(capacity),
        },
    }
}

/// Take a scratch vector of exactly `len` elements, every one set to
/// `fill` — the arena equivalent of `vec![fill; len]`.
pub fn take_filled<T: Poolable + Clone>(len: usize, fill: T) -> Recycled<T> {
    let mut r = take::<T>(len);
    r.resize(len, fill);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_always_empty_with_capacity() {
        let a = take::<u32>(100);
        assert!(a.is_empty());
        assert!(a.capacity() >= 100);
    }

    #[test]
    fn recycle_round_trip_reuses_capacity() {
        // Drain the pool so the test owns its buffers.
        u32::with_pool(|p| p.clear());
        {
            let mut a = take::<u32>(0);
            a.extend(0..1000);
        } // dropped → pooled
        let before = arena_metrics();
        let b = take::<u32>(500);
        let delta = arena_metrics().since(&before);
        assert!(b.is_empty(), "recycled buffer leaked contents");
        assert!(b.capacity() >= 1000, "capacity not reused");
        // The counters are process-global and sibling tests take scratch
        // concurrently, so the deltas are lower bounds.
        assert!(delta.takes >= 1 && delta.hits >= 1);
        assert!(delta.bytes_reused >= 500 * 4);
    }

    #[test]
    fn take_filled_matches_vec_macro() {
        u32::with_pool(|p| p.clear());
        {
            let mut poison = take::<u32>(0);
            poison.extend([7u32; 64]);
        }
        let f = take_filled::<u32>(32, u32::MAX);
        assert_eq!(&**f, &vec![u32::MAX; 32]);
    }

    #[test]
    fn into_vec_detaches_from_pool() {
        u32::with_pool(|p| p.clear());
        let mut a = take::<u32>(8);
        a.push(5);
        let v = a.into_vec();
        assert_eq!(v, vec![5]);
        assert_eq!(u32::with_pool(|p| p.len()), 0, "kept buffer was pooled");
    }

    #[test]
    fn pool_is_bounded() {
        u32::with_pool(|p| p.clear());
        let many: Vec<Recycled<u32>> = (0..MAX_POOLED + 10).map(|_| take_filled(4, 0)).collect();
        drop(many);
        assert!(u32::with_pool(|p| p.len()) <= MAX_POOLED);
    }

    #[test]
    fn metrics_accumulate_and_since() {
        let mut m = ArenaMetrics {
            takes: 5,
            hits: 3,
            bytes_reused: 100,
        };
        m.accumulate(&ArenaMetrics {
            takes: 1,
            hits: 1,
            bytes_reused: 8,
        });
        assert_eq!(m.takes, 6);
        assert_eq!(m.hits, 4);
        assert_eq!(m.bytes_reused, 108);
        let d = m.since(&ArenaMetrics {
            takes: 5,
            hits: 3,
            bytes_reused: 100,
        });
        assert_eq!(d.takes, 1);
        assert!((d.hit_rate() - 1.0).abs() < 1e-9);
        assert_eq!(ArenaMetrics::default().hit_rate(), 1.0);
    }
}
