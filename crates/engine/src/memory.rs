//! Device-memory accounting: live bytes and high-water mark.

/// A failed (modeled) device allocation: the request would exceed the
/// budget, or would overflow the accounting counter entirely.
///
/// This is the value-level form of "device OOM" — recovery layers decide
/// whether to degrade (smaller super-batches, streaming layout) or to
/// surface the failure, instead of the tracker silently over-committing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OomError {
    /// Bytes the failed allocation asked for.
    pub requested: u64,
    /// Bytes live at the time of the request.
    pub live: u64,
    /// Budget the request was checked against.
    pub budget: u64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device OOM: requested {} bytes with {} live of a {}-byte budget",
            self.requested, self.live, self.budget
        )
    }
}

impl std::error::Error for OomError {}

/// Tracks modeled device memory: current live bytes and the peak reached.
///
/// Table 9 of the paper reports "extra GPU memory usage" per algorithm —
/// this tracker's peak (minus the resident graph) is the reproduced
/// quantity. It is also the input to the super-batch grid search, which
/// must stay within a user-specified memory budget (paper §4.4).
#[derive(Debug, Clone, Default)]
pub struct MemoryTracker {
    current: u64,
    peak: u64,
}

impl MemoryTracker {
    /// Register an allocation unconditionally. Saturates instead of
    /// overflowing: a run that somehow models more than `u64::MAX` live
    /// bytes pins at the ceiling rather than wrapping the accounting.
    pub fn alloc(&mut self, bytes: usize) {
        self.current = self.current.saturating_add(bytes as u64);
        self.peak = self.peak.max(self.current);
    }

    /// Register an allocation only if it fits under `budget` live bytes.
    ///
    /// On failure nothing is recorded and the caller gets the sizing facts
    /// as an [`OomError`]; a request that would overflow the `u64` counter
    /// is OOM by definition (no budget is that large).
    pub fn try_alloc(&mut self, bytes: usize, budget: u64) -> Result<(), OomError> {
        let requested = bytes as u64;
        match self.current.checked_add(requested) {
            Some(next) if next <= budget => {
                self.current = next;
                self.peak = self.peak.max(self.current);
                Ok(())
            }
            _ => Err(OomError {
                requested,
                live: self.current,
                budget,
            }),
        }
    }

    /// Register a free. Saturates at zero: freeing more than was allocated
    /// indicates a caller bug but must not poison the whole run.
    pub fn free(&mut self, bytes: usize) {
        self.current = self.current.saturating_sub(bytes as u64);
    }

    /// Currently live bytes.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// High-water mark in bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water() {
        let mut m = MemoryTracker::default();
        m.alloc(100);
        m.alloc(200);
        m.free(150);
        m.alloc(50);
        assert_eq!(m.current(), 200);
        assert_eq!(m.peak(), 300);
    }

    #[test]
    fn over_free_saturates() {
        let mut m = MemoryTracker::default();
        m.alloc(10);
        m.free(100);
        assert_eq!(m.current(), 0);
        assert_eq!(m.peak(), 10);
    }

    #[test]
    fn zero_byte_traffic_moves_no_bytes() {
        let mut m = MemoryTracker::default();
        m.alloc(0);
        m.free(0);
        assert_eq!(m.current(), 0);
        assert_eq!(m.peak(), 0);
    }

    #[test]
    fn peak_survives_balanced_churn() {
        // Peak is a high-water mark: dropping back to zero between spikes
        // must not lower it, and a smaller later spike must not raise it.
        let mut m = MemoryTracker::default();
        m.alloc(500);
        m.free(500);
        m.alloc(200);
        m.free(200);
        assert_eq!(m.current(), 0);
        assert_eq!(m.peak(), 500);
    }

    #[test]
    fn over_free_does_not_corrupt_later_accounting() {
        // After a saturating over-free, new allocations start from zero —
        // the tracker must not "owe" the excess.
        let mut m = MemoryTracker::default();
        m.alloc(10);
        m.free(1000);
        m.alloc(30);
        assert_eq!(m.current(), 30);
        assert_eq!(m.peak(), 30);
    }

    #[test]
    fn try_alloc_enforces_budget_without_recording_failures() {
        let mut m = MemoryTracker::default();
        assert!(m.try_alloc(600, 1000).is_ok());
        let err = m.try_alloc(500, 1000).unwrap_err();
        assert_eq!(err.requested, 500);
        assert_eq!(err.live, 600);
        assert_eq!(err.budget, 1000);
        // The failed request left no trace in the accounting.
        assert_eq!(m.current(), 600);
        assert_eq!(m.peak(), 600);
        // An exactly-fitting request succeeds.
        assert!(m.try_alloc(400, 1000).is_ok());
        assert_eq!(m.current(), 1000);
    }

    #[test]
    fn try_alloc_treats_counter_overflow_as_oom() {
        let mut m = MemoryTracker::default();
        m.alloc(usize::MAX);
        // Adding anything past u64::MAX cannot fit any budget.
        let err = m.try_alloc(usize::MAX, u64::MAX).unwrap_err();
        assert_eq!(err.live, usize::MAX as u64);
    }

    #[test]
    fn infallible_alloc_saturates_at_ceiling() {
        let mut m = MemoryTracker::default();
        m.alloc(usize::MAX);
        m.alloc(usize::MAX);
        m.alloc(usize::MAX);
        assert_eq!(m.current(), u64::MAX);
        assert_eq!(m.peak(), u64::MAX);
    }

    #[test]
    fn usize_bytes_accumulate_in_u64() {
        // 32-bit-usize-sized allocations must accumulate without overflow
        // in the u64 accounting.
        let mut m = MemoryTracker::default();
        let chunk = u32::MAX as usize;
        m.alloc(chunk);
        m.alloc(chunk);
        assert_eq!(m.current(), 2 * (u32::MAX as u64));
        assert_eq!(m.peak(), m.current());
    }
}
