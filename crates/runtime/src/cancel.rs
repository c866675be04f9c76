//! Cooperative cancellation and deadlines.
//!
//! A [`CancelToken`] is a shared flag plus an optional deadline, fixed
//! when the token is made. The party that owns an execution (a CLI epoch
//! loop, a serving scheduler, a test) installs its token on its own thread
//! with [`scope`]; that is the one way to stop a run. Everything downstream
//! — window boundaries, kernel dispatch, pool work-queue claims, retry
//! decisions — polls the *current* token through [`poll`] and backs out at
//! the next check point when it has fired.
//!
//! The discipline mirrors the obs disabled-span path: with no token
//! installed, a poll is a single thread-local flag read (no atomics, no
//! clock). Only a token with a deadline pays for an `Instant::now()` per
//! poll. Tokens are **thread-scoped**, not process-global, so two
//! concurrent executions (a serving scheduler next to a test-driven
//! epoch) can never cancel each other; the worker pool forwards the
//! dispatching caller's token to spawned participants for the duration of
//! their share (see `parallel::run_participant`), which keeps the scope's
//! reach exactly "this execution", never "this process".
//!
//! Cancellation is *cooperative and advisory*: a fired token makes every
//! later check point return early, it never interrupts a running chunk.
//! That is what keeps it compatible with the determinism contract — the
//! work decomposition is unchanged, only the point at which the caller
//! abandons (and then discards) the region's output moves.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAUSE_NONE: u8 = 0;
const CAUSE_EXPLICIT: u8 = 1;
const CAUSE_DEADLINE: u8 = 2;

/// Why a token fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called.
    Explicit,
    /// The token's deadline elapsed.
    Deadline {
        /// The budget the token was made with, in milliseconds.
        budget_ms: u64,
        /// Time since the token was made, when the cause was read, in
        /// milliseconds.
        elapsed_ms: u64,
    },
}

#[derive(Debug)]
struct Inner {
    /// Sticky cause: once fired, every later poll sees the same cause.
    cause: AtomicU8,
    /// When the token was made and the budget it was made with; the
    /// token's deadline is their sum, fixed for its life. `None` = no
    /// deadline.
    deadline: Option<(Instant, Duration)>,
}

/// A shared cancellation flag with an optional deadline. Cloning is cheap
/// (an `Arc` bump); all clones observe the same state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline; fires only via [`cancel`](Self::cancel).
    pub fn new() -> CancelToken {
        CancelToken::make(None)
    }

    /// A token that fires `budget` from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken::make(Some((Instant::now(), budget)))
    }

    fn make(deadline: Option<(Instant, Duration)>) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cause: AtomicU8::new(CAUSE_NONE),
                deadline,
            }),
        }
    }

    /// Fire the token explicitly. Idempotent; an already-fired token
    /// keeps its original cause.
    pub fn cancel(&self) {
        let _ = self.inner.cause.compare_exchange(
            CAUSE_NONE,
            CAUSE_EXPLICIT,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The millisecond budget the token was made with, if it has a
    /// deadline.
    pub fn budget_ms(&self) -> Option<u64> {
        self.inner
            .deadline
            .map(|(_, budget)| budget.as_millis() as u64)
    }

    /// Check the token: `None` while live, the (sticky) cause once fired.
    /// The first poll past the deadline latches the cause, so every
    /// observer agrees on why the execution stopped.
    pub fn status(&self) -> Option<CancelCause> {
        match self.inner.cause.load(Ordering::Relaxed) {
            CAUSE_EXPLICIT => return Some(CancelCause::Explicit),
            CAUSE_DEADLINE => return self.deadline_cause(),
            _ => {}
        }
        let (made, budget) = self.inner.deadline?;
        if made.elapsed() < budget {
            return None;
        }
        let _ = self.inner.cause.compare_exchange(
            CAUSE_NONE,
            CAUSE_DEADLINE,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        // Re-read: a racing explicit cancel may have won the latch.
        match self.inner.cause.load(Ordering::Relaxed) {
            CAUSE_EXPLICIT => Some(CancelCause::Explicit),
            _ => self.deadline_cause(),
        }
    }

    /// True once the token has fired (either cause).
    pub fn is_cancelled(&self) -> bool {
        self.status().is_some()
    }

    fn deadline_cause(&self) -> Option<CancelCause> {
        let (made, budget) = self.inner.deadline?;
        Some(CancelCause::Deadline {
            budget_ms: budget.as_millis() as u64,
            elapsed_ms: made.elapsed().as_millis() as u64,
        })
    }
}

thread_local! {
    /// Fast-path flag: true iff this thread has a current token. Keeps
    /// the no-token poll to one thread-local read.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Install `token` as this thread's current token, returning the previous
/// one (for nesting).
fn set_current(token: Option<CancelToken>) -> Option<CancelToken> {
    ACTIVE.with(|a| a.set(token.is_some()));
    CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), token))
}

/// This thread's current token, if one is installed.
pub fn current() -> Option<CancelToken> {
    if !ACTIVE.with(|a| a.get()) {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Poll this thread's current token. One thread-local read when no token
/// is installed; the cause once the installed token has fired.
pub fn poll() -> Option<CancelCause> {
    if !ACTIVE.with(|a| a.get()) {
        return None;
    }
    CURRENT.with(|c| c.borrow().as_ref().and_then(|t| t.status()))
}

/// RAII guard installing a token for a lexical scope; the previous token
/// is restored on drop (scopes nest).
pub struct CancelScope {
    prior: Option<CancelToken>,
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        set_current(self.prior.take());
    }
}

/// Install `token` as the current token until the returned guard drops.
pub fn scope(token: CancelToken) -> CancelScope {
    CancelScope {
        prior: set_current(Some(token)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_is_sticky() {
        let t = CancelToken::new();
        assert_eq!(t.status(), None);
        assert!(!t.is_cancelled());
        t.cancel();
        assert_eq!(t.status(), Some(CancelCause::Explicit));
    }

    #[test]
    fn deadline_fires_and_latches() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        match t.status() {
            Some(CancelCause::Deadline { .. }) => {}
            other => panic!("expected deadline cause, got {other:?}"),
        }
        // Sticky: an explicit cancel after the fact keeps the cause.
        t.cancel();
        assert!(matches!(t.status(), Some(CancelCause::Deadline { .. })));
    }

    #[test]
    fn scope_installs_and_restores() {
        assert_eq!(poll(), None);
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        inner.cancel();
        {
            let _a = scope(outer.clone());
            assert_eq!(poll(), None);
            {
                let _b = scope(inner);
                assert_eq!(poll(), Some(CancelCause::Explicit));
            }
            // Outer token restored, still live.
            assert_eq!(poll(), None);
            outer.cancel();
            assert_eq!(poll(), Some(CancelCause::Explicit));
        }
        assert_eq!(poll(), None);
        assert!(current().is_none());
    }

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }
}
