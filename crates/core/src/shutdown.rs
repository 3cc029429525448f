//! Graceful shutdown: signal handling, deadlines, and the cooperative
//! [`CancelToken`] the streaming pipelines poll.
//!
//! Mid-run kills are routine at the paper's §5 scale; the difference
//! between a kill and a *graceful* shutdown is whether the run gets to
//! flush its frontier first. The CLI installs handlers for `SIGINT` and
//! `SIGTERM` that do nothing but set an atomic flag; the pipeline polls a
//! [`CancelToken`] at row, pass, and shard boundaries, and on
//! cancellation persists a final checkpoint before returning
//! [`MatrixError::Canceled`] — which the CLI maps to its documented
//! resumable exit code 3. The `--deadline-secs` flag uses the same token
//! with a wall-clock deadline, for batch schedulers that would otherwise
//! SIGKILL at the slot boundary.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sfa_matrix::{MatrixError, Result};

/// Set by the signal handler; observed by tokens built with
/// [`CancelToken::watching_signals`].
static SIGNAL_FLAG: AtomicBool = AtomicBool::new(false);

/// Signals delivered since the latch was last cleared. The second one
/// escalates: a drain that is too slow for the operator gets cut short
/// by an immediate `_exit` with [`FORCED_SHUTDOWN_EXIT_CODE`].
static SIGNAL_COUNT: AtomicU32 = AtomicU32::new(0);

/// Default [`CancelToken::throttled`] stride for per-row hot loops: small
/// enough that a deadline is noticed within a sub-millisecond window of
/// row work, large enough to amortize the clock read to noise.
pub const CANCEL_POLL_STRIDE: u32 = 64;

/// Exit code of a second-signal forced shutdown: the shell convention
/// `128 + SIGINT`. Unlike the graceful code 3, a forced exit skips every
/// flush — on-disk state is whatever the last durable write left behind
/// (crash-consistent, but the frontier may be stale).
pub const FORCED_SHUTDOWN_EXIT_CODE: i32 = 130;

#[cfg(unix)]
mod sys {
    use super::{Ordering, FORCED_SHUTDOWN_EXIT_CODE, SIGNAL_COUNT, SIGNAL_FLAG};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`; libc is always linked on unix targets, so no
        /// external crate is needed for this one symbol.
        fn signal(signum: i32, handler: usize) -> usize;
        /// POSIX `_exit(2)`: async-signal-safe immediate termination (no
        /// atexit hooks, no buffered-stream flushing).
        fn _exit(code: i32) -> !;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe only: atomics, and on escalation `_exit`. The
        // first signal sets the flag and lets the drain path notice at its
        // next boundary poll; the second means the drain is too slow and
        // the operator wants out *now*.
        let prior = SIGNAL_COUNT.fetch_add(1, Ordering::SeqCst);
        SIGNAL_FLAG.store(true, Ordering::SeqCst);
        if prior >= 1 {
            // SAFETY: `_exit` is async-signal-safe per POSIX.
            unsafe { _exit(FORCED_SHUTDOWN_EXIT_CODE) }
        }
    }

    pub(super) fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is the POSIX API; the handler performs atomic
        // ops and (on escalation) `_exit`, all async-signal-safe.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub(super) fn install() {}
}

/// Ensures the `signal(2)` registration itself happens once per process.
static HANDLERS_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Installs `SIGINT`/`SIGTERM` handlers that request a graceful shutdown,
/// and clears any previously latched signal so a new run starts fresh.
///
/// Explicitly idempotent: the `signal(2)` registration happens once per
/// process no matter how many times this is called; every call clears the
/// signal latch and count. A second signal during a slow drain forces an
/// immediate exit with [`FORCED_SHUTDOWN_EXIT_CODE`]. A no-op on non-unix
/// platforms (where runs remain killable but not gracefully
/// interruptible).
pub fn install_signal_handlers() {
    SIGNAL_FLAG.store(false, Ordering::SeqCst);
    SIGNAL_COUNT.store(0, Ordering::SeqCst);
    if !HANDLERS_INSTALLED.swap(true, Ordering::SeqCst) {
        sys::install();
    }
}

/// Whether a shutdown signal has been received since the handlers were
/// (last) installed.
#[must_use]
pub fn signal_received() -> bool {
    SIGNAL_FLAG.load(Ordering::SeqCst)
}

/// A cooperative cancellation token polled by the streaming pipelines.
///
/// A token cancels for any of three reasons: [`cancel`](Self::cancel) was
/// called on it (or a clone — clones share the flag), its deadline
/// passed, or — for tokens built with
/// [`watching_signals`](Self::watching_signals) — a shutdown signal
/// arrived. The default token never cancels, so non-interactive callers
/// pay one atomic load per poll and nothing else.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
    watch_signals: bool,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is called.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Also cancels once `timeout` has elapsed from now.
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Also cancels when a `SIGINT`/`SIGTERM` arrives (requires
    /// [`install_signal_handlers`] to have been called).
    #[must_use]
    pub fn watching_signals(mut self) -> Self {
        self.watch_signals = true;
        self
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Why the token is canceled, if it is.
    fn cause(&self) -> Option<&'static str> {
        if self.flag.load(Ordering::SeqCst) {
            return Some("request");
        }
        if self.watch_signals && signal_received() {
            return Some("signal");
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some("deadline");
        }
        None
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_canceled(&self) -> bool {
        self.cause().is_some()
    }

    /// `Err(MatrixError::Canceled)` if cancellation has been requested,
    /// `Ok(())` otherwise — the form the pipeline's `?`-chains poll.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Canceled`] naming the cause.
    pub fn check(&self) -> Result<()> {
        match self.cause() {
            Some(reason) => Err(MatrixError::Canceled { reason }),
            None => Ok(()),
        }
    }

    /// A throttled view for per-row hot loops: flag and signal loads
    /// (cheap atomics) on every poll, but the deadline's `Instant::now()`
    /// only every `stride` polls. See [`ThrottledCancel`].
    #[must_use]
    pub fn throttled(&self, stride: u32) -> ThrottledCancel<'_> {
        ThrottledCancel {
            token: self,
            stride: stride.max(1),
            until_clock: 0,
            deadline_hit: false,
        }
    }
}

/// A per-loop throttle over a [`CancelToken`] that keeps explicit
/// cancellation and signal detection immediate (two relaxed-cost atomic
/// loads per poll) while amortizing the deadline's `Instant::now()` —
/// a vDSO call, syscall-adjacent on some platforms — across `stride`
/// polls. Deadline detection therefore lags by at most `stride - 1`
/// polls, which at per-row granularity is microseconds.
///
/// Borrows the token, so one throttle serves one loop; make a fresh one
/// (they are four words) per loop rather than storing them.
#[derive(Debug)]
pub struct ThrottledCancel<'a> {
    token: &'a CancelToken,
    stride: u32,
    until_clock: u32,
    deadline_hit: bool,
}

impl ThrottledCancel<'_> {
    /// Whether cancellation has been requested, consulting the wall clock
    /// only every `stride` calls. Once an expired deadline is observed it
    /// stays observed — cancellation never un-happens between polls.
    #[must_use]
    pub fn is_canceled(&mut self) -> bool {
        if self.token.flag.load(Ordering::SeqCst) || (self.token.watch_signals && signal_received())
        {
            return true;
        }
        if self.deadline_hit {
            return true;
        }
        if self.token.deadline.is_none() {
            return false;
        }
        if self.until_clock == 0 {
            self.until_clock = self.stride;
            self.deadline_hit = self.token.is_canceled();
            self.deadline_hit
        } else {
            self.until_clock -= 1;
            false
        }
    }

    /// Throttled form of [`CancelToken::check`].
    ///
    /// # Errors
    ///
    /// [`MatrixError::Canceled`] naming the cause.
    pub fn check(&mut self) -> Result<()> {
        if self.is_canceled() {
            self.token.check()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tests that poke the process-global signal latch must not overlap.
    fn signal_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn default_token_never_cancels() {
        let t = CancelToken::new();
        assert!(!t.is_canceled());
        t.check().expect("not canceled");
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_canceled());
        let err = t.check().expect_err("canceled");
        assert!(err.is_canceled());
        assert_eq!(err.to_string(), "canceled by request");
    }

    #[test]
    fn deadline_cancels_once_elapsed() {
        let t = CancelToken::new().with_deadline(Duration::from_secs(3600));
        assert!(!t.is_canceled(), "an hour has not passed");
        let t = CancelToken::new().with_deadline(Duration::ZERO);
        assert!(t.is_canceled());
        assert_eq!(
            t.check().expect_err("canceled").to_string(),
            "canceled by deadline"
        );
    }

    #[test]
    fn signal_flag_is_observed_only_by_watching_tokens() {
        let _guard = signal_lock();
        install_signal_handlers();
        SIGNAL_FLAG.store(true, Ordering::SeqCst);
        assert!(signal_received());
        assert!(!CancelToken::new().is_canceled(), "non-watching is immune");
        let t = CancelToken::new().watching_signals();
        assert!(t.is_canceled());
        assert_eq!(
            t.check().expect_err("canceled").to_string(),
            "canceled by signal"
        );
        // Re-installing clears the latch for the next run.
        install_signal_handlers();
        assert!(!t.is_canceled());
    }

    #[test]
    fn install_clears_count_and_is_idempotent() {
        let _guard = signal_lock();
        install_signal_handlers();
        assert_eq!(SIGNAL_COUNT.load(Ordering::SeqCst), 0);
        SIGNAL_COUNT.store(1, Ordering::SeqCst);
        SIGNAL_FLAG.store(true, Ordering::SeqCst);
        // Calling again (idempotent) resets the latch and the count.
        install_signal_handlers();
        assert_eq!(SIGNAL_COUNT.load(Ordering::SeqCst), 0);
        assert!(!signal_received());
    }

    #[test]
    fn forced_exit_code_follows_shell_convention() {
        assert_eq!(FORCED_SHUTDOWN_EXIT_CODE, 128 + 2);
    }

    #[test]
    fn throttled_detects_flag_and_signal_immediately() {
        let _guard = signal_lock();
        install_signal_handlers();
        let t = CancelToken::new().with_deadline(Duration::from_secs(3600));
        let mut th = t.throttled(1_000_000);
        assert!(!th.is_canceled());
        t.cancel();
        assert!(th.is_canceled(), "explicit cancel bypasses the throttle");

        let t = CancelToken::new()
            .watching_signals()
            .with_deadline(Duration::from_secs(3600));
        let mut th = t.throttled(1_000_000);
        assert!(!th.is_canceled());
        SIGNAL_FLAG.store(true, Ordering::SeqCst);
        assert!(th.is_canceled(), "signals bypass the throttle");
        install_signal_handlers();
    }

    #[test]
    fn throttled_deadline_detected_within_stride() {
        let t = CancelToken::new().with_deadline(Duration::ZERO);
        let stride = 8;
        let mut th = t.throttled(stride);
        let polls_until_hit = (0..=stride)
            .position(|_| th.is_canceled())
            .expect("deadline observed within one stride");
        assert!(polls_until_hit as u32 <= stride);
        assert_eq!(
            th.check().expect_err("canceled").to_string(),
            "canceled by deadline"
        );
    }

    #[test]
    fn throttled_without_deadline_never_touches_clock_and_never_cancels() {
        let t = CancelToken::new();
        let mut th = t.throttled(2);
        for _ in 0..100 {
            assert!(!th.is_canceled());
            th.check().expect("not canceled");
        }
    }
}
