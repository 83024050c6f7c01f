//! Request-level cancellation and deadlines.
//!
//! A [`CancelToken`] is the one object that threads a caller's "stop now"
//! (or "stop at this wall-clock instant") through every layer of a
//! decomposition: the session attaches it to each of the layout's component
//! tasks, the batch polls it before starting a task on the pool, and the
//! exact/SDP engines poll its shared flag on their existing
//! amortised clock checks — so cancellation latency is bounded by the
//! engines' poll interval, not by component size.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, cheap-to-poll cancellation handle with an optional deadline.
///
/// Cloning shares the underlying state: any clone's [`cancel`] is observed
/// by every holder.  Two independent sticky conditions can stop a request —
/// an explicit [`cancel`] call and the expiry of the construction-time
/// [`deadline`] — and the token remembers *which* fired
/// ([`is_cancelled`] / [`deadline_exceeded`]) so partial results can report
/// the reason.  Both fold into one [`stop_requested`] flag that costs a
/// single relaxed atomic load, cheap enough for per-task polling; deadline
/// expiry is detected by [`poll`], which the batch calls on every task
/// boundary, and by the engines' own clock checks (the crate-private probe
/// they share carries the deadline too, and an engine that observes expiry
/// promotes it into the shared flag).
///
/// A token without a deadline never stops on its own; a token is never
/// "un-stopped" — both conditions are sticky.
///
/// [`cancel`]: CancelToken::cancel
/// [`deadline`]: CancelToken::deadline
/// [`is_cancelled`]: CancelToken::is_cancelled
/// [`deadline_exceeded`]: CancelToken::deadline_exceeded
/// [`stop_requested`]: CancelToken::stop_requested
/// [`poll`]: CancelToken::poll
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Set by [`CancelToken::cancel`] only.
    cancelled: AtomicBool,
    /// Set by any poll that observes `deadline` in the past.
    deadline_exceeded: AtomicBool,
    /// The union stop flag, shared with the engines: set by `cancel`, by
    /// deadline-observing polls, and by engines that see the probe's
    /// deadline expire.
    stop: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that stops only on an explicit [`cancel`](Self::cancel).
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally stops once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: Some(deadline),
                ..Inner::default()
            }),
        }
    }

    /// A token whose deadline is `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Requests cancellation.  Sticky and idempotent; every clone observes
    /// it on its next poll, every engine sharing the probe within one poll
    /// batch.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
        self.inner.stop.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// The wall-clock deadline, if one was set at construction.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// `true` once a poll has observed the deadline in the past.
    pub fn deadline_exceeded(&self) -> bool {
        self.inner.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// `true` once either stop condition has been observed.  One relaxed
    /// atomic load; never consults the clock.
    pub fn stop_requested(&self) -> bool {
        self.inner.stop.load(Ordering::Relaxed)
    }

    /// Polls the token: promotes an expired deadline into the sticky
    /// deadline/stop flags and returns
    /// [`stop_requested`](Self::stop_requested).  Call on task boundaries;
    /// engines poll the shared flag on their own amortised clock checks
    /// instead.
    pub fn poll(&self) -> bool {
        if let Some(deadline) = self.inner.deadline {
            if !self.inner.deadline_exceeded.load(Ordering::Relaxed) && Instant::now() >= deadline {
                self.inner.deadline_exceeded.store(true, Ordering::Relaxed);
                self.inner.stop.store(true, Ordering::Relaxed);
            }
        } else if self.inner.stop.load(Ordering::Relaxed)
            && !self.inner.cancelled.load(Ordering::Relaxed)
        {
            // No deadline of our own, but an engine promoted one into the
            // shared flag (a probe built with a deadline) — classify it.
            self.inner.deadline_exceeded.store(true, Ordering::Relaxed);
        }
        if self.inner.stop.load(Ordering::Relaxed) {
            // An engine may have observed the deadline (through the probe)
            // before any caller-side poll did; keep the reason flags
            // consistent with the union flag.
            if let Some(deadline) = self.inner.deadline {
                if Instant::now() >= deadline {
                    self.inner.deadline_exceeded.store(true, Ordering::Relaxed);
                }
            }
            return true;
        }
        false
    }

    /// The engines' view of this token: the shared stop flag plus the
    /// deadline, polled together on their amortised clock checks.
    pub(crate) fn probe(&self) -> mpl_ilp::CancelProbe {
        mpl_ilp::CancelProbe {
            flag: Arc::clone(&self.inner.stop),
            deadline: self.inner.deadline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_quiet() {
        let token = CancelToken::new();
        assert!(!token.stop_requested());
        assert!(!token.is_cancelled());
        assert!(!token.deadline_exceeded());
        assert!(!token.poll());
        assert_eq!(token.deadline(), None);
    }

    #[test]
    fn cancel_is_sticky_and_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        assert!(token.stop_requested());
        assert!(token.is_cancelled());
        assert!(!token.deadline_exceeded());
        assert!(token.poll());
    }

    #[test]
    fn expired_deadline_is_classified_by_poll() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        // Nothing observed yet: the cheap flag stays clear until a poll.
        assert!(!token.stop_requested());
        assert!(token.poll());
        assert!(token.deadline_exceeded());
        assert!(!token.is_cancelled());
        assert!(token.stop_requested());
    }

    #[test]
    fn far_deadline_does_not_fire() {
        let token = CancelToken::after(Duration::from_secs(3600));
        assert!(!token.poll());
        assert!(!token.deadline_exceeded());
    }

    #[test]
    fn engine_observed_deadline_is_reclassified_on_the_next_poll() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        // An engine polls the probe first and promotes the deadline into
        // the shared flag.
        let probe = token.probe();
        assert!(probe.should_stop(Instant::now()));
        assert!(token.stop_requested());
        // The caller's next poll recovers the reason.
        assert!(token.poll());
        assert!(token.deadline_exceeded());
        assert!(!token.is_cancelled());
    }

    #[test]
    fn probe_shares_the_stop_flag_both_ways() {
        let token = CancelToken::new();
        let probe = token.probe();
        token.cancel();
        assert!(probe.stop_requested());

        let token = CancelToken::new();
        let probe = token.probe();
        probe.flag.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(token.stop_requested());
    }
}
