//! Cooperative cancellation of in-flight mapping runs.
//!
//! Long-lived callers (the `chortle-serve` daemon, search loops that
//! re-map candidate decompositions) need to abandon a mapping run that
//! has outlived its usefulness without killing the thread it runs on.
//! A [`CancelToken`] carries that request: the mapping driver polls it
//! at **tree boundaries** — before each tree of the tree-order loop —
//! and returns [`MapError::Cancelled`](crate::MapError::Cancelled) once it fires.
//! Partial work is discarded; no partial circuit ever escapes.
//!
//! Tree granularity is deliberate: a single tree's subset DP is
//! microseconds even at K = 5, so polling any finer would buy nothing
//! and cost a clock read inside the kernel's hot loop. The default
//! token is *inert* — a `None` inside — so callers that never cancel
//! pay a single branch per tree and no allocation, matching the
//! zero-cost-when-disabled convention of the telemetry sink.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cancellation request shared between a controller and a mapping run.
///
/// Clones share state: cancelling any clone cancels them all. The
/// [`Default`] token is inert and never fires — it is what the options
/// builder attaches when the caller never sets one.
///
/// # Examples
///
/// ```
/// use chortle::CancelToken;
///
/// let inert = CancelToken::default();
/// assert!(!inert.is_cancelled());
/// inert.cancel(); // no-op on an inert token
/// assert!(!inert.is_cancelled());
///
/// let token = CancelToken::armed();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A live token that fires only when [`CancelToken::cancel`] is
    /// called.
    pub fn armed() -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A live token that fires at `deadline` (or earlier, via
    /// [`CancelToken::cancel`]). This is how per-request `deadline_ms`
    /// enforcement works in `chortle-serve`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// A live token firing `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Requests cancellation. Idempotent; a no-op on the inert default
    /// token.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Release);
        }
    }

    /// Whether the run should stop: explicitly cancelled, or past the
    /// deadline. The mapping drivers poll this at tree boundaries.
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.flag.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_in_the_past_fires_immediately() {
        let token = CancelToken::with_timeout(Duration::ZERO);
        assert!(token.is_cancelled());
    }

    #[test]
    fn far_deadline_does_not_fire_but_cancel_does() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
    }
}
