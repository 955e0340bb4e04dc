//! Cooperative cancellation for in-flight queries.
//!
//! The explanation pipeline runs for milliseconds to seconds depending on
//! log size; a networked caller needs to abandon a request (client hung up,
//! deadline passed, server shedding load) without tearing down the worker
//! thread that is computing it.  [`CancelToken`] is the handshake: the
//! requester keeps one clone and the pipeline checks another at its phase
//! boundaries — before resolution, per enumeration batch, after training,
//! and per clause-search iteration — returning
//! [`CoreError::Cancelled`] or
//! [`CoreError::DeadlineExceeded`]
//! instead of the explanation.  Checks are a relaxed atomic load plus, when
//! a deadline is set, an `Instant::now()` comparison — cheap enough for
//! inner loops at batch granularity.
//!
//! The default token ([`CancelToken::never`], also `Default`) carries no
//! allocation and never fires, so library callers that don't care about
//! cancellation pay one `Option` check.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{CoreError, Result};

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle shared between a requester and the
/// pipeline executing its query.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<CancelInner>>,
}

impl CancelToken {
    /// A token that can never fire: no allocation, every check passes.
    pub fn never() -> CancelToken {
        CancelToken { inner: None }
    }

    /// A manually-fired token: call [`CancelToken::cancel`] on any clone to
    /// stop the pipeline at its next check.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A token that fires once `deadline` passes (and can also be fired
    /// manually before that).
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// A token whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Fires the token: every clone's next [`CancelToken::check`] returns
    /// [`CoreError::Cancelled`].  A no-op on [`CancelToken::never`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the token has been fired or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }

    /// The deadline, if this token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|inner| inner.deadline)
    }

    /// The pipeline-side check: `Ok(())` to keep going,
    /// [`CoreError::Cancelled`] after [`CancelToken::cancel`],
    /// [`CoreError::DeadlineExceeded`] once the deadline passes.  A manual
    /// cancel wins over an expired deadline (the requester's abort reason
    /// is the more specific signal).
    pub fn check(&self) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancelled.load(Ordering::Relaxed) {
            return Err(CoreError::Cancelled);
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(CoreError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_fires() {
        let token = CancelToken::never();
        token.cancel();
        assert!(token.check().is_ok());
        assert!(!token.is_cancelled());
        assert_eq!(token.deadline(), None);
        assert!(CancelToken::default().check().is_ok());
    }

    #[test]
    fn manual_cancel_reaches_every_clone() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(clone.check().is_ok());
        token.cancel();
        assert_eq!(clone.check(), Err(CoreError::Cancelled));
        assert!(clone.is_cancelled());
    }

    #[test]
    fn expired_deadline_fires_as_deadline_exceeded() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(token.check(), Err(CoreError::DeadlineExceeded));
        // A manual cancel is the more specific reason and wins.
        token.cancel();
        assert_eq!(token.check(), Err(CoreError::Cancelled));
    }

    #[test]
    fn future_deadline_passes_until_it_arrives() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(token.check().is_ok());
        assert!(token.deadline().is_some());
    }
}
