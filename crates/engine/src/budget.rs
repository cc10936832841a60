//! Per-request execution budgets: deadlines and cooperative cancellation.
//!
//! A [`RequestBudget`] is the per-request counterpart to the engine-wide
//! [`EngineConfig`](crate::EngineConfig): the config says how a query *may*
//! run (threads, scan policy), the budget says how long *this* request is
//! allowed to keep running. The executor polls the budget at confirmation
//! batch boundaries — the unit of parallel fan-out — so an expired request
//! stops with a structured [`Error::Timeout`]/[`Error::Cancelled`] instead
//! of returning partial results. Checks are cheap (an `Instant` compare
//! and a relaxed atomic load), so polling once per batch costs nothing
//! against the regex confirmation work a batch represents.

use crate::error::{Error, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared flag a caller flips to abandon an in-flight query.
///
/// Clones observe the same flag, so the token can be handed to the
/// executor while the front end keeps a handle to trip it (client went
/// away, server shutting down). Cancellation is cooperative: the executor
/// notices at the next batch boundary.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Deadline plus optional cancel token for one request.
///
/// The default budget is unlimited — every existing call path that does
/// not thread a budget behaves exactly as before.
#[derive(Clone, Debug, Default)]
pub struct RequestBudget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl RequestBudget {
    /// No deadline, no cancellation: the executor never stops early.
    pub fn unlimited() -> RequestBudget {
        RequestBudget::default()
    }

    /// Budget that expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> RequestBudget {
        RequestBudget {
            deadline: Instant::now().checked_add(timeout),
            cancel: None,
        }
    }

    /// Budget that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> RequestBudget {
        RequestBudget {
            deadline: Some(deadline),
            cancel: None,
        }
    }

    /// Attaches a cancel token (builder style).
    pub fn cancelled_by(mut self, token: CancelToken) -> RequestBudget {
        self.cancel = Some(token);
        self
    }

    /// The deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Polls the budget: `Err(Cancelled)` if the token tripped,
    /// `Err(Timeout)` if the deadline passed, `Ok(())` otherwise.
    /// Cancellation wins over timeout — an abandoned request should be
    /// reported as abandoned even if it also ran long.
    pub fn check(&self) -> Result<()> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Err(Error::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Error::Timeout {
                    elapsed: elapsed_past(deadline),
                });
            }
        }
        Ok(())
    }
}

/// How far past the deadline we noticed the expiry (for error messages).
fn elapsed_past(deadline: Instant) -> Duration {
    Instant::now().saturating_duration_since(deadline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = RequestBudget::unlimited();
        assert!(b.check().is_ok());
    }

    #[test]
    fn expired_deadline_is_timeout() {
        let b = RequestBudget::with_timeout(Duration::ZERO);
        match b.check() {
            Err(Error::Timeout { .. }) => {}
            other => panic!("want Timeout, got {other:?}"),
        }
    }

    #[test]
    fn future_deadline_passes() {
        let b = RequestBudget::with_timeout(Duration::from_secs(3600));
        assert!(b.check().is_ok());
    }

    #[test]
    fn cancel_token_trips_all_clones() {
        let tok = CancelToken::new();
        let b = RequestBudget::unlimited().cancelled_by(tok.clone());
        assert!(b.check().is_ok());
        tok.cancel();
        match b.check() {
            Err(Error::Cancelled) => {}
            other => panic!("want Cancelled, got {other:?}"),
        }
        assert!(tok.is_cancelled());
    }

    #[test]
    fn cancellation_wins_over_timeout() {
        let tok = CancelToken::new();
        tok.cancel();
        let b = RequestBudget::with_timeout(Duration::ZERO).cancelled_by(tok);
        match b.check() {
            Err(Error::Cancelled) => {}
            other => panic!("want Cancelled, got {other:?}"),
        }
    }
}
