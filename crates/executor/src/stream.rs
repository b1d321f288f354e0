//! Streaming result delivery and cooperative cancellation.
//!
//! The executor's collecting entry points ([`crate::execute_with_params_sched`]
//! and friends) are thin wrappers over **one** streaming driver: result
//! chunks flow through a caller-supplied sink as each segment finishes,
//! instead of being materialized into a single `Vec<Row>` first. The
//! network server's sink writes each chunk to the client socket
//! (backpressure: a slow client stalls the executor inside the sink
//! instead of ballooning server memory); the in-process path collects
//! the chunks into the familiar row vector.
//!
//! Cancellation is cooperative. A [`CancelToken`] is checked at block
//! boundaries — per stage, per segment, per partition scanned, per chunk
//! emitted — so a `Cancel` frame or a dropped connection stops the query
//! within one block of work, surfacing as [`Error::Cancelled`] with the
//! statistics accumulated so far.

use crate::stats::ExecutionStats;
use mpp_common::{Error, Result, Row, RowBlock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle shared between a query's driver and
/// whoever may want to stop it (the network layer's reader thread, a
/// timeout, a test).
///
/// Cloning is cheap (one `Arc`); all clones observe the same state.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    timed_out: AtomicBool,
}

impl CancelToken {
    /// A token that only trips when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally trips once `timeout` has elapsed.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
                timed_out: AtomicBool::new(false),
            }),
        }
    }

    /// Request cancellation. Idempotent; the executor notices at its
    /// next check.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Has the token tripped (explicitly or by deadline)?
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }

    /// Did the token trip by reaching its deadline (as opposed to an
    /// explicit [`CancelToken::cancel`])? The server maps this to a
    /// `TIMEOUT` rather than `CANCELLED` error code.
    pub fn timed_out(&self) -> bool {
        self.inner.timed_out.load(Ordering::Acquire)
    }

    /// The cancellation check the executor runs at block boundaries.
    pub fn check(&self) -> Result<()> {
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.inner.timed_out.store(true, Ordering::Release);
                self.inner.cancelled.store(true, Ordering::Release);
                return Err(Error::Cancelled("query deadline exceeded".into()));
            }
        }
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Err(Error::Cancelled("query cancelled".into()));
        }
        Ok(())
    }
}

/// One incremental unit of query output. Query results arrive as
/// `RowBlock` chunks on both engines (a row-engine slice's output is one
/// chunk per segment); only a DML statement's affected-row count and
/// `EXPLAIN` text arrive as rows.
#[derive(Debug, Clone)]
pub enum ResultChunk {
    Rows(Vec<Row>),
    Block(RowBlock),
}

impl ResultChunk {
    /// Logical rows in this chunk.
    pub fn len(&self) -> usize {
        match self {
            ResultChunk::Rows(rows) => rows.len(),
            ResultChunk::Block(b) => b.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append this chunk's rows to a collector — the convenience-wrapper
    /// path behind the materializing API.
    pub fn append_to(self, out: &mut Vec<Row>) {
        match self {
            ResultChunk::Rows(mut rows) => out.append(&mut rows),
            ResultChunk::Block(b) => out.extend(b.to_rows()),
        }
    }
}

/// The chunk consumer: returns `Err` to abort the query (the error
/// propagates out of the streaming driver as the query's result).
pub type RowSink<'s> = dyn FnMut(ResultChunk) -> Result<()> + 's;

/// Outcome of a streaming execution. Unlike the collecting API, the
/// statistics accumulated so far are retained **even on error** — a
/// cancelled query reports how much it scanned before stopping, which is
/// what crosses the wire in an `Error` frame.
pub struct StreamResult {
    pub stats: ExecutionStats,
    pub result: Result<()>,
}

impl StreamResult {
    /// Convert to the collecting API's contract: error, or stats.
    pub fn into_stats(self) -> Result<ExecutionStats> {
        self.result.map(|()| self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(!t.timed_out());
    }

    #[test]
    fn cancel_trips_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        let err = t.check().unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert!(!t.timed_out());
    }

    #[test]
    fn zero_timeout_trips_as_deadline() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        let err = t.check().unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert!(t.timed_out());
        assert!(t.is_cancelled());
    }

    #[test]
    fn chunk_append_flattens_both_variants() {
        let rows = vec![Row::new(vec![mpp_common::Datum::Int32(1)])];
        let block = RowBlock::from_rows(&rows, 1);
        let mut out = Vec::new();
        ResultChunk::Rows(rows.clone()).append_to(&mut out);
        assert_eq!(ResultChunk::Block(block.clone()).len(), 1);
        ResultChunk::Block(block).append_to(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert!(!ResultChunk::Rows(rows).is_empty());
    }
}
