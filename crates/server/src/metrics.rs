//! Server observability: lock-free counters and a latency histogram.
//!
//! Every counter is a relaxed `AtomicU64` — the hot path (one query)
//! touches a handful of them, never a lock. Latency lands in log2
//! buckets of microseconds, so quantiles come from a 64-slot histogram
//! walk with bounded (one-bucket) overestimation rather than from
//! recording every sample.
//!
//! [`MetricsSnapshot`] is the plain-data view that crosses the wire in
//! a `StatsReply` frame; its field set is part of the protocol (see
//! `protocol.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 64;

/// Live counters owned by the server. All increments are relaxed: the
/// numbers are monitoring data, not synchronization.
pub struct ServerMetrics {
    pub active_connections: AtomicU64,
    pub total_connections: AtomicU64,
    pub shed_connections: AtomicU64,
    pub inflight_queries: AtomicU64,
    pub queued_queries: AtomicU64,
    pub shed_queries: AtomicU64,
    pub queries_started: AtomicU64,
    pub queries_ok: AtomicU64,
    pub queries_err: AtomicU64,
    pub queries_cancelled: AtomicU64,
    /// Result rows that reached a client socket.
    pub rows_streamed: AtomicU64,
    /// `DataBlock` frames written to client sockets.
    pub blocks_streamed: AtomicU64,
    /// Frame payload bytes written to client sockets (all frame types).
    pub bytes_streamed: AtomicU64,
    /// `DataBlock` frames encoded for writing. While a query streams this
    /// runs ahead of `blocks_streamed` by at most 1 (the frame being
    /// written) — the observable form of the streaming memory bound. A
    /// frame whose write failed stays counted here only.
    pub chunks_emitted: AtomicU64,
    /// Plan-cache hits/misses observed by wire queries.
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    latency_count: AtomicU64,
    latency: [AtomicU64; BUCKETS],
}

impl Default for ServerMetrics {
    fn default() -> ServerMetrics {
        ServerMetrics {
            active_connections: AtomicU64::new(0),
            total_connections: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            inflight_queries: AtomicU64::new(0),
            queued_queries: AtomicU64::new(0),
            shed_queries: AtomicU64::new(0),
            queries_started: AtomicU64::new(0),
            queries_ok: AtomicU64::new(0),
            queries_err: AtomicU64::new(0),
            queries_cancelled: AtomicU64::new(0),
            rows_streamed: AtomicU64::new(0),
            blocks_streamed: AtomicU64::new(0),
            bytes_streamed: AtomicU64::new(0),
            chunks_emitted: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            latency_count: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ServerMetrics {
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dec(counter: &AtomicU64) {
        counter.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record one query's wall-clock latency.
    pub fn record_latency(&self, elapsed: Duration) {
        let micros = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.latency[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter. Individual loads are
    /// relaxed, so the snapshot is per-counter consistent, not a global
    /// atomic cut — fine for monitoring.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            active_connections: self.active_connections.load(Ordering::Relaxed),
            total_connections: self.total_connections.load(Ordering::Relaxed),
            shed_connections: self.shed_connections.load(Ordering::Relaxed),
            inflight_queries: self.inflight_queries.load(Ordering::Relaxed),
            queued_queries: self.queued_queries.load(Ordering::Relaxed),
            shed_queries: self.shed_queries.load(Ordering::Relaxed),
            queries_started: self.queries_started.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_err: self.queries_err.load(Ordering::Relaxed),
            queries_cancelled: self.queries_cancelled.load(Ordering::Relaxed),
            rows_streamed: self.rows_streamed.load(Ordering::Relaxed),
            blocks_streamed: self.blocks_streamed.load(Ordering::Relaxed),
            bytes_streamed: self.bytes_streamed.load(Ordering::Relaxed),
            chunks_emitted: self.chunks_emitted.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            latency_count: self.latency_count.load(Ordering::Relaxed),
            latency_buckets: self
                .latency
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// log2 bucket index of a microsecond latency: bucket `i` holds samples
/// in `[2^(i-1), 2^i)` (bucket 0 holds 0µs).
fn bucket_of(micros: u64) -> usize {
    (u64::BITS - micros.leading_zeros()) as usize
}

/// Plain-data copy of [`ServerMetrics`]; what `StatsReply` carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub active_connections: u64,
    pub total_connections: u64,
    pub shed_connections: u64,
    pub inflight_queries: u64,
    pub queued_queries: u64,
    pub shed_queries: u64,
    pub queries_started: u64,
    pub queries_ok: u64,
    pub queries_err: u64,
    pub queries_cancelled: u64,
    pub rows_streamed: u64,
    pub blocks_streamed: u64,
    pub bytes_streamed: u64,
    pub chunks_emitted: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub latency_count: u64,
    /// log2-of-microseconds histogram; see [`MetricsSnapshot::latency_quantile_micros`].
    pub latency_buckets: Vec<u64>,
}

impl MetricsSnapshot {
    /// The `q`-quantile (0.0..=1.0) of recorded query latencies, in
    /// microseconds, as the upper bound of the histogram bucket the
    /// quantile falls in (at most 2x the true value). 0 when nothing
    /// has been recorded.
    pub fn latency_quantile_micros(&self, q: f64) -> u64 {
        if self.latency_count == 0 {
            return 0;
        }
        let rank = ((q * self.latency_count as f64).ceil() as u64).clamp(1, self.latency_count);
        let mut seen = 0u64;
        for (i, n) in self.latency_buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_of_micros() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
    }

    #[test]
    fn quantiles_walk_the_histogram() {
        let m = ServerMetrics::new();
        // 90 fast queries (~8µs), 10 slow (~2ms).
        for _ in 0..90 {
            m.record_latency(Duration::from_micros(8));
        }
        for _ in 0..10 {
            m.record_latency(Duration::from_millis(2));
        }
        let snap = m.snapshot();
        assert_eq!(snap.latency_count, 100);
        let p50 = snap.latency_quantile_micros(0.50);
        let p99 = snap.latency_quantile_micros(0.99);
        assert!(p50 <= 16, "p50 {p50}");
        assert!(p99 >= 2_000, "p99 {p99}");
        assert!(p50 < p99);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let snap = ServerMetrics::new().snapshot();
        assert_eq!(snap.latency_quantile_micros(0.99), 0);
    }
}
