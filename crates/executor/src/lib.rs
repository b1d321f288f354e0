//! # mpp-executor
//!
//! The MPP runtime simulator. A physical plan executes once per *segment*
//! (worker); [`mpp_plan::PhysicalPlan::Motion`] operators are the only
//! points where rows cross segment boundaries — Gather funnels to the
//! master, Redistribute re-hashes, Broadcast replicates (paper §3.1).
//!
//! The partitioning operators work exactly as §2.2 describes:
//!
//! * a `PartitionSelector` evaluates its per-level predicates — against
//!   constants and prepared-statement parameters when childless (static
//!   selection), or against every input tuple when it has a child
//!   (dynamic selection) — and **pushes the selected partition OIDs into a
//!   per-(partScanId, segment) shared-memory registry**
//!   (the `partition_propagation` built-in of Table 1);
//! * the paired `DynamicScan` consumes that registry entry and scans only
//!   those partitions. A scan whose registry entry was never written is a
//!   runtime error — the §3.1 invalid-plan condition, detectable here as
//!   well as statically.
//!
//! One stage driver executes every plan: the plan is cut into slices at
//! Motion boundaries (see [`slice`]) and each stage's per-segment work
//! runs as tasks on a work-stealing scheduler. Its worker count
//! ([`SchedConfig::workers`], one by default) is the only scheduling
//! decision: one worker interprets every segment's slice in turn on the
//! calling thread and streams a root Gather per segment; more workers
//! share the tasks. Every worker count returns the same bag of rows and
//! identical merged statistics; only the per-segment `elapsed`
//! breakdown differs.
//!
//! Execution also collects [`ExecutionStats`] — distinct partitions
//! scanned per table, tuples read, rows moved, now with per-segment
//! [`SegmentStats`] — which the benchmark harness uses to regenerate
//! the paper's Figures 16–17 and Table 2.

mod agg_kernel;
pub mod block_exec;
pub mod context;
pub mod exec;
pub mod morsel;
mod pool;
pub mod prepared;
pub mod slice;
pub mod stats;
pub mod stream;

#[cfg(test)]
mod motion_tests;

pub use context::ExecContext;
pub use exec::{
    execute, execute_stream_sched, execute_with_params_sched, ExecEngine, ExecMode, QueryResult,
};
pub use morsel::SchedConfig;
pub use prepared::{CompiledCache, PreparedPlan};
pub use slice::SlicePlan;
pub use stats::{ExecutionStats, SegmentStats};
pub use stream::{CancelToken, ResultChunk, RowSink, StreamResult};
