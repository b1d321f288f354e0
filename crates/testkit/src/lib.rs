//! # mpp-testkit — differential oracle testing for the partitioned MPP engine
//!
//! Randomized end-to-end validation of the whole stack, built from four
//! pieces:
//!
//! - [`gen`] — a seeded generator of workloads ([`case::Case`]): tables
//!   with single- and multi-level range/list partitioning (including
//!   DEFAULT partitions), data, and an action stream of SELECTs (AND/OR/
//!   BETWEEN/IN/NULL filters, equi- and non-equi joins, aggregates,
//!   prepared-statement parameters), INSERTs and ALTER TABLE ADD/DROP
//!   PARTITION — plus deliberate negative actions.
//! - [`oracle`] — a deliberately naive single-node reference engine:
//!   flat `Vec<Row>` per table, interpreted expressions, no partitions,
//!   no motions, no compiled or vectorized anything. It executes the same
//!   bound logical plans and additionally tracks per-row *provenance*
//!   (which leaf partition each contributing row was stored in).
//! - [`harness`] — runs each case through all four
//!   {Orca,Legacy} × {Row,Batch} combos — each under the three scheduler
//!   configs of [`harness::sched_axis`] (the served one-worker default,
//!   and tiny morsels on one worker and on three), every run a prepared
//!   plan executed once — diffing row multisets, error kinds,
//!   partition-elimination *soundness* (`parts_scanned` ⊇ partitions with
//!   qualifying rows) and, for exactly-analyzable static filters,
//!   *minimality* against an independent f*_T bound.
//! - [`shrink`](mod@shrink) — a delta-debugging minimizer that reduces a failing case
//!   to a small reproducer, persisted by [`corpus`] under
//!   `testkit/corpus/` and replayed forever after.
//!
//! The `fuzz` binary (`cargo run -p mpp-testkit --bin fuzz --release`)
//! drives the loop; `scripts/fuzz.sh` wraps it for CI.

pub mod case;
pub mod corpus;
pub mod gen;
pub mod harness;
pub mod oracle;
pub mod sexp;
pub mod shrink;

pub use case::Case;
pub use gen::gen_case;
pub use harness::{combos, run_case, sched_axis, FailKind, Failure};
pub use oracle::Oracle;
pub use shrink::{minimize, shrink};
