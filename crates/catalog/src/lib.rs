//! # mpp-catalog
//!
//! Table metadata for the simulated MPP system:
//!
//! * [`TableDesc`] — schema, distribution spec, and optional partitioning,
//! * [`PartTree`] — single- and multi-level (hierarchical) partition
//!   descriptors: every leaf partition is a separate physical table with a
//!   check constraint of the form `pk ∈ ∪ᵢ(aᵢ, bᵢ)` (paper §3.2), stored
//!   here as an [`mpp_expr::IntervalSet`] per level,
//! * the four built-in partition-selection functions of paper Table 1
//!   (`partition_expansion`, `partition_selection`,
//!   `partition_constraints`, plus the predicate-driven `f*_T` as
//!   [`PartTree::select_partitions`]),
//! * [`Catalog`] — the shared registry the binder, optimizers and executor
//!   consult,
//! * [`TableStats`] — row counts and per-column summaries for the cost
//!   model, merged from one bounded [`LeafSummary`] per leaf partition.

pub mod builders;
pub mod catalog;
pub mod partition;
pub mod stats;
pub mod table;

pub use builders::{list_parts, monthly_range_parts, range_parts_equal_width};
pub use catalog::Catalog;
pub use partition::{LeafPart, PartTree, PartitionLevel, PartitionPiece};
pub use stats::{
    ColumnStats, Histogram, LeafSummary, TableStats, ValueSample, HISTOGRAM_BUCKETS,
    LEAF_SAMPLE_CAP, NDV_EXACT_CAP, TABLE_SAMPLE_CAP,
};
pub use table::{Distribution, TableDesc};
