//! # mpp-storage
//!
//! The in-memory MPP storage engine. It mirrors how GPDB lays out
//! partitioned tables (paper §3.2):
//!
//! * every **leaf partition is a separate physical table**, identified by
//!   its [`mpp_common::PartOid`]; plain tables are a single physical table
//!   under their [`mpp_common::TableOid`];
//! * rows are **distributed across segments** (hash / replicated /
//!   singleton) *orthogonally* to partitioning — a partitioned table is
//!   partitioned within each segment;
//! * inserts route tuples with the partitioning function `f_T`
//!   ([`mpp_catalog::PartTree::route`]); a tuple that maps to `⊥` is
//!   rejected, like a violated check constraint.
//!
//! Each physical table also carries a bounded statistical summary
//! ([`mpp_catalog::LeafSummary`]) that inserts fold rows into;
//! [`Storage::analyze`] re-summarizes the leaves that lost rows and merges
//! all of them into the [`mpp_catalog::TableStats`] the optimizer uses for
//! costing.

pub mod engine;

pub use engine::{block_morsels, PhysId, Storage};
