//! # mdj-storage
//!
//! Relational substrate for the MD-join reproduction (Chatziantoniou & Johnson,
//! ICDE 2001). Everything here is built from scratch: typed values (including the
//! `ALL` pseudo-value of Gray et al. used by data cubes), schemas, rows, in-memory
//! relations, hash and sorted (clustered) indexes, partitioning helpers, a tiny
//! catalog, CSV I/O, and scan accounting used by the benchmark harness.
//!
//! The substrate is deliberately row-oriented and in-memory: the paper's
//! optimizations are about *plan shape* (number of scans, tuples touched, probes
//! per tuple), which this substrate measures directly via [`stats::ScanStats`].

#![deny(unsafe_code)]

pub mod catalog;
mod codec;
pub mod columnar;
pub mod csv;
pub mod error;
pub mod hash;
pub mod index;
pub mod pager;
pub mod partition;
pub mod relation;
pub mod row;
pub mod schema;
pub mod spill;
pub mod stats;
pub mod value;

pub use catalog::{Catalog, IngestOutcome};
pub use columnar::{Column, ColumnarChunk};
pub use error::{Result, StorageError};
pub use hash::{KeyBuildHasher, KeyHasher};
pub use index::{pair_key, HashIndex, KeyIndex, SortedIndex};
pub use pager::{
    BufferPool, KeyBounds, NoFaults, Page, PageMeta, PageReadProfile, PagedStore, PagedTable,
    PagerBootReport, PagerFaults, PinnedPage, PoolChargeFailed, PoolChargeHook, TempTable,
    TempTableWriter,
};
pub use relation::Relation;
pub use row::Row;
pub use schema::{DataType, Field, Schema};
pub use spill::{sweep_orphans, SweepReport};
pub use stats::{
    ColumnStats, Counter, CounterDef, Group, NdvSketch, ScanStats, StatsSnapshot, TableStats,
    WorkerStats, COUNTERS,
};
pub use value::cmp_int_float;
pub use value::Value;
