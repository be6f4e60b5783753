//! # raw-exec
//!
//! Morsel-driven parallel in-situ execution over raw files — the multi-core
//! dimension the RAW paper (§8) leaves as future work, following the
//! morsel-driven architecture popularized by HyPer and applied to raw files
//! by OLA-RAW.
//!
//! Three pieces compose into the one execution path every query takes:
//!
//! - [`morsel`] — a **partitioner** that splits a raw file into
//!   record-aligned morsels: newline probing for CSV (reusing positional-map
//!   entries as split hints when one exists), pure row arithmetic for
//!   fixed-width binary and rootsim event files, page-aligned splitting for
//!   ibin's zone-indexed pages, and item-balanced event ranges for rootsim
//!   collections (see the [`morsel`] docs for the per-format contract).
//! - [`global`] — the engine-lifetime **worker pool** ([`GlobalPool`]):
//!   long-lived workers serve every session's morsels, with per-query
//!   admission and round-robin scheduling so concurrent queries share the
//!   cores fairly. Workers claim morsels dynamically, so skew in morsel cost
//!   does not idle threads. On cold streamed runs each morsel is gated on
//!   the availability of its byte range
//!   ([`raw_formats::file_buffer::ChunkedFileBuffer::wait_available`]), so
//!   early morsels scan while the reader thread is still pulling later
//!   chunks off disk. A panicking morsel becomes that morsel's error; the
//!   worker lives on.
//! - [`executor`] — the **deterministic merge layer**: selection batches
//!   concatenate in morsel order; partial aggregate states
//!   ([`raw_columnar::ops::AggAccumulator`]) merge in morsel order. Because
//!   the morsel grid depends only on the file (never on the thread count),
//!   results are identical for any worker count. A query that is not split
//!   runs as one whole-file morsel through the same layer.
//!
//! Side effects keep the paper's "queries build indexes as a side effect"
//! semantics under parallelism: every morsel pipeline owns thread-safe sinks
//! (`Arc<Mutex<…>>`) for the positional-map fragment and column shreds it
//! builds; after the pool barrier the engine appends posmap fragments in
//! morsel order and merges shred fragments (disjoint global row ranges) into
//! its shared pools.
//!
//! The crate is engine-agnostic: it sees only [`raw_columnar::ops::Operator`]
//! pipelines. `raw-engine` plans per-morsel pipelines (via
//! `ScanSegment`-bounded scans) and owns the side-effect absorption.

pub mod executor;
pub mod global;
pub mod morsel;
#[cfg(test)]
#[path = "pool_tests.rs"]
mod pool;

pub use executor::{execute_morsels_pooled, GroupedMerge, MergePlan, MorselGate, ParallelOutcome};
pub use global::{GlobalPool, JobCtx, JobPanic};
pub use morsel::{
    partition_csv, partition_csv_quoted, partition_csv_quoted_streaming, partition_csv_streaming,
    partition_csv_with_map, partition_items, partition_pages, partition_rows, CsvPartition, Morsel,
};

/// The number of worker threads "all cores" resolves to on this host.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
