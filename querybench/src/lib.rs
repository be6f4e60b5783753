//! End-to-end and per-layer query benchmark for the RAW engine.
//!
//! Three closed-loop workloads (`explore`, `cold_mix`, `shared_sessions`)
//! run against the public `RawEngine`/`Session` API over seeded raw files;
//! every answer is checked against a reference computed in plain Rust from
//! the generated tables. See `README.md` for the workloads, the metrics and
//! the layer map.

pub mod client;
pub mod data;
pub mod query;
pub mod report;
pub mod run;
pub mod stream;
