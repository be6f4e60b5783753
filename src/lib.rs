//! # raw — Adaptive Query Processing on RAW Data
//!
//! A Rust reproduction of **RAW** (Karpathiotakis, Branco, Alagiannis,
//! Ailamaki — *Adaptive Query Processing on RAW Data*, PVLDB 7(12), 2014): a
//! query engine that adapts itself to raw data files and incoming queries
//! instead of loading data into a proprietary store.
//!
//! This facade crate re-exports the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`columnar`] | vectorized columnar operator substrate (Supersonic stand-in) |
//! | [`formats`] | CSV, fixed-width binary (`fbin`), and ROOT-like (`rootsim`) raw formats |
//! | [`posmap`] | positional maps (NoDB-style structural indexes) |
//! | [`access`] | access paths: external tables, in-situ, JIT-specialized; shred fetchers |
//! | [`exec`] | morsel-driven execution: partitioner, worker pool, merge layer |
//! | [`engine`] | the RAW engine: catalog, mini-SQL, adaptive planner, shred pool |
//! | [`higgs`] | the ATLAS Higgs use case: hand-written baseline vs. RAW |
//!
//! ## Parallelism
//!
//! Every query runs as morsels on one engine-global pool of
//! [`engine::EngineConfig::parallelism`] worker threads (default: all
//! cores). Eligible queries (over CSV/fbin/ibin/rootsim sources in in-situ
//! or JIT mode, joins and `GROUP BY` included) split into many morsels;
//! everything else, and every query at `parallelism: 1`, is one whole-file
//! morsel. The morsel grid depends only on the file, so split results are
//! identical for every worker count >= 2, cold and warm; integer results
//! also match the unsplit run bit-for-bit. Float SUM/AVG are deterministic
//! per grid but may differ in final-bit rounding between split and unsplit
//! runs (or a warm run answered from the shred pool's whole-file scan):
//! summation reassociates. See [`exec`].
//!
//! ## Quick start
//!
//! ```
//! use raw::engine::{EngineConfig, RawEngine, TableDef, TableSource};
//! use raw::columnar::{DataType, Schema, Value};
//!
//! let engine = RawEngine::new(EngineConfig::default());
//! engine.files().insert("/data/t.csv", b"1,10\n2,20\n3,30\n".to_vec());
//! engine.register_table(TableDef {
//!     name: "t".into(),
//!     schema: Schema::uniform(2, DataType::Int64),
//!     source: TableSource::Csv { path: "/data/t.csv".into() },
//! });
//! let r = engine.query("SELECT MAX(col2) FROM t WHERE col1 < 3").unwrap();
//! assert_eq!(r.scalar().unwrap(), Value::Int64(20));
//! ```
//!
//! See `examples/` for runnable walkthroughs and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

/// Access paths over raw files (external / in-situ / JIT) and shred fetchers.
pub use raw_access as access;
/// Columnar substrate: batches, typed columns, vectorized operators.
pub use raw_columnar as columnar;
/// The RAW engine: catalog, SQL, adaptive physical planning, caches.
pub use raw_engine as engine;
/// Morsel-driven parallel execution: partitioner, worker pool, merge layer.
pub use raw_exec as exec;
/// Raw file formats: CSV, fbin, rootsim, plus data generators.
pub use raw_formats as formats;
/// The ATLAS Higgs-boson use case.
pub use raw_higgs as higgs;
/// Positional maps over text formats.
pub use raw_posmap as posmap;
