//! Vectorized relational operators (block-at-a-time Volcano model).
//!
//! Every operator implements [`Operator`] and pulls batches from its child
//! via `next_batch()`. Scan operators over *raw files* are deliberately not
//! defined here — they live in `raw-access`/`raw-engine`, which is the
//! paper's point: the relational operator library (Supersonic) has no storage
//! manager, and RAW supplies generated scan operators that can be spliced
//! anywhere into a plan.

mod aggregate;
mod filter;
mod groupby;
mod hash_aggregate;
mod histogram;
mod join;
mod project;
mod scan;
mod strip;

pub use aggregate::{AggAccumulator, AggExpr, AggKind};
pub use filter::FilterOp;
pub use groupby::{GroupCountOp, GroupExtra};
pub use hash_aggregate::GroupedAccumulator;
pub use histogram::HistogramOp;
pub use join::{HashJoinOp, JoinBuildSide};
pub use project::ProjectOp;
pub use scan::MemScanOp;
pub use strip::StripProvenanceOp;

use crate::batch::Batch;
use crate::error::Result;
use crate::profile::{PhaseProfile, ScanMetrics};

/// A pull-based vectorized operator.
///
/// `Send` is a supertrait so whole operator pipelines can be shipped to
/// worker threads — the morsel-driven parallel executor (`raw-exec`) builds
/// one pipeline per file morsel and drains them concurrently.
pub trait Operator: Send {
    /// Produce the next batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<Batch>>;

    /// Human-readable operator name for plan explanation.
    fn name(&self) -> &'static str;

    /// Aggregated phase profile of every *scan* in this operator's subtree
    /// (combinators sum their children; scans report their own work;
    /// sources with no raw-data access report zero).
    fn scan_profile(&self) -> PhaseProfile {
        PhaseProfile::default()
    }

    /// Aggregated volume metrics of every scan in this subtree.
    fn scan_metrics(&self) -> ScanMetrics {
        ScanMetrics::default()
    }
}

/// Drain an operator into a vector of batches (tests and terminal sinks).
pub fn drain(op: &mut dyn Operator) -> Result<Vec<Batch>> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch()? {
        out.push(b);
    }
    Ok(out)
}

/// Drain an operator and concatenate into one batch.
pub fn collect(op: &mut dyn Operator) -> Result<Batch> {
    let batches = drain(op)?;
    Batch::concat(&batches)
}

/// An operator yielding a fixed sequence of batches. Useful to feed
/// hand-built batches into an operator tree (tests, engine glue).
pub struct BatchSource {
    batches: std::vec::IntoIter<Batch>,
}

impl BatchSource {
    /// Wrap the given batches.
    pub fn new(batches: Vec<Batch>) -> Self {
        BatchSource { batches: batches.into_iter() }
    }
}

impl Operator for BatchSource {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        Ok(self.batches.next())
    }

    fn name(&self) -> &'static str {
        "BatchSource"
    }
}
