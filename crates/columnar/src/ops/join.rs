//! Hash equi-join.
//!
//! Matches the paper's §5.3.2 setup: the **right-hand side builds** a hash
//! table; the **left-hand side probes** it in a pipelined fashion; "the
//! materialized result of the join includes the qualifying probe-side tuples
//! in their original order, along with the matches in the hashtable". Output
//! batches therefore preserve probe order (the *pipelined* property), while
//! build-side provenance arrives in hash-table order (the *pipeline-breaking*
//! property for columns fetched late from the build side).

use std::sync::Arc;

use crate::batch::Batch;
use crate::column::Column;
use crate::error::{ColumnarError, Result};
use crate::fxhash::FxHashMap;
use crate::ops::{drain, Operator};

/// Sentinel terminating a build-side chain.
const CHAIN_END: u32 = u32::MAX;

/// Inner hash equi-join on integer keys.
pub struct HashJoinOp {
    probe: Box<dyn Operator>,
    /// The build-side pipeline, drained lazily on first probe; `None` when
    /// the operator was handed a pre-built shared build side.
    build: Option<(Box<dyn Operator>, usize)>,
    probe_key: usize,
    built: Option<Arc<JoinBuildSide>>,
    /// Total matched output rows (plan statistics).
    emitted: u64,
}

/// The materialized build side of a hash join: the concatenated build
/// batches plus a chained hash index — `head[key]` is the first build row
/// for the key, `next[row]` links rows sharing it (ascending row order), one
/// flat allocation for the chains instead of one `Vec` per key.
///
/// Immutable once built, so morsel plans build it **once** (from a
/// whole-file scan or pooled shreds) and share one `Arc` across every
/// per-morsel probe pipeline ([`HashJoinOp::with_shared`]).
pub struct JoinBuildSide {
    batch: Batch,
    head: FxHashMap<i64, u32>,
    next: Vec<u32>,
}

impl JoinBuildSide {
    /// Index `batch` on integer column `key_col`.
    pub fn build(batch: Batch, key_col: usize) -> Result<JoinBuildSide> {
        let mut head: FxHashMap<i64, u32> = FxHashMap::default();
        let mut next = Vec::new();
        if batch.num_columns() > 0 {
            let keys = key_vec(batch.column(key_col)?)?;
            next = vec![CHAIN_END; keys.len()];
            head.reserve(keys.len());
            // Reverse insertion so each chain lists rows in ascending order.
            for (row, &key) in keys.iter().enumerate().rev() {
                let row = row as u32;
                match head.insert(key, row) {
                    Some(prev) => next[row as usize] = prev,
                    None => next[row as usize] = CHAIN_END,
                }
            }
        }
        Ok(JoinBuildSide { batch, head, next })
    }

    /// Rows on the build side.
    pub fn rows(&self) -> usize {
        self.batch.rows()
    }
}

impl HashJoinOp {
    /// Join `probe ⋈ build` on `probe.col(probe_key) = build.col(build_key)`.
    pub fn new(
        probe: Box<dyn Operator>,
        build: Box<dyn Operator>,
        probe_key: usize,
        build_key: usize,
    ) -> HashJoinOp {
        HashJoinOp { probe, build: Some((build, build_key)), probe_key, built: None, emitted: 0 }
    }

    /// Join `probe` against an already-materialized shared build side (the
    /// engine's morsel plans: one build, one or many probe pipelines).
    pub fn with_shared(
        probe: Box<dyn Operator>,
        build: Arc<JoinBuildSide>,
        probe_key: usize,
    ) -> HashJoinOp {
        HashJoinOp { probe, build: None, probe_key, built: Some(build), emitted: 0 }
    }

    /// Number of rows emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn ensure_built(&mut self) -> Result<()> {
        if self.built.is_some() {
            return Ok(());
        }
        let (build, build_key) =
            self.build.as_mut().expect("either a build pipeline or a shared build side");
        let batches = drain(build.as_mut())?;
        let batch = Batch::concat(&batches)?;
        self.built = Some(Arc::new(JoinBuildSide::build(batch, *build_key)?));
        Ok(())
    }
}

/// Normalize an integer column into `i64` join keys.
fn key_vec(col: &Column) -> Result<Vec<i64>> {
    match col {
        Column::Int32(v) => Ok(v.iter().map(|&x| i64::from(x)).collect()),
        Column::Int64(v) => Ok(v.clone()),
        other => Err(ColumnarError::Unsupported {
            what: format!("hash join key of type {}", other.data_type()),
        }),
    }
}

impl Operator for HashJoinOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.ensure_built()?;
        let built = self.built.as_ref().expect("ensure_built just ran");

        loop {
            let Some(probe_batch) = self.probe.next_batch()? else {
                return Ok(None);
            };
            let keys = key_vec(probe_batch.column(self.probe_key)?)?;

            // Gather matching (probe_row, build_row) pairs in probe order.
            let mut probe_sel = Vec::new();
            let mut build_sel = Vec::new();
            for (probe_row, key) in keys.iter().enumerate() {
                if let Some(&first) = built.head.get(key) {
                    let mut row = first;
                    while row != CHAIN_END {
                        probe_sel.push(probe_row);
                        build_sel.push(row as usize);
                        row = built.next[row as usize];
                    }
                }
            }
            if probe_sel.is_empty() {
                continue; // this probe batch matched nothing; pull the next
            }

            let left = probe_batch.take(&probe_sel)?;
            let right = built.batch.take(&build_sel)?;

            let mut columns = left.columns().to_vec();
            columns.extend_from_slice(right.columns());
            let mut out = Batch::new(columns)?;
            for p in left.provenance().iter().chain(right.provenance()) {
                out = out.with_provenance(p.table, p.rows.clone())?;
            }
            self.emitted += out.rows() as u64;
            return Ok(Some(out));
        }
    }

    fn name(&self) -> &'static str {
        "HashJoin"
    }

    fn scan_profile(&self) -> crate::profile::PhaseProfile {
        let mut p = self.probe.scan_profile();
        if let Some((build, _)) = &self.build {
            p.merge(&build.scan_profile());
        }
        p
    }

    fn scan_metrics(&self) -> crate::profile::ScanMetrics {
        let mut m = self.probe.scan_metrics();
        if let Some((build, _)) = &self.build {
            m.merge(&build.scan_metrics());
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TableTag;
    use crate::ops::{collect, BatchSource};

    fn src(rows: Vec<i64>, payload: Vec<i64>, tag: u32) -> Box<dyn Operator> {
        let n = rows.len() as u64;
        let b = Batch::new(vec![rows.into(), payload.into()])
            .unwrap()
            .with_provenance(TableTag(tag), (0..n).collect())
            .unwrap();
        Box::new(BatchSource::new(vec![b]))
    }

    #[test]
    fn inner_join_preserves_probe_order() {
        // probe: keys 1..6; build: shuffled subset with payloads
        let probe = src(vec![1, 2, 3, 4, 5], vec![10, 20, 30, 40, 50], 0);
        let build = src(vec![4, 2, 9], vec![400, 200, 900], 1);
        let mut j = HashJoinOp::new(probe, build, 0, 0);
        let out = collect(&mut j).unwrap();
        // probe order: rows with keys 2 then 4
        assert_eq!(out.column(0).unwrap().as_i64().unwrap(), &[2, 4]);
        assert_eq!(out.column(1).unwrap().as_i64().unwrap(), &[20, 40]);
        assert_eq!(out.column(2).unwrap().as_i64().unwrap(), &[2, 4]);
        assert_eq!(out.column(3).unwrap().as_i64().unwrap(), &[200, 400]);
        // provenance: probe rows in order, build rows shuffled (1 = key2, 0 = key4)
        assert_eq!(out.rows_of(TableTag(0)), Some(&[1u64, 3][..]));
        assert_eq!(out.rows_of(TableTag(1)), Some(&[1u64, 0][..]));
        assert_eq!(j.emitted(), 2);
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let probe = src(vec![7, 8], vec![70, 80], 0);
        let build = src(vec![7, 7], vec![1, 2], 1);
        let mut j = HashJoinOp::new(probe, build, 0, 0);
        let out = collect(&mut j).unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.column(3).unwrap().as_i64().unwrap(), &[1, 2]);
    }

    #[test]
    fn no_matches_is_empty() {
        let probe = src(vec![1], vec![10], 0);
        let build = src(vec![2], vec![20], 1);
        let mut j = HashJoinOp::new(probe, build, 0, 0);
        assert!(j.next_batch().unwrap().is_none());
    }

    #[test]
    fn int32_keys_supported() {
        let probe_batch = Batch::new(vec![vec![1i32, 2].into()]).unwrap();
        let build_batch = Batch::new(vec![vec![2i64].into()]).unwrap();
        let mut j = HashJoinOp::new(
            Box::new(BatchSource::new(vec![probe_batch])),
            Box::new(BatchSource::new(vec![build_batch])),
            0,
            0,
        );
        let out = collect(&mut j).unwrap();
        assert_eq!(out.rows(), 1);
    }

    #[test]
    fn float_keys_rejected() {
        let probe_batch = Batch::new(vec![vec![1.0f64].into()]).unwrap();
        let build_batch = Batch::new(vec![vec![1.0f64].into()]).unwrap();
        let mut j = HashJoinOp::new(
            Box::new(BatchSource::new(vec![probe_batch])),
            Box::new(BatchSource::new(vec![build_batch])),
            0,
            0,
        );
        assert!(j.next_batch().is_err());
    }

    #[test]
    fn empty_build_side() {
        let probe = src(vec![1, 2], vec![10, 20], 0);
        let build = Box::new(BatchSource::new(vec![]));
        let mut j = HashJoinOp::new(probe, build, 0, 0);
        assert!(j.next_batch().unwrap().is_none());
    }

    /// A shared pre-built build side joined by several probe operators gives
    /// the same output as each probe owning its own build pipeline.
    #[test]
    fn shared_build_side_equals_owned() {
        let build_batch =
            Batch::new(vec![vec![4i64, 2, 9, 2].into(), vec![400i64, 200, 900, 201].into()])
                .unwrap()
                .with_provenance(TableTag(1), vec![0, 1, 2, 3])
                .unwrap();
        let shared = Arc::new(JoinBuildSide::build(build_batch.clone(), 0).unwrap());
        assert_eq!(shared.rows(), 4);

        for probe_keys in [vec![1i64, 2, 3, 4, 5], vec![2, 2], vec![7]] {
            let payload: Vec<i64> = probe_keys.iter().map(|k| k * 10).collect();
            let mut owned = HashJoinOp::new(
                src(probe_keys.clone(), payload.clone(), 0),
                Box::new(BatchSource::new(vec![build_batch.clone()])),
                0,
                0,
            );
            let mut borrowed =
                HashJoinOp::with_shared(src(probe_keys, payload, 0), Arc::clone(&shared), 0);
            let a = collect(&mut owned).unwrap();
            let b = collect(&mut borrowed).unwrap();
            assert_eq!(a, b);
            assert_eq!(owned.emitted(), borrowed.emitted());
        }
    }
}
