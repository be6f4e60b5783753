//! Engine-side operator adapters: pool-backed scans/fetchers, side-effect
//! recording (shred population), and positional-map harvesting.

use std::sync::Arc;

use parking_lot::Mutex;

use raw_access::csv::PosMapSource;
use raw_access::fetch::FieldFetcher;
use raw_columnar::batch::TableTag;
use raw_columnar::ops::Operator;
use raw_columnar::profile::{PhaseProfile, ScanMetrics};
use raw_columnar::{Batch, Column, ColumnarError, DataType, SparseColumn};
use raw_posmap::PositionalMap;

/// Shared slot the engine drains a scan-built positional map from.
pub type PosMapSink = Arc<Mutex<Option<PositionalMap>>>;

/// Shared shred under construction during one query.
pub type ShredSink = Arc<Mutex<ShredFragment>>;

/// The shred one pipeline records: the rows it saw, stored from the first
/// row it recorded (`base`) on. A morsel's recording therefore holds its own
/// row range only, not a zero-filled prefix of the table, and the engine
/// places a split query's fragments into one full-length column when it
/// publishes them.
#[derive(Debug, Clone)]
pub struct ShredFragment {
    /// Global row of `shred`'s row 0.
    base: usize,
    shred: SparseColumn,
}

impl ShredFragment {
    /// An empty recording of `data_type` values.
    pub fn new(data_type: DataType) -> ShredFragment {
        ShredFragment { base: 0, shred: SparseColumn::new(data_type, 0) }
    }

    /// The recorded values' type.
    pub fn data_type(&self) -> DataType {
        self.shred.data_type()
    }

    /// Number of rows recorded.
    pub fn loaded_count(&self) -> usize {
        self.shred.loaded_count()
    }

    /// One past the last global row the fragment spans.
    pub fn end(&self) -> usize {
        self.base + self.shred.len()
    }

    /// Record `values` at the global `rows`.
    pub fn store_column(&mut self, rows: &[u64], values: &Column) -> Result<(), ColumnarError> {
        let Some(&first) = rows.iter().min() else {
            return self.shred.store_column(rows, values);
        };
        let first = first as usize;
        if self.shred.is_empty() {
            self.base = first;
        } else if first < self.base {
            // Rows arriving out of order (a late fetch above a join): move
            // what is recorded so far up to the new base.
            let mut moved = SparseColumn::new(self.data_type(), 0);
            self.copy_into(&mut moved, self.base - first)?;
            self.shred = moved;
            self.base = first;
        }
        if self.base == 0 {
            return self.shred.store_column(rows, values);
        }
        let base = self.base as u64;
        let local: Vec<u64> = rows.iter().map(|&r| r - base).collect();
        self.shred.store_column(&local, values)
    }

    /// Copy the recorded rows into `target` at their global rows.
    pub fn place_into(&self, target: &mut SparseColumn) -> Result<(), ColumnarError> {
        self.copy_into(target, self.base)
    }

    /// The recording as a shred indexed by global row (free when it starts
    /// at row 0, as every whole-file recording does).
    pub fn into_shred(self) -> Result<SparseColumn, ColumnarError> {
        if self.base == 0 {
            return Ok(self.shred);
        }
        let mut shred = SparseColumn::new(self.data_type(), self.end());
        self.place_into(&mut shred)?;
        Ok(shred)
    }

    /// Copy the recorded rows into `target`, shifted by `offset` rows.
    fn copy_into(&self, target: &mut SparseColumn, offset: usize) -> Result<(), ColumnarError> {
        let rows: Vec<usize> = self.shred.loaded_mask().iter_ones().collect();
        if rows.is_empty() {
            return Ok(());
        }
        let values = self.shred.gather(&rows)?;
        let at: Vec<u64> = rows.iter().map(|&r| (r + offset) as u64).collect();
        target.store_column(&at, &values)
    }
}

/// Wraps a scan that may build a positional map; when the scan is exhausted,
/// the map is moved into the sink for the engine to merge.
pub struct HarvestPosMapOp<S: Operator + PosMapSource> {
    inner: S,
    sink: PosMapSink,
    harvested: bool,
}

impl<S: Operator + PosMapSource> HarvestPosMapOp<S> {
    /// Wrap `inner`, delivering its map into `sink` at exhaustion.
    pub fn new(inner: S, sink: PosMapSink) -> Self {
        HarvestPosMapOp { inner, sink, harvested: false }
    }
}

impl<S: Operator + PosMapSource> Operator for HarvestPosMapOp<S> {
    fn next_batch(&mut self) -> Result<Option<Batch>, ColumnarError> {
        let out = self.inner.next_batch()?;
        if out.is_none() && !self.harvested {
            self.harvested = true;
            *self.sink.lock() = self.inner.take_posmap();
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "HarvestPosMap"
    }

    fn scan_profile(&self) -> PhaseProfile {
        self.inner.scan_profile()
    }

    fn scan_metrics(&self) -> ScanMetrics {
        self.inner.scan_metrics()
    }
}

/// Tees selected batch columns into shreds as batches flow through —
/// "populating caches with recently accessed data" as a query side effect.
pub struct RecordingOp {
    inner: Box<dyn Operator>,
    table: TableTag,
    /// (batch column position, shred under construction).
    recordings: Vec<(usize, ShredSink)>,
}

impl RecordingOp {
    /// Record `recordings` (batch position → shred) for rows of `table`.
    pub fn new(
        inner: Box<dyn Operator>,
        table: TableTag,
        recordings: Vec<(usize, ShredSink)>,
    ) -> RecordingOp {
        RecordingOp { inner, table, recordings }
    }
}

impl Operator for RecordingOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, ColumnarError> {
        let Some(batch) = self.inner.next_batch()? else {
            return Ok(None);
        };
        if let Some(rows) = batch.rows_of(self.table) {
            let rows = rows.to_vec();
            for (pos, sink) in &self.recordings {
                let col = batch.column(*pos)?;
                sink.lock().store_column(&rows, col)?;
            }
        }
        Ok(Some(batch))
    }

    fn name(&self) -> &'static str {
        "Recording"
    }

    fn scan_profile(&self) -> PhaseProfile {
        self.inner.scan_profile()
    }

    fn scan_metrics(&self) -> ScanMetrics {
        self.inner.scan_metrics()
    }
}

/// Serves fully-cached columns straight from the shred pool — the warm-cache
/// fast path that makes RAW's repeat queries behave "as if the data had been
/// loaded in advance" (§6).
pub struct PoolScanOp {
    shreds: Vec<Arc<SparseColumn>>,
    tag: TableTag,
    batch_size: usize,
    next_row: usize,
    rows: usize,
}

impl PoolScanOp {
    /// Scan `shreds` (all full, equal length) as a table tagged `tag`.
    pub fn new(
        shreds: Vec<Arc<SparseColumn>>,
        tag: TableTag,
        batch_size: usize,
    ) -> Result<PoolScanOp, ColumnarError> {
        let rows = shreds.first().map_or(0, |s| s.len());
        for s in &shreds {
            if !s.is_full() || s.len() != rows {
                return Err(ColumnarError::Plan {
                    message: "PoolScan requires full, equal-length shreds".into(),
                });
            }
        }
        Ok(PoolScanOp { shreds, tag, batch_size: batch_size.max(1), next_row: 0, rows })
    }
}

impl Operator for PoolScanOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, ColumnarError> {
        if self.next_row >= self.rows {
            return Ok(None);
        }
        let start = self.next_row;
        let len = self.batch_size.min(self.rows - start);
        self.next_row += len;
        let columns = self
            .shreds
            .iter()
            .map(|s| s.dense().slice(start, len))
            .collect::<Result<Vec<_>, _>>()?;
        let rows: Vec<u64> = (start as u64..(start + len) as u64).collect();
        Batch::new(columns)?.with_provenance(self.tag, rows).map(Some)
    }

    fn name(&self) -> &'static str {
        "PoolScan"
    }
}

/// A fetcher that answers from cached shreds when they cover the requested
/// rows, falling back to a raw-file fetcher otherwise.
pub struct PoolBackedFetcher {
    shreds: Vec<Option<Arc<SparseColumn>>>,
    fallback: Option<Box<dyn FieldFetcher>>,
}

impl PoolBackedFetcher {
    /// One optional shred per wanted column (same order as the fallback's
    /// columns).
    pub fn new(
        shreds: Vec<Option<Arc<SparseColumn>>>,
        fallback: Option<Box<dyn FieldFetcher>>,
    ) -> PoolBackedFetcher {
        PoolBackedFetcher { shreds, fallback }
    }

    fn covered(&self, rows: &[u64]) -> bool {
        // Out-of-range mask reads are `false`, so no separate length check.
        self.shreds.iter().all(|s| match s {
            Some(s) => rows.iter().all(|&r| s.loaded_mask().get(r as usize)),
            None => false,
        })
    }
}

impl FieldFetcher for PoolBackedFetcher {
    fn fetch(&mut self, rows: &[u64]) -> Result<Vec<Column>, ColumnarError> {
        if self.covered(rows) {
            let idx: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
            return self.shreds.iter().map(|s| s.as_ref().expect("covered").gather(&idx)).collect();
        }
        match self.fallback.as_mut() {
            Some(f) => f.fetch(rows),
            None => Err(ColumnarError::Plan {
                message: "shred pool does not cover requested rows and no raw-file \
                          fetcher is available (CSV without positional map)"
                    .into(),
            }),
        }
    }

    fn profile(&self) -> PhaseProfile {
        self.fallback.as_ref().map(|f| f.profile()).unwrap_or_default()
    }

    fn metrics(&self) -> ScanMetrics {
        self.fallback.as_ref().map(|f| f.metrics()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_columnar::ops::{collect, BatchSource};
    use raw_columnar::{DataType, Value};

    fn full_shred(values: Vec<i64>) -> Arc<SparseColumn> {
        Arc::new(SparseColumn::full(values.into()))
    }

    #[test]
    fn pool_scan_slices_shreds() {
        let mut op = PoolScanOp::new(
            vec![full_shred(vec![1, 2, 3, 4, 5]), full_shred(vec![10, 20, 30, 40, 50])],
            TableTag(2),
            2,
        )
        .unwrap();
        let out = collect(&mut op).unwrap();
        assert_eq!(out.rows(), 5);
        assert_eq!(out.column(1).unwrap().as_i64().unwrap(), &[10, 20, 30, 40, 50]);
        assert_eq!(out.rows_of(TableTag(2)).unwrap().len(), 5);
    }

    #[test]
    fn pool_scan_rejects_partial() {
        let partial = Arc::new(SparseColumn::new(DataType::Int64, 3));
        assert!(PoolScanOp::new(vec![partial], TableTag(0), 4).is_err());
    }

    #[test]
    fn pool_fetcher_serves_covered_rows() {
        let mut shred = SparseColumn::new(DataType::Int64, 6);
        for r in [1usize, 4] {
            shred.store(r, &Value::Int64(r as i64 * 100)).unwrap();
        }
        let mut f = PoolBackedFetcher::new(vec![Some(Arc::new(shred))], None);
        let cols = f.fetch(&[4, 1]).unwrap();
        assert_eq!(cols[0].as_i64().unwrap(), &[400, 100]);
        assert!(f.fetch(&[2]).is_err(), "uncovered with no fallback");
    }

    #[test]
    fn pool_fetcher_falls_back() {
        struct Canned;
        impl FieldFetcher for Canned {
            fn fetch(&mut self, rows: &[u64]) -> Result<Vec<Column>, ColumnarError> {
                Ok(vec![Column::Int64(rows.iter().map(|&r| r as i64).collect())])
            }
            fn profile(&self) -> PhaseProfile {
                PhaseProfile::default()
            }
            fn metrics(&self) -> ScanMetrics {
                ScanMetrics::default()
            }
        }
        let mut f = PoolBackedFetcher::new(vec![None], Some(Box::new(Canned)));
        let cols = f.fetch(&[7, 9]).unwrap();
        assert_eq!(cols[0].as_i64().unwrap(), &[7, 9]);
    }

    #[test]
    fn recording_op_populates_shreds() {
        let b = Batch::new(vec![vec![10i64, 20].into(), vec![1.5f64, 2.5].into()])
            .unwrap()
            .with_provenance(TableTag(0), vec![3, 8])
            .unwrap();
        let sink_a: ShredSink = Arc::new(Mutex::new(ShredFragment::new(DataType::Int64)));
        let sink_b: ShredSink = Arc::new(Mutex::new(ShredFragment::new(DataType::Float64)));
        let mut op = RecordingOp::new(
            Box::new(BatchSource::new(vec![b])),
            TableTag(0),
            vec![(0, Arc::clone(&sink_a)), (1, Arc::clone(&sink_b))],
        );
        let _ = collect(&mut op).unwrap();
        let a = sink_a.lock().clone().into_shred().unwrap();
        assert_eq!(a.get(3).unwrap(), Value::Int64(10));
        assert_eq!(a.get(8).unwrap(), Value::Int64(20));
        assert!(a.get(0).is_err());
        let b = sink_b.lock().clone().into_shred().unwrap();
        assert_eq!(b.get(8).unwrap(), Value::Float64(2.5));
    }

    #[test]
    fn fragment_holds_only_its_row_range() {
        let mut f = ShredFragment::new(DataType::Int64);
        f.store_column(&[1000, 1001, 1002], &vec![1i64, 2, 3].into()).unwrap();
        assert_eq!(f.end(), 1003);
        assert_eq!(f.shred.len(), 3, "no zero-filled prefix below the first row");
        // A row below the base moves the recording down; nothing is lost.
        f.store_column(&[998], &vec![9i64].into()).unwrap();
        assert_eq!(f.loaded_count(), 4);
        let mut table = SparseColumn::new(DataType::Int64, 1005);
        f.place_into(&mut table).unwrap();
        for (row, v) in [(998, 9), (1000, 1), (1001, 2), (1002, 3)] {
            assert_eq!(table.get(row).unwrap(), Value::Int64(v));
        }
        assert!(table.get(999).is_err());
        assert_eq!(table.loaded_count(), 4);
        assert_eq!(f.into_shred().unwrap().get(1002).unwrap(), Value::Int64(3));
    }
}
