//! Property tests: record-boundary-aligned partitioning loses and duplicates
//! no rows on adversarial CSV inputs — quoted fields, trailing-newline
//! variations, short files smaller than a morsel — and per-morsel segment
//! scans concatenate to exactly the whole-file scan.

use proptest::prelude::*;

use raw_access::csv::{CsvScanInput, InSituCsvScan, PosMapSource};
use raw_access::spec::{AccessPathKind, AccessPathSpec, FileFormat, ScanSegment, WantedField};
use raw_columnar::batch::TableTag;
use raw_columnar::ops::{collect, AggExpr, AggKind, GroupedAccumulator};
use raw_columnar::{Batch, DataType, Schema};
use raw_exec::{
    partition_csv, partition_csv_quoted, partition_csv_with_map, partition_items, partition_pages,
    partition_rows, Morsel,
};
use raw_formats::file_buffer::file_bytes;

/// Render rows of (content, quoted?) fields into CSV bytes. The first field
/// of every row is non-empty so every record occupies at least one byte.
fn render(rows: &[Vec<(String, bool)>], trailing_newline: bool) -> Vec<u8> {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        for (j, (content, quoted)) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            if *quoted {
                out.push('"');
                out.push_str(content);
                out.push('"');
            } else {
                out.push_str(content);
            }
        }
    }
    if trailing_newline && !rows.is_empty() {
        out.push('\n');
    }
    out.into_bytes()
}

fn scan_whole(buf: &[u8], cols: usize, record: &[usize]) -> InSituCsvScan {
    InSituCsvScan::new(CsvScanInput {
        buf: file_bytes(buf.to_vec()),
        spec: AccessPathSpec {
            format: FileFormat::Csv,
            schema: Schema::uniform(cols, DataType::Utf8),
            wanted: (0..cols)
                .map(|c| WantedField { source_ordinal: c, data_type: DataType::Utf8 })
                .collect(),
            kind: AccessPathKind::FullScan,
            record_positions: record.to_vec(),
        },
        tag: TableTag(0),
        posmap: None,
        batch_size: 7,
    })
}

fn scan_morsel(buf: &[u8], cols: usize, m: &Morsel) -> InSituCsvScan {
    scan_whole(buf, cols, &[]).with_segment(ScanSegment {
        first_row: m.first_row,
        end_row: Some(m.end_row),
        byte_start: m.byte_start,
        byte_end: Some(m.byte_end),
    })
}

fn assert_aligned_cover(morsels: &[Morsel], buf: &[u8], total_rows: u64) {
    let mut byte = 0usize;
    let mut row = 0u64;
    for m in morsels {
        assert_eq!(m.byte_start, byte, "byte-contiguous");
        assert_eq!(m.first_row, row, "row-contiguous");
        assert!(m.end_row > m.first_row, "no empty morsels");
        assert!(
            m.byte_start == 0 || buf[m.byte_start - 1] == b'\n',
            "morsel must start at a record boundary"
        );
        byte = m.byte_end;
        row = m.end_row;
    }
    assert_eq!(byte, buf.len(), "morsels cover every byte");
    assert_eq!(row, total_rows, "morsels cover every row");
}

/// `(cols, rows)` where every row has exactly `cols` fields and a non-empty
/// first field.
fn arb_csv() -> impl Strategy<Value = (usize, Vec<Vec<(String, bool)>>)> {
    (1usize..5, 0usize..40).prop_flat_map(|(cols, nrows)| {
        // One (content, quoted) strategy per field; the first field is
        // non-empty so every record occupies at least one byte.
        let mut fields: Vec<(BoxedStrategy<String>, proptest::bool::BoolAny)> =
            vec![("[0-9a-z]{1,5}".boxed(), proptest::bool::ANY)];
        for _ in 1..cols {
            fields.push(("[0-9a-z ]{0,5}".boxed(), proptest::bool::ANY));
        }
        (Just(cols), proptest::collection::vec(fields, nrows))
    })
}

/// Like [`arb_csv`], but quoted fields may embed a newline — the general
/// dialect construct the raw-newline probe cannot split on.
fn arb_quoted_csv() -> impl Strategy<Value = (usize, Vec<Vec<(String, bool)>>)> {
    (1usize..5, 0usize..40).prop_flat_map(|(cols, nrows)| {
        let mut fields: Vec<BoxedStrategy<(String, bool)>> =
            vec!["[0-9a-z]{1,5}".prop_map(|s| (s, false)).boxed()];
        for _ in 1..cols {
            fields.push(
                ("[0-9a-z ]{0,5}", proptest::bool::ANY, proptest::bool::ANY)
                    .prop_map(|(mut s, quoted, embed)| {
                        if quoted && embed {
                            let mid = s.len() / 2;
                            s.insert(mid, '\n');
                        }
                        (s, quoted)
                    })
                    .boxed(),
            );
        }
        (Just(cols), proptest::collection::vec(fields, nrows))
    })
}

/// One `(key, value)` batch from row tuples.
fn pair_batch(rows: &[(i64, i64)]) -> Batch {
    let keys: Vec<i64> = rows.iter().map(|&(k, _)| k).collect();
    let vals: Vec<i64> = rows.iter().map(|&(_, v)| v).collect();
    Batch::new(vec![keys.into(), vals.into()]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn partition_neither_loses_nor_duplicates_rows(
        (_cols, rows) in arb_csv(),
        trailing_newline in proptest::bool::ANY,
        target in 1usize..9,
    ) {
        let buf = render(&rows, trailing_newline);
        let p = partition_csv(&buf, target);
        prop_assert_eq!(p.total_rows, rows.len() as u64, "every record counted once");
        assert_aligned_cover(&p.morsels, &buf, rows.len() as u64);
        prop_assert!(p.morsels.len() <= target.max(1));
    }

    #[test]
    fn segment_scans_concatenate_to_whole_file_scan(
        (cols, rows) in arb_csv(),
        trailing_newline in proptest::bool::ANY,
        target in 1usize..9,
    ) {
        let buf = render(&rows, trailing_newline);
        let p = partition_csv(&buf, target);

        let whole = collect(&mut scan_whole(&buf, cols, &[])).unwrap();
        let parts: Vec<Batch> = p
            .morsels
            .iter()
            .map(|m| collect(&mut scan_morsel(&buf, cols, m)).unwrap())
            .collect();
        let merged = Batch::concat(&parts).unwrap();
        if whole.rows() == 0 {
            prop_assert_eq!(merged.rows(), 0);
        } else {
            prop_assert_eq!(whole, merged, "morsel scans must reassemble the file");
        }
    }

    #[test]
    fn posmap_hints_partition_like_the_probe(
        (cols, rows) in arb_csv(),
        target in 1usize..9,
    ) {
        let buf = render(&rows, true);
        if rows.is_empty() {
            return Ok(());
        }
        // Build the map a first scan would: track column 0 (record starts).
        let mut first = scan_whole(&buf, cols, &[0]);
        let _ = collect(&mut first).unwrap();
        let map = first.take_posmap().expect("non-empty file builds a map");

        let hinted = partition_csv_with_map(&map, buf.len(), target)
            .expect("map tracks column 0");
        assert_aligned_cover(&hinted, &buf, rows.len() as u64);
    }

    #[test]
    fn quote_detection_flags_quote_bearing_inputs(
        (_cols, rows) in arb_csv(),
        trailing_newline in proptest::bool::ANY,
        target in 1usize..9,
    ) {
        let buf = render(&rows, trailing_newline);
        let any_quoted = rows.iter().flatten().any(|(_, quoted)| *quoted);
        let p = partition_csv(&buf, target);
        // Content alphabets contain no quote bytes, so quotes in the
        // rendering come only from quoted fields.
        prop_assert_eq!(p.saw_quote, any_quoted && !buf.is_empty());
    }

    /// Quote-aware partitioning: quoted fields may embed newlines; the
    /// quoted probe must still count every rendered row exactly once and
    /// cut only at general-dialect record boundaries.
    #[test]
    fn quoted_partition_neither_loses_nor_duplicates_rows(
        (_cols, rows) in arb_quoted_csv(),
        trailing_newline in proptest::bool::ANY,
        target in 1usize..9,
    ) {
        let buf = render(&rows, trailing_newline);
        let p = partition_csv_quoted(&buf, target);
        prop_assert_eq!(p.total_rows, rows.len() as u64, "every record counted once");
        assert_aligned_cover(&p.morsels, &buf, rows.len() as u64);
        prop_assert!(p.morsels.len() <= target.max(1));
    }

    /// Per-morsel quote-aware in-situ scans over the quoted probe's grid
    /// concatenate to exactly the whole-file scan — the parallel path's
    /// correctness contract for quote-bearing CSV.
    #[test]
    fn quoted_segment_scans_concatenate_to_whole_file_scan(
        (cols, rows) in arb_quoted_csv(),
        trailing_newline in proptest::bool::ANY,
        target in 1usize..9,
    ) {
        let buf = render(&rows, trailing_newline);
        let p = partition_csv_quoted(&buf, target);

        let whole = collect(&mut scan_whole(&buf, cols, &[])).unwrap();
        let parts: Vec<Batch> = p
            .morsels
            .iter()
            .map(|m| collect(&mut scan_morsel(&buf, cols, m)).unwrap())
            .collect();
        let merged = Batch::concat(&parts).unwrap();
        if whole.rows() == 0 {
            prop_assert_eq!(merged.rows(), 0);
        } else {
            prop_assert_eq!(whole, merged, "morsel scans must reassemble the file");
        }
    }

    /// Grouped partial-state merge: count/sum/min/max over integers are
    /// merge-order-insensitive (any rotation of the morsel order yields the
    /// same finished batch), matching a single-accumulator fold.
    #[test]
    fn grouped_merge_is_order_insensitive_for_int_aggregates(
        rows in proptest::collection::vec((0i64..8, -1000i64..1000), 0..120),
        chunk in 1usize..17,
        rotation in 0usize..8,
    ) {
        let exprs = vec![
            AggExpr { kind: AggKind::Count, col: 1 },
            AggExpr { kind: AggKind::Sum, col: 1 },
            AggExpr { kind: AggKind::Min, col: 1 },
            AggExpr { kind: AggKind::Max, col: 1 },
        ];
        let mut serial = GroupedAccumulator::new(0, exprs.clone());
        if !rows.is_empty() {
            serial.update(&pair_batch(&rows)).unwrap();
        }
        let reference = serial.finish().unwrap();

        let partials: Vec<GroupedAccumulator> = rows
            .chunks(chunk)
            .map(|c| {
                let mut acc = GroupedAccumulator::new(0, exprs.clone());
                acc.update(&pair_batch(c)).unwrap();
                acc
            })
            .collect();

        // Morsel order and every rotation of it agree with the serial fold.
        for start in [0, rotation % partials.len().max(1)] {
            let mut merged: Option<GroupedAccumulator> = None;
            for i in 0..partials.len() {
                let part = partials[(start + i) % partials.len()].clone();
                match merged.as_mut() {
                    Some(m) => m.merge(part).unwrap(),
                    None => merged = Some(part),
                }
            }
            let out = merged
                .unwrap_or_else(|| GroupedAccumulator::new(0, exprs.clone()))
                .finish()
                .unwrap();
            prop_assert_eq!(&out, &reference, "merge starting at partial {}", start);
        }
    }

    /// AVG partial states are morsel-order-deterministic: replaying the
    /// same merge order over float sums is bitwise-reproducible (the grid —
    /// and therefore the merge order — never depends on the worker count).
    #[test]
    fn grouped_avg_merge_is_morsel_order_deterministic(
        rows in proptest::collection::vec((0i64..6, -1000i64..1000), 1..120),
        chunk in 1usize..17,
    ) {
        let exprs = vec![AggExpr { kind: AggKind::Avg, col: 1 }];
        // Values with fractional parts so float summation order matters.
        let batches: Vec<Batch> = rows
            .chunks(chunk)
            .map(|c| {
                let keys: Vec<i64> = c.iter().map(|&(k, _)| k).collect();
                let vals: Vec<f64> = c.iter().map(|&(_, v)| v as f64 / 3.0).collect();
                Batch::new(vec![keys.into(), vals.into()]).unwrap()
            })
            .collect();
        let partials: Vec<GroupedAccumulator> = batches
            .iter()
            .map(|b| {
                let mut acc = GroupedAccumulator::new(0, exprs.clone());
                acc.update(b).unwrap();
                acc
            })
            .collect();

        let merge_in_order = || {
            let mut merged: Option<GroupedAccumulator> = None;
            for part in partials.clone() {
                match merged.as_mut() {
                    Some(m) => m.merge(part).unwrap(),
                    None => merged = Some(part),
                }
            }
            merged.expect("at least one partial").finish().unwrap()
        };
        // Same morsel order twice => identical bits, AVG included.
        prop_assert_eq!(merge_in_order(), merge_in_order());
    }

    /// Page-aligned partitioning: morsels cover every row exactly once, do
    /// not overlap, and every boundary except the file's final row count is
    /// a `rows_per_page` multiple — each morsel owns whole pages, the
    /// contract per-morsel zone-index pruning relies on.
    #[test]
    fn page_partition_aligns_covers_and_never_overlaps(
        total in 0u64..20_000,
        rows_per_page in 1u32..512,
        target in 0usize..40,
    ) {
        let ms = partition_pages(total, rows_per_page, target);
        if total == 0 || target == 0 {
            prop_assert!(ms.is_empty());
        } else {
            let rpp = u64::from(rows_per_page);
            let pages = total.div_ceil(rpp);
            prop_assert!(ms.len() as u64 <= (target as u64).min(pages));
            let mut row = 0u64;
            for (i, m) in ms.iter().enumerate() {
                prop_assert_eq!(m.index, i);
                prop_assert_eq!(m.first_row, row, "contiguous => no overlap, no gap");
                prop_assert!(m.end_row > m.first_row, "no empty morsels");
                prop_assert_eq!(m.first_row % rpp, 0, "starts on a page boundary");
                row = m.end_row;
            }
            prop_assert_eq!(row, total, "full cover");
            for m in &ms[..ms.len() - 1] {
                prop_assert_eq!(m.end_row % rpp, 0, "interior cuts on page boundaries");
            }
            // Balanced page counts: morsels differ by at most one page.
            let page_counts: Vec<u64> =
                ms.iter().map(|m| m.end_row.div_ceil(rpp) - m.first_row / rpp).collect();
            let (lo, hi) = (page_counts.iter().min().unwrap(), page_counts.iter().max().unwrap());
            prop_assert!(hi - lo <= 1, "balanced pages: {page_counts:?}");
        }
    }

    /// Item-range partitioning: morsels cover every event exactly once
    /// (items stay with their owning event), the item slices they resolve
    /// from the offsets table are contiguous, and no morsel except the last
    /// stops short of its item quota.
    #[test]
    fn item_partition_covers_events_and_balances_items(
        counts in proptest::collection::vec(0u64..9, 0..200),
        target in 1usize..17,
    ) {
        let mut offsets = vec![0u64];
        for &c in &counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let ms = partition_items(&offsets, target);
        let events = counts.len() as u64;
        if events == 0 {
            prop_assert!(ms.is_empty());
        } else {
            prop_assert!(ms.len() <= target);
            let total_items = *offsets.last().unwrap();
            let stride = total_items.div_ceil(target as u64).max(1);
            let mut event = 0u64;
            let mut item = 0u64;
            for (i, m) in ms.iter().enumerate() {
                prop_assert_eq!(m.index, i);
                prop_assert_eq!(m.first_row, event, "event-contiguous");
                prop_assert!(m.end_row > m.first_row, "at least one event per morsel");
                // The item slice the scan will resolve is contiguous.
                prop_assert_eq!(offsets[m.first_row as usize], item);
                item = offsets[m.end_row as usize];
                // Interior morsels reach their item quota: the cut is the
                // first event boundary at or past it.
                if total_items > 0 && i + 1 < ms.len() {
                    prop_assert!(
                        item - offsets[m.first_row as usize] >= stride,
                        "interior morsel below quota"
                    );
                }
                event = m.end_row;
            }
            prop_assert_eq!(event, events, "every event covered exactly once");
            prop_assert_eq!(item, total_items, "item slices tile the collection");
        }
    }

    #[test]
    fn row_partition_invariants(total in 0u64..10_000, target in 0usize..40) {
        let ms = partition_rows(total, target);
        if total == 0 || target == 0 {
            prop_assert!(ms.is_empty());
        } else {
            prop_assert!(ms.len() <= target.min(total as usize));
            let mut row = 0u64;
            for (i, m) in ms.iter().enumerate() {
                prop_assert_eq!(m.index, i);
                prop_assert_eq!(m.first_row, row);
                prop_assert!(m.end_row > m.first_row);
                row = m.end_row;
            }
            prop_assert_eq!(row, total);
            // Balanced: sizes differ by at most one.
            let sizes: Vec<u64> = ms.iter().map(Morsel::rows).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            prop_assert!(hi - lo <= 1, "balanced split: {sizes:?}");
        }
    }
}

/// The canonical dialect-divergence input: a newline *inside* a quoted
/// field. The raw probe splits on raw newlines (the JIT dialect, where
/// fields never embed newlines) and merely reports the quote; the quoted
/// probe interprets it, matching the general-purpose in-situ scan. Planners
/// pick the probe for the dialect their scan will use.
#[test]
fn probes_diverge_exactly_on_quoted_newlines() {
    let buf = b"x,\"a\nb\"\ny,c\n";
    let raw = partition_csv(buf, 3);
    assert!(raw.saw_quote, "quote byte must be reported");
    // Raw-newline semantics: three newline-delimited records.
    assert_eq!(raw.total_rows, 3);
    // General-dialect semantics: the quoted newline is field content.
    let quoted = partition_csv_quoted(buf, 3);
    assert_eq!(quoted.total_rows, 2);
    assert!(quoted.saw_quote);
}

// ---------------------------------------------------------------------------
// Chunk bookkeeping: the streaming cold path's availability accounting.
// ---------------------------------------------------------------------------

use raw_exec::{GlobalPool, JobCtx};
use raw_formats::file_buffer::ChunkedFileBuffer;

/// Deterministic pseudo-shuffle of `0..n` (xorshift-seeded Fisher–Yates), so
/// completion-order properties need no strategy support for permutations.
fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        v.swap(i, (seed as usize) % (i + 1));
    }
    v
}

/// The chunks covering `range` in a `len`-byte file — the model the buffer's
/// own bookkeeping must agree with.
fn model_covering(len: usize, chunk: usize, range: &std::ops::Range<usize>) -> Vec<usize> {
    let start = range.start.min(len);
    let end = range.end.min(len);
    if start >= end {
        return Vec::new();
    }
    (start / chunk..(end - 1) / chunk + 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chunk grid tiles the file exactly once: contiguous, non-empty,
    /// covering, and consistent with `chunk_count`.
    #[test]
    fn chunk_grid_tiles_file_exactly_once(len in 0usize..100_000, chunk in 1usize..9_000) {
        let n = ChunkedFileBuffer::chunk_count(len, chunk);
        let mut covered = 0usize;
        for i in 0..n {
            let span = ChunkedFileBuffer::chunk_span(len, chunk, i);
            prop_assert_eq!(span.start, covered, "contiguous");
            prop_assert!(!span.is_empty(), "non-empty");
            prop_assert!(span.len() <= chunk);
            covered = span.end;
        }
        prop_assert_eq!(covered, len, "covers the file");
        // Every byte maps into exactly one chunk of the grid.
        if len > 0 {
            prop_assert_eq!(ChunkedFileBuffer::chunk_span(len, chunk, n - 1).end, len);
        }
    }

    /// `is_available(range)` (the non-blocking face of `wait_available`)
    /// reports `true` exactly when every covering chunk has completed, for
    /// arbitrary completion orders and arbitrary ranges — so a wait can
    /// never return before its covering chunks complete.
    #[test]
    fn availability_tracks_covering_chunks_exactly(
        len in 1usize..50_000,
        chunk in 1usize..4_096,
        seed in 0u64..u64::MAX,
        ranges in proptest::collection::vec((0usize..60_000, 0usize..60_000), 1..8),
    ) {
        let buf = ChunkedFileBuffer::new_manual("/virtual/bookkeeping", len, chunk);
        let n = ChunkedFileBuffer::chunk_count(len, chunk);
        let mut done = vec![false; n];
        let order = shuffled(n, seed | 1);
        // Check before any completion, after each completion, and at the end.
        for step in 0..=n {
            if step > 0 {
                let i = order[step - 1];
                buf.complete_chunk(i);
                done[i] = true;
            }
            for &(a, b) in &ranges {
                let range = a.min(b)..a.max(b);
                let expect = model_covering(len, chunk, &range).iter().all(|&c| done[c]);
                prop_assert_eq!(
                    buf.is_available(range.clone()),
                    expect,
                    "range {:?} at step {} (done {:?})", range, step, done
                );
                if expect {
                    // A blocking wait on an available range returns at once.
                    prop_assert!(buf.wait_available(range).is_ok());
                }
            }
        }
        prop_assert!(buf.is_complete());
    }

    /// Availability-gated dispatch: every job's closure runs only once its
    /// byte range is resident, for arbitrary morsel grids racing a live
    /// completer thread — and results still land in job order.
    #[test]
    fn gated_dispatch_respects_availability(
        len in 1usize..20_000,
        chunk in 1usize..2_048,
        cuts in proptest::collection::vec(0usize..20_000, 1..6),
        threads in 1usize..5,
    ) {
        let buf = std::sync::Arc::new(ChunkedFileBuffer::new_manual("/virtual/gated", len, chunk));
        // Morsel grid from the sorted cuts: contiguous ranges over the file.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % len).collect();
        bounds.push(0);
        bounds.push(len);
        bounds.sort_unstable();
        bounds.dedup();
        let ranges: Vec<std::ops::Range<usize>> =
            bounds.windows(2).map(|w| w[0]..w[1]).collect();

        let completer = {
            let buf = std::sync::Arc::clone(&buf);
            std::thread::spawn(move || {
                for i in 0..ChunkedFileBuffer::chunk_count(buf.len(), buf.chunk_bytes()) {
                    buf.complete_chunk(i);
                }
            })
        };
        let jobs: Vec<_> = ranges
            .iter()
            .cloned()
            .enumerate()
            .map(|(idx, range)| {
                let gate_buf = std::sync::Arc::clone(&buf);
                let run_buf = std::sync::Arc::clone(&buf);
                let gate_range = range.clone();
                (
                    move || gate_buf.wait_available(gate_range).map_err(|_| usize::MAX),
                    move |_ctx: JobCtx<'_, ()>| {
                        // The gate admitted us: the range must be resident
                        // (chunks never un-complete, so this is exact).
                        assert!(run_buf.is_available(range.clone()));
                        idx
                    },
                )
            })
            .collect();
        let (results, _) = GlobalPool::new(threads, 0).run_on(jobs, None);
        completer.join().unwrap();
        let results: Vec<usize> = results.into_iter().map(Result::unwrap).collect();
        prop_assert_eq!(results, (0..ranges.len()).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------------
// Skew-resistant dispatch: refined morsel grids and caller-ordered claims.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The `skew_split` knob refines the plan-time grid by multiplying the
    /// partition target. The refined grid must tile the file exactly like
    /// the natural one — same bytes, same rows, record-aligned cuts — only
    /// finer, for both the raw-newline and quote-aware probes. This is the
    /// contract that makes refinement safe: sub-morsels are a retiling of
    /// the parent coverage, never a reinterpretation of it.
    #[test]
    fn refined_csv_grids_retile_the_same_coverage(
        (_cols, rows) in arb_quoted_csv(),
        trailing_newline in proptest::bool::ANY,
        target in 1usize..7,
        skew in 2usize..5,
    ) {
        let buf = render(&rows, trailing_newline);
        let total = rows.len() as u64;

        let natural = partition_csv_quoted(&buf, target);
        let refined = partition_csv_quoted(&buf, target * skew);
        prop_assert_eq!(refined.total_rows, natural.total_rows, "same record count");
        prop_assert_eq!(refined.saw_quote, natural.saw_quote);
        assert_aligned_cover(&natural.morsels, &buf, total);
        assert_aligned_cover(&refined.morsels, &buf, total);

        // The raw-newline probe obeys the same retiling contract (its row
        // notion differs on embedded newlines, so it pins its own total).
        let raw_natural = partition_csv(&buf, target);
        let raw_refined = partition_csv(&buf, target * skew);
        prop_assert_eq!(raw_refined.total_rows, raw_natural.total_rows);
        assert_aligned_cover(&raw_natural.morsels, &buf, raw_natural.total_rows);
        assert_aligned_cover(&raw_refined.morsels, &buf, raw_refined.total_rows);
    }

    /// Refined arithmetic grids (fixed-width rows and zone-indexed pages)
    /// tile the same row space strictly more finely: row-contiguous, full
    /// cover, and never fewer morsels than the natural grid.
    #[test]
    fn refined_arithmetic_grids_retile_the_same_rows(
        total in 1u64..20_000,
        rows_per_page in 1u32..512,
        target in 1usize..12,
        skew in 2usize..5,
    ) {
        let tile = |ms: &[Morsel], span: u64| {
            let mut row = 0u64;
            for m in ms {
                assert_eq!(m.first_row, row, "row-contiguous");
                assert!(m.end_row > m.first_row, "no empty morsels");
                row = m.end_row;
            }
            assert_eq!(row, span, "full cover");
        };

        let natural = partition_rows(total, target);
        let refined = partition_rows(total, target * skew);
        tile(&natural, total);
        tile(&refined, total);
        prop_assert!(refined.len() >= natural.len(), "refinement never coarsens");

        let natural = partition_pages(total, rows_per_page, target);
        let refined = partition_pages(total, rows_per_page, target * skew);
        tile(&natural, total);
        tile(&refined, total);
        prop_assert!(refined.len() >= natural.len(), "refinement never coarsens");
    }

    /// Refined item-balanced grids (rootsim collections) keep every event in
    /// exactly one morsel and resolve the same contiguous item tiling.
    #[test]
    fn refined_item_grids_retile_the_same_events(
        counts in proptest::collection::vec(0u64..9, 1..120),
        target in 1usize..9,
        skew in 2usize..5,
    ) {
        let mut offsets = vec![0u64];
        for &c in &counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let events = counts.len() as u64;
        for t in [target, target * skew] {
            let ms = partition_items(&offsets, t);
            let mut event = 0u64;
            for m in &ms {
                prop_assert_eq!(m.first_row, event, "event-contiguous");
                prop_assert!(m.end_row > m.first_row);
                event = m.end_row;
            }
            prop_assert_eq!(event, events, "every event covered exactly once");
        }
    }

    /// Caller-supplied claim order (the heavy-first LPT lever): for an
    /// arbitrary permutation and worker count, results land in job order —
    /// bitwise identical to the unordered run — every job runs exactly
    /// once, and a one-worker pool dispatches in exactly the claimed order.
    #[test]
    fn ordered_claims_reorder_dispatch_but_never_results(
        n in 1usize..24,
        seed in 0u64..u64::MAX,
        threads in 1usize..5,
    ) {
        let order = shuffled(n, seed | 1);
        let pool = GlobalPool::new(threads, 0);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let make_jobs = || -> Vec<_> {
            (0..n)
                .map(|i| {
                    let log = std::sync::Arc::clone(&log);
                    (
                        move || -> Result<(), usize> {
                            log.lock().unwrap().push(i);
                            Ok(())
                        },
                        move |_ctx: JobCtx<'_, ()>| i * 31 + 7,
                    )
                })
                .collect()
        };

        let (ordered, _) = pool.run_on(make_jobs(), Some(order.clone()));
        let dispatched = std::mem::take(&mut *log.lock().unwrap());
        let (unordered, _) = pool.run_on(make_jobs(), None);

        let expect: Vec<usize> = (0..n).map(|i| i * 31 + 7).collect();
        let ordered: Vec<usize> = ordered.into_iter().map(Result::unwrap).collect();
        let unordered: Vec<usize> = unordered.into_iter().map(Result::unwrap).collect();
        prop_assert_eq!(&ordered, &expect, "results in job order despite claim order");
        prop_assert_eq!(&ordered, &unordered, "claim order is result-invariant");
        if threads <= 1 || n == 1 {
            // One worker claims jobs in exactly the given order.
            prop_assert_eq!(dispatched, order, "one-worker dispatch follows claim order");
        } else {
            let mut seen = dispatched;
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>(), "every job gated exactly once");
        }
    }
}
