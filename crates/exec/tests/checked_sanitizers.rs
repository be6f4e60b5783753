//! Seeded-violation tests for the exec-side `checked` sanitizers: each
//! test plants a deliberately corrupt input and pins that the validator
//! aborts — proving the sanitizer is live. The validators are always
//! compiled (the `checked` feature only controls whether the engine
//! *calls* them on its own data), so these proofs run in every
//! configuration, tier-1 included.

use raw_exec::executor::validate_merged_traces;
use raw_exec::morsel::{partition_csv, partition_rows, validate_grid, Morsel};
use raw_exec::{GlobalPool, JobCtx};
use raw_trace::MorselTrace;

fn trace(morsel: usize) -> MorselTrace {
    MorselTrace { morsel, ..Default::default() }
}

#[test]
fn real_partitioner_grids_validate_clean() {
    validate_grid(&partition_rows(1_000, 7), 1_000, None);
    let buf = b"a,1\nbb,22\nccc,333\ndddd,4444\n".repeat(50);
    let part = partition_csv(&buf, 6);
    validate_grid(&part.morsels, part.total_rows, Some(buf.len()));
}

#[test]
#[should_panic(expected = "checked: morsel")]
fn seeded_grid_gap_aborts() {
    // Morsel 1 starts past where morsel 0 ended: a dropped row.
    let grid = vec![
        Morsel { index: 0, first_row: 0, end_row: 4, byte_start: 0, byte_end: 0 },
        Morsel { index: 1, first_row: 5, end_row: 10, byte_start: 0, byte_end: 0 },
    ];
    validate_grid(&grid, 10, None);
}

#[test]
#[should_panic(expected = "checked: morsel")]
fn seeded_grid_overlap_aborts() {
    // Morsel 1 re-covers row 3: a row scanned twice.
    let grid = vec![
        Morsel { index: 0, first_row: 0, end_row: 4, byte_start: 0, byte_end: 0 },
        Morsel { index: 1, first_row: 3, end_row: 10, byte_start: 0, byte_end: 0 },
    ];
    validate_grid(&grid, 10, None);
}

#[test]
#[should_panic(expected = "checked: grid covers rows")]
fn seeded_grid_short_coverage_aborts() {
    let grid = vec![Morsel { index: 0, first_row: 0, end_row: 9, byte_start: 0, byte_end: 0 }];
    validate_grid(&grid, 10, None);
}

#[test]
#[should_panic(expected = "checked: grid covers bytes")]
fn seeded_byte_grid_short_coverage_aborts() {
    let grid = vec![Morsel { index: 0, first_row: 0, end_row: 5, byte_start: 0, byte_end: 90 }];
    validate_grid(&grid, 5, Some(100));
}

#[test]
fn merged_traces_validate_clean() {
    let traces: Vec<MorselTrace> = (0..4).map(trace).collect();
    validate_merged_traces(&traces, 4, true);
    // Failed morsels record no trace; completeness is waived.
    validate_merged_traces(&traces[..2], 4, false);
}

#[test]
#[should_panic(expected = "checked: merged traces out of order")]
fn seeded_duplicate_trace_aborts() {
    let traces = vec![trace(0), trace(1), trace(1), trace(2)];
    validate_merged_traces(&traces, 4, true);
}

#[test]
#[should_panic(expected = "checked:")]
fn seeded_missing_trace_aborts() {
    let traces = vec![trace(0), trace(2)];
    validate_merged_traces(&traces, 3, true);
}

#[test]
#[should_panic(expected = "claim order must be a permutation")]
fn seeded_non_permutation_claim_aborts() {
    let jobs: Vec<_> = (0..3).map(|i| (move || Ok(()), move |_ctx: JobCtx<'_, u8>| i)).collect();
    // Claims job 0 twice and job 2 never.
    let _ = GlobalPool::new(2, 0).run_on(jobs, Some(vec![0, 1, 0]));
}
