//! The morsel executor and its deterministic merge layer.
//!
//! Takes one ready-to-run operator pipeline per morsel (an unsplit query is
//! a single whole-file morsel), drains them on the engine-global
//! [`GlobalPool`], and merges the outputs **in morsel order**:
//!
//! - [`MergePlan::Concat`] — selection-shaped queries; per-morsel batches
//!   concatenate in morsel order, reproducing whole-file row order exactly.
//! - [`MergePlan::Aggregate`] — aggregate-shaped queries; each worker folds
//!   its morsel's batches into an [`AggAccumulator`] *as it drains* (no
//!   post-filter materialization), and partial states merge in morsel order.
//!   Integer aggregates are bit-for-bit identical to one whole-file
//!   morsel's; float aggregates are identical across any worker count
//!   because the morsel grid — and therefore the summation tree — never
//!   depends on the thread count.
//! - [`MergePlan::Grouped`] — grouped-aggregation queries; each worker folds
//!   its morsel's batches into a [`GroupedAccumulator`] (per-morsel partial
//!   hash-table state), states merge in morsel order, and the finished
//!   `[key, agg₀, agg₁, …]` batch is projected into select-list order.
//!   Count/sum/min/max over integers merge order-insensitively; AVG (and
//!   float sums) are deterministic because the merge order is the morsel
//!   order, which never depends on the thread count.
//!
//! The trace-merge contract (one trace per drained morsel, merged stream
//! sorted by morsel index, identical for any claim order) is documented
//! normatively in the repo-root `CONCURRENCY.md` and validated by
//! [`validate_merged_traces`] under `--features checked`.

use std::time::Instant;

use raw_columnar::ops::{AggAccumulator, AggExpr, GroupedAccumulator, Operator};
use raw_columnar::profile::{PhaseProfile, ScanMetrics};
use raw_columnar::{Batch, ColumnarError};
use raw_trace::{merge_worker_sinks, MorselTrace};

use crate::global::{GlobalPool, JobCtx, JobPanic};

/// An availability gate for one morsel: blocks until the morsel's inputs
/// are resident (its byte range has streamed in from disk), or reports the
/// stream's terminal failure. `None` means "always ready" (warm buffers,
/// formats that blocked at plan time).
pub type MorselGate = Box<dyn FnOnce() -> Result<(), ColumnarError> + Send>;

/// How per-morsel outputs combine into the query result.
#[derive(Debug, Clone)]
pub enum MergePlan {
    /// Concatenate morsel output batches in morsel order.
    Concat,
    /// Per-morsel partial aggregation, merged in morsel order.
    Aggregate(Vec<AggExpr>),
    /// Per-morsel partial hash-aggregation, merged in morsel order.
    Grouped(GroupedMerge),
}

/// The grouped-aggregation merge recipe.
#[derive(Debug, Clone)]
pub struct GroupedMerge {
    /// Grouping-key position in the morsel pipelines' output batches.
    pub key_col: usize,
    /// Aggregate expressions over pipeline output positions.
    pub exprs: Vec<AggExpr>,
    /// Final projection over the merged `[key, agg₀, agg₁, …]` batch,
    /// restoring the query's select-list order.
    pub output: Vec<usize>,
}

/// The merged result of a morsel run.
#[derive(Debug)]
pub struct ParallelOutcome {
    /// Result batches in deterministic order (one batch for aggregates).
    pub batches: Vec<Batch>,
    /// Summed scan phase profile across all morsels (CPU time, which under
    /// parallelism exceeds wall time).
    pub profile: PhaseProfile,
    /// Summed scan volume metrics across all morsels.
    pub metrics: ScanMetrics,
    /// Morsels executed.
    pub morsels: usize,
    /// Per-morsel execution records, in morsel order. One record per
    /// *successfully drained* morsel (a failed gate leaves a gap), appended
    /// by the draining worker into its private sink — so trace volume is
    /// O(morsels), never O(rows) — and merged after the pool barrier.
    pub traces: Vec<MorselTrace>,
}

/// What one worker produces for one morsel.
enum MorselOutput {
    Batches(Vec<Batch>),
    Partial(Box<AggAccumulator>),
    GroupedPartial(Box<GroupedAccumulator>),
}

type MorselResult = Result<(MorselOutput, PhaseProfile, ScanMetrics), ColumnarError>;

/// Drain every pipeline on the engine-global [`GlobalPool`] and merge per
/// `merge`. The batch passes the pool's admission door and its morsels
/// interleave fairly with other active queries' morsels; results and
/// counters never depend on which worker runs a morsel when.
///
/// Morsel `i` is gated on `gates[i]` (missing or `None` entries mean
/// "always ready"), so on cold streamed runs a worker drains a morsel as
/// soon as its byte range is resident instead of after the whole file. A
/// gate failure (the reader thread hit an I/O error) becomes that morsel's
/// error without running its pipeline, and a panicking pipeline becomes a
/// [`ColumnarError::External`] naming the morsel. Errors surface in morsel
/// order (the first failing morsel wins), matching what a whole-file scan
/// would have reported first.
///
/// `weights` is a **cost hint** per morsel: when every morsel is ungated
/// (warm buffers — no availability ordering to respect), workers claim
/// morsels in descending-weight order (longest-processing-time-first, ties
/// broken by morsel index), so a predicted-heavy morsel starts early rather
/// than becoming the long tail. Results, merges, traces, and every counter
/// are **identical for any claim order**: results slot by morsel index,
/// partial states merge in morsel order, and traces sort by morsel index
/// after the barrier. On gated (cold streamed) runs the hint is ignored:
/// gates admit prefix byte ranges of a sequential read, so index order *is*
/// availability order and heavy-first claiming would park workers on
/// nearly the whole file.
pub fn execute_morsels_pooled(
    pool: &GlobalPool,
    pipelines: Vec<Box<dyn Operator>>,
    gates: Vec<Option<MorselGate>>,
    merge: &MergePlan,
    weights: Option<&[u64]>,
) -> Result<ParallelOutcome, ColumnarError> {
    let morsels = pipelines.len();
    let (jobs, claim) = morsel_jobs(pipelines, gates, merge, weights);
    let (results, sinks) = pool.run_on(jobs, claim);
    let results = results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|JobPanic { job, message }| {
                Err(ColumnarError::External {
                    message: format!("morsel {job} panicked: {message}"),
                })
            })
        })
        .collect();
    merge_outcome(merge, results, sinks, morsels)
}

/// Build one `(admit, drain)` job per morsel plus the optional heavy-first
/// claim order.
#[allow(clippy::type_complexity)]
fn morsel_jobs(
    pipelines: Vec<Box<dyn Operator>>,
    mut gates: Vec<Option<MorselGate>>,
    merge: &MergePlan,
    weights: Option<&[u64]>,
) -> (
    Vec<(
        impl FnOnce() -> Result<(), MorselResult> + Send + 'static,
        impl for<'s> FnOnce(JobCtx<'s, MorselTrace>) -> MorselResult + Send + 'static,
    )>,
    Option<Vec<usize>>,
) {
    let morsels = pipelines.len();
    gates.resize_with(morsels, || None);
    let ungated = gates.iter().all(Option::is_none);
    let claim: Option<Vec<usize>> = match weights {
        Some(w) if ungated && w.len() == morsels && morsels > 1 => {
            let mut order: Vec<usize> = (0..morsels).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(w[i]), i));
            Some(order)
        }
        _ => None,
    };
    let jobs: Vec<_> = pipelines
        .into_iter()
        .zip(gates)
        .enumerate()
        .map(|(morsel, (mut op, gate))| {
            let merge = merge.clone();
            // The gate's Err *is* the morsel's terminal result (an error
            // MorselResult), so the pool can record it without running the
            // pipeline — the size is the point, not an accident.
            #[allow(clippy::result_large_err)]
            let admit = move || -> Result<(), MorselResult> {
                match gate {
                    None => Ok(()),
                    Some(g) => g().map_err(Err),
                }
            };
            let drain = move |ctx: JobCtx<'_, MorselTrace>| -> MorselResult {
                let started = Instant::now();
                let mut rows_out = 0u64;
                let out = match merge {
                    MergePlan::Concat => {
                        let mut batches = Vec::new();
                        while let Some(b) = op.next_batch()? {
                            rows_out += b.rows() as u64;
                            batches.push(b);
                        }
                        MorselOutput::Batches(batches)
                    }
                    MergePlan::Aggregate(exprs) => {
                        let mut acc = AggAccumulator::new(exprs);
                        while let Some(b) = op.next_batch()? {
                            rows_out += b.rows() as u64;
                            acc.update(&b)?;
                        }
                        MorselOutput::Partial(Box::new(acc))
                    }
                    MergePlan::Grouped(g) => {
                        let mut acc = GroupedAccumulator::new(g.key_col, g.exprs);
                        while let Some(b) = op.next_batch()? {
                            rows_out += b.rows() as u64;
                            acc.update(&b)?;
                        }
                        MorselOutput::GroupedPartial(Box::new(acc))
                    }
                };
                let (profile, metrics) = (op.scan_profile(), op.scan_metrics());
                // One trace event per morsel — recorded after the drain so
                // the scan loop itself carries zero tracing work.
                ctx.sink.push(MorselTrace {
                    morsel,
                    worker: ctx.worker,
                    gate_wait: ctx.gate_wait,
                    exec: started.elapsed(),
                    rows_out,
                    profile,
                    metrics,
                });
                Ok((out, profile, metrics))
            };
            (admit, drain)
        })
        .collect();
    (jobs, claim)
}

/// Merge per-morsel results and per-worker trace sinks into the final
/// [`ParallelOutcome`] — in morsel order, first error wins.
fn merge_outcome(
    merge: &MergePlan,
    results: Vec<MorselResult>,
    sinks: Vec<Vec<MorselTrace>>,
    morsels: usize,
) -> Result<ParallelOutcome, ColumnarError> {
    let traces = merge_worker_sinks(sinks);
    #[cfg(feature = "checked")]
    validate_merged_traces(&traces, morsels, results.iter().all(Result::is_ok));

    let mut profile = PhaseProfile::default();
    let mut metrics = ScanMetrics::default();
    let mut batches = Vec::new();
    let mut merged_acc: Option<AggAccumulator> = None;
    let mut merged_groups: Option<GroupedAccumulator> = None;
    for result in results {
        let (out, p, m) = result?;
        profile.merge(&p);
        metrics.merge(&m);
        match out {
            MorselOutput::Batches(bs) => batches.extend(bs),
            MorselOutput::Partial(partial) => match merged_acc.as_mut() {
                Some(acc) => acc.merge(*partial)?,
                None => merged_acc = Some(*partial),
            },
            MorselOutput::GroupedPartial(partial) => match merged_groups.as_mut() {
                Some(acc) => acc.merge(*partial)?,
                None => merged_groups = Some(*partial),
            },
        }
    }

    match merge {
        MergePlan::Concat => {}
        MergePlan::Aggregate(exprs) => {
            // Zero morsels (empty file) still yields the canonical
            // empty-input aggregate row (COUNT 0 / NULL).
            let acc = merged_acc.unwrap_or_else(|| AggAccumulator::new(exprs.clone()));
            batches = vec![acc.finish()?];
        }
        MergePlan::Grouped(g) => {
            // Zero morsels yields the zero-row grouped batch, as for any
            // empty input.
            let acc = merged_groups
                .unwrap_or_else(|| GroupedAccumulator::new(g.key_col, g.exprs.clone()));
            batches = vec![acc.finish()?.project(&g.output)?];
        }
    }

    Ok(ParallelOutcome { batches, profile, metrics, morsels, traces })
}

/// The `checked` build's merge-contract validator: the trace stream coming
/// out of [`merge_worker_sinks`] must be strictly increasing in morsel
/// index (per-worker sinks merged and re-sorted, no duplicates), and —
/// when every morsel drained successfully (`all_ok`) — cover each of the
/// `morsels` indices exactly once. Failed or gate-rejected morsels record
/// no trace, so completeness is only asserted on all-success runs.
///
/// Always compiled (so the seeded-violation tests run in every
/// configuration); [`execute_morsels_pooled`] only *calls* it under
/// `feature = "checked"`.
pub fn validate_merged_traces(traces: &[MorselTrace], morsels: usize, all_ok: bool) {
    for pair in traces.windows(2) {
        assert!(
            pair[0].morsel < pair[1].morsel,
            "checked: merged traces out of order or duplicated — morsel {} then {} (the per-worker sink merge must yield at most one trace per morsel, sorted)",
            pair[0].morsel,
            pair[1].morsel
        );
    }
    if let Some(last) = traces.last() {
        assert!(
            last.morsel < morsels,
            "checked: trace for morsel {} but the run only had {morsels} morsels",
            last.morsel
        );
    }
    if all_ok {
        assert_eq!(
            traces.len(),
            morsels,
            "checked: {} traces for {morsels} successful morsels — every drained morsel must record exactly one trace",
            traces.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_columnar::ops::{AggKind, BatchSource};
    use raw_columnar::Value;

    fn source(values: &[i64]) -> Box<dyn Operator> {
        let batches =
            values.chunks(3).map(|c| Batch::new(vec![c.to_vec().into()]).unwrap()).collect();
        Box::new(BatchSource::new(batches))
    }

    /// Ungated, unweighted execution on a fresh pool of `threads` workers.
    fn execute(
        pipelines: Vec<Box<dyn Operator>>,
        merge: &MergePlan,
        threads: usize,
    ) -> Result<ParallelOutcome, ColumnarError> {
        execute_morsels_pooled(&GlobalPool::new(threads, 0), pipelines, Vec::new(), merge, None)
    }

    struct Boom;
    impl Operator for Boom {
        fn next_batch(&mut self) -> Result<Option<Batch>, ColumnarError> {
            Err(ColumnarError::External { message: "boom".into() })
        }
        fn name(&self) -> &'static str {
            "Boom"
        }
    }

    #[test]
    fn concat_preserves_morsel_order() {
        let pipelines: Vec<Box<dyn Operator>> =
            vec![source(&[1, 2, 3, 4]), source(&[5]), source(&[6, 7])];
        let out = execute(pipelines, &MergePlan::Concat, 4).unwrap();
        let all = Batch::concat(&out.batches).unwrap();
        let got: Vec<i64> = all.column(0).unwrap().as_i64().unwrap().to_vec();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(out.morsels, 3);
    }

    #[test]
    fn aggregate_merges_partials_like_serial() {
        for threads in [1, 2, 4, 8] {
            let pipelines: Vec<Box<dyn Operator>> =
                vec![source(&[5, -2, 9]), source(&[7, 7]), source(&[0])];
            let exprs = vec![
                AggExpr { kind: AggKind::Max, col: 0 },
                AggExpr { kind: AggKind::Min, col: 0 },
                AggExpr { kind: AggKind::Sum, col: 0 },
                AggExpr { kind: AggKind::Count, col: 0 },
                AggExpr { kind: AggKind::Avg, col: 0 },
            ];
            let out = execute(pipelines, &MergePlan::Aggregate(exprs), threads).unwrap();
            assert_eq!(out.batches.len(), 1);
            let b = &out.batches[0];
            assert_eq!(b.value(0, 0).unwrap(), Value::Int64(9));
            assert_eq!(b.value(0, 1).unwrap(), Value::Int64(-2));
            assert_eq!(b.value(0, 2).unwrap(), Value::Int64(26));
            assert_eq!(b.value(0, 3).unwrap(), Value::Int64(6));
            assert_eq!(b.value(0, 4).unwrap(), Value::Float64(26.0 / 6.0));
        }
    }

    fn pair_source(rows: &[(i64, i64)]) -> Box<dyn Operator> {
        let batches = rows
            .chunks(3)
            .map(|c| {
                let keys: Vec<i64> = c.iter().map(|&(k, _)| k).collect();
                let vals: Vec<i64> = c.iter().map(|&(_, v)| v).collect();
                Batch::new(vec![keys.into(), vals.into()]).unwrap()
            })
            .collect();
        Box::new(BatchSource::new(batches))
    }

    #[test]
    fn grouped_merges_partials_like_serial() {
        let merge = MergePlan::Grouped(GroupedMerge {
            key_col: 0,
            exprs: vec![
                AggExpr { kind: AggKind::Count, col: 1 },
                AggExpr { kind: AggKind::Sum, col: 1 },
            ],
            // [key, count, sum] -> select order (sum, key, count).
            output: vec![2, 0, 1],
        });
        for threads in [1, 2, 4, 8] {
            let pipelines: Vec<Box<dyn Operator>> = vec![
                pair_source(&[(2, 10), (1, 20), (2, 30)]),
                pair_source(&[(1, 40), (3, 50)]),
                pair_source(&[(2, 60)]),
            ];
            let out = execute(pipelines, &merge, threads).unwrap();
            assert_eq!(out.batches.len(), 1);
            let b = &out.batches[0];
            // Keys sorted: 1, 2, 3.
            assert_eq!(b.column(1).unwrap().as_i64().unwrap(), &[1, 2, 3]);
            assert_eq!(b.column(2).unwrap().as_i64().unwrap(), &[2, 3, 1]);
            assert_eq!(b.column(0).unwrap().as_i64().unwrap(), &[60, 100, 50]);
        }
    }

    #[test]
    fn grouped_of_no_morsels_is_empty_batch() {
        let merge = MergePlan::Grouped(GroupedMerge {
            key_col: 0,
            exprs: vec![AggExpr { kind: AggKind::Count, col: 1 }],
            output: vec![0, 1],
        });
        let out = execute(Vec::new(), &merge, 4).unwrap();
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].rows(), 0);
        assert_eq!(out.batches[0].num_columns(), 2);
    }

    #[test]
    fn aggregate_of_no_morsels_is_canonical_empty() {
        let exprs =
            vec![AggExpr { kind: AggKind::Count, col: 0 }, AggExpr { kind: AggKind::Max, col: 0 }];
        let out = execute(Vec::new(), &MergePlan::Aggregate(exprs), 4).unwrap();
        let b = &out.batches[0];
        assert_eq!(b.value(0, 0).unwrap(), Value::Int64(0));
        assert_eq!(b.value(0, 1).unwrap(), Value::Utf8("NULL".into()));
    }

    #[test]
    fn weighted_scheduling_is_result_invariant() {
        // Heavy-first claim order must not move results, trace order, or
        // rows_out — only the dispatch schedule.
        let make = || -> Vec<Box<dyn Operator>> {
            vec![source(&[1, 2]), source(&[3, 4, 5, 6, 7]), source(&[8])]
        };
        let weights = [2u64, 5, 1];
        for threads in [1, 2, 8] {
            let pool = GlobalPool::new(threads, 0);
            let plain = execute(make(), &MergePlan::Concat, threads).unwrap();
            let scheduled = execute_morsels_pooled(
                &pool,
                make(),
                Vec::new(),
                &MergePlan::Concat,
                Some(&weights),
            )
            .unwrap();
            let a = Batch::concat(&plain.batches).unwrap();
            let b = Batch::concat(&scheduled.batches).unwrap();
            assert_eq!(
                a.column(0).unwrap().as_i64().unwrap(),
                b.column(0).unwrap().as_i64().unwrap()
            );
            assert_eq!(scheduled.morsels, 3);
            assert_eq!(
                scheduled.traces.iter().map(|t| t.morsel).collect::<Vec<_>>(),
                vec![0, 1, 2]
            );
            assert_eq!(
                scheduled.traces.iter().map(|t| t.rows_out).collect::<Vec<_>>(),
                vec![2, 5, 1]
            );
        }
    }

    #[test]
    fn pooled_execution_matches_scoped() {
        // A weighted run on a shared two-worker pool must give what a
        // one-worker pool gives when it claims in morsel order.
        let pool = GlobalPool::new(2, 0);
        let make = || -> Vec<Box<dyn Operator>> {
            vec![source(&[1, 2, 3, 4]), source(&[5]), source(&[6, 7])]
        };
        let weights = [4u64, 1, 2];
        let serial = execute(make(), &MergePlan::Concat, 1).unwrap();
        let pooled =
            execute_morsels_pooled(&pool, make(), Vec::new(), &MergePlan::Concat, Some(&weights))
                .unwrap();
        let a = Batch::concat(&serial.batches).unwrap();
        let b = Batch::concat(&pooled.batches).unwrap();
        assert_eq!(a.column(0).unwrap().as_i64().unwrap(), b.column(0).unwrap().as_i64().unwrap());
        assert_eq!(pooled.morsels, 3);
        assert_eq!(pooled.traces.iter().map(|t| t.morsel).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(pooled.traces.iter().map(|t| t.rows_out).collect::<Vec<_>>(), vec![4, 1, 2]);

        let exprs = vec![AggExpr { kind: AggKind::Sum, col: 0 }];
        let agg = execute_morsels_pooled(
            &pool,
            make(),
            Vec::new(),
            &MergePlan::Aggregate(exprs),
            Some(&weights),
        )
        .unwrap();
        assert_eq!(agg.batches[0].value(0, 0).unwrap(), Value::Int64(28));
    }

    #[test]
    fn trace_volume_is_bounded_by_morsels_not_rows() {
        // 3 morsels, 7 rows total: the trace layer must emit exactly one
        // event per morsel regardless of row count — the overhead contract.
        for threads in [1, 4] {
            let pipelines: Vec<Box<dyn Operator>> =
                vec![source(&[1, 2, 3, 4]), source(&[5]), source(&[6, 7])];
            let out = execute(pipelines, &MergePlan::Concat, threads).unwrap();
            assert_eq!(out.traces.len(), out.morsels);
            assert_eq!(out.traces.len(), 3);
            let order: Vec<usize> = out.traces.iter().map(|t| t.morsel).collect();
            assert_eq!(order, vec![0, 1, 2], "traces merge in morsel order");
            let rows: Vec<u64> = out.traces.iter().map(|t| t.rows_out).collect();
            assert_eq!(rows, vec![4, 1, 2]);
            for t in &out.traces {
                assert!(t.worker < threads.max(1));
            }
        }
    }

    #[test]
    fn aggregate_traces_count_folded_rows() {
        let pipelines: Vec<Box<dyn Operator>> = vec![source(&[5, -2, 9]), source(&[7, 7])];
        let exprs = vec![AggExpr { kind: AggKind::Sum, col: 0 }];
        let out = execute(pipelines, &MergePlan::Aggregate(exprs), 2).unwrap();
        let rows: Vec<u64> = out.traces.iter().map(|t| t.rows_out).collect();
        assert_eq!(rows, vec![3, 2]);
    }

    #[test]
    fn pooled_first_morsel_error_wins() {
        let pipelines: Vec<Box<dyn Operator>> = vec![source(&[1]), Box::new(Boom)];
        let err = execute(pipelines, &MergePlan::Concat, 2).unwrap_err();
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn first_morsel_error_wins() {
        // Two failing morsels, the later one claimed first (heaviest): the
        // error reported is still morsel 1's, in morsel order.
        struct Late;
        impl Operator for Late {
            fn next_batch(&mut self) -> Result<Option<Batch>, ColumnarError> {
                Err(ColumnarError::External { message: "late".into() })
            }
            fn name(&self) -> &'static str {
                "Late"
            }
        }
        let pool = GlobalPool::new(1, 0);
        let pipelines: Vec<Box<dyn Operator>> = vec![source(&[1]), Box::new(Boom), Box::new(Late)];
        let err = execute_morsels_pooled(
            &pool,
            pipelines,
            Vec::new(),
            &MergePlan::Concat,
            Some(&[1, 1, 9]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
    }

    #[test]
    fn panicking_morsel_becomes_its_error() {
        struct Panics;
        impl Operator for Panics {
            fn next_batch(&mut self) -> Result<Option<Batch>, ColumnarError> {
                panic!("operator bug")
            }
            fn name(&self) -> &'static str {
                "Panics"
            }
        }
        let pool = GlobalPool::new(2, 0);
        let pipelines: Vec<Box<dyn Operator>> = vec![source(&[1]), Box::new(Panics)];
        let err = execute_morsels_pooled(&pool, pipelines, Vec::new(), &MergePlan::Concat, None)
            .unwrap_err();
        assert!(err.to_string().contains("morsel 1 panicked: operator bug"), "{err}");
        // The pool keeps serving.
        let out = execute_morsels_pooled(
            &pool,
            vec![source(&[2, 3])],
            Vec::new(),
            &MergePlan::Concat,
            None,
        )
        .unwrap();
        assert_eq!(out.morsels, 1);
    }
}
