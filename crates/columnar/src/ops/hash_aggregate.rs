//! Grouped aggregation: `GROUP BY key` with arbitrary aggregate lists.
//!
//! The Higgs analysis (§6) is histogram-shaped — "building a histogram of
//! 'events of interest'" — and its per-event cuts are grouped aggregates
//! over satellite tables. [`GroupCountOp`](crate::ops::GroupCountOp) covers
//! the fixed count(+extremum) shape the hand-assembled pipeline needs;
//! [`GroupedAccumulator`] is the general form the SQL front end plans for
//! `SELECT key, AGG(col), … FROM t GROUP BY key`.
//!
//! Keys are integers (`Int32`/`Int64`/`Bool`, widened to `i64`): event ids,
//! run numbers, bucket ids. Output is one row per distinct key, sorted by
//! key for deterministic results: the key column first (as `Int64`), then
//! one column per aggregate expression with the same result-type rules as
//! the scalar [`AggAccumulator`](crate::ops::AggAccumulator).

use crate::batch::Batch;
use crate::column::Column;
use crate::error::{ColumnarError, Result};
use crate::fxhash::FxHashMap;
use crate::ops::aggregate::{merge_float_slot, merge_int_slot};
use crate::ops::{AggExpr, AggKind};
use crate::types::DataType;

/// Per-group accumulator storage for one aggregate expression: one slot per
/// group id, type resolved once at operator construction from the input
/// column type (never per value).
#[derive(Debug, Clone)]
enum AccVec {
    /// max/min/sum over integers; `None` = no value yet.
    Int(Vec<Option<i64>>),
    /// max/min/sum over floats.
    Float(Vec<Option<f64>>),
    /// count of rows.
    Count(Vec<i64>),
    /// sum + count, for AVG.
    Avg(Vec<(f64, i64)>),
}

impl AccVec {
    fn grow_to(&mut self, n: usize) {
        match self {
            AccVec::Int(v) => v.resize(n, None),
            AccVec::Float(v) => v.resize(n, None),
            AccVec::Count(v) => v.resize(n, 0),
            AccVec::Avg(v) => v.resize(n, (0.0, 0)),
        }
    }

    /// An empty storage of the same variant (the merge target when this
    /// side has seen no batches for the expression yet).
    fn empty_like(&self) -> AccVec {
        match self {
            AccVec::Int(_) => AccVec::Int(Vec::new()),
            AccVec::Float(_) => AccVec::Float(Vec::new()),
            AccVec::Count(_) => AccVec::Count(Vec::new()),
            AccVec::Avg(_) => AccVec::Avg(Vec::new()),
        }
    }
}

/// Mergeable grouped-aggregation state: the unit of work the morsel-driven
/// executor computes per morsel and combines across morsels — the grouped
/// counterpart of [`AggAccumulator`](crate::ops::AggAccumulator).
///
/// A plan folds each morsel's batches into its own accumulator and
/// [`GroupedAccumulator::merge`]s them **in morsel order**. Group ids are
/// first-seen order, so after a morsel-ordered merge each group's partial
/// states combine in morsel order too: integer aggregates are bit-for-bit
/// identical to a whole-file run and float SUM/AVG are deterministic for
/// any worker count over the same morsel grid. Per-slot combination reuses
/// the scalar accumulator's merge primitives
/// ([`merge_int_slot`]/[`merge_float_slot`]), so the two merge layers share
/// one implementation.
#[derive(Debug, Clone)]
pub struct GroupedAccumulator {
    key_col: usize,
    exprs: Vec<AggExpr>,
    group_of: FxHashMap<i64, u32>,
    keys_in_order: Vec<i64>,
    accs: Vec<Option<AccVec>>,

    // Per-batch scratch, reused across batches.
    key_scratch: Vec<i64>,
    gid_scratch: Vec<u32>,
    i64_scratch: Vec<i64>,
    f64_scratch: Vec<f64>,
}

impl GroupedAccumulator {
    /// An empty accumulator grouping by integer column `key_col` and
    /// computing `exprs` per group.
    pub fn new(key_col: usize, exprs: Vec<AggExpr>) -> GroupedAccumulator {
        let accs = (0..exprs.len()).map(|_| None).collect();
        GroupedAccumulator {
            key_col,
            exprs,
            group_of: FxHashMap::default(),
            keys_in_order: Vec::new(),
            accs,
            key_scratch: Vec::new(),
            gid_scratch: Vec::new(),
            i64_scratch: Vec::new(),
            f64_scratch: Vec::new(),
        }
    }

    /// Number of distinct keys seen.
    pub fn groups(&self) -> usize {
        self.keys_in_order.len()
    }

    /// The group id for `key`, registering it in **first-seen order** when
    /// new. Both `update` and `merge` assign ids through this one path —
    /// the first-seen-order invariant is what makes morsel-ordered merges
    /// deterministic, so it must not fork.
    fn group_id(&mut self, key: i64) -> u32 {
        let GroupedAccumulator { group_of, keys_in_order, .. } = self;
        let next_id = keys_in_order.len() as u32;
        *group_of.entry(key).or_insert_with(|| {
            keys_in_order.push(key);
            next_id
        })
    }

    fn acc_for(expr: &AggExpr, dt: DataType) -> Result<AccVec> {
        Ok(match expr.kind {
            AggKind::Count => AccVec::Count(Vec::new()),
            AggKind::Avg => {
                if !dt.is_numeric() {
                    return Err(ColumnarError::Unsupported { what: format!("AVG over {dt}") });
                }
                AccVec::Avg(Vec::new())
            }
            AggKind::Max | AggKind::Min | AggKind::Sum => match dt {
                DataType::Int32 | DataType::Int64 => AccVec::Int(Vec::new()),
                DataType::Float32 | DataType::Float64 => AccVec::Float(Vec::new()),
                other => {
                    return Err(ColumnarError::Unsupported {
                        what: format!("{} over {other}", expr.kind.sql()),
                    })
                }
            },
        })
    }

    /// Fold one batch into the running state.
    pub fn update(&mut self, batch: &Batch) -> Result<()> {
        widen_keys(batch.column(self.key_col)?, &mut self.key_scratch)?;

        // Assign group ids for this batch's rows.
        self.gid_scratch.clear();
        self.gid_scratch.reserve(self.key_scratch.len());
        for i in 0..self.key_scratch.len() {
            let id = self.group_id(self.key_scratch[i]);
            self.gid_scratch.push(id);
        }
        let n_groups = self.keys_in_order.len();

        // Update each aggregate: type resolved once per (expr, batch).
        for (expr, acc_slot) in self.exprs.iter().zip(self.accs.iter_mut()) {
            let col = batch.column(expr.col)?;
            if acc_slot.is_none() {
                *acc_slot = Some(Self::acc_for(expr, col.data_type())?);
            }
            let Some(acc) = acc_slot else { unreachable!("just initialized") };
            acc.grow_to(n_groups);
            match acc {
                AccVec::Count(v) => {
                    for &g in &self.gid_scratch {
                        v[g as usize] += 1;
                    }
                }
                AccVec::Avg(v) => {
                    widen_f64(col, &mut self.f64_scratch)?;
                    for (&g, &x) in self.gid_scratch.iter().zip(&self.f64_scratch) {
                        let slot = &mut v[g as usize];
                        slot.0 += x;
                        slot.1 += 1;
                    }
                }
                // Batched per-slot updates: each arm is exactly
                // `merge_*_slot(*slot, Some(x), kind)` with the kind
                // dispatch hoisted out of the row loop, so the inner loop
                // is one branch-free fold per row and the slot semantics
                // (including float operand order: current, then new) stay
                // bitwise identical to the shared merge primitives.
                AccVec::Int(v) => {
                    widen_i64(col, &mut self.i64_scratch)?;
                    let rows = self.gid_scratch.iter().zip(&self.i64_scratch);
                    match expr.kind {
                        AggKind::Max => rows.for_each(|(&g, &x)| {
                            let slot = &mut v[g as usize];
                            *slot = Some(slot.map_or(x, |c| c.max(x)));
                        }),
                        AggKind::Min => rows.for_each(|(&g, &x)| {
                            let slot = &mut v[g as usize];
                            *slot = Some(slot.map_or(x, |c| c.min(x)));
                        }),
                        AggKind::Sum => rows.for_each(|(&g, &x)| {
                            let slot = &mut v[g as usize];
                            *slot = Some(slot.map_or(x, |c| c.wrapping_add(x)));
                        }),
                        _ => unreachable!("int acc only for max/min/sum"),
                    }
                }
                AccVec::Float(v) => {
                    widen_f64(col, &mut self.f64_scratch)?;
                    let rows = self.gid_scratch.iter().zip(&self.f64_scratch);
                    match expr.kind {
                        AggKind::Max => rows.for_each(|(&g, &x)| {
                            let slot = &mut v[g as usize];
                            *slot = Some(slot.map_or(x, |c| c.max(x)));
                        }),
                        AggKind::Min => rows.for_each(|(&g, &x)| {
                            let slot = &mut v[g as usize];
                            *slot = Some(slot.map_or(x, |c| c.min(x)));
                        }),
                        AggKind::Sum => rows.for_each(|(&g, &x)| {
                            let slot = &mut v[g as usize];
                            *slot = Some(slot.map_or(x, |c| c + x));
                        }),
                        _ => unreachable!("float acc only for max/min/sum"),
                    }
                }
            }
        }
        Ok(())
    }

    /// Combine another accumulator (same key column and expressions) into
    /// this one. `other`'s keys are remapped into this accumulator's group-id
    /// space (first-seen order), and each group's slots combine through the
    /// same primitives the scalar merge uses — for SUM/AVG the other state's
    /// partial sums are added *after* this one's, so callers control float
    /// summation order by merge order.
    pub fn merge(&mut self, other: GroupedAccumulator) -> Result<()> {
        if self.exprs != other.exprs || self.key_col != other.key_col {
            return Err(ColumnarError::Plan {
                message: format!(
                    "cannot merge grouped aggregate states over different shapes \
                     (key {} {:?} vs key {} {:?})",
                    self.key_col, self.exprs, other.key_col, other.exprs
                ),
            });
        }
        // Remap other's group ids into ours, registering unseen keys.
        let mut remap: Vec<u32> = Vec::with_capacity(other.keys_in_order.len());
        for &k in &other.keys_in_order {
            remap.push(self.group_id(k));
        }
        let n_groups = self.keys_in_order.len();

        for ((expr, mine), theirs) in self.exprs.iter().zip(self.accs.iter_mut()).zip(other.accs) {
            let Some(theirs) = theirs else { continue };
            let acc = match mine {
                Some(m) => m,
                None => mine.insert(theirs.empty_like()),
            };
            acc.grow_to(n_groups);
            match (acc, theirs) {
                (AccVec::Count(a), AccVec::Count(b)) => {
                    for (og, n) in b.into_iter().enumerate() {
                        a[remap[og] as usize] += n;
                    }
                }
                (AccVec::Avg(a), AccVec::Avg(b)) => {
                    for (og, (sum, n)) in b.into_iter().enumerate() {
                        let slot = &mut a[remap[og] as usize];
                        slot.0 += sum;
                        slot.1 += n;
                    }
                }
                (AccVec::Int(a), AccVec::Int(b)) => {
                    for (og, x) in b.into_iter().enumerate() {
                        let slot = &mut a[remap[og] as usize];
                        *slot = merge_int_slot(*slot, x, expr.kind);
                    }
                }
                (AccVec::Float(a), AccVec::Float(b)) => {
                    for (og, x) in b.into_iter().enumerate() {
                        let slot = &mut a[remap[og] as usize];
                        *slot = merge_float_slot(*slot, x, expr.kind);
                    }
                }
                (mine, theirs) => {
                    return Err(ColumnarError::Plan {
                        message: format!(
                            "cannot merge mismatched grouped aggregate states \
                             ({mine:?} vs {theirs:?})"
                        ),
                    })
                }
            }
        }
        Ok(())
    }

    /// Produce the final batch — one row per distinct key, sorted by key:
    /// the key column (as `Int64`) then one column per aggregate. Zero input
    /// rows produce an empty (zero-row) batch, per SQL semantics.
    pub fn finish(self) -> Result<Batch> {
        let n = self.keys_in_order.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&g| self.keys_in_order[g as usize]);

        let mut columns = Vec::with_capacity(1 + self.exprs.len());
        columns
            .push(Column::Int64(order.iter().map(|&g| self.keys_in_order[g as usize]).collect()));
        for acc in self.accs {
            let col = match acc {
                // Zero input batches: emit empty typed columns (n == 0).
                None => Column::Int64(Vec::new()),
                Some(AccVec::Count(v)) => {
                    Column::Int64(order.iter().map(|&g| v[g as usize]).collect())
                }
                Some(AccVec::Avg(v)) => Column::Float64(
                    order
                        .iter()
                        .map(|&g| {
                            let (sum, cnt) = v[g as usize];
                            sum / cnt as f64 // every group has ≥1 row
                        })
                        .collect(),
                ),
                Some(AccVec::Int(v)) => Column::Int64(
                    order
                        .iter()
                        .map(|&g| {
                            let Some(x) = v[g as usize] else { unreachable!("group has ≥1 row") };
                            x
                        })
                        .collect(),
                ),
                Some(AccVec::Float(v)) => Column::Float64(
                    order
                        .iter()
                        .map(|&g| {
                            let Some(x) = v[g as usize] else { unreachable!("group has ≥1 row") };
                            x
                        })
                        .collect(),
                ),
            };
            columns.push(col);
        }
        Batch::new(columns)
    }
}

/// Widen an integer-typed key column into the group-id scratch.
fn widen_keys(col: &Column, out: &mut Vec<i64>) -> Result<()> {
    out.clear();
    match col {
        Column::Int32(v) => out.extend(v.iter().map(|&x| i64::from(x))),
        Column::Int64(v) => out.extend(v.iter().copied()),
        Column::Bool(v) => out.extend(v.iter().map(|&b| i64::from(b))),
        other => {
            return Err(ColumnarError::TypeMismatch {
                expected: DataType::Int64,
                actual: other.data_type(),
                context: "GROUP BY key (integer keys only)",
            })
        }
    }
    Ok(())
}

fn widen_i64(col: &Column, out: &mut Vec<i64>) -> Result<()> {
    out.clear();
    match col {
        Column::Int32(v) => out.extend(v.iter().map(|&x| i64::from(x))),
        Column::Int64(v) => out.extend(v.iter().copied()),
        other => {
            return Err(ColumnarError::TypeMismatch {
                expected: DataType::Int64,
                actual: other.data_type(),
                context: "integer grouped aggregate",
            })
        }
    }
    Ok(())
}

fn widen_f64(col: &Column, out: &mut Vec<f64>) -> Result<()> {
    out.clear();
    match col {
        Column::Int32(v) => out.extend(v.iter().map(|&x| f64::from(x))),
        Column::Int64(v) => out.extend(v.iter().map(|&x| x as f64)),
        Column::Float32(v) => out.extend(v.iter().map(|&x| f64::from(x))),
        Column::Float64(v) => out.extend(v.iter().copied()),
        other => {
            return Err(ColumnarError::TypeMismatch {
                expected: DataType::Float64,
                actual: other.data_type(),
                context: "float grouped aggregate",
            })
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    /// Fold `batches` into one accumulator and finish it.
    fn try_run(batches: Vec<Batch>, key: usize, exprs: Vec<AggExpr>) -> Result<Batch> {
        let mut acc = GroupedAccumulator::new(key, exprs);
        for batch in &batches {
            acc.update(batch)?;
        }
        acc.finish()
    }

    fn run(batches: Vec<Batch>, key: usize, exprs: Vec<AggExpr>) -> Batch {
        try_run(batches, key, exprs).unwrap()
    }

    #[test]
    fn counts_per_group_sorted_by_key() {
        let batches = vec![
            Batch::new(vec![vec![2i64, 1, 2].into(), vec![10i64, 20, 30].into()]).unwrap(),
            Batch::new(vec![vec![1i64, 3].into(), vec![40i64, 50].into()]).unwrap(),
        ];
        let out = run(batches, 0, vec![AggExpr { kind: AggKind::Count, col: 1 }]);
        assert_eq!(out.column(0).unwrap().as_i64().unwrap(), &[1, 2, 3]);
        assert_eq!(out.column(1).unwrap().as_i64().unwrap(), &[2, 2, 1]);
    }

    #[test]
    fn multiple_aggregates_per_group() {
        let batches = vec![Batch::new(vec![
            vec![1i64, 2, 1, 2].into(),
            vec![10i64, 1, 30, 3].into(),
            vec![0.5f64, 1.5, 2.5, 3.5].into(),
        ])
        .unwrap()];
        let out = run(
            batches,
            0,
            vec![
                AggExpr { kind: AggKind::Max, col: 1 },
                AggExpr { kind: AggKind::Sum, col: 2 },
                AggExpr { kind: AggKind::Avg, col: 1 },
            ],
        );
        assert_eq!(out.column(0).unwrap().as_i64().unwrap(), &[1, 2]);
        assert_eq!(out.column(1).unwrap().as_i64().unwrap(), &[30, 3]);
        assert_eq!(out.column(2).unwrap().as_f64().unwrap(), &[3.0, 5.0]);
        assert_eq!(out.column(3).unwrap().as_f64().unwrap(), &[20.0, 2.0]);
    }

    #[test]
    fn groups_span_batches() {
        // The same key in every batch must accumulate into one group.
        let batches: Vec<Batch> = (0..5)
            .map(|i| Batch::new(vec![vec![7i64].into(), vec![i as i64].into()]).unwrap())
            .collect();
        let out = run(
            batches,
            0,
            vec![
                AggExpr { kind: AggKind::Count, col: 1 },
                AggExpr { kind: AggKind::Min, col: 1 },
                AggExpr { kind: AggKind::Max, col: 1 },
            ],
        );
        assert_eq!(out.rows(), 1);
        assert_eq!(out.value(0, 0).unwrap(), Value::Int64(7));
        assert_eq!(out.value(0, 1).unwrap(), Value::Int64(5));
        assert_eq!(out.value(0, 2).unwrap(), Value::Int64(0));
        assert_eq!(out.value(0, 3).unwrap(), Value::Int64(4));
    }

    #[test]
    fn int32_and_bool_keys_widen() {
        let batches = vec![Batch::new(vec![
            vec![true, false, true].into(),
            vec![1i64, 2, 3].into(),
        ])
        .unwrap()];
        let out = run(batches, 0, vec![AggExpr { kind: AggKind::Sum, col: 1 }]);
        assert_eq!(out.column(0).unwrap().as_i64().unwrap(), &[0, 1]);
        assert_eq!(out.column(1).unwrap().as_i64().unwrap(), &[2, 4]);

        let batches =
            vec![Batch::new(vec![vec![5i32, 5, 6].into(), vec![1i64, 2, 3].into()]).unwrap()];
        let out = run(batches, 0, vec![AggExpr { kind: AggKind::Count, col: 1 }]);
        assert_eq!(out.column(0).unwrap().as_i64().unwrap(), &[5, 6]);
    }

    #[test]
    fn empty_input_emits_zero_rows() {
        let out = run(vec![], 0, vec![AggExpr { kind: AggKind::Count, col: 1 }]);
        assert_eq!(out.rows(), 0);
        assert_eq!(out.num_columns(), 2);
    }

    #[test]
    fn float_and_utf8_keys_rejected() {
        let count = || vec![AggExpr { kind: AggKind::Count, col: 1 }];
        let batches = vec![Batch::new(vec![vec![1.0f64].into(), vec![1i64].into()]).unwrap()];
        assert!(try_run(batches, 0, count()).is_err());

        let batches =
            vec![Batch::new(vec![vec!["k".to_owned()].into(), vec![1i64].into()]).unwrap()];
        assert!(try_run(batches, 0, count()).is_err());
    }

    #[test]
    fn non_numeric_aggregate_rejected() {
        let batches =
            vec![Batch::new(vec![vec![1i64].into(), vec!["x".to_owned()].into()]).unwrap()];
        assert!(try_run(batches, 0, vec![AggExpr { kind: AggKind::Max, col: 1 }]).is_err());
    }

    /// Splitting the input across accumulators and merging in split order
    /// reproduces the single-accumulator (serial) state exactly.
    #[test]
    fn merged_partials_equal_one_pass() {
        let keys: Vec<i64> = (0..60).map(|i| (i * 11 + 5) % 7).collect();
        let vals: Vec<i64> = (0..60).map(|i| (i * 13 + 1) % 101).collect();
        let exprs = vec![
            AggExpr { kind: AggKind::Count, col: 1 },
            AggExpr { kind: AggKind::Sum, col: 1 },
            AggExpr { kind: AggKind::Min, col: 1 },
            AggExpr { kind: AggKind::Max, col: 1 },
            AggExpr { kind: AggKind::Avg, col: 1 },
        ];

        let mut serial = GroupedAccumulator::new(0, exprs.clone());
        serial
            .update(&Batch::new(vec![keys.clone().into(), vals.clone().into()]).unwrap())
            .unwrap();

        let mut merged: Option<GroupedAccumulator> = None;
        for (k, v) in keys.chunks(17).zip(vals.chunks(17)) {
            let mut part = GroupedAccumulator::new(0, exprs.clone());
            part.update(&Batch::new(vec![k.to_vec().into(), v.to_vec().into()]).unwrap()).unwrap();
            match merged.as_mut() {
                Some(m) => m.merge(part).unwrap(),
                None => merged = Some(part),
            }
        }
        assert_eq!(merged.unwrap().finish().unwrap(), serial.finish().unwrap());
    }

    #[test]
    fn merge_into_empty_and_of_empty() {
        let exprs = vec![AggExpr { kind: AggKind::Sum, col: 1 }];
        let batch = Batch::new(vec![vec![1i64, 2].into(), vec![10i64, 20].into()]).unwrap();

        let mut filled = GroupedAccumulator::new(0, exprs.clone());
        filled.update(&batch).unwrap();

        // empty.merge(filled) and filled.merge(empty) both yield filled.
        let mut empty = GroupedAccumulator::new(0, exprs.clone());
        empty.merge(filled.clone()).unwrap();
        assert_eq!(empty.finish().unwrap(), filled.clone().finish().unwrap());

        let mut lhs = filled.clone();
        lhs.merge(GroupedAccumulator::new(0, exprs.clone())).unwrap();
        assert_eq!(lhs.finish().unwrap(), filled.finish().unwrap());
    }

    #[test]
    fn merge_rejects_mismatched_shapes() {
        let a = GroupedAccumulator::new(0, vec![AggExpr { kind: AggKind::Sum, col: 1 }]);
        let mut b = GroupedAccumulator::new(0, vec![AggExpr { kind: AggKind::Max, col: 1 }]);
        assert!(b.merge(a.clone()).is_err(), "different exprs");
        let mut c = GroupedAccumulator::new(1, vec![AggExpr { kind: AggKind::Sum, col: 1 }]);
        assert!(c.merge(a).is_err(), "different key column");
    }

    #[test]
    fn agrees_with_naive_reference() {
        // Randomish data, checked against a straightforward HashMap fold.
        let keys: Vec<i64> = (0..200).map(|i| (i * 7 + 3) % 13).collect();
        let vals: Vec<i64> = (0..200).map(|i| (i * 31 + 11) % 997).collect();
        let batches: Vec<Batch> = keys
            .chunks(17)
            .zip(vals.chunks(17))
            .map(|(k, v)| Batch::new(vec![k.to_vec().into(), v.to_vec().into()]).unwrap())
            .collect();
        let out = run(
            batches,
            0,
            vec![AggExpr { kind: AggKind::Sum, col: 1 }, AggExpr { kind: AggKind::Count, col: 1 }],
        );

        let mut expect: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for (&k, &v) in keys.iter().zip(&vals) {
            let e = expect.entry(k).or_insert((0, 0));
            e.0 += v;
            e.1 += 1;
        }
        assert_eq!(out.rows(), expect.len());
        for (i, (&k, &(sum, cnt))) in expect.iter().enumerate() {
            assert_eq!(out.value(i, 0).unwrap(), Value::Int64(k));
            assert_eq!(out.value(i, 1).unwrap(), Value::Int64(sum));
            assert_eq!(out.value(i, 2).unwrap(), Value::Int64(cnt));
        }
    }
}
