//! Scalar aggregation (no grouping): MAX / MIN / SUM / COUNT / AVG.
//!
//! The paper's microbenchmark queries are all of the form
//! `SELECT MAX(col) FROM t WHERE …`; the Higgs query adds counting. Grouped
//! aggregation for histograms lives in [`crate::ops::HistogramOp`].

use crate::batch::Batch;
use crate::column::Column;
use crate::error::{ColumnarError, Result};
use crate::types::{DataType, Value};

/// Aggregate function kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Maximum value.
    Max,
    /// Minimum value.
    Min,
    /// Sum.
    Sum,
    /// Row count (column is still required, for uniformity).
    Count,
    /// Arithmetic mean.
    Avg,
}

impl AggKind {
    /// SQL name.
    pub fn sql(self) -> &'static str {
        match self {
            AggKind::Max => "MAX",
            AggKind::Min => "MIN",
            AggKind::Sum => "SUM",
            AggKind::Count => "COUNT",
            AggKind::Avg => "AVG",
        }
    }

    /// Parse a SQL aggregate name (case-insensitive).
    pub fn parse(s: &str) -> Option<AggKind> {
        match s.to_ascii_uppercase().as_str() {
            "MAX" => Some(AggKind::Max),
            "MIN" => Some(AggKind::Min),
            "SUM" => Some(AggKind::Sum),
            "COUNT" => Some(AggKind::Count),
            "AVG" => Some(AggKind::Avg),
            _ => None,
        }
    }

    /// Result type of this aggregate over an input of type `input`.
    pub fn result_type(self, input: DataType) -> Result<DataType> {
        match self {
            AggKind::Count => Ok(DataType::Int64),
            AggKind::Avg => Ok(DataType::Float64),
            AggKind::Max | AggKind::Min | AggKind::Sum => {
                if input.is_numeric() {
                    Ok(match input {
                        DataType::Int32 => DataType::Int64,
                        DataType::Float32 => DataType::Float64,
                        other => other,
                    })
                } else {
                    Err(ColumnarError::Unsupported { what: format!("{} over {input}", self.sql()) })
                }
            }
        }
    }
}

/// One aggregate expression: `kind(column)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggExpr {
    /// The aggregate function.
    pub kind: AggKind,
    /// Input batch column position.
    pub col: usize,
}

/// Running accumulator for one aggregate.
#[derive(Debug, Clone)]
enum Acc {
    /// max/min/sum over integers.
    Int { cur: Option<i64> },
    /// max/min/sum over floats.
    Float { cur: Option<f64> },
    /// count of rows.
    Count(u64),
    /// sum + count, for AVG.
    Avg { sum: f64, n: u64 },
}

/// Mergeable partial-aggregation state: the unit of work the morsel-driven
/// executor computes per morsel and combines across morsels.
///
/// A plan folds each morsel's batches into its own accumulator and
/// [`AggAccumulator::merge`]s them **in morsel order**, so integer results are
/// bit-for-bit identical to a whole-file scan and float results are identical
/// for any worker count over the same morsel grid (merge order is
/// deterministic).
#[derive(Debug, Clone)]
pub struct AggAccumulator {
    exprs: Vec<AggExpr>,
    accs: Vec<Option<Acc>>,
}

impl AggAccumulator {
    /// An empty accumulator for the given expressions.
    pub fn new(exprs: Vec<AggExpr>) -> AggAccumulator {
        let accs = vec![None; exprs.len()];
        AggAccumulator { exprs, accs }
    }

    /// The expressions this accumulator computes.
    pub fn exprs(&self) -> &[AggExpr] {
        &self.exprs
    }

    /// Fold one batch into the running state.
    pub fn update(&mut self, batch: &Batch) -> Result<()> {
        for (expr, acc) in self.exprs.iter().zip(self.accs.iter_mut()) {
            let col = batch.column(expr.col)?;
            if acc.is_none() {
                *acc = Some(make_acc(expr, col.data_type())?);
            }
            let Some(acc) = acc else { unreachable!("just initialized") };
            update_acc(acc, expr.kind, col)?;
        }
        Ok(())
    }

    /// Combine another accumulator (over the same expressions) into this one.
    /// For SUM/AVG the other state's partial sums are added *after* this
    /// one's, so callers control float summation order by merge order.
    pub fn merge(&mut self, other: AggAccumulator) -> Result<()> {
        if self.exprs != other.exprs {
            return Err(ColumnarError::Plan {
                message: format!(
                    "cannot merge aggregate states over different expressions \
                     ({:?} vs {:?})",
                    self.exprs, other.exprs
                ),
            });
        }
        for ((expr, mine), theirs) in self.exprs.iter().zip(self.accs.iter_mut()).zip(other.accs) {
            let Some(theirs) = theirs else { continue };
            match mine.as_mut() {
                Some(m) => merge_acc(m, theirs, expr.kind)?,
                None => *mine = Some(theirs),
            }
        }
        Ok(())
    }

    /// Produce the final one-row result batch (COUNT of zero rows is 0,
    /// other aggregates over zero rows are NULL).
    pub fn finish(self) -> Result<Batch> {
        let mut columns = Vec::with_capacity(self.exprs.len());
        for (expr, acc) in self.exprs.iter().zip(self.accs) {
            let value = match acc {
                Some(a) => finish_acc(a),
                None => match expr.kind {
                    AggKind::Count => Value::Int64(0),
                    _ => Value::Null,
                },
            };
            // Aggregates over zero rows yield NULL (except COUNT); a one-row
            // Utf8 "NULL" column keeps the result batch rectangular without
            // introducing nullable columns into the hot path.
            let col = match &value {
                Value::Int64(v) => Column::Int64(vec![*v]),
                Value::Float64(v) => Column::Float64(vec![*v]),
                Value::Null => Column::Utf8(vec!["NULL".to_owned()]),
                other => Column::from_values(
                    other.data_type().unwrap_or(DataType::Utf8),
                    std::slice::from_ref(&value),
                )?,
            };
            columns.push(col);
        }
        Batch::new(columns)
    }
}

fn make_acc(expr: &AggExpr, dt: DataType) -> Result<Acc> {
    Ok(match expr.kind {
        AggKind::Count => Acc::Count(0),
        AggKind::Avg => Acc::Avg { sum: 0.0, n: 0 },
        AggKind::Max | AggKind::Min | AggKind::Sum => match dt {
            DataType::Int32 | DataType::Int64 => Acc::Int { cur: None },
            DataType::Float32 | DataType::Float64 => Acc::Float { cur: None },
            other => {
                return Err(ColumnarError::Unsupported {
                    what: format!("{} over {other}", expr.kind.sql()),
                })
            }
        },
    })
}

/// Fold one whole column into the accumulator. Updates are **batched**: the
/// aggregate kind and column type are dispatched once per slice, and the
/// remaining loop is a tight typed fold with no per-value enum matching or
/// `Option` bookkeeping — integer max/min/wrapping-sum folds auto-vectorize.
/// The float folds run left to right seeded from the current slot, the exact
/// operation sequence the per-value loop performed, so results (and the
/// merge-order determinism [`AggAccumulator::merge`] documents) are
/// preserved bitwise.
fn update_acc(acc: &mut Acc, kind: AggKind, col: &Column) -> Result<()> {
    match acc {
        Acc::Count(n) => *n += col.len() as u64,
        Acc::Avg { sum, n } => {
            *sum = sum_f64_from(col, *sum)?;
            *n += col.len() as u64;
        }
        Acc::Int { cur } => *cur = fold_int(col, *cur, kind)?,
        Acc::Float { cur } => *cur = fold_float(col, *cur, kind)?,
    }
    Ok(())
}

/// Batched integer max/min/sum over a widened column slice.
fn fold_int(col: &Column, cur: Option<i64>, kind: AggKind) -> Result<Option<i64>> {
    match col {
        Column::Int32(v) => Ok(fold_int_values(cur, kind, v.iter().map(|&x| i64::from(x)))),
        Column::Int64(v) => Ok(fold_int_values(cur, kind, v.iter().copied())),
        other => Err(ColumnarError::TypeMismatch {
            expected: DataType::Int64,
            actual: other.data_type(),
            context: "integer aggregate",
        }),
    }
}

fn fold_int_values(
    cur: Option<i64>,
    kind: AggKind,
    mut values: impl Iterator<Item = i64>,
) -> Option<i64> {
    let mut acc = match cur {
        Some(c) => c,
        // Empty slice with no prior state: the slot stays unset.
        None => values.next()?,
    };
    match kind {
        AggKind::Max => values.for_each(|v| acc = acc.max(v)),
        AggKind::Min => values.for_each(|v| acc = acc.min(v)),
        AggKind::Sum => values.for_each(|v| acc = acc.wrapping_add(v)),
        _ => unreachable!("int acc only for max/min/sum"),
    }
    Some(acc)
}

/// Batched float max/min/sum over a widened column slice (left-to-right,
/// seeded from the current slot — see [`update_acc`]).
fn fold_float(col: &Column, cur: Option<f64>, kind: AggKind) -> Result<Option<f64>> {
    match col {
        Column::Int32(v) => Ok(fold_float_values(cur, kind, v.iter().map(|&x| f64::from(x)))),
        Column::Int64(v) => Ok(fold_float_values(cur, kind, v.iter().map(|&x| x as f64))),
        Column::Float32(v) => Ok(fold_float_values(cur, kind, v.iter().map(|&x| f64::from(x)))),
        Column::Float64(v) => Ok(fold_float_values(cur, kind, v.iter().copied())),
        other => Err(ColumnarError::TypeMismatch {
            expected: DataType::Float64,
            actual: other.data_type(),
            context: "float aggregate",
        }),
    }
}

fn fold_float_values(
    cur: Option<f64>,
    kind: AggKind,
    mut values: impl Iterator<Item = f64>,
) -> Option<f64> {
    let mut acc = match cur {
        Some(c) => c,
        None => values.next()?,
    };
    match kind {
        AggKind::Max => values.for_each(|v| acc = acc.max(v)),
        AggKind::Min => values.for_each(|v| acc = acc.min(v)),
        AggKind::Sum => values.for_each(|v| acc += v),
        _ => unreachable!("float acc only for max/min/sum"),
    }
    Some(acc)
}

/// Left-to-right float sum of a widened column, seeded at `sum` (the AVG
/// accumulator's batched update).
fn sum_f64_from(col: &Column, mut sum: f64) -> Result<f64> {
    match col {
        Column::Int32(v) => v.iter().for_each(|&x| sum += f64::from(x)),
        Column::Int64(v) => v.iter().for_each(|&x| sum += x as f64),
        Column::Float32(v) => v.iter().for_each(|&x| sum += f64::from(x)),
        Column::Float64(v) => v.iter().for_each(|&x| sum += x),
        other => {
            return Err(ColumnarError::TypeMismatch {
                expected: DataType::Float64,
                actual: other.data_type(),
                context: "float aggregate",
            })
        }
    }
    Ok(sum)
}

/// Combine two integer max/min/sum slots: the state a serial scan of
/// mine-then-theirs would hold. This (and [`merge_float_slot`]) is the one
/// implementation of accumulator merging — the scalar [`AggAccumulator`]
/// merges single slots, the grouped accumulator merges one slot per group,
/// so the two parallel merge layers can never drift.
pub(crate) fn merge_int_slot(mine: Option<i64>, theirs: Option<i64>, kind: AggKind) -> Option<i64> {
    match (mine, theirs) {
        (a, None) => a,
        (None, b) => b,
        (Some(a), Some(b)) => Some(match kind {
            AggKind::Max => a.max(b),
            AggKind::Min => a.min(b),
            AggKind::Sum => a.wrapping_add(b),
            _ => unreachable!("int slot only for max/min/sum"),
        }),
    }
}

/// Combine two float max/min/sum slots. For SUM, `theirs` is added *after*
/// `mine`, so callers control float summation order by merge order.
pub(crate) fn merge_float_slot(
    mine: Option<f64>,
    theirs: Option<f64>,
    kind: AggKind,
) -> Option<f64> {
    match (mine, theirs) {
        (a, None) => a,
        (None, b) => b,
        (Some(a), Some(b)) => Some(match kind {
            AggKind::Max => a.max(b),
            AggKind::Min => a.min(b),
            AggKind::Sum => a + b,
            _ => unreachable!("float slot only for max/min/sum"),
        }),
    }
}

/// Combine `theirs` into `mine` under the aggregate `kind` (both built by
/// [`update_acc`] for the same expression, so same variant). The merged
/// state is exactly what a serial scan of mine-then-theirs would have built.
fn merge_acc(mine: &mut Acc, theirs: Acc, kind: AggKind) -> Result<()> {
    match (mine, theirs) {
        (Acc::Count(a), Acc::Count(b)) => *a += b,
        (Acc::Avg { sum, n }, Acc::Avg { sum: s2, n: n2 }) => {
            *sum += s2;
            *n += n2;
        }
        (Acc::Int { cur }, Acc::Int { cur: other }) => *cur = merge_int_slot(*cur, other, kind),
        (Acc::Float { cur }, Acc::Float { cur: other }) => {
            *cur = merge_float_slot(*cur, other, kind)
        }
        (mine, theirs) => {
            return Err(ColumnarError::Plan {
                message: format!(
                    "cannot merge mismatched aggregate states ({mine:?} vs {theirs:?})"
                ),
            })
        }
    }
    Ok(())
}

fn finish_acc(acc: Acc) -> Value {
    match acc {
        Acc::Count(n) => Value::Int64(n as i64),
        Acc::Avg { sum, n } => {
            if n == 0 {
                Value::Null
            } else {
                Value::Float64(sum / n as f64)
            }
        }
        Acc::Int { cur } => cur.map_or(Value::Null, Value::Int64),
        Acc::Float { cur } => cur.map_or(Value::Null, Value::Float64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold `data` into one accumulator and finish it: the one-row result.
    fn aggregate(data: &[Batch], exprs: Vec<AggExpr>) -> Result<Batch> {
        let mut acc = AggAccumulator::new(exprs);
        for batch in data {
            acc.update(batch)?;
        }
        acc.finish()
    }

    fn agg_one(kind: AggKind, data: Vec<Batch>) -> Value {
        let out = aggregate(&data, vec![AggExpr { kind, col: 0 }]).unwrap();
        assert_eq!(out.rows(), 1, "aggregate emits exactly one row");
        out.value(0, 0).unwrap()
    }

    fn int_batches() -> Vec<Batch> {
        vec![
            Batch::new(vec![vec![5i64, -2, 9].into()]).unwrap(),
            Batch::new(vec![vec![7i64].into()]).unwrap(),
        ]
    }

    #[test]
    fn int_aggregates() {
        assert_eq!(agg_one(AggKind::Max, int_batches()), Value::Int64(9));
        assert_eq!(agg_one(AggKind::Min, int_batches()), Value::Int64(-2));
        assert_eq!(agg_one(AggKind::Sum, int_batches()), Value::Int64(19));
        assert_eq!(agg_one(AggKind::Count, int_batches()), Value::Int64(4));
        assert_eq!(agg_one(AggKind::Avg, int_batches()), Value::Float64(4.75));
    }

    #[test]
    fn float_aggregates() {
        let data = vec![Batch::new(vec![vec![1.5f64, 2.5, -1.0].into()]).unwrap()];
        assert_eq!(agg_one(AggKind::Max, data.clone()), Value::Float64(2.5));
        assert_eq!(agg_one(AggKind::Min, data.clone()), Value::Float64(-1.0));
        assert_eq!(agg_one(AggKind::Sum, data.clone()), Value::Float64(3.0));
        assert_eq!(agg_one(AggKind::Avg, data), Value::Float64(1.0));
    }

    #[test]
    fn int32_widen() {
        let data = vec![Batch::new(vec![vec![3i32, 4].into()]).unwrap()];
        assert_eq!(agg_one(AggKind::Max, data.clone()), Value::Int64(4));
        assert_eq!(agg_one(AggKind::Avg, data), Value::Float64(3.5));
    }

    #[test]
    fn empty_input() {
        assert_eq!(agg_one(AggKind::Count, vec![]), Value::Int64(0));
        assert_eq!(agg_one(AggKind::Max, vec![]), Value::Utf8("NULL".into()));
    }

    #[test]
    fn multiple_aggregates_one_pass() {
        let batches =
            vec![Batch::new(vec![vec![1i64, 2, 3].into(), vec![10.0f64, 20.0, 30.0].into()])
                .unwrap()];
        let out = aggregate(
            &batches,
            vec![
                AggExpr { kind: AggKind::Max, col: 0 },
                AggExpr { kind: AggKind::Sum, col: 1 },
                AggExpr { kind: AggKind::Count, col: 0 },
            ],
        )
        .unwrap();
        assert_eq!(out.value(0, 0).unwrap(), Value::Int64(3));
        assert_eq!(out.value(0, 1).unwrap(), Value::Float64(60.0));
        assert_eq!(out.value(0, 2).unwrap(), Value::Int64(3));
    }

    #[test]
    fn non_numeric_rejected() {
        let batches = vec![Batch::new(vec![vec!["a".to_owned()].into()]).unwrap()];
        assert!(aggregate(&batches, vec![AggExpr { kind: AggKind::Max, col: 0 }]).is_err());
    }

    #[test]
    fn result_types() {
        assert_eq!(AggKind::Max.result_type(DataType::Int32).unwrap(), DataType::Int64);
        assert_eq!(AggKind::Sum.result_type(DataType::Float32).unwrap(), DataType::Float64);
        assert_eq!(AggKind::Count.result_type(DataType::Utf8).unwrap(), DataType::Int64);
        assert_eq!(AggKind::Avg.result_type(DataType::Int64).unwrap(), DataType::Float64);
        assert!(AggKind::Min.result_type(DataType::Utf8).is_err());
    }

    #[test]
    fn parse_sql_names() {
        assert_eq!(AggKind::parse("max"), Some(AggKind::Max));
        assert_eq!(AggKind::parse("CoUnT"), Some(AggKind::Count));
        assert_eq!(AggKind::parse("median"), None);
    }
}
