//! Query shapes: their SQL text, and their answers computed in plain Rust
//! from the generated tables.

use std::collections::{BTreeMap, HashMap};

use raw_columnar::Value;
use raw_engine::QueryResult;
use raw_formats::datagen::literal_for_selectivity;

use crate::data::Tables;

/// The paper's selectivity points (1%–100%).
pub const SELECTIVITIES: [f64; 7] = [0.01, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0];

/// One query of a stream. Integer literals make every shape `Eq + Hash`,
/// so answers can be memoized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// `SELECT MAX(col<col>) FROM <table> WHERE col1 < <x>` over one of the
    /// narrow table's copies (CSV, fbin, ibin, rzb): all hold the same rows.
    Max { table: &'static str, col: usize, x: i64 },
    /// `SELECT col2, COUNT(col1), SUM(col<sum>) FROM grouped WHERE col1 < <x>
    /// GROUP BY col2`.
    Grouped { sum: usize, x: i64 },
    /// The fig9 join: `SELECT MAX(file1.col11) FROM file1 JOIN file2 ON
    /// file1.col1 = file2.col1 WHERE file2.col2 < <x>`.
    Join { x: i64 },
    /// `SELECT MAX(pt), COUNT(pt) FROM muons WHERE pt > <gev>.0`.
    Muons { gev: u32 },
}

/// A normalized answer: rows of values, grouped answers sorted by key.
pub type Answer = Vec<Vec<Value>>;

impl Shape {
    /// A `Max` over `table` at the given selectivity.
    pub fn max(table: &'static str, col: usize, selectivity: f64) -> Shape {
        Shape::Max { table, col, x: literal_for_selectivity(selectivity) }
    }

    /// The SQL text the engine receives.
    pub fn sql(&self) -> String {
        match self {
            Shape::Max { table, col, x } => format!("SELECT MAX(col{col}) FROM {table} WHERE col1 < {x}"),
            Shape::Grouped { sum, x } => format!(
                "SELECT col2, COUNT(col1), SUM(col{sum}) FROM grouped WHERE col1 < {x} GROUP BY col2"
            ),
            Shape::Join { x } => format!(
                "SELECT MAX(file1.col11) FROM file1 JOIN file2 ON file1.col1 = file2.col1 \
                 WHERE file2.col2 < {x}"
            ),
            Shape::Muons { gev } => format!("SELECT MAX(pt), COUNT(pt) FROM muons WHERE pt > {gev}.0"),
        }
    }

    /// The shape's class: its kind and driving table. Timings are taken per
    /// class, since a mix of classes is multi-modal.
    pub fn class(&self) -> &'static str {
        match self {
            Shape::Max { table, .. } => table,
            Shape::Grouped { .. } => "grouped",
            Shape::Join { .. } => "join",
            Shape::Muons { .. } => "muons",
        }
    }

    /// Tables the query reads.
    pub fn tables(&self) -> &[&'static str] {
        match self {
            Shape::Max { table, .. } => std::slice::from_ref(table),
            Shape::Grouped { .. } => &["grouped"],
            Shape::Join { .. } => &["file1", "file2"],
            Shape::Muons { .. } => &["muons"],
        }
    }

    /// The answer, computed without the engine.
    pub fn reference(&self, t: &Tables) -> Answer {
        match *self {
            Shape::Max { col, x, .. } => {
                let max = t
                    .narrow_col(1)
                    .iter()
                    .zip(t.narrow_col(col))
                    .filter(|(k, _)| **k < x)
                    .map(|(_, v)| *v)
                    .max();
                vec![vec![max.map_or(Value::Null, Value::Int64)]]
            }
            Shape::Grouped { sum, x } => {
                let keys = t.group_keys.as_ref().expect("workload generated the grouped table");
                let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
                for ((k, g), v) in t.narrow_col(1).iter().zip(keys).zip(t.narrow_col(sum)) {
                    if *k < x {
                        let e = groups.entry(*g).or_default();
                        e.0 += 1;
                        e.1 = e.1.wrapping_add(*v);
                    }
                }
                groups
                    .into_iter()
                    .map(|(g, (n, s))| vec![Value::Int64(g), Value::Int64(n), Value::Int64(s)])
                    .collect()
            }
            Shape::Join { x } => {
                let (f1, f2) = t.join.as_ref().expect("workload generated the join pair");
                let col = |m: &raw_columnar::MemTable, c: usize| -> Vec<i64> {
                    m.column(c - 1).and_then(|c| c.as_i64()).expect("int column").to_vec()
                };
                let (k2, c2) = (col(f2, 1), col(f2, 2));
                let mut build: HashMap<i64, usize> = HashMap::new();
                for (k, v) in k2.iter().zip(&c2) {
                    if *v < x {
                        *build.entry(*k).or_default() += 1;
                    }
                }
                let max = col(f1, 1)
                    .iter()
                    .zip(col(f1, 11))
                    .filter(|(k, _)| build.contains_key(k))
                    .map(|(_, v)| v)
                    .max();
                vec![vec![max.map_or(Value::Null, Value::Int64)]]
            }
            Shape::Muons { gev } => {
                let pts = t.muon_pt.as_ref().expect("workload generated the muons");
                let cut = gev as f32;
                let hits: Vec<f32> = pts.iter().copied().filter(|p| *p > cut).collect();
                // MAX over a FLOAT32 column answers in FLOAT64.
                let max = hits.iter().copied().reduce(f32::max).map(f64::from);
                vec![vec![max.map_or(Value::Null, Value::Float64), Value::Int64(hits.len() as i64)]]
            }
        }
    }

    /// The engine's answer, normalized like [`Shape::reference`].
    pub fn normalize(&self, result: &QueryResult) -> Result<Answer, String> {
        let batch = &result.batch;
        let mut rows = Vec::with_capacity(batch.rows());
        for r in 0..batch.rows() {
            let row = (0..batch.num_columns())
                .map(|c| batch.value(r, c).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            rows.push(row);
        }
        if let Shape::Grouped { .. } = self {
            rows.sort_by_key(|row| match row.first() {
                Some(Value::Int64(k)) => *k,
                _ => i64::MIN,
            });
        }
        Ok(rows)
    }
}

/// Memoized reference answers (streams repeat shapes often).
#[derive(Default)]
pub struct Oracle {
    memo: HashMap<Shape, Answer>,
}

impl Oracle {
    /// The reference answer of `shape`.
    pub fn answer(&mut self, shape: &Shape, tables: &Tables) -> &Answer {
        self.memo.entry(*shape).or_insert_with(|| shape.reference(tables))
    }
}

/// A 64-bit fingerprint of an answer (FNV-1a over its debug rendering), so
/// runs can compare answers without keeping them.
pub fn fingerprint(answer: &Answer) -> u64 {
    format!("{answer:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}
