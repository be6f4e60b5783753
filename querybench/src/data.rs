//! Seeded input generation: the raw files every workload queries, plus the
//! in-memory tables the reference answers are computed from.
//!
//! Every table is a pure function of `(seed, scale)`. The engine only ever
//! sees the files written here and the SQL text of the query stream.

use std::path::{Path, PathBuf};

use raw_columnar::{Column, DataType, Field, MemTable, Schema};
use raw_engine::{EngineConfig, TableDef, TableSource};
use raw_formats::datagen;
use raw_higgs::DatasetConfig;

/// Columns of the integer tables (paper §4.2).
pub const COLS: usize = 30;
/// Distinct `col2` keys of the grouped table.
pub const GROUPS: i64 = 1024;

/// Table sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Rows of the 30-column integer tables (narrow, grouped, fbin, ibin, rzb).
    pub narrow_rows: usize,
    /// Rows of each side of the join pair.
    pub join_rows: usize,
    /// Events of the rootsim file.
    pub events: usize,
}

impl Scale {
    /// The measured scale: a 200k x 30 CSV is ~59 MB.
    pub const FULL: Scale = Scale { narrow_rows: 200_000, join_rows: 60_000, events: 120_000 };
    /// A scale small enough for smoke tests.
    pub const TINY: Scale = Scale { narrow_rows: 3_000, join_rows: 1_500, events: 1_500 };

    /// Bytes of one fully shredded 30-column integer table: the shred-pool
    /// working set of one table when every column is cached.
    pub fn full_column_bytes(&self) -> usize {
        self.narrow_rows * COLS * std::mem::size_of::<i64>()
    }
}

/// Derive an independent sub-seed (splitmix64 finalizer).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The in-memory copy of every generated table a workload needs. Reference
/// answers are computed from these, never from an engine.
#[derive(Default)]
pub struct Tables {
    /// The narrow 30-column table (CSV, fbin, ibin and rzb hold its rows).
    pub narrow: Option<MemTable>,
    /// `col2` of the grouped table (its other columns equal `narrow`'s).
    pub group_keys: Option<Vec<i64>>,
    /// The join pair: `file1` and its row-shuffled twin `file2`.
    pub join: Option<(MemTable, MemTable)>,
    /// `pt` of every muon, in file order.
    pub muon_pt: Option<Vec<f32>>,
}

impl Tables {
    /// The narrow table.
    pub fn narrow(&self) -> &MemTable {
        self.narrow.as_ref().expect("workload generated the narrow table")
    }

    /// Integer column `col` (1-based, as in SQL) of the narrow table.
    pub fn narrow_col(&self, col: usize) -> &[i64] {
        self.narrow().column(col - 1).and_then(|c| c.as_i64()).expect("int column")
    }
}

/// The files one workload registers, by table name.
pub struct Files {
    /// `(table name, schema, source)` triples to register on each engine.
    pub tables: Vec<(String, Schema, TableSource)>,
}

impl Files {
    /// The catalog entries of the tables in `names`.
    pub fn defs(&self, names: &[&str]) -> Vec<TableDef> {
        self.tables
            .iter()
            .filter(|(n, _, _)| names.contains(&n.as_str()))
            .map(|(name, schema, source)| TableDef {
                name: name.clone(),
                schema: schema.clone(),
                source: source.clone(),
            })
            .collect()
    }
}

/// What to generate.
#[derive(Debug, Clone, Copy, Default)]
pub struct Needs {
    /// `narrow` CSV.
    pub narrow_csv: bool,
    /// `grouped` CSV.
    pub grouped_csv: bool,
    /// `narrow_fbin`, `narrow_ibin` and `narrow_rzb`.
    pub binary_and_rzb: bool,
    /// `file1` / `file2` join pair.
    pub join: bool,
    /// `muons` rootsim collection.
    pub muons: bool,
}

fn int_schema() -> Schema {
    Schema::uniform(COLS, DataType::Int64)
}

fn err(what: &str, path: &Path, e: impl std::fmt::Display) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Write every file in `needs` under `dir` and return the in-memory tables
/// plus the catalog entries.
pub fn generate(
    seed: u64,
    scale: Scale,
    needs: Needs,
    dir: &Path,
) -> Result<(Tables, Files), String> {
    std::fs::create_dir_all(dir).map_err(|e| err("create", dir, e))?;
    let mut tables = Tables::default();
    let mut files = Vec::new();
    let csv = |t: &MemTable, name: &str| -> Result<PathBuf, String> {
        let path = dir.join(name);
        raw_formats::csv::writer::write_file(t, &path).map_err(|e| err("write", &path, e))?;
        Ok(path)
    };

    if needs.narrow_csv || needs.grouped_csv || needs.binary_and_rzb {
        let narrow = datagen::int_table(mix(seed, 1), scale.narrow_rows, COLS);
        if needs.narrow_csv || needs.binary_and_rzb {
            let path = csv(&narrow, "narrow.csv")?;
            files.push((
                "narrow".to_owned(),
                int_schema(),
                TableSource::Csv { path: path.clone() },
            ));
            if needs.binary_and_rzb {
                let rzb = dir.join("narrow.csv.rzb");
                let block = EngineConfig::default().rzb_block_bytes;
                raw_formats::rzb::write_file(&path, &rzb, block)
                    .map_err(|e| err("write", &rzb, e))?;
                files.push(("narrow_rzb".to_owned(), int_schema(), TableSource::Csv { path: rzb }));

                let fbin = dir.join("narrow.fbin");
                raw_formats::fbin::write_file(&narrow, &fbin)
                    .map_err(|e| err("write", &fbin, e))?;
                files.push((
                    "narrow_fbin".to_owned(),
                    int_schema(),
                    TableSource::Fbin { path: fbin },
                ));

                // Sorted by col1 so the embedded page index can prune.
                let ibin = dir.join("narrow_sorted.ibin");
                let sorted = datagen::sorted_copy(&narrow, 0);
                raw_formats::ibin::write_file(&sorted, &ibin, 4096, Some(0))
                    .map_err(|e| err("write", &ibin, e))?;
                files.push((
                    "narrow_ibin".to_owned(),
                    int_schema(),
                    TableSource::Ibin { path: ibin },
                ));
            }
        }
        if needs.grouped_csv {
            // The narrow table with col2 re-keyed to GROUPS seeded keys.
            let offset = (mix(seed, 2) % GROUPS as u64) as i64;
            let keys: Vec<i64> =
                (0..scale.narrow_rows as i64).map(|i| (i * 37 + offset) % GROUPS).collect();
            let mut cols = narrow.columns().to_vec();
            cols[1] = Column::Int64(keys.clone());
            let grouped = MemTable::new(int_schema(), cols).map_err(|e| e.to_string())?;
            let path = csv(&grouped, "grouped.csv")?;
            files.push(("grouped".to_owned(), int_schema(), TableSource::Csv { path }));
            tables.group_keys = Some(keys);
        }
        tables.narrow = Some(narrow);
    }

    if needs.join {
        let file1 = datagen::int_table(mix(seed, 3), scale.join_rows, COLS);
        let file2 = datagen::shuffled_copy(&file1, mix(seed, 4));
        for (name, t) in [("file1", &file1), ("file2", &file2)] {
            let path = csv(t, &format!("{name}.csv"))?;
            files.push((name.to_owned(), int_schema(), TableSource::Csv { path }));
        }
        tables.join = Some((file1, file2));
    }

    if needs.muons {
        let config =
            DatasetConfig { events: scale.events, seed: mix(seed, 5), ..Default::default() };
        let ds = raw_higgs::generate_dataset(config, dir).map_err(|e| err("write", dir, e))?;
        let events = raw_higgs::datagen::generate_events(&config);
        tables.muon_pt = Some(events.iter().flat_map(|e| e.muons.iter().map(|m| m.pt)).collect());
        let schema = Schema::new(vec![
            Field::new("eventID", DataType::Int64),
            Field::new("pt", DataType::Float32),
            Field::new("eta", DataType::Float32),
        ]);
        let source = TableSource::RootCollection {
            path: ds.root_path,
            collection: "muons".into(),
            parent_scalar: Some("eventID".into()),
        };
        files.push(("muons".to_owned(), schema, source));
    }

    // Flush the new files to disk, so write-back does not overlap the
    // measured loop.
    for entry in std::fs::read_dir(dir).map_err(|e| err("list", dir, e))? {
        let path = entry.map_err(|e| err("list", dir, e))?.path();
        std::fs::File::open(&path).and_then(|f| f.sync_all()).map_err(|e| err("sync", &path, e))?;
    }
    Ok((tables, Files { tables: files }))
}
