//! EXPLAIN ANALYZE end-to-end: a parallel cold CSV query renders its plan
//! annotated with measured actuals — per-operator rows/prune counts, the
//! parallel run shape, the totals line, and the per-morsel worker/gate-wait
//! table — and the engine-lifetime metrics registry reflects the run.

use raw::columnar::{DataType, Schema};
use raw::engine::{AccessMode, EngineConfig, RawEngine, TableDef, TableSource};
use raw::formats::datagen;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("raw_expan_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

const ROWS: usize = 4_000;
const COLS: usize = 6;

fn engine_over(dir: &TempDir) -> RawEngine {
    let table = datagen::int_table(97, ROWS, COLS);
    raw::formats::csv::writer::write_file(&table, &dir.path("t.csv")).unwrap();
    let engine = RawEngine::new(EngineConfig {
        parallelism: 4,
        mode: AccessMode::Jit,
        morsel_bytes: 2 << 10,
        read_chunk_bytes: 4096, // cold streamed: morsels dispatch availability-gated
        cache_shreds: false,    // keep warm re-runs on the parallel file path
        ..EngineConfig::from_env()
    });
    engine.register_table(TableDef {
        name: "t_csv".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Csv { path: dir.path("t.csv") },
    });
    engine
}

/// The acceptance shape: per-operator actual rows/time annotations, the
/// parallel line's worker/morsel actuals, and one per-morsel row per morsel
/// with its worker and gate-wait.
#[test]
fn parallel_cold_csv_explain_analyze_shows_actuals_and_morsel_table() {
    let dir = TempDir::new("csv");
    let engine = engine_over(&dir);
    let x = datagen::literal_for_selectivity(0.4);
    let sql = format!("SELECT col2, col5 FROM t_csv WHERE col1 < {x}");

    let text = engine.explain_analyze(&sql).unwrap();

    // Per-operator actuals on the plan lines.
    assert!(text.contains("(actual: rows_scanned="), "scan line annotated:\n{text}");
    assert!(text.contains("(actual: rows_out="), "projection line annotated:\n{text}");
    assert!(text.contains("(actual: workers="), "parallel line annotated:\n{text}");
    assert!(text.contains("totals: wall="), "totals line present:\n{text}");

    // The per-morsel table: header plus one line per morsel, each carrying a
    // worker id and the csv format label.
    assert!(text.contains("morsel  worker  format"), "morsel table header:\n{text}");
    let morsel_lines = text.lines().filter(|l| l.split_whitespace().nth(2) == Some("csv")).count();
    assert!(morsel_lines >= 2, "expected >=2 csv morsel rows:\n{text}");

    // The same query through `query()` exposes the structured trace, and
    // the run shows up in the engine-lifetime registry.
    let result = engine.query(&sql).unwrap();
    let trace = result.stats.trace.as_ref().expect("parallel trace");
    assert_eq!(trace.morsels.len(), result.stats.morsels);
    assert!(trace.workers_used() >= 1);

    let metric = |name: &str| {
        engine
            .metrics()
            .snapshot()
            .into_iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("metric {name} missing from snapshot"))
    };
    assert_eq!(metric("queries"), 2, "explain_analyze + query both counted");
    assert_eq!(metric("parallel_queries"), 2);
    assert!(metric("morsels_dispatched") >= 4, "both runs dispatched morsels");
    assert!(metric("bytes_from_disk") > 0, "cold run charged disk bytes");
    assert_eq!(metric("morsels_failed"), 0);
}

/// Serial runs (parallelism 1) render annotations without a morsel table
/// and count as non-parallel queries in the registry.
#[test]
fn serial_explain_analyze_has_no_morsel_table() {
    let dir = TempDir::new("serial");
    let table = datagen::int_table(97, ROWS, COLS);
    raw::formats::csv::writer::write_file(&table, &dir.path("t.csv")).unwrap();
    let engine = RawEngine::new(EngineConfig { parallelism: 1, ..EngineConfig::from_env() });
    engine.register_table(TableDef {
        name: "t_csv".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Csv { path: dir.path("t.csv") },
    });

    let text = engine.explain_analyze("SELECT MAX(col3) FROM t_csv WHERE col1 < 100").unwrap();
    assert!(text.contains("(actual: rows_scanned="), "scan annotated:\n{text}");
    assert!(text.contains("totals: wall="), "totals present:\n{text}");
    assert!(!text.contains("morsel  worker"), "no morsel table on serial runs:\n{text}");

    let snapshot = engine.metrics().snapshot();
    let queries = snapshot.iter().find(|(k, _)| *k == "queries").unwrap().1;
    let parallel = snapshot.iter().find(|(k, _)| *k == "parallel_queries").unwrap().1;
    assert_eq!(queries, 1);
    assert_eq!(parallel, 0);
}

/// EXPLAIN shows the plan that runs: at parallelism 4 with small morsels it
/// carries the `parallel:` line, whose morsel count is the one the query
/// then reports; at parallelism 1 nothing is split, the plan has no
/// `parallel:` line, and the query runs (and is traced) as one morsel.
#[test]
fn explain_shows_the_plan_that_runs() {
    let dir = TempDir::new("plan");
    let engine = engine_over(&dir);
    let sql = "SELECT MAX(col3) FROM t_csv WHERE col1 < 100";

    let plan = engine.explain(sql).unwrap();
    let line = plan.iter().find(|l| l.starts_with("parallel:")).expect("split plan");
    let result = engine.query(sql).unwrap();
    assert!(result.stats.morsels >= 2, "query split: {}", result.stats.morsels);
    assert!(
        line.starts_with(&format!("parallel: {} morsels x 4 threads", result.stats.morsels)),
        "EXPLAIN's morsel count matches the run: {line}"
    );

    engine.set_config(EngineConfig { parallelism: 1, ..engine.config() });
    let plan = engine.explain(sql).unwrap();
    assert!(!plan.iter().any(|l| l.starts_with("parallel:")), "unsplit plan: {plan:?}");
    let result = engine.query(sql).unwrap();
    assert_eq!(result.stats.morsels, 1);
    assert_eq!(result.stats.workers, 1);
    let trace = result.stats.trace.as_ref().expect("every query is traced");
    assert_eq!(trace.morsels.len(), 1);
}
