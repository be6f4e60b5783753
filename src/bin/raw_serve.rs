//! `raw-serve` — a thin front end over one shared engine.
//!
//! Spins up a single long-lived [`RawEngine`] and serves queries from many
//! clients, one [`Session`] per connection — the server shape behind the
//! paper's "queries arrive as the data is" workflow and the concurrency
//! contract in `CONCURRENCY.md` § "Sessions and the shared cache layer".
//! Every connection shares the engine's caches (file buffers, positional
//! maps, shreds, templates, statistics): the first client to touch a cold
//! file pays the read, everyone after runs warm.
//!
//! Modes:
//!
//! - default: a line-oriented REPL on stdin/stdout (the driver session);
//! - `--socket <path>`: a unix-domain listener; each accepted connection
//!   gets its own thread and its own session, all over one engine.
//!
//! Protocol (identical in both modes), one command per line:
//!
//! ```text
//! SELECT ...                 run a query, print rows + a summary line
//! .register <name> <path> <ncols>   register an int64 table (by extension)
//! .explain <sql>             print the plan without running it
//! .metrics                   engine-wide counters
//! .session                   this session's counters
//! .tables                    registered tables
//! .help                      this text
//! .quit                      close the connection (socket) / exit (stdin)
//! ```
//!
//! Table flags at startup: `--table name=path:ncols` (repeatable),
//! `--parallelism N`, `--admission N` (concurrent-query cap).

use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

use raw::columnar::{DataType, Schema};
use raw::engine::{EngineConfig, RawEngine, Session, TableDef, TableSource};

/// Rows printed per query before eliding the rest.
const MAX_PRINT_ROWS: usize = 20;

fn usage() -> ! {
    eprintln!(
        "usage: raw-serve [--socket PATH] [--table NAME=PATH:NCOLS]... \
         [--parallelism N] [--admission N]"
    );
    std::process::exit(2);
}

fn source_for(path: &str) -> Result<TableSource, String> {
    let p = std::path::PathBuf::from(path);
    // `.rzb` containers are transparent: `t.csv.rzb` is a CSV table whose
    // blocks decompress inside the file pool.
    let logical = path.strip_suffix(".rzb").unwrap_or(path);
    match std::path::Path::new(logical).extension().and_then(|e| e.to_str()) {
        Some("csv") => Ok(TableSource::Csv { path: p }),
        Some("fbin") => Ok(TableSource::Fbin { path: p }),
        Some("ibin") => Ok(TableSource::Ibin { path: p }),
        other => Err(format!("unsupported table extension {other:?} (csv/fbin/ibin, or .rzb)")),
    }
}

/// Parse `name=path:ncols` into a catalog entry of int64 columns.
fn table_def(spec: &str) -> Result<TableDef, String> {
    let (name, rest) = spec.split_once('=').ok_or("expected NAME=PATH:NCOLS")?;
    let (path, ncols) = rest.rsplit_once(':').ok_or("expected NAME=PATH:NCOLS")?;
    let ncols: usize = ncols.parse().map_err(|_| format!("bad column count {ncols:?}"))?;
    Ok(TableDef {
        name: name.to_owned(),
        schema: Schema::uniform(ncols, DataType::Int64),
        source: source_for(path)?,
    })
}

/// One command in, response text out. `Ok(false)` means the client quit.
fn handle(session: &Session, engine: &RawEngine, line: &str, out: &mut String) -> bool {
    let line = line.trim();
    if line.is_empty() {
        return true;
    }
    match line.split_once(' ').map_or((line, ""), |(c, rest)| (c, rest.trim())) {
        (".quit", _) | (".exit", _) => return false,
        (".help", _) => {
            out.push_str(
                "commands: SELECT ... | .register <name> <path> <ncols> | \
                 .explain <sql> | .metrics | .session | .tables | .quit\n",
            );
        }
        (".metrics", _) => out.push_str(&engine.metrics().report()),
        (".session", _) => out.push_str(&session.metrics().report()),
        (".tables", _) => {
            let catalog = session.catalog();
            let mut names = catalog.table_names();
            names.sort();
            for name in names {
                out.push_str(name);
                out.push('\n');
            }
        }
        (".register", spec) => {
            let mut parts = spec.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(name), Some(path), Some(ncols)) => {
                    match table_def(&format!("{name}={path}:{ncols}")) {
                        Ok(def) => {
                            session.register_table(def);
                            out.push_str(&format!("registered {name}\n"));
                        }
                        Err(e) => out.push_str(&format!("error: {e}\n")),
                    }
                }
                _ => out.push_str("error: usage: .register <name> <path> <ncols>\n"),
            }
        }
        (".explain", sql) => match session.explain(sql) {
            Ok(lines) => {
                for l in lines {
                    out.push_str(&l);
                    out.push('\n');
                }
            }
            Err(e) => out.push_str(&format!("error: {e}\n")),
        },
        _ => match session.query(line) {
            Ok(r) => {
                out.push_str(&r.column_names.join(","));
                out.push('\n');
                let rows = r.batch.rows();
                for row in 0..rows.min(MAX_PRINT_ROWS) {
                    let cells: Vec<String> = (0..r.column_names.len())
                        .map(|col| match r.value(row, col) {
                            Ok(v) => v.to_string(),
                            Err(_) => "?".into(),
                        })
                        .collect();
                    out.push_str(&cells.join(","));
                    out.push('\n');
                }
                if rows > MAX_PRINT_ROWS {
                    out.push_str(&format!("... ({} more rows)\n", rows - MAX_PRINT_ROWS));
                }
                out.push_str(&format!(
                    "-- {} rows in {:.3} ms ({} bytes from disk, {} workers)\n",
                    rows,
                    r.stats.wall.as_secs_f64() * 1e3,
                    r.stats.io_bytes,
                    r.stats.workers,
                ));
            }
            Err(e) => out.push_str(&format!("error: {e}\n")),
        },
    }
    true
}

/// Serve one client over any line-oriented byte stream.
fn serve<R: BufRead, W: Write>(session: Session, engine: &RawEngine, input: R, mut output: W) {
    for line in input.lines() {
        let Ok(line) = line else { break };
        let mut out = String::new();
        let keep_going = handle(&session, engine, &line, &mut out);
        if output.write_all(out.as_bytes()).is_err() || output.flush().is_err() {
            break;
        }
        if !keep_going {
            break;
        }
    }
}

fn main() {
    let mut socket: Option<String> = None;
    let mut defs: Vec<TableDef> = Vec::new();
    let mut config = EngineConfig::from_env();

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--socket" => socket = Some(value()),
            "--table" => match table_def(&value()) {
                Ok(def) => defs.push(def),
                Err(e) => {
                    eprintln!("--table: {e}");
                    std::process::exit(2);
                }
            },
            "--parallelism" => config.parallelism = value().parse().unwrap_or_else(|_| usage()),
            "--admission" => config.admission_queries = value().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }

    let engine = Arc::new(RawEngine::new(config));
    for def in defs {
        eprintln!("registered table {}", def.name);
        engine.register_table(def);
    }

    match socket {
        None => {
            // Driver mode: one session over stdin/stdout.
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve(engine.session(), &engine, stdin.lock(), stdout.lock());
        }
        Some(path) => {
            // Server mode: one thread + one session per accepted connection.
            std::fs::remove_file(&path).ok();
            let listener = match std::os::unix::net::UnixListener::bind(&path) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("bind {path}: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!("raw-serve listening on {path}");
            for conn in listener.incoming() {
                let Ok(conn) = conn else { continue };
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let session = engine.session();
                    let reader = BufReader::new(match conn.try_clone() {
                        Ok(c) => c,
                        Err(_) => return,
                    });
                    serve(session, &engine, reader, conn);
                });
            }
        }
    }
}
