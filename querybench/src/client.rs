//! One closed-loop client: issues a query, times it (optionally with spans
//! around each layer call), checks the answer, and keeps a record.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use raw_engine::{plan, sql, QueryResult, QueryStats, RawEngine, Session};

use crate::data::Tables;
use crate::query::{fingerprint, Oracle, Shape};

/// One recorded span. Spans of one query share `query`; `parent` names the
/// span (by `id`) that caused this one. Times are nanoseconds since the
/// run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Query id, unique within the run.
    pub query: u64,
    /// Span id within the query (0 is the query itself).
    pub id: u32,
    /// The causing span.
    pub parent: Option<u32>,
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
}

/// The engine's own per-query measurements, in milliseconds or counts.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `QueryStats.wall`: plan + execute, without publication.
    pub wall_ms: f64,
    /// `scan.total`, summed over workers.
    pub scan_ms: f64,
    /// `scan.parsing` (tokenizing).
    pub tokenize_ms: f64,
    /// `scan.conversion`.
    pub convert_ms: f64,
    /// `scan.build_columns`.
    pub build_columns_ms: f64,
    /// Access-path compilation.
    pub compile_ms: f64,
    /// Fields the tokenizer visited.
    pub fields_tokenized: u64,
    /// Values converted from text.
    pub values_converted: u64,
    /// Rows scanned.
    pub rows_scanned: u64,
    /// Rows skipped by index pruning.
    pub rows_pruned: u64,
    /// Bytes read into the file pool.
    pub io_bytes: u64,
    /// Template-cache hits.
    pub template_hits: u64,
    /// Template-cache misses.
    pub template_misses: u64,
    /// Shred-pool hits.
    pub shred_hits: u64,
    /// Shred-pool misses.
    pub shred_misses: u64,
    /// Positional maps built.
    pub posmaps_built: u64,
    /// Shreds recorded.
    pub shreds_recorded: u64,
    /// Worker threads (1 on the serial path).
    pub workers: u64,
    /// Morsels (0 on the serial path).
    pub morsels: u64,
    /// Gate wait summed over morsels.
    pub gate_wait_ms: f64,
    /// `MorselTrace.exec` summed over morsels.
    pub busy_ms: f64,
    /// Largest per-worker sum of gate wait plus exec (parallel path only).
    pub critical_ms: Option<f64>,
    /// Operator time above the scan.
    pub ops_ms: f64,
    /// Slowest morsel's exec over the median morsel's (parallel path only).
    pub straggler: Option<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Layers {
    /// Extract the layer numbers of one query.
    pub fn of(stats: &QueryStats) -> Layers {
        let wall_ms = ms(stats.wall);
        let scan_ms = ms(stats.scan.total);
        let compile_ms = ms(stats.compile_time);
        let mut layers = Layers {
            wall_ms,
            scan_ms,
            tokenize_ms: ms(stats.scan.parsing),
            convert_ms: ms(stats.scan.conversion),
            build_columns_ms: ms(stats.scan.build_columns),
            compile_ms,
            fields_tokenized: stats.metrics.fields_tokenized,
            values_converted: stats.metrics.values_converted,
            rows_scanned: stats.metrics.rows_scanned,
            rows_pruned: stats.metrics.rows_pruned,
            io_bytes: stats.io_bytes,
            template_hits: stats.template_hits,
            template_misses: stats.template_misses,
            shred_hits: stats.shred_hits,
            shred_misses: stats.shred_misses,
            posmaps_built: stats.posmaps_built as u64,
            shreds_recorded: stats.shreds_recorded as u64,
            workers: stats.workers as u64,
            morsels: stats.morsels as u64,
            gate_wait_ms: ms(stats.gate_wait),
            // Serial path: what the scan and compilation leave of the wall.
            ops_ms: wall_ms - scan_ms - compile_ms,
            ..Layers::default()
        };
        if let Some(trace) = &stats.trace {
            let mut per_worker = vec![0.0; trace.workers.max(1)];
            let mut execs: Vec<f64> = Vec::with_capacity(trace.morsels.len());
            layers.ops_ms = 0.0;
            for m in &trace.morsels {
                let exec = ms(m.exec);
                if m.worker >= per_worker.len() {
                    per_worker.resize(m.worker + 1, 0.0);
                }
                per_worker[m.worker] += ms(m.gate_wait) + exec;
                layers.ops_ms += exec - ms(m.profile.total);
                execs.push(exec);
            }
            layers.busy_ms = execs.iter().sum();
            layers.critical_ms = Some(per_worker.iter().copied().fold(0.0, f64::max));
            execs.sort_by(f64::total_cmp);
            if let Some(max) = execs.last() {
                let median = execs[execs.len() / 2];
                if median > 0.0 {
                    layers.straggler = Some(max / median);
                }
            }
        }
        layers
    }

    /// Plan and merge time outside any morsel: wall minus the critical
    /// worker's gate wait plus exec (parallel path only).
    pub fn serial_ms(&self) -> Option<f64> {
        self.critical_ms.map(|c| self.wall_ms - c)
    }
}

/// The spans of one traced query, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreTimes {
    /// `sql::parse`.
    pub parse_ms: f64,
    /// Catalog snapshot plus `plan::resolve`.
    pub resolve_ms: f64,
    /// `Session::execute`.
    pub execute_ms: f64,
}

/// Sum-check tolerance: `max(SUM_TOLERANCE_MS, SUM_TOLERANCE_SHARE x
/// latency)`. See [`QueryRecord::sum_check`].
pub const SUM_TOLERANCE_MS: f64 = 0.25;
/// See [`SUM_TOLERANCE_MS`].
pub const SUM_TOLERANCE_SHARE: f64 = 0.02;

/// One query's outcome.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Client index.
    pub session: usize,
    /// The query shape.
    pub shape: Shape,
    /// No table of the query had been touched by this engine before.
    pub first: bool,
    /// Spans were recorded for this query.
    pub traced: bool,
    /// Client-measured latency of the query call(s).
    pub latency_ms: f64,
    /// The engine answered and the answer matched the reference.
    pub correct: bool,
    /// Fingerprint of the engine's answer (0 on error).
    pub fingerprint: u64,
    /// The engine's measurements (on success).
    pub layers: Option<Layers>,
    /// Span durations (traced queries only).
    pub core: Option<CoreTimes>,
}

impl QueryRecord {
    /// Whether the latency split holds together (untraced queries pass).
    /// The publish, serial and operator parts are remainders, so only the
    /// independently measured figures are checked, each within the
    /// tolerance: the `sql.parse`, `plan.resolve` and `session.execute`
    /// spans add up to the root span; `QueryStats.wall` fits in the execute
    /// span; and inside the wall, the critical worker's gate wait plus exec
    /// (parallel path) or `scan.total` plus compilation (serial path) fit,
    /// and the morsels' scan profiles fit in their exec time.
    pub fn sum_check(&self) -> bool {
        let (Some(core), Some(l)) = (self.core, self.layers.as_ref()) else { return true };
        let tol = SUM_TOLERANCE_MS.max(SUM_TOLERANCE_SHARE * self.latency_ms);
        let spans = core.parse_ms + core.resolve_ms + core.execute_ms;
        let inside_wall = match l.critical_ms {
            Some(critical) => critical <= l.wall_ms + tol && l.ops_ms >= -tol,
            None => l.scan_ms + l.compile_ms <= l.wall_ms + tol,
        };
        (self.latency_ms - spans).abs() <= tol && l.wall_ms <= core.execute_ms + tol && inside_wall
    }
}

/// The tables one engine has touched, shared by its sessions.
#[derive(Default)]
pub struct Touched(Mutex<HashSet<&'static str>>);

impl Touched {
    /// Mark `tables` touched; true when none of them had been.
    pub fn claim(&self, tables: &[&'static str]) -> bool {
        let mut seen = self.0.lock();
        let first = tables.iter().all(|t| !seen.contains(t));
        seen.extend(tables.iter().copied());
        first
    }
}

/// A closed-loop client.
pub struct Client<'a> {
    index: usize,
    tables: &'a Tables,
    oracle: Oracle,
    origin: Instant,
    next_query: u64,
    /// Every query this client issued.
    pub records: Vec<QueryRecord>,
    /// Every span this client recorded.
    pub spans: Vec<Span>,
}

impl<'a> Client<'a> {
    /// Client `index`; span times are relative to `origin`.
    pub fn new(index: usize, tables: &'a Tables, origin: Instant) -> Client<'a> {
        Client {
            index,
            tables,
            oracle: Oracle::default(),
            origin,
            next_query: 0,
            records: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `shape` on `session`, check the answer, and record the outcome.
    pub fn run(&mut self, session: &Session, touched: &Touched, shape: Shape, traced: bool) {
        let first = touched.claim(shape.tables());
        let text = shape.sql();
        let query = ((self.index as u64) << 32) | self.next_query;
        self.next_query += 1;

        let (result, core, latency_ms) = if traced {
            let (result, core) = self.traced_query(session, &text, query);
            let latency_ms =
                self.spans.last().map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e6);
            (result, core, latency_ms)
        } else {
            let start = Instant::now();
            let result = session.query(&text);
            (result.map_err(|e| e.to_string()), None, ms(start.elapsed()))
        };

        let (correct, fp, layers) = match result {
            Ok(r) => match shape.normalize(&r) {
                Ok(answer) => {
                    let ok = &answer == self.oracle.answer(&shape, self.tables);
                    if !ok {
                        eprintln!("wrong answer for `{text}`: got {answer:?}");
                    }
                    (ok, fingerprint(&answer), Some(Layers::of(&r.stats)))
                }
                Err(e) => {
                    eprintln!("unreadable answer for `{text}`: {e}");
                    (false, 0, Some(Layers::of(&r.stats)))
                }
            },
            Err(e) => {
                eprintln!("query `{text}` failed: {e}");
                (false, 0, None)
            }
        };
        self.records.push(QueryRecord {
            session: self.index,
            shape,
            first,
            traced,
            latency_ms,
            correct,
            fingerprint: fp,
            layers,
            core,
        });
    }

    /// Run one query through the layer calls `Session::query` makes, with a
    /// span around each. The root span (pushed last) is the latency.
    fn traced_query(
        &mut self,
        session: &Session,
        text: &str,
        query: u64,
    ) -> (Result<QueryResult, String>, Option<CoreTimes>) {
        let t0 = Instant::now();
        let p0 = Instant::now();
        let stmt = sql::parse(text);
        let p1 = Instant::now();
        let resolved = stmt.and_then(|stmt| {
            let catalog = session.catalog();
            plan::resolve(&stmt, &catalog)
        });
        let r1 = Instant::now();
        let (result, e0, e1) = match resolved {
            Ok(resolved) => {
                let e0 = Instant::now();
                let result = session.execute(&resolved);
                (result, e0, Instant::now())
            }
            Err(e) => (Err(e), r1, r1),
        };
        let t1 = Instant::now();
        let span = |id, name, a: Instant, b: Instant| Span {
            query,
            id,
            parent: (id != 0).then_some(0),
            name,
            start_ns: self.ns(a),
            end_ns: self.ns(b),
        };
        let spans = [
            span(1, "sql.parse", p0, p1),
            span(2, "plan.resolve", p1, r1),
            span(3, "session.execute", e0, e1),
            span(0, "query", t0, t1),
        ];
        self.spans.extend(spans);
        let core =
            CoreTimes { parse_ms: ms(p1 - p0), resolve_ms: ms(r1 - p1), execute_ms: ms(e1 - e0) };
        (result.map_err(|e| e.to_string()), Some(core))
    }
}

/// Engine-lifetime counters, read when an engine is retired.
#[derive(Debug, Clone, Default)]
pub struct EngineRecord {
    /// Queries answered.
    pub queries: u64,
    /// Queries that ran morsel-parallel.
    pub parallel_queries: u64,
    /// File-pool hits.
    pub file_hits: u64,
    /// File-pool misses.
    pub file_misses: u64,
    /// Time workers waited for streamed chunks, ns.
    pub chunk_wait_ns: u64,
    /// `.rzb` blocks decoded.
    pub rzb_blocks: u64,
    /// `.rzb` decode time, ns.
    pub rzb_decode_ns: u64,
    /// Shreds evicted from the pool.
    pub shred_evictions: u64,
    /// Heap bytes of every positional map the engine holds.
    pub posmap_bytes: u64,
}

impl EngineRecord {
    /// Read `engine`'s counters; `tables` are the registered table names.
    pub fn of(engine: &RawEngine, tables: &[&str]) -> EngineRecord {
        use std::sync::atomic::Ordering::Relaxed;
        let m = engine.metrics();
        EngineRecord {
            queries: m.queries.load(Relaxed),
            parallel_queries: m.parallel_queries.load(Relaxed),
            file_hits: m.file_pool_hits.load(Relaxed),
            file_misses: m.file_pool_misses.load(Relaxed),
            chunk_wait_ns: m.chunk_wait_nanos.load(Relaxed),
            rzb_blocks: m.rzb_blocks_decoded.load(Relaxed),
            rzb_decode_ns: m.rzb_decode_nanos.load(Relaxed),
            shred_evictions: engine.shred_pool_stats().evictions,
            posmap_bytes: tables
                .iter()
                .filter_map(|t| engine.posmap(t))
                .map(|p| p.heap_bytes() as u64)
                .sum(),
        }
    }
}
