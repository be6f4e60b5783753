//! The three workloads: how each builds engines, drives sessions, and
//! consumes its query stream.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use raw_engine::{EngineConfig, RawEngine};

use crate::client::{Client, EngineRecord, QueryRecord, Span, Touched};
use crate::data::{self, Files, Needs, Scale, Tables};
use crate::stream::{ColdMix, Explore, SharedClient};

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One session, repeated episodes of a cold query plus follow-ups on a
    /// fresh engine over the narrow CSV.
    Explore,
    /// One session; each shape gets a fresh engine, a cold query and a warm
    /// query.
    ColdMix,
    /// `nproc` sessions on one engine under shred-pool pressure.
    SharedSessions,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Explore, Workload::ColdMix, Workload::SharedSessions];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::ColdMix => "cold_mix",
            Workload::SharedSessions => "shared_sessions",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn needs(self) -> Needs {
        match self {
            Workload::Explore => Needs { narrow_csv: true, ..Needs::default() },
            Workload::ColdMix => Needs {
                grouped_csv: true,
                binary_and_rzb: true,
                join: true,
                muons: true,
                ..Needs::default()
            },
            Workload::SharedSessions => {
                Needs { narrow_csv: true, grouped_csv: true, ..Needs::default() }
            }
        }
    }
}

/// When a run stops issuing queries.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this much wall time (checked before each query).
    Time(Duration),
    /// After this many episodes (`explore`), rounds (`cold_mix`) or queries
    /// per session on the long-lived engine (`shared_sessions`).
    Units(usize),
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the data and the query stream.
    pub seed: u64,
    /// Table sizes.
    pub scale: Scale,
    /// When to stop.
    pub limit: Limit,
    /// Record spans (every other episode, shape pair, cold start or
    /// long-lived query, so the same run also measures untraced latency).
    pub trace: bool,
    /// Where the generated files go (removed afterwards).
    pub work_dir: PathBuf,
    /// Engine worker threads and `shared_sessions` clients.
    pub threads: usize,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Every query issued, per client in issue order, clients in order.
    pub records: Vec<QueryRecord>,
    /// Every retired engine's counters.
    pub engines: Vec<EngineRecord>,
    /// Engine set-up times (construction plus table registration).
    pub setups: Vec<Duration>,
    /// Wall time of the query loop.
    pub wall: Duration,
    /// Every recorded span.
    pub spans: Vec<Span>,
    /// Peak resident set during the query loop, MiB.
    pub peak_rss_mb: f64,
    /// Clients that issued queries.
    pub sessions: usize,
}

/// How often each engine is set up in a row; the last one serves. One
/// set-up sample is the whole batch's time over its size, so timer and
/// allocator noise average out over the batch.
pub const SETUP_REPEATS: usize = 50;

struct Deadline {
    start: Instant,
    limit: Limit,
}

impl Deadline {
    /// Whether the run is over after `units` completed units.
    fn done(&self, units: usize) -> bool {
        match self.limit {
            Limit::Time(_) => self.time_up(),
            Limit::Units(n) => units >= n,
        }
    }

    /// Whether a time limit has passed (checked before each query, so a
    /// timed run may stop inside a unit).
    fn time_up(&self) -> bool {
        matches!(self.limit, Limit::Time(d) if self.start.elapsed() >= d)
    }
}

/// Build an engine over `tables` [`SETUP_REPEATS`] times, record the mean
/// time of one construction plus registration over the batch, and keep the
/// last engine. The others are dropped after the clock stops.
fn set_up(
    config: &EngineConfig,
    files: &Files,
    tables: &[&str],
    setups: &mut Vec<Duration>,
) -> RawEngine {
    let defs = files.defs(tables);
    let mut engines = Vec::with_capacity(SETUP_REPEATS);
    let start = Instant::now();
    for _ in 0..SETUP_REPEATS {
        let e = RawEngine::new(config.clone());
        for def in &defs {
            e.register_table(def.clone());
        }
        engines.push(e);
    }
    setups.push(start.elapsed() / SETUP_REPEATS as u32);
    engines.pop().expect("SETUP_REPEATS > 0")
}

/// Generate the inputs of `cfg`, warm the process up on a separate stream,
/// run the measured query loop, and remove the inputs.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let dir = cfg.work_dir.clone();
    let generated = data::generate(cfg.seed, cfg.scale, cfg.workload.needs(), &dir);
    let out = generated.map(|(tables, files)| {
        // One unmeasured unit on a stream of its own: allocator and
        // page-cache state settle, while every measured engine still starts
        // cold.
        let warm_up = RunConfig {
            seed: data::mix(cfg.seed, 99),
            limit: Limit::Units(1),
            trace: false,
            ..cfg.clone()
        };
        let _ = workload_loop(&warm_up, &tables, &files);
        reset_peak_rss();
        let mut out = workload_loop(cfg, &tables, &files);
        out.peak_rss_mb = peak_rss_mb();
        out
    });
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn workload_loop(cfg: &RunConfig, tables: &Tables, files: &Files) -> RunOutput {
    match cfg.workload {
        Workload::Explore => explore(cfg, tables, files),
        Workload::ColdMix => cold_mix(cfg, tables, files),
        Workload::SharedSessions => shared_sessions(cfg, tables, files),
    }
}

/// The engine configuration every workload starts from: the defaults, with
/// `parallelism` set to the cores the benchmark is given. Built here, never
/// from the environment.
pub fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig { parallelism: threads, ..EngineConfig::default() }
}

fn explore(cfg: &RunConfig, tables: &Tables, files: &Files) -> RunOutput {
    let config = engine_config(cfg.threads);
    let mut out = RunOutput { sessions: 1, ..RunOutput::default() };
    let mut stream = Explore::new(cfg.seed);
    let origin = Instant::now();
    let deadline = Deadline { start: origin, limit: cfg.limit };
    let mut client = Client::new(0, tables, origin);
    let mut episode = 0;
    while !deadline.done(episode) {
        let traced = cfg.trace && episode % 2 == 0;
        let engine = set_up(&config, files, &["narrow"], &mut out.setups);
        let session = engine.session();
        let touched = Touched::default();
        for (i, shape) in stream.episode().into_iter().enumerate() {
            if i > 0 && deadline.time_up() {
                break;
            }
            client.run(&session, &touched, shape, traced);
        }
        out.engines.push(EngineRecord::of(&engine, &["narrow"]));
        episode += 1;
    }
    out.wall = origin.elapsed();
    out.records = client.records;
    out.spans = client.spans;
    out
}

fn cold_mix(cfg: &RunConfig, tables: &Tables, files: &Files) -> RunOutput {
    let config = engine_config(cfg.threads);
    let mut out = RunOutput { sessions: 1, ..RunOutput::default() };
    let mut stream = ColdMix::new(cfg.seed);
    let origin = Instant::now();
    let deadline = Deadline { start: origin, limit: cfg.limit };
    let mut client = Client::new(0, tables, origin);
    let (mut round, mut pair) = (0, 0usize);
    'rounds: while !deadline.done(round) {
        for shapes in stream.round() {
            if deadline.time_up() {
                break 'rounds;
            }
            let traced = cfg.trace && pair % 2 == 0;
            let names = shapes[0].tables().to_vec();
            let engine = set_up(&config, files, &names, &mut out.setups);
            let session = engine.session();
            let touched = Touched::default();
            for shape in shapes {
                client.run(&session, &touched, shape, traced);
            }
            out.engines.push(EngineRecord::of(&engine, &names));
            pair += 1;
        }
        round += 1;
    }
    out.wall = origin.elapsed();
    out.records = client.records;
    out.spans = client.spans;
    out
}

/// Cold starts `shared_sessions` measures before its long-lived engine takes
/// over (at most as many as a unit limit allows). Each sets an engine up,
/// has every session send its first query at once, one first query per
/// table, and retires the engine. Nine give a run twenty first queries and
/// leave the long-lived engine enough of the run to fill its shred pool and
/// evict.
pub const SHARED_COLD_STARTS: usize = 9;

/// `shared_sessions`: the cold starts, then one long-lived engine that
/// serves every session's closed loop for the rest of the run. The engines
/// never overlap, so each holds the process alone.
fn shared_sessions(cfg: &RunConfig, tables: &Tables, files: &Files) -> RunOutput {
    const TABLES: [&str; 2] = ["narrow", "grouped"];
    let config = EngineConfig {
        // About half of the two tables' full-column working set.
        shred_pool_bytes: cfg.scale.full_column_bytes(),
        ..engine_config(cfg.threads)
    };
    let mut out = RunOutput { sessions: cfg.threads, ..RunOutput::default() };
    let origin = Instant::now();
    let deadline = Deadline { start: origin, limit: cfg.limit };
    let mut clients: Vec<Client> =
        (0..cfg.threads).map(|i| Client::new(i, tables, origin)).collect();
    let cold_starts = match cfg.limit {
        Limit::Units(n) => n.min(SHARED_COLD_STARTS),
        Limit::Time(_) => SHARED_COLD_STARTS,
    };
    for start in 0..=cold_starts {
        let long_lived = start == cold_starts;
        if deadline.time_up() {
            break;
        }
        let engine = set_up(&config, files, &TABLES, &mut out.setups);
        let touched = Touched::default();
        std::thread::scope(|scope| {
            for (i, client) in clients.iter_mut().enumerate() {
                let session = engine.session();
                let (touched, deadline) = (&touched, &deadline);
                scope.spawn(move || {
                    if !long_lived {
                        let mut stream = SharedClient::new(data::mix(cfg.seed, start as u64), i);
                        let traced = cfg.trace && start % 2 == 0;
                        client.run(&session, touched, stream.next_shape(), traced);
                        return;
                    }
                    let mut stream = SharedClient::new(cfg.seed, i);
                    let mut issued = 0;
                    while !deadline.done(issued) {
                        let traced = cfg.trace && issued % 2 == 0;
                        client.run(&session, touched, stream.next_shape(), traced);
                        issued += 1;
                    }
                });
            }
        });
        out.engines.push(EngineRecord::of(&engine, &TABLES));
    }
    out.wall = origin.elapsed();
    for client in clients {
        out.records.extend(client.records);
        out.spans.extend(client.spans);
    }
    out
}

/// Reset the kernel's peak-RSS mark, so the peak covers the query loop and
/// not input generation. Best effort: without it the peak covers both.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
