//! Per-session metrics attribution.
//!
//! With many sessions sharing one engine (see `CONCURRENCY.md` § "Sessions
//! and the shared cache layer"), the engine-lifetime [`crate::EngineMetrics`]
//! registry answers "what did the engine do" but not "who asked for it". A
//! [`SessionMetrics`] rides along with each session handle and receives one
//! [`SessionQueryCharge`] per completed query — the same per-query deltas the
//! engine folds into its global registry, attributed to the session that ran
//! the query.
//!
//! Same concurrency contract as `EngineMetrics`: every field is a relaxed
//! atomic (each counter is independent; no counter value ever publishes
//! other memory), recording never takes a lock, and snapshots are exact once
//! the session is quiescent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::Json;

/// Per-query deltas charged to a session when a query completes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionQueryCharge {
    /// The query ran two or more morsels.
    pub parallel: bool,
    /// Rows the query returned.
    pub rows_out: u64,
    /// Bytes this query read from disk (delta over the engine counter).
    pub io_bytes: u64,
    /// Template-cache hits / misses this query generated.
    pub template_hits: u64,
    /// Template-cache misses (compilations) this query generated.
    pub template_misses: u64,
    /// Shred-pool hits this query generated.
    pub shred_hits: u64,
    /// Shred-pool misses this query generated.
    pub shred_misses: u64,
    /// Morsels dispatched for this query (1 when it was not split).
    pub morsels: u64,
    /// End-to-end wall time of the query.
    pub wall: Duration,
    /// Summed time the query's morsels spent blocked in availability gates.
    pub gate_wait: Duration,
}

/// Session-lifetime counters, one instance per session handle. All relaxed
/// atomics — see the module docs for why that is sufficient.
#[derive(Debug, Default)]
pub struct SessionMetrics {
    /// Queries this session executed.
    pub queries: AtomicU64,
    /// Of those, queries that ran two or more morsels.
    pub parallel_queries: AtomicU64,
    /// Total rows returned to this session.
    pub rows_out: AtomicU64,
    /// Disk bytes charged to this session's queries.
    pub io_bytes: AtomicU64,
    /// Template-cache hits generated by this session.
    pub template_hits: AtomicU64,
    /// Template-cache misses (compilations) generated by this session.
    pub template_misses: AtomicU64,
    /// Shred-pool hits generated by this session.
    pub shred_hits: AtomicU64,
    /// Shred-pool misses generated by this session.
    pub shred_misses: AtomicU64,
    /// Morsels dispatched on behalf of this session.
    pub morsels: AtomicU64,
    /// Summed query wall time, in nanoseconds.
    pub wall_nanos: AtomicU64,
    /// Summed morsel gate-wait time, in nanoseconds.
    pub gate_wait_nanos: AtomicU64,
}

impl SessionMetrics {
    /// A fresh per-session registry with every counter at zero.
    pub fn new() -> SessionMetrics {
        SessionMetrics::default()
    }

    /// Fold one completed query's deltas into the session totals.
    pub fn charge(&self, c: &SessionQueryCharge) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if c.parallel {
            self.parallel_queries.fetch_add(1, Ordering::Relaxed);
        }
        self.rows_out.fetch_add(c.rows_out, Ordering::Relaxed);
        self.io_bytes.fetch_add(c.io_bytes, Ordering::Relaxed);
        self.template_hits.fetch_add(c.template_hits, Ordering::Relaxed);
        self.template_misses.fetch_add(c.template_misses, Ordering::Relaxed);
        self.shred_hits.fetch_add(c.shred_hits, Ordering::Relaxed);
        self.shred_misses.fetch_add(c.shred_misses, Ordering::Relaxed);
        self.morsels.fetch_add(c.morsels, Ordering::Relaxed);
        self.wall_nanos.fetch_add(c.wall.as_nanos() as u64, Ordering::Relaxed);
        self.gate_wait_nanos.fetch_add(c.gate_wait.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Every counter as `(name, value)`, in a fixed canonical (sorted) order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("gate_wait_nanos", g(&self.gate_wait_nanos)),
            ("io_bytes", g(&self.io_bytes)),
            ("morsels", g(&self.morsels)),
            ("parallel_queries", g(&self.parallel_queries)),
            ("queries", g(&self.queries)),
            ("rows_out", g(&self.rows_out)),
            ("shred_hits", g(&self.shred_hits)),
            ("shred_misses", g(&self.shred_misses)),
            ("template_hits", g(&self.template_hits)),
            ("template_misses", g(&self.template_misses)),
            ("wall_nanos", g(&self.wall_nanos)),
        ]
    }

    /// The snapshot as a JSON object (canonical key order).
    pub fn to_json(&self) -> Json {
        Json::obj(self.snapshot().into_iter().map(|(k, v)| (k, Json::UInt(v))).collect())
    }

    /// Render a compact one-session report of the non-zero counters.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            if value != 0 {
                out.push_str(&format!("{name}={value}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let m = SessionMetrics::new();
        m.charge(&SessionQueryCharge {
            parallel: true,
            rows_out: 10,
            io_bytes: 4096,
            template_hits: 2,
            template_misses: 1,
            shred_hits: 3,
            shred_misses: 0,
            morsels: 8,
            wall: Duration::from_nanos(500),
            gate_wait: Duration::from_nanos(20),
        });
        m.charge(&SessionQueryCharge { rows_out: 5, ..Default::default() });
        let snap: std::collections::HashMap<_, _> = m.snapshot().into_iter().collect();
        assert_eq!(snap["queries"], 2);
        assert_eq!(snap["parallel_queries"], 1);
        assert_eq!(snap["rows_out"], 15);
        assert_eq!(snap["io_bytes"], 4096);
        assert_eq!(snap["template_hits"], 2);
        assert_eq!(snap["morsels"], 8);
        assert_eq!(snap["wall_nanos"], 500);
        assert_eq!(snap["gate_wait_nanos"], 20);
    }

    #[test]
    fn snapshot_order_is_sorted() {
        let m = SessionMetrics::new();
        let names: Vec<&str> = m.snapshot().iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert!(m.to_json().render().starts_with("{\"gate_wait_nanos\":0"));
    }
}
