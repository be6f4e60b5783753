//! Metrics derived from a run, and the output lines.

use std::collections::BTreeMap;

use crate::client::{Layers, QueryRecord};
use crate::run::RunOutput;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Extra context for the human-readable line (percentile, sample count).
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, note: String::new() }
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail value and its percentile: the highest percentile with at least
/// ten samples beyond it, the `(n - 10)`-th smallest of `n` samples, but
/// never below the 75th percentile (the `ceil(3n/4)`-th smallest). Below 40
/// samples no percentile from p75 up has ten samples beyond it, and the p75
/// floor keeps the value a tail.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    let rank = n.saturating_sub(10).max((3 * n).div_ceil(4));
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-9).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median and tail of a multi-class sample. The median is taken per query
/// class and combined across classes by the geometric mean, so each class
/// weighs the same. The tail is the [`tail`] of every latency divided by its
/// class median, scaled by that combined median. With one class both reduce
/// to the plain median and tail.
fn timing(
    out: &mut Vec<Metric>,
    p50: &'static str,
    tail_name: &'static str,
    records: &[&QueryRecord],
) {
    let mut classes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in records {
        classes.entry(r.shape.class()).or_default().push(r.latency_ms);
    }
    let mut medians = Vec::new();
    let mut ratios = Vec::new();
    for samples in classes.values() {
        let m = median(samples);
        medians.push(m);
        ratios.extend(samples.iter().map(|v| ratio(*v, m)));
    }
    let combined = geomean(&medians);
    let (tail_ratio, pct) = tail(&ratios);
    let note = format!("{} classes, n={}", classes.len(), ratios.len());
    out.push(Metric { note: note.clone(), ..metric(p50, combined, "ms") });
    out.push(Metric {
        note: format!("p{pct:.1}, {note}"),
        ..metric(tail_name, tail_ratio * combined, "ms")
    });
}

/// The end-to-end metrics, over every query of the run.
pub fn end_to_end(run: &RunOutput) -> Vec<Metric> {
    let lat = |first: bool| -> Vec<&QueryRecord> {
        run.records.iter().filter(|r| r.first == first).collect()
    };
    let setups: Vec<f64> = run.setups.iter().map(|d| d.as_secs_f64()).collect();
    let correct = run.records.iter().filter(|r| r.correct).count() as f64;
    let attempted = run.records.len() as f64;
    let mut out = vec![Metric {
        note: format!("n={}", setups.len()),
        ..metric("setup_s", median(&setups), "s")
    }];
    timing(&mut out, "first_query_p50_ms", "first_query_tail_ms", &lat(true));
    timing(&mut out, "query_p50_ms", "query_tail_ms", &lat(false));
    out.push(metric("queries_per_s", correct / run.wall.as_secs_f64(), "1/s"));
    out.push(metric("peak_rss_mb", run.peak_rss_mb, "MiB"));
    out.push(Metric {
        note: format!("failed_ratio={}", ratio(attempted - correct, attempted)),
        ..metric("success_ratio", ratio(correct, attempted), "ratio")
    });
    out
}

/// The per-layer metrics. Per-query numbers are means over the traced
/// queries (means, so the parts add up); engine counters cover every
/// engine of the run.
pub fn per_layer(run: &RunOutput) -> Vec<Metric> {
    let traced: Vec<(&QueryRecord, &Layers)> = run
        .records
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| r.layers.as_ref().map(|l| (r, l)))
        .collect();
    let per_query = |f: &dyn Fn(&QueryRecord, &Layers) -> f64| -> f64 {
        mean(traced.iter().map(|(r, l)| f(r, l)))
    };
    let sum = |f: &dyn Fn(&Layers) -> f64| -> f64 { traced.iter().map(|(_, l)| f(l)).sum() };
    let core = |r: &QueryRecord| r.core.unwrap_or_default();
    let parallel: Vec<&Layers> =
        traced.iter().map(|(_, l)| *l).filter(|l| l.critical_ms.is_some()).collect();
    let first: Vec<&(&QueryRecord, &Layers)> = traced.iter().filter(|(r, _)| r.first).collect();
    let followups: Vec<&(&QueryRecord, &Layers)> =
        traced.iter().filter(|(r, _)| !r.first).collect();
    let engines = &run.engines;
    let engine_sum = |f: &dyn Fn(&crate::client::EngineRecord) -> u64| -> f64 {
        engines.iter().map(|e| f(e) as f64).sum()
    };
    let engine_queries = engine_sum(&|e| e.queries);
    let publish = |r: &QueryRecord, l: &Layers| core(r).execute_ms - l.wall_ms;

    let mut out = vec![
        metric(
            "core.sql_us",
            per_query(&|r, _| (core(r).parse_ms + core(r).resolve_ms) * 1e3),
            "us",
        ),
        metric("core.execute_ms", per_query(&|r, _| core(r).execute_ms), "ms"),
        metric("core.publish_ms", per_query(&publish), "ms"),
        metric("core.publish_first_ms", mean(first.iter().map(|(r, l)| publish(r, l))), "ms"),
        metric(
            "core.publish_share_first",
            ratio(
                first.iter().map(|(r, l)| publish(r, l)).sum(),
                first.iter().map(|(r, _)| r.latency_ms).sum(),
            ),
            "ratio",
        ),
        metric(
            "core.parallel_share",
            ratio(engine_sum(&|e| e.parallel_queries), engine_queries),
            "ratio",
        ),
        metric(
            "core.parallel_share_followup",
            ratio(
                followups.iter().filter(|(_, l)| l.critical_ms.is_some()).count() as f64,
                followups.len() as f64,
            ),
            "ratio",
        ),
        metric(
            "core.shreds.hit_ratio",
            ratio(sum(&|l| l.shred_hits as f64), sum(&|l| (l.shred_hits + l.shred_misses) as f64)),
            "ratio",
        ),
        metric("core.shreds.recorded", per_query(&|_, l| l.shreds_recorded as f64), "count"),
        metric("core.shreds.evictions", engine_sum(&|e| e.shred_evictions), "count"),
        metric("posmap.built", per_query(&|_, l| l.posmaps_built as f64), "count"),
        metric(
            "posmap.bytes",
            median(&engines.iter().map(|e| e.posmap_bytes as f64).collect::<Vec<_>>()),
            "bytes",
        ),
        metric(
            "access.template.hit_ratio",
            ratio(
                sum(&|l| l.template_hits as f64),
                sum(&|l| (l.template_hits + l.template_misses) as f64),
            ),
            "ratio",
        ),
        metric("access.compile_ms", per_query(&|_, l| l.compile_ms), "ms"),
        metric("access.scan_ms", per_query(&|_, l| l.scan_ms), "ms"),
        metric("access.tokenize_ms", per_query(&|_, l| l.tokenize_ms), "ms"),
        metric("access.convert_ms", per_query(&|_, l| l.convert_ms), "ms"),
        metric("access.build_columns_ms", per_query(&|_, l| l.build_columns_ms), "ms"),
        metric("access.fields_tokenized", per_query(&|_, l| l.fields_tokenized as f64), "count"),
        metric(
            "access.fields_tokenized_followup",
            mean(followups.iter().map(|(_, l)| l.fields_tokenized as f64)),
            "count",
        ),
        metric("access.values_converted", per_query(&|_, l| l.values_converted as f64), "count"),
        metric(
            "access.prune_ratio",
            ratio(
                sum(&|l| l.rows_pruned as f64),
                sum(&|l| (l.rows_scanned + l.rows_pruned) as f64),
            ),
            "ratio",
        ),
        metric("formats.io_bytes", per_query(&|_, l| l.io_bytes as f64), "bytes"),
        metric(
            "formats.file_pool.hit_ratio",
            ratio(engine_sum(&|e| e.file_hits), engine_sum(&|e| e.file_hits + e.file_misses)),
            "ratio",
        ),
        metric(
            "formats.chunk_wait_ms",
            ratio(engine_sum(&|e| e.chunk_wait_ns) / 1e6, engine_queries),
            "ms",
        ),
        metric(
            "formats.rzb.decode_ms",
            ratio(engine_sum(&|e| e.rzb_decode_ns) / 1e6, engine_queries),
            "ms",
        ),
        metric("formats.rzb.blocks", ratio(engine_sum(&|e| e.rzb_blocks), engine_queries), "count"),
        metric("exec.morsels", per_query(&|_, l| l.morsels as f64), "count"),
        metric("exec.busy_ms", per_query(&|_, l| l.busy_ms), "ms"),
        metric("exec.gate_wait_ms", per_query(&|_, l| l.gate_wait_ms), "ms"),
        metric(
            "exec.utilization",
            ratio(
                parallel.iter().map(|l| l.busy_ms).sum(),
                parallel.iter().map(|l| l.workers as f64 * l.wall_ms).sum(),
            ),
            "ratio",
        ),
        metric("exec.serial_ms", mean(parallel.iter().filter_map(|l| l.serial_ms())), "ms"),
        metric(
            "exec.straggler_ratio",
            median(&parallel.iter().filter_map(|l| l.straggler).collect::<Vec<_>>()),
            "ratio",
        ),
        metric("exec.session_fairness", session_fairness(run), "ratio"),
        metric("columnar.ops_ms", per_query(&|_, l| l.ops_ms), "ms"),
    ];

    // Tracing overhead: traced minus untraced latency, over the queries
    // that are not first queries (the run alternates tracing).
    let lat = |traced: bool| -> Vec<f64> {
        run.records
            .iter()
            .filter(|r| !r.first && r.traced == traced)
            .map(|r| r.latency_ms)
            .collect()
    };
    out.push(metric("trace.overhead_ms", median(&lat(true)) - median(&lat(false)), "ms"));
    let failures = run.records.iter().filter(|r| !r.sum_check()).count();
    out.push(metric("trace.sum_check_failures", failures as f64, "count"));
    out
}

/// Fewest queries any client completed over the most any completed.
fn session_fairness(run: &RunOutput) -> f64 {
    let mut done = vec![0usize; run.sessions.max(1)];
    for r in run.records.iter().filter(|r| r.correct) {
        if let Some(d) = done.get_mut(r.session) {
            *d += 1;
        }
    }
    let (min, max) = (done.iter().min().copied(), done.iter().max().copied());
    ratio(min.unwrap_or(0) as f64, max.unwrap_or(0) as f64)
}

/// A JSON number: finite values with every digit, others as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(run: &RunOutput, metrics: &[Metric]) -> String {
    let attempted = run.records.len();
    let failed = run.records.iter().filter(|r| !r.correct).count();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

/// Spans as JSON lines.
pub fn spans_jsonl(run: &RunOutput) -> String {
    let mut s = String::new();
    for sp in &run.spans {
        let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"query\": {}, \"span\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
            sp.query, sp.id, sp.name, sp.start_ns, sp.end_ns
        ));
    }
    s
}
