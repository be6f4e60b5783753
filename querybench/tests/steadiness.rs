//! Steadiness tests for the benchmark itself, at a tiny scale: every
//! workload runs and answers correctly, a seed fixes the query stream and
//! the answers, and the per-query counts of the single-session workloads
//! repeat exactly from run to run.

use std::path::PathBuf;

use querybench::client::{CoreTimes, Layers, QueryRecord};
use querybench::data::Scale;
use querybench::query::Shape;
use querybench::report;
use querybench::run::{run, Limit, RunConfig, RunOutput, Workload};
use querybench::stream::{ColdMix, Explore, SharedClient};

fn tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> RunOutput {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{}-{seed}-{tag}", workload.name()));
    let units = if workload == Workload::SharedSessions { 6 } else { 2 };
    let cfg = RunConfig {
        workload,
        seed,
        scale: Scale::TINY,
        limit: Limit::Units(units),
        trace,
        work_dir: dir,
        threads: 2,
    };
    run(&cfg).expect("tiny run")
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

fn names(metrics: &[report::Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.to_owned()).collect()
}

#[test]
fn every_workload_runs_correctly_and_reports_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = tiny(workload, 3, trace, &format!("smoke{trace}"));
            assert!(!out.records.is_empty(), "{workload:?} issued no query");
            assert!(out.records.iter().all(|r| r.correct), "{workload:?}: wrong answer");
            assert!(out.records.iter().any(|r| r.first), "{workload:?}: no first query");
            assert!(out.records.iter().all(QueryRecord::sum_check), "{workload:?}: sum check");
            if trace {
                assert!(out.records.iter().any(|r| r.core.is_some()));
                assert!(!out.spans.is_empty());
                assert_eq!(names(&report::per_layer(&out)), declared("per_layer"));
            } else {
                assert!(out.spans.is_empty());
                let metrics = report::end_to_end(&out);
                assert_eq!(names(&metrics), declared("end_to_end"));
                let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
                for stem in ["first_query", "query"] {
                    let (p50, tail) =
                        (value(&format!("{stem}_p50_ms")), value(&format!("{stem}_tail_ms")));
                    assert!(tail >= p50, "{workload:?}: {stem} tail {tail} < p50 {p50}");
                }
            }
            let line = report::json_line(&out, &report::end_to_end(&out));
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        }
    }
}

fn explore_shapes(seed: u64) -> Vec<Shape> {
    let mut s = Explore::new(seed);
    (0..5).flat_map(|_| s.episode()).collect()
}

fn cold_mix_shapes(seed: u64) -> Vec<Shape> {
    let mut s = ColdMix::new(seed);
    (0..5).flat_map(|_| s.round()).flatten().collect()
}

fn shared_shapes(seed: u64) -> Vec<Shape> {
    (0..2)
        .flat_map(|i| {
            let mut s = SharedClient::new(seed, i);
            (0..20).map(move |_| s.next_shape())
        })
        .collect()
}

#[test]
fn a_seed_fixes_the_query_stream() {
    for shapes in [explore_shapes, cold_mix_shapes, shared_shapes] {
        assert_eq!(shapes(11), shapes(11));
        assert_ne!(shapes(11), shapes(12));
    }
}

fn answers(out: &RunOutput) -> Vec<(usize, Shape, u64)> {
    let mut v: Vec<_> = out.records.iter().map(|r| (r.session, r.shape, r.fingerprint)).collect();
    // Concurrent sessions interleave freely; compare per session.
    v.sort_by_key(|(session, _, _)| *session);
    v
}

#[test]
fn a_seed_fixes_the_answers() {
    for workload in Workload::ALL {
        let a = tiny(workload, 5, false, "answers-a");
        let b = tiny(workload, 5, false, "answers-b");
        assert_eq!(answers(&a), answers(&b), "{workload:?}");
        let c = tiny(workload, 6, false, "answers-c");
        assert_ne!(answers(&a), answers(&c), "{workload:?}: seeds 5 and 6 agree");
    }
}

fn counts(out: &RunOutput) -> Vec<(u64, u64, u64, u64)> {
    out.records
        .iter()
        .map(|r| {
            let l = r.layers.as_ref().expect("query answered");
            (l.io_bytes, l.fields_tokenized, l.morsels, l.shreds_recorded)
        })
        .collect()
}

#[test]
fn single_session_counts_repeat_exactly() {
    for workload in [Workload::Explore, Workload::ColdMix] {
        let a = counts(&tiny(workload, 9, false, "counts-a"));
        let b = counts(&tiny(workload, 9, true, "counts-b"));
        assert_eq!(a, b, "{workload:?}");
        assert!(a.iter().any(|c| c.2 > 0), "{workload:?}: the parallel path never ran");
    }
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_but_at_least_p75() {
    let samples: Vec<f64> = (1..=80).map(f64::from).collect();
    assert_eq!(report::tail(&samples), (70.0, 87.5));
    assert_eq!(report::tail(&samples[..40]), (30.0, 75.0));
    assert_eq!(report::tail(&samples[..20]), (15.0, 75.0));
    assert_eq!(report::tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
    for n in 1..=80 {
        let (tail, _) = report::tail(&samples[..n]);
        assert!(tail >= report::median(&samples[..n]), "n={n}");
    }
    assert_eq!(report::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn the_sum_check_trips_on_parts_that_do_not_fit() {
    let layers =
        Layers { wall_ms: 10.0, scan_ms: 6.0, compile_ms: 1.0, ops_ms: 3.0, ..Layers::default() };
    let record = |latency_ms, execute_ms, layers: Layers| QueryRecord {
        session: 0,
        shape: Shape::Muons { gev: 5 },
        first: false,
        traced: true,
        latency_ms,
        correct: true,
        fingerprint: 0,
        layers: Some(layers),
        core: Some(CoreTimes { parse_ms: 0.05, resolve_ms: 0.05, execute_ms }),
    };
    assert!(record(12.1, 12.0, layers.clone()).sum_check());
    // The spans leave part of the latency uncovered.
    assert!(!record(15.0, 12.0, layers.clone()).sum_check());
    // The engine's wall is longer than the execute span around it.
    assert!(!record(9.1, 9.0, layers.clone()).sum_check());
    // Serial path: the scan is longer than the wall it ran in.
    assert!(!record(12.1, 12.0, Layers { scan_ms: 11.0, ..layers.clone() }).sum_check());
    // Parallel path: the critical worker is longer than the wall, or the
    // morsels' scan profiles exceed their exec time.
    let parallel = Layers { critical_ms: Some(9.0), ..layers };
    assert!(record(12.1, 12.0, parallel.clone()).sum_check());
    assert!(!record(12.1, 12.0, Layers { critical_ms: Some(11.0), ..parallel.clone() }).sum_check());
    assert!(!record(12.1, 12.0, Layers { ops_ms: -1.0, ..parallel }).sum_check());
}
