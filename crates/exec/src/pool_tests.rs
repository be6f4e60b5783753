//! `GlobalPool`'s job-dispatch contract, case by case: results land in job
//! order whatever the claim order, a gate admits its job or short-circuits
//! it, and each worker's sink holds only the events of the jobs it ran.

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use parking_lot::Mutex;

    use crate::global::{GlobalPool, JobCtx};

    type BoxedGate<T> = Box<dyn FnOnce() -> Result<(), T> + Send>;

    /// Run `jobs` on a fresh `threads`-worker pool. No job in these tests
    /// panics, so every result is unwrapped.
    fn run<T, E, G, F>(
        jobs: Vec<(G, F)>,
        threads: usize,
        claim: Option<Vec<usize>>,
    ) -> (Vec<T>, Vec<Vec<E>>)
    where
        T: Send + 'static,
        E: Send + 'static,
        G: FnOnce() -> Result<(), T> + Send + 'static,
        F: for<'s> FnOnce(JobCtx<'s, E>) -> T + Send + 'static,
    {
        let (results, sinks) = GlobalPool::new(threads, 0).run_on(jobs, claim);
        (results.into_iter().map(Result::unwrap).collect(), sinks)
    }

    /// `count` always-admitted jobs; job `i` appends `i` to `ran` and
    /// returns `f(i)`.
    fn recorded_jobs<T: Send + 'static>(
        count: usize,
        ran: &Arc<Mutex<Vec<usize>>>,
        f: fn(usize) -> T,
    ) -> Vec<(
        impl FnOnce() -> Result<(), T> + Send + 'static,
        impl for<'s> FnOnce(JobCtx<'s, ()>) -> T + Send + 'static,
    )> {
        (0..count)
            .map(|i| {
                let ran = Arc::clone(ran);
                (
                    || Ok(()),
                    move |_ctx: JobCtx<'_, ()>| {
                        ran.lock().push(i);
                        f(i)
                    },
                )
            })
            .collect()
    }

    #[test]
    fn results_in_job_order() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let (results, _) = run(recorded_jobs(40, &ran, |i| i * 2), 8, None);
        assert_eq!(results, (0..40).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_for_one_thread() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let (results, _) = run(recorded_jobs(5, &ran, |i| i), 1, None);
        assert_eq!(results, vec![0, 1, 2, 3, 4]);
        assert_eq!(*ran.lock(), vec![0, 1, 2, 3, 4], "one worker runs in job order");
    }

    #[test]
    fn actually_uses_multiple_threads() {
        let ids = Arc::new(Mutex::new(HashSet::new()));
        let arrived = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..4)
            .map(|_| {
                let ids = Arc::clone(&ids);
                let arrived = Arc::clone(&arrived);
                (
                    || -> Result<(), ()> { Ok(()) },
                    move |_ctx: JobCtx<'_, ()>| {
                        // Rendezvous: wait until at least two jobs run
                        // concurrently, proving >1 worker participates.
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let deadline = Instant::now() + Duration::from_secs(5);
                        while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                            std::hint::spin_loop();
                        }
                        ids.lock().insert(std::thread::current().id());
                    },
                )
            })
            .collect();
        run(jobs, 4, None);
        assert!(ids.lock().len() > 1, "work ran on more than one thread");
    }

    #[test]
    fn more_jobs_than_threads_all_complete() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let (results, _) = run(recorded_jobs(100, &ran, |i| i), 3, None);
        assert_eq!(results.len(), 100);
        let mut ran = ran.lock().clone();
        ran.sort_unstable();
        assert_eq!(ran, (0..100).collect::<Vec<_>>(), "every job ran exactly once");
    }

    #[test]
    fn empty_job_list() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let (results, sinks) = run(recorded_jobs(0, &ran, |i| i), 4, None);
        assert!(results.is_empty());
        assert_eq!(sinks.len(), 4);
    }

    #[test]
    fn claim_order_reorders_dispatch_but_not_results() {
        for threads in [1usize, 4] {
            // Heavy-first permutation over 9 jobs; results must stay in job
            // order and every job must run exactly once.
            let ran = Arc::new(Mutex::new(Vec::new()));
            let claim = vec![8, 6, 4, 2, 0, 1, 3, 5, 7];
            let (results, _) =
                run(recorded_jobs(9, &ran, |i| i * 10), threads, Some(claim.clone()));
            assert_eq!(results, (0..9).map(|i| i * 10).collect::<Vec<_>>());
            let mut seen = ran.lock().clone();
            if threads == 1 {
                assert_eq!(seen, claim, "one worker honors the claim order exactly");
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..9).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn claim_order_must_be_a_permutation() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        run(recorded_jobs(3, &ran, |i| i), 2, Some(vec![0, 0, 1]));
    }

    #[test]
    fn gated_jobs_wait_for_admission_and_keep_job_order() {
        // A monotone availability watermark (the sequential-reader shape):
        // gates spin until the watermark covers their job. A background
        // "reader" advances it, so workers genuinely block and results must
        // still land in job order.
        for threads in [1usize, 4] {
            let watermark = Arc::new(AtomicU64::new(0));
            let reader = {
                let watermark = Arc::clone(&watermark);
                std::thread::spawn(move || {
                    for w in 1..=16u64 {
                        std::thread::sleep(Duration::from_millis(1));
                        watermark.store(w, Ordering::SeqCst);
                    }
                })
            };
            let jobs: Vec<_> = (0..16u64)
                .map(|i| {
                    let gate_mark = Arc::clone(&watermark);
                    let job_mark = Arc::clone(&watermark);
                    (
                        move || -> Result<(), u64> {
                            while gate_mark.load(Ordering::SeqCst) <= i {
                                std::hint::spin_loop();
                            }
                            Ok(())
                        },
                        move |_ctx: JobCtx<'_, ()>| {
                            // The gate admitted us: availability covers i.
                            assert!(job_mark.load(Ordering::SeqCst) > i);
                            i * 3
                        },
                    )
                })
                .collect();
            let (results, _) = run(jobs, threads, None);
            reader.join().unwrap();
            assert_eq!(results, (0..16u64).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn traced_jobs_stamp_worker_and_collect_sink_events() {
        for threads in [1usize, 4] {
            let jobs: Vec<_> = (0..16u64)
                .map(|i| {
                    (
                        || -> Result<(), u64> { Ok(()) },
                        move |ctx: JobCtx<'_, (usize, u64)>| {
                            ctx.sink.push((ctx.worker, i));
                            i
                        },
                    )
                })
                .collect();
            let (results, sinks) = run(jobs, threads, None);
            assert_eq!(results, (0..16u64).collect::<Vec<_>>());
            assert_eq!(sinks.len(), threads);
            // Every job recorded exactly one event, each stamped with the
            // sink-owning worker's id.
            let mut seen: Vec<u64> = Vec::new();
            for (w, sink) in sinks.iter().enumerate() {
                for &(worker, i) in sink {
                    assert_eq!(worker, w, "event landed in its own worker's sink");
                    seen.push(i);
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..16u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn traced_failed_gate_records_no_events() {
        let jobs: Vec<_> = (0..8i64)
            .map(|i| {
                let gate: BoxedGate<i64> =
                    if i % 2 == 0 { Box::new(move || Err(-100 - i)) } else { Box::new(|| Ok(())) };
                (gate, move |ctx: JobCtx<'_, i64>| {
                    ctx.sink.push(i);
                    i
                })
            })
            .collect();
        let (results, sinks) = run(jobs, 3, None);
        assert_eq!(results, vec![-100, 1, -102, 3, -104, 5, -106, 7]);
        let mut events: Vec<i64> = sinks.into_iter().flatten().collect();
        events.sort_unstable();
        assert_eq!(events, vec![1, 3, 5, 7], "short-circuited jobs left no trace");
    }

    #[test]
    fn traced_gate_wait_measures_blocking_time() {
        let release = Arc::new(AtomicU64::new(0));
        let releaser = {
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                release.store(1, Ordering::SeqCst);
            })
        };
        let jobs = vec![(
            move || -> Result<(), Duration> {
                while release.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
                Ok(())
            },
            |ctx: JobCtx<'_, ()>| ctx.gate_wait,
        )];
        let (results, _) = run(jobs, 1, None);
        releaser.join().unwrap();
        assert!(
            results[0] >= Duration::from_millis(10),
            "gate_wait {:?} should reflect the blocked interval",
            results[0]
        );
    }

    #[test]
    fn failed_gate_short_circuits_without_running_the_job() {
        let ran = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..6i64)
            .map(|i| {
                let ran = Arc::clone(&ran);
                let gate: BoxedGate<i64> =
                    if i % 2 == 0 { Box::new(move || Err(-i)) } else { Box::new(|| Ok(())) };
                (gate, move |_ctx: JobCtx<'_, ()>| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    i
                })
            })
            .collect();
        let (results, _) = run(jobs, 3, None);
        assert_eq!(results, vec![0, 1, -2, 3, -4, 5]);
        assert_eq!(ran.load(Ordering::SeqCst), 3, "only odd jobs ran");
    }
}
