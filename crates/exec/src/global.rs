//! The engine-global worker pool: long-lived workers, per-query admission,
//! fair round-robin morsel scheduling, and panic containment.
//!
//! Every query the engine runs is a batch of morsels on this pool — a split
//! scan contributes one job per morsel, an unsplit query exactly one. With
//! many sessions sharing one engine, a per-query pool would oversubscribe
//! the machine and let a big cold scan monopolize the CPUs while a small
//! warm query sits behind it. [`GlobalPool`] prevents both:
//!
//! - **One set of workers**, spawned once and shared by every query.
//! - **Admission**: at most `max_active` batches execute at once (0 =
//!   unlimited); excess submitters queue FIFO at the door. Admission is per
//!   *query* (batch), never per morsel — an admitted batch always finishes.
//! - **Fair scheduling**: active batches sit in a round-robin ring. A worker
//!   claims *one* morsel from the front batch, then the batch rotates to the
//!   back — so `k` concurrent batches each receive ~`1/k` of the workers'
//!   attention regardless of batch size, and a 1000-morsel cold scan cannot
//!   starve a 4-morsel warm query (fairness invariant, CONCURRENCY.md
//!   § "Sessions and the shared cache layer").
//! - **Panic containment**: a job that panics (in its gate or its body)
//!   becomes that job's [`JobPanic`] result. The worker survives, the
//!   batch's completion latch still counts the job down, and the submitter
//!   gets the error back instead of waiting forever.
//!
//! Within a batch, morsels are claimed in the submitter's `claim` order
//! (e.g. longest-processing-time-first) for skew-resistant dispatch.
//! Results land in per-morsel slots and trace events in per-worker sinks,
//! so output order — and therefore every downstream merge — is independent
//! of scheduling.
//!
//! ## Synchronization
//!
//! One mutex guards the scheduler state (ring + admission counts); workers
//! sleep on a condvar when the ring is empty and submitters sleep on a
//! second condvar when admission is full. Each batch carries a completion
//! latch (mutex + condvar): workers decrement after writing a result slot,
//! the submitter wakes at zero. Result slots are mutexes, so the completed
//! write happens-before the submitter's read (lock-edge publication; no
//! `SeqCst` anywhere, per the L1 rule). The scheduler lock is never held
//! while a morsel runs.
//!
//! ## Cold-path chunk-wait semantics
//!
//! A job may carry a gate that blocks until its inputs are resident (a
//! morsel's byte range still streaming in from disk); the job body runs only
//! once the gate admits it, and a gate that fails short-circuits into the
//! gate's terminal result without running the body. The time a worker
//! spends blocked inside a gate is *overlap slack*, not engine work: it
//! measures how far scan speed outruns the reader thread. [`GlobalPool::run_on`]
//! stamps that duration per job ([`JobCtx::gate_wait`]), and
//! `ChunkedFileBuffer::wait_available` separately charges each blocking
//! wait to `EngineMetrics::{chunk_waits, chunk_wait_nanos}`. Both are
//! scheduling-dependent — two identical cold runs legitimately differ — so
//! equivalence tests must treat them as advisory, never exact. The
//! deterministic invariant is elsewhere: *which* chunks complete and how
//! many bytes they charge is identical across runs; only *who waited and
//! for how long* varies. A worker blocked in a gate holds no pool lock and
//! parks on the chunk condvar, so it never prevents other workers from
//! claiming later (already-resident) morsels.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Per-job execution context handed to a job closure by
/// [`GlobalPool::run_on`]: which pool worker claimed the job, how long that
/// worker was blocked in the job's availability gate, and the worker's
/// private trace sink.
///
/// The sink is the no-lock hot path of the tracing layer: each worker owns
/// one `Vec<E>` slot per batch, only the worker running a job touches it,
/// and the pool hands all sinks back after the batch's completion latch.
/// Jobs append at most O(1) events each, so sink volume is bounded by the
/// job count (one morsel = one job), never by row count.
pub struct JobCtx<'s, E> {
    /// Index of the pool worker running this job (`0..threads`).
    pub worker: usize,
    /// How long this worker was blocked in the job's gate before the job
    /// ran. Zero for gates that admit immediately.
    pub gate_wait: Duration,
    /// The claiming worker's private event sink.
    pub sink: &'s mut Vec<E>,
}

/// A job that panicked instead of returning: the job's index in its batch
/// and the panic message. The worker that ran it stays alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the panicking job in its batch.
    pub job: usize,
    /// The panic payload rendered as text.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.job, self.message)
    }
}

/// Render a caught panic payload (`panic!` carries a `&str` or a `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A unit of claimed work: runs one morsel on the given worker index.
type Thunk = Box<dyn FnOnce(usize) + Send>;

/// Where a job's outcome lands; filled exactly once, by the worker that
/// ran the job.
type ResultSlot<T> = Mutex<Option<Result<T, JobPanic>>>;

/// One submitted batch: its thunks plus the claim order to hand them out in.
struct BatchCore {
    /// One slot per morsel; a worker takes the thunk when it claims the slot.
    thunks: Vec<Mutex<Option<Thunk>>>,
    /// Permutation of `0..thunks.len()`: the order slots are claimed in.
    claim: Vec<usize>,
}

/// A batch in the round-robin ring, with its claim progress. `next` is only
/// touched under the scheduler lock.
struct ActiveBatch {
    core: Arc<BatchCore>,
    next: usize,
}

/// Scheduler state: the fair ring plus admission accounting.
struct State {
    /// Batches with unclaimed morsels, in round-robin order.
    ring: VecDeque<ActiveBatch>,
    /// Batches admitted and not yet complete (includes fully-claimed ones).
    active: usize,
    /// Pool is shutting down; workers exit, waiters return.
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Workers wait here for ring work.
    work_cv: Condvar,
    /// Submitters wait here for an admission slot.
    admit_cv: Condvar,
}

/// The global worker pool. Construct once per engine, share via `Arc`, and
/// submit batches with [`GlobalPool::run_on`]. Dropping the pool shuts the
/// workers down and joins them (callers must not be mid-batch; engine `Arc`
/// ownership guarantees this).
pub struct GlobalPool {
    inner: Arc<Inner>,
    threads: usize,
    max_active: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for GlobalPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalPool")
            .field("threads", &self.threads)
            .field("max_active", &self.max_active)
            .finish()
    }
}

impl GlobalPool {
    /// Spawn `threads` long-lived workers (min 1). `max_active` caps the
    /// number of concurrently executing batches; 0 means unlimited.
    pub fn new(threads: usize, max_active: usize) -> GlobalPool {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State { ring: VecDeque::new(), active: 0, shutdown: false }),
            work_cv: Condvar::new(),
            admit_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let inner = Arc::clone(&inner);
            handles.push(std::thread::spawn(move || worker_loop(&inner, worker)));
        }
        GlobalPool { inner, threads, max_active, handles: Mutex::new(handles) }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Admission cap this pool was built with (0 = unlimited).
    pub fn max_active(&self) -> usize {
        self.max_active
    }

    /// Run a batch of `(gate, job)` pairs to completion and return
    /// `(results-by-job-index, sinks-by-worker)`. The caller blocks at the
    /// admission door if `max_active` batches are already running, then
    /// blocks on the batch's completion latch while the pool interleaves
    /// its jobs fairly with other active batches.
    ///
    /// Each job's body runs only once its gate returns `Ok`; a gate
    /// returning `Err(t)` makes `t` the job's result and the body never
    /// runs (so it records no sink events). A gate or body that panics
    /// yields `Err(JobPanic)` for that job. Results land in job order and
    /// sinks come back one per worker, in worker order; event order within
    /// a sink is that worker's claim order, so callers that need a
    /// deterministic view merge on an order key the events carry.
    ///
    /// `claim`, when given, must be a permutation of `0..jobs.len()` (the
    /// call panics otherwise) and fixes the order slots are claimed in
    /// *within this batch*: claiming predicted-heavy jobs first stops a
    /// long-tail morsel from landing last. Pass `None` when gates admit in
    /// job order (a sequential reader), or late jobs would park workers.
    pub fn run_on<T, E, G, F>(
        &self,
        jobs: Vec<(G, F)>,
        claim: Option<Vec<usize>>,
    ) -> (Vec<Result<T, JobPanic>>, Vec<Vec<E>>)
    where
        T: Send + 'static,
        E: Send + 'static,
        G: FnOnce() -> Result<(), T> + Send + 'static,
        F: for<'s> FnOnce(JobCtx<'s, E>) -> T + Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return (Vec::new(), (0..self.threads).map(|_| Vec::new()).collect());
        }
        let claim = claim.unwrap_or_else(|| (0..n).collect());
        assert!(claim.len() == n, "claim order must cover every job");
        {
            let mut seen = vec![false; n];
            for &c in &claim {
                assert!(c < n && !seen[c], "claim order must be a permutation");
                seen[c] = true;
            }
        }

        let results: Arc<Vec<ResultSlot<T>>> = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let sinks: Arc<Vec<Mutex<Vec<E>>>> =
            Arc::new((0..self.threads).map(|_| Mutex::new(Vec::new())).collect());
        // Completion latch: (remaining, batch done) — submitter sleeps on
        // the condvar until remaining hits zero.
        let latch: Arc<(Mutex<usize>, Condvar)> = Arc::new((Mutex::new(n), Condvar::new()));

        let mut thunks = Vec::with_capacity(n);
        for (i, (gate, job)) in jobs.into_iter().enumerate() {
            let results = Arc::clone(&results);
            let sinks = Arc::clone(&sinks);
            let latch = Arc::clone(&latch);
            let thunk: Thunk = Box::new(move |worker| {
                // Contain panics: the job's slot gets an error, the latch
                // still counts down, and this worker lives on. (Locks are
                // non-poisoning, so a panic inside the sink guard leaves the
                // sink usable.)
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let wait_start = Instant::now();
                    match gate() {
                        Ok(()) => {
                            let gate_wait = wait_start.elapsed();
                            let mut sink = sinks[worker].lock();
                            job(JobCtx { worker, gate_wait, sink: &mut sink })
                        }
                        Err(err) => err,
                    }
                }))
                .map_err(|payload| JobPanic { job: i, message: panic_message(&*payload) });
                *results[i].lock() = Some(out);
                let mut remaining = latch.0.lock();
                *remaining -= 1;
                if *remaining == 0 {
                    latch.1.notify_all();
                }
            });
            thunks.push(Mutex::new(Some(thunk)));
        }
        let core = Arc::new(BatchCore { thunks, claim });

        // Admission: FIFO at the door (parking_lot condvars wake waiters in
        // FIFO order), at most `max_active` batches in flight.
        {
            let mut st = self.inner.state.lock();
            while self.max_active > 0 && st.active >= self.max_active && !st.shutdown {
                self.inner.admit_cv.wait(&mut st);
            }
            st.active += 1;
            st.ring.push_back(ActiveBatch { core, next: 0 });
            drop(st);
            self.inner.work_cv.notify_all();
        }

        // Block on the completion latch.
        {
            let mut remaining = latch.0.lock();
            while *remaining > 0 {
                latch.1.wait(&mut remaining);
            }
        }

        // Retire the batch: free its admission slot, wake one queued
        // submitter.
        {
            let mut st = self.inner.state.lock();
            st.active -= 1;
            drop(st);
            self.inner.admit_cv.notify_one();
        }

        let results = results
            .iter()
            .map(|slot| {
                let Some(out) = slot.lock().take() else {
                    unreachable!("completed batch has a result per job")
                };
                out
            })
            .collect();
        let sinks = sinks.iter().map(|s| std::mem::take(&mut *s.lock())).collect();
        (results, sinks)
    }
}

impl Drop for GlobalPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        self.inner.admit_cv.notify_all();
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claim the next morsel fairly: take one from the front batch, rotate the
/// batch to the back if it has more. Called under the scheduler lock.
fn next_claim(st: &mut State) -> Option<(Arc<BatchCore>, usize)> {
    while let Some(mut ab) = st.ring.pop_front() {
        if ab.next < ab.core.claim.len() {
            let slot = ab.core.claim[ab.next];
            ab.next += 1;
            let core = Arc::clone(&ab.core);
            if ab.next < ab.core.claim.len() {
                st.ring.push_back(ab);
            }
            return Some((core, slot));
        }
        // Fully claimed: drop it from the ring (completion is tracked by
        // the batch latch, not the ring).
    }
    None
}

fn worker_loop(inner: &Inner, worker: usize) {
    loop {
        let claimed = {
            let mut st = inner.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(claimed) = next_claim(&mut st) {
                    break claimed;
                }
                inner.work_cv.wait(&mut st);
            }
        };
        let (core, slot) = claimed;
        let thunk = core.thunks[slot].lock().take();
        if let Some(thunk) = thunk {
            thunk(worker);
        }
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    type BoxedGate<T> = Box<dyn FnOnce() -> Result<(), T> + Send>;
    type BoxedJob<T, E> = Box<dyn for<'s> FnOnce(JobCtx<'s, E>) -> T + Send>;

    /// Unwrap every job's result (no job in these tests is meant to panic).
    fn ok<T>(results: Vec<Result<T, JobPanic>>) -> Vec<T> {
        results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(p) => panic!("unexpected {p}"),
            })
            .collect()
    }

    /// A trivial batch: `count` jobs, each recording `(tag, index)` into a
    /// shared log when it runs, returning its index.
    fn logged_jobs(
        tag: char,
        count: usize,
        log: &Arc<Mutex<Vec<(char, usize)>>>,
    ) -> Vec<(
        impl FnOnce() -> Result<(), usize> + Send + 'static,
        impl for<'s> FnOnce(JobCtx<'s, ()>) -> usize + Send + 'static,
    )> {
        (0..count)
            .map(|i| {
                let log = Arc::clone(log);
                (
                    move || Ok(()),
                    move |_ctx: JobCtx<'_, ()>| {
                        log.lock().push((tag, i));
                        i
                    },
                )
            })
            .collect()
    }

    #[test]
    fn results_land_by_job_index() {
        let pool = GlobalPool::new(3, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (results, sinks) = pool.run_on(logged_jobs('a', 8, &log), None);
        assert_eq!(ok(results), (0..8).collect::<Vec<_>>());
        assert_eq!(sinks.len(), 3);
        assert_eq!(log.lock().len(), 8);
    }

    #[test]
    fn claim_order_is_respected() {
        // One worker makes the within-batch claim order fully deterministic.
        let pool = GlobalPool::new(1, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let claim = vec![2, 0, 3, 1];
        let (results, _) = pool.run_on(logged_jobs('a', 4, &log), Some(claim.clone()));
        assert_eq!(ok(results), vec![0, 1, 2, 3], "results stay in job order");
        let ran: Vec<usize> = log.lock().iter().map(|&(_, i)| i).collect();
        assert_eq!(ran, claim, "execution follows the claim order");
    }

    #[test]
    fn gate_error_becomes_the_result() {
        let pool = GlobalPool::new(2, 0);
        let jobs: Vec<(BoxedGate<i32>, BoxedJob<i32, ()>)> =
            vec![(Box::new(|| Ok(())), Box::new(|_| 10)), (Box::new(|| Err(-1)), Box::new(|_| 20))];
        let (results, _) = pool.run_on(jobs, None);
        assert_eq!(ok(results), vec![10, -1]);
    }

    /// A batch of `threads` jobs that each wait (bounded) until all of them
    /// are running at once, returning the worker that ran them — so the
    /// batch completes with every job done only if every worker took one.
    fn rendezvous_jobs(
        threads: usize,
    ) -> Vec<(
        impl FnOnce() -> Result<(), Option<usize>> + Send + 'static,
        impl for<'s> FnOnce(JobCtx<'s, ()>) -> Option<usize> + Send + 'static,
    )> {
        let arrived = Arc::new(AtomicUsize::new(0));
        (0..threads)
            .map(|_| {
                let arrived = Arc::clone(&arrived);
                (
                    || Ok(()),
                    move |ctx: JobCtx<'_, ()>| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let deadline = Instant::now() + Duration::from_secs(5);
                        while arrived.load(Ordering::SeqCst) < threads {
                            if Instant::now() > deadline {
                                return None;
                            }
                            std::thread::yield_now();
                        }
                        Some(ctx.worker)
                    },
                )
            })
            .collect()
    }

    #[test]
    fn panicking_job_is_contained() {
        let pool = Arc::new(GlobalPool::new(2, 0));
        let run = |jobs: Vec<(BoxedGate<usize>, BoxedJob<usize, ()>)>| {
            let (tx, rx) = std::sync::mpsc::channel();
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let _ = tx.send(pool.run_on(jobs, None).0);
            });
            rx.recv_timeout(Duration::from_secs(5)).expect("run_on returned within 5 s")
        };
        let jobs: Vec<(BoxedGate<usize>, BoxedJob<usize, ()>)> = vec![
            (Box::new(|| Ok(())), Box::new(|_| 7)),
            (Box::new(|| Ok(())), Box::new(|_| panic!("boom in job"))),
            (Box::new(|| panic!("boom in gate")), Box::new(|_| 9)),
        ];
        let results = run(jobs);
        assert_eq!(results[0], Ok(7));
        let err = results[1].clone().unwrap_err();
        assert_eq!(err.job, 1);
        assert!(err.to_string().contains("job 1 panicked: boom in job"), "{err}");
        assert_eq!(results[2].clone().unwrap_err().message, "boom in gate");

        // Both workers survived: a batch that needs every worker at once
        // still completes.
        let (tx, rx) = std::sync::mpsc::channel();
        let survivor = Arc::clone(&pool);
        std::thread::spawn(move || {
            let _ = tx.send(survivor.run_on(rendezvous_jobs(2), None).0);
        });
        let workers = rx.recv_timeout(Duration::from_secs(5)).expect("second batch completed");
        let mut workers = ok(workers);
        workers.sort_unstable();
        assert_eq!(workers, vec![Some(0), Some(1)], "every worker ran a job after the panic");
    }

    #[test]
    fn round_robin_interleaves_batches() {
        // One worker: submit batch A (4 morsels), and from inside A's first
        // morsel submit batch B (2 morsels) on another thread, then let the
        // worker drain. With the ring rotating after every claim the
        // interleaving is A0, (B admitted), A1, B0, A2, B1, A3.
        let pool = Arc::new(GlobalPool::new(1, 0));
        let log: Arc<Mutex<Vec<(char, usize)>>> = Arc::new(Mutex::new(Vec::new()));

        // Submit A from a helper thread; its first job blocks until B is in
        // the ring so the interleaving is deterministic.
        let b_in_ring: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
        let a_thread = {
            let pool = Arc::clone(&pool);
            let log = Arc::clone(&log);
            let b_in_ring = Arc::clone(&b_in_ring);
            std::thread::spawn(move || {
                let jobs: Vec<(BoxedGate<usize>, BoxedJob<usize, ()>)> = (0..4)
                    .map(|i| {
                        let log = Arc::clone(&log);
                        let b_in_ring = Arc::clone(&b_in_ring);
                        let gate: BoxedGate<usize> = Box::new(move || {
                            if i == 0 {
                                let mut ready = b_in_ring.0.lock();
                                while !*ready {
                                    b_in_ring.1.wait(&mut ready);
                                }
                            }
                            Ok(())
                        });
                        let job: BoxedJob<usize, ()> = Box::new(move |_| {
                            log.lock().push(('a', i));
                            i
                        });
                        (gate, job)
                    })
                    .collect();
                pool.run_on(jobs, None)
            })
        };

        // Wait until the worker has claimed A0 (it will block in A0's gate),
        // then submit B and release the gate.
        while pool.inner.state.lock().ring.front().is_none_or(|ab| ab.next == 0) {
            std::thread::yield_now();
        }
        let b_thread = {
            let pool = Arc::clone(&pool);
            let log = Arc::clone(&log);
            std::thread::spawn(move || pool.run_on(logged_jobs('b', 2, &log), None))
        };
        // B lands in the ring behind A, then A0's gate opens.
        while pool.inner.state.lock().ring.len() < 2 {
            std::thread::yield_now();
        }
        {
            let mut ready = b_in_ring.0.lock();
            *ready = true;
            b_in_ring.1.notify_all();
        }

        let (a_results, _) = a_thread.join().unwrap();
        let (b_results, _) = b_thread.join().unwrap();
        assert_eq!(ok(a_results), vec![0, 1, 2, 3]);
        assert_eq!(ok(b_results), vec![0, 1]);
        let order = log.lock().clone();
        assert_eq!(
            order,
            vec![('a', 0), ('a', 1), ('b', 0), ('a', 2), ('b', 1), ('a', 3)],
            "ring rotation interleaves the two batches one morsel at a time"
        );
    }

    #[test]
    fn admission_cap_serializes_batches() {
        // max_active = 1: batch B cannot start until batch A completes. One
        // worker keeps the within-batch log order deterministic.
        let pool = Arc::new(GlobalPool::new(1, 1));
        let log: Arc<Mutex<Vec<(char, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let release_a: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));

        let a_thread = {
            let pool = Arc::clone(&pool);
            let log = Arc::clone(&log);
            let release_a = Arc::clone(&release_a);
            std::thread::spawn(move || {
                let jobs: Vec<(BoxedGate<usize>, BoxedJob<usize, ()>)> = (0..2)
                    .map(|i| {
                        let log = Arc::clone(&log);
                        let release_a = Arc::clone(&release_a);
                        let gate: BoxedGate<usize> = Box::new(move || {
                            let mut go = release_a.0.lock();
                            while !*go {
                                release_a.1.wait(&mut go);
                            }
                            Ok(())
                        });
                        let job: BoxedJob<usize, ()> = Box::new(move |_| {
                            log.lock().push(('a', i));
                            i
                        });
                        (gate, job)
                    })
                    .collect();
                pool.run_on(jobs, None)
            })
        };
        // Wait until A is admitted.
        while pool.inner.state.lock().active == 0 {
            std::thread::yield_now();
        }
        let b_thread = {
            let pool = Arc::clone(&pool);
            let log = Arc::clone(&log);
            std::thread::spawn(move || pool.run_on(logged_jobs('b', 2, &log), None))
        };
        // B must be stuck at the admission door: active stays 1 and B's
        // morsels never enter the ring while A blocks.
        for _ in 0..50 {
            assert_eq!(pool.inner.state.lock().active, 1);
            std::thread::yield_now();
        }
        assert!(log.lock().is_empty(), "nothing ran while A holds its gates");
        {
            let mut go = release_a.0.lock();
            *go = true;
            release_a.1.notify_all();
        }
        a_thread.join().unwrap();
        b_thread.join().unwrap();
        let order = log.lock().clone();
        assert_eq!(
            order,
            vec![('a', 0), ('a', 1), ('b', 0), ('b', 1)],
            "admission cap of 1 serializes the batches"
        );
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = GlobalPool::new(2, 1);
        let jobs: Vec<(BoxedGate<usize>, BoxedJob<usize, ()>)> = Vec::new();
        let (results, sinks) = pool.run_on(jobs, None);
        assert!(results.is_empty());
        assert_eq!(sinks.len(), 2);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = GlobalPool::new(4, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (results, _) = pool.run_on(logged_jobs('a', 4, &log), None);
        assert_eq!(results.len(), 4);
        drop(pool); // must not hang
    }
}
