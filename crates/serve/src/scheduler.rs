//! The request scheduler: **one FIFO queue, a small executor pool, one
//! reply path.**
//!
//! The transport ([`crate::server`]) never blocks on the engine: it
//! submits decoded requests here tagged with a connection id and gets
//! the encoded response line back through a completion callback. Every
//! request — `run` or not — waits in one `VecDeque` in arrival order;
//! an executor dequeues the oldest, hands it to [`Engine::handle`],
//! encodes the reply and completes it. One `run` is one execution:
//! identical concurrent runs are not deduplicated (that is a result
//! cache's job, and no measured load holds enough identical runs in
//! flight for one to pay — `engine.batch_mean` was 1.000–1.033 on every
//! served benchmark workload when the coalescing tier was removed).
//!
//! Deadlines are enforced at dequeue, which is immediately before
//! dispatch: a request that waited longer than the configured
//! per-request deadline is answered with a structured
//! `deadline_exceeded` error instead of reaching the engine. With no
//! deadline configured nothing ever expires.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::Engine;
use crate::fault::{FaultPlan, FaultSite};
use crate::protocol::{ErrorCode, Request, Response};
use crate::relock;
use crate::server::{Completion, Service};

/// One queued request.
struct Task {
    conn: u64,
    request: Request,
    enqueued: Instant,
}

#[derive(Default)]
struct SchedState {
    /// Every queued request, in arrival order (its length is the
    /// `queue_depth` gauge).
    queue: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    engine: Arc<Engine>,
    state: Mutex<SchedState>,
    work: Condvar,
    deadline: Option<Duration>,
    complete: Completion,
}

/// The request scheduler. Owns its executor threads; they drain
/// outstanding work and exit on [`Scheduler::shutdown`] (or drop).
pub struct Scheduler {
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts `executors` executor threads over `engine`. `deadline`,
    /// when set, bounds how long any request may wait in queue before
    /// it is refused.
    pub fn new(
        engine: Arc<Engine>,
        executors: usize,
        deadline: Option<Duration>,
        complete: Completion,
    ) -> Scheduler {
        let shared = Arc::new(Shared {
            engine,
            state: Mutex::new(SchedState::default()),
            work: Condvar::new(),
            deadline,
            complete,
        });
        let executors = (0..executors.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("systec-serve-exec-{i}"))
                    .spawn(move || executor(&shared))
                    .expect("spawn scheduler executor")
            })
            .collect();
        Scheduler { shared, executors }
    }

    /// Enqueues one decoded request from connection `conn`. The
    /// response arrives through the completion callback, possibly on
    /// another thread, possibly before this returns.
    pub fn submit(&self, conn: u64, request: Request) {
        let mut st = relock(&self.shared.state);
        st.queue.push_back(Task { conn, request, enqueued: Instant::now() });
        self.shared.engine.serve_metrics().queued.set(st.queue.len() as u64);
        drop(st);
        self.shared.work.notify_one();
    }

    /// Drains outstanding work, stops the executors and joins them —
    /// what dropping the scheduler does, by name.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// A worker behind the event loop: the loop's requests queue here, and
/// what the loop refuses by itself lands in the engine's counters.
impl Service for Scheduler {
    fn submit(&self, conn: u64, request: Request, _line: String) {
        Scheduler::submit(self, conn, request);
    }

    fn refused(&self, code: ErrorCode) {
        self.shared.engine.count_error();
        if code == ErrorCode::AdmissionRejected {
            self.shared.engine.serve_metrics().rejected_conns.inc();
        }
    }

    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.shared.engine.fault_plan()
    }

    fn stopped(&self) {
        self.shared.engine.flush_journal();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        relock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
    }
}

fn executor(shared: &Shared) {
    loop {
        let mut st = relock(&shared.state);
        let task = loop {
            if let Some(task) = st.queue.pop_front() {
                shared.engine.serve_metrics().queued.set(st.queue.len() as u64);
                break task;
            }
            if st.shutdown {
                return;
            }
            st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
        };
        drop(st);
        // Every dequeued task is answered exactly once, even when the
        // work panics out from under it: a panic reaching this frame
        // would otherwise kill the executor thread and silently drop
        // the completion, wedging the victim connection's one-in-flight
        // gate forever.
        let line = catch_unwind(AssertUnwindSafe(|| reply(shared, &task))).unwrap_or_else(|_| {
            shared.engine.serve_metrics().panics_caught.inc();
            shared.engine.count_error();
            internal_reply()
        });
        (shared.complete)(task.conn, line);
    }
}

/// Serves one dequeued task and returns its encoded reply.
fn reply(shared: &Shared, task: &Task) -> Arc<String> {
    if matches!(task.request, Request::Run { .. }) {
        if let Some(plan) = shared.engine.fault_plan() {
            if plan.fire(FaultSite::DispatchDelay) {
                std::thread::sleep(plan.delay());
            }
            if plan.fire(FaultSite::ExecutorPanic) {
                panic!("injected executor panic");
            }
        }
    }
    // The one deadline check, immediately before dispatch: whatever
    // held this request up — the queue, or an executor stalled on the
    // one before it — it must not run arbitrarily late.
    let waited = task.enqueued.elapsed();
    if let Some(limit) = shared.deadline.filter(|limit| waited >= *limit) {
        shared.engine.count_error();
        shared.engine.serve_metrics().deadline_exceeded.inc();
        let message = format!(
            "request waited {}ms in queue, over the {}ms deadline",
            waited.as_millis(),
            limit.as_millis()
        );
        return Arc::new(Response::error(ErrorCode::DeadlineExceeded, message).encode());
    }
    Arc::new(shared.engine.handle(&task.request).encode())
}

/// The reply for a request orphaned by an executor panic. The code is
/// retryable: the panic quarantined whatever caused it, so a retried
/// request either succeeds or gets a precise `kernel_quarantined`.
fn internal_reply() -> Arc<String> {
    Arc::new(
        Response::error(
            ErrorCode::Internal,
            "executor panicked while serving this request; it was not completed",
        )
        .encode(),
    )
}

/// A completion sink for tests: collects `(conn, line)` pairs and
/// counts them, so callers can wait for a known number of completions
/// without sleeping blind.
#[cfg(test)]
pub(crate) struct CompletionLog {
    entries: Mutex<Vec<(u64, Arc<String>)>>,
    count: AtomicU64,
}

#[cfg(test)]
impl CompletionLog {
    pub(crate) fn new() -> Arc<CompletionLog> {
        Arc::new(CompletionLog { entries: Mutex::new(Vec::new()), count: AtomicU64::new(0) })
    }

    pub(crate) fn sink(self: &Arc<Self>) -> Completion {
        let log = Arc::clone(self);
        Arc::new(move |conn, line| {
            relock(&log.entries).push((conn, line));
            log.count.fetch_add(1, Ordering::Release);
        })
    }

    /// Blocks (politely) until `n` completions arrived or ~5s passed.
    pub(crate) fn wait_for(&self, n: u64) -> Vec<(u64, Arc<String>)> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.count.load(Ordering::Acquire) < n && Instant::now() < deadline {
            std::thread::yield_now();
            std::thread::sleep(Duration::from_micros(200));
        }
        relock(&self.entries).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Placement, StorageFormat, TensorPayload, Variant};

    /// Registers the SSYMV fixture and prepares its kernel on `engine`.
    fn warm(engine: Arc<Engine>) -> (Arc<Engine>, u64) {
        let resp = engine.handle(&Request::RegisterTensor {
            name: "A".into(),
            dims: vec![4, 4],
            payload: TensorPayload::Coo(vec![
                (vec![0, 1], 2.0),
                (vec![1, 0], 2.0),
                (vec![2, 3], 1.5),
                (vec![3, 2], 1.5),
            ]),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        let resp = engine.handle(&Request::RegisterTensor {
            name: "x".into(),
            dims: vec![4],
            payload: TensorPayload::Dense(vec![1.0, 2.0, 3.0, 4.0]),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
            sym: vec!["A".into()],
            inputs: vec![],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: false,
        });
        let Response::Prepared { kernel, .. } = resp else { panic!("{resp:?}") };
        (engine, kernel)
    }

    fn run(kernel: u64, full: bool) -> Request {
        Request::Run { kernel, full, shard: None }
    }

    #[test]
    fn requests_are_served_in_arrival_order() {
        // The lone executor is held inside the first run, so the next
        // three requests queue up behind it whatever their kind or key.
        let plan = Arc::new(
            FaultPlan::seeded(5).nth(FaultSite::ExecDelay, 1).delay_for(Duration::from_millis(250)),
        );
        let (engine, kernel) = warm(Arc::new(Engine::new().with_fault_plan(Arc::clone(&plan))));
        let log = CompletionLog::new();
        let scheduler = Scheduler::new(Arc::clone(&engine), 1, None, log.sink());
        scheduler.submit(0, run(kernel, false));
        let held = Instant::now() + Duration::from_secs(5);
        while plan.injected(FaultSite::ExecDelay) == 0 && Instant::now() < held {
            std::thread::yield_now();
        }
        scheduler.submit(1, run(kernel, false));
        scheduler.submit(2, Request::Ping);
        scheduler.submit(3, run(kernel, true));
        assert_eq!(engine.serve_metrics().queued.get(), 3);
        let completions = log.wait_for(4);
        let order: Vec<u64> = completions.iter().map(|(conn, _)| *conn).collect();
        assert_eq!(order, [0, 1, 2, 3], "one executor answers in submission order");
        assert_eq!(**completions[0].1, **completions[1].1, "identical runs, identical bytes");
        assert_eq!(Response::decode(&completions[2].1).unwrap(), Response::Pong);
        let m = engine.serve_metrics();
        assert_eq!(m.queued.get(), 0, "queue drained");
        assert_eq!((m.batch_dispatches.get(), m.batched_runs.get()), (3, 3), "one per run");
        scheduler.shutdown();
    }

    #[test]
    fn executor_panic_answers_its_victim_and_keeps_serving() {
        let engine = Arc::new(
            Engine::new()
                .with_fault_plan(Arc::new(FaultPlan::seeded(11).nth(FaultSite::ExecutorPanic, 1))),
        );
        let (engine, kernel) = warm(engine);
        let oracle = engine.handle(&run(kernel, false)).encode();

        let log = CompletionLog::new();
        let scheduler = Scheduler::new(Arc::clone(&engine), 1, None, log.sink());
        for conn in 0..3 {
            scheduler.submit(conn, run(kernel, false));
        }
        // Regression: before the catch, the injected panic killed the
        // sole executor thread and no completion ever came — the
        // victim's one-in-flight gate stayed wedged forever.
        let completions = log.wait_for(3);
        assert_eq!(completions.len(), 3, "the victim of the panic is answered too");
        let resp = Response::decode(&completions[0].1).unwrap();
        assert!(matches!(resp, Response::Error { code: ErrorCode::Internal, .. }), "{resp:?}");
        assert_eq!(engine.serve_metrics().panics_caught.get(), 1);
        // The same executor thread keeps serving byte-identically.
        for (_, line) in &completions[1..] {
            assert_eq!(**line, oracle);
        }
        scheduler.shutdown();
        let Response::Stats { requests, .. } = engine.handle(&Request::Stats) else { panic!() };
        assert_eq!(requests.errors, 1, "one victim per panic");
    }

    #[test]
    fn a_run_stalled_past_its_deadline_is_refused_not_dispatched() {
        // The task is fresh at dequeue, then an injected stall pushes it
        // past the deadline: the check sits after the stall, immediately
        // before dispatch, so it refuses instead of running late.
        let plan = FaultPlan::seeded(3)
            .nth(FaultSite::DispatchDelay, 1)
            .delay_for(Duration::from_millis(80));
        let engine = Arc::new(Engine::new().with_fault_plan(Arc::new(plan)));
        let (engine, kernel) = warm(engine);
        let log = CompletionLog::new();
        let scheduler =
            Scheduler::new(Arc::clone(&engine), 1, Some(Duration::from_millis(20)), log.sink());
        scheduler.submit(0, run(kernel, false));
        let completions = log.wait_for(1);
        assert_eq!(completions.len(), 1);
        let resp = Response::decode(&completions[0].1).unwrap();
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::DeadlineExceeded, .. }),
            "{resp:?}"
        );
        let m = engine.serve_metrics();
        assert_eq!(m.deadline_exceeded.get(), 1);
        assert_eq!(m.batch_dispatches.get(), 0, "refused before the dispatch was counted");
        scheduler.shutdown();
        let Response::Stats { requests, .. } = engine.handle(&Request::Stats) else { panic!() };
        assert_eq!(requests.run, 0, "the refused run never reached the engine");
    }

    #[test]
    fn zero_deadline_refuses_every_queued_run_structurally() {
        let (engine, kernel) = warm(Arc::new(Engine::new()));
        let log = CompletionLog::new();
        let scheduler = Scheduler::new(Arc::clone(&engine), 1, Some(Duration::ZERO), log.sink());
        for conn in 0..3 {
            scheduler.submit(conn, run(kernel, false));
        }
        let completions = log.wait_for(3);
        assert_eq!(completions.len(), 3);
        for (_, line) in &completions {
            let resp = Response::decode(line).unwrap();
            assert!(
                matches!(resp, Response::Error { code: ErrorCode::DeadlineExceeded, .. }),
                "{resp:?}"
            );
        }
        let m = engine.serve_metrics();
        assert_eq!(m.deadline_exceeded.get(), 3);
        assert_eq!(m.batch_dispatches.get(), 0, "nothing was dispatched");
        scheduler.shutdown();
        let Response::Stats { requests, .. } = engine.handle(&Request::Stats) else { panic!() };
        assert_eq!(requests.errors, 3, "deadline refusals count as errors");
        assert_eq!(requests.run, 0, "refused runs never reached the engine");
    }
}
