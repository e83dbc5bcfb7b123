//! The request scheduler: a small executor pool that **coalesces
//! concurrent `run` requests for the same prepared kernel** into one
//! engine dispatch.
//!
//! The transport ([`crate::server`]) never blocks on the engine: it
//! submits decoded requests here tagged with a connection id and gets
//! the encoded response line back through a completion callback. Run
//! requests are keyed by `(kernel, full)`; when an executor picks a key
//! it drains up to `max_batch` queued requests and serves them with a
//! **single** [`Engine::run_batch`] execution — one pool dispatch, one
//! wakeup round, one response encoding — then replicates the shared
//! line to every requester. Responses stay byte-deterministic because
//! identical runs of a prepared kernel are byte-deterministic (PR 2),
//! so serving N requests one execution is indistinguishable on the
//! wire from serving them N executions.
//!
//! Deadlines are enforced at dequeue: a request that waited longer than
//! the configured per-request deadline is answered with a structured
//! `deadline_exceeded` error instead of being dispatched. With no
//! deadline configured nothing ever expires.
//!
//! Very large batch responses do not monopolize the executor: when a
//! coalesced run's output crosses [`LARGE_OUTPUT_ELEMS`] elements, the
//! executor hands the un-encoded response and the requester list to a
//! dedicated replicator thread, which encodes the line once and fans
//! it out. The executor is immediately free to dispatch the next
//! batch; small responses (the overwhelmingly common case) are encoded
//! inline to keep their latency minimal.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::Engine;
use crate::fault::{FaultPlan, FaultSite};
use crate::protocol::{ErrorCode, Request, Response};
use crate::relock;
use crate::server::{Completion, Service};

/// Output element count past which a batch response is encoded and
/// replicated on the dedicated replicator thread instead of the
/// executor (64K f64s ≈ a 1.5MB response line: encoding it inline
/// would stall every batch queued behind it).
const LARGE_OUTPUT_ELEMS: usize = 64 * 1024;

/// A large batch response in flight to the replicator thread: the
/// un-encoded response plus every requester awaiting the shared line.
struct ReplicateJob {
    response: Response,
    conns: Vec<u64>,
}

/// Total output elements of a response (0 for non-run responses).
fn response_elems(response: &Response) -> usize {
    match response {
        Response::Ran { outputs, .. } => outputs.iter().map(|o| o.values.len()).sum(),
        _ => 0,
    }
}

/// One queued request.
struct Task {
    conn: u64,
    request: Request,
    enqueued: Instant,
}

#[derive(Default)]
struct SchedState {
    /// Non-run requests, strictly FIFO.
    general: VecDeque<Task>,
    /// Run requests bucketed by [`RunKey`].
    run_queues: HashMap<RunKey, VecDeque<Task>>,
    /// Round-robin order over the non-empty run buckets, so one hot
    /// kernel cannot starve another.
    run_order: VecDeque<RunKey>,
    /// Total queued tasks (mirrors the `queue_depth` gauge).
    depth: usize,
    /// While `true`, executors leave the queues alone (tests use this
    /// to build a deterministic batch before releasing it).
    paused: bool,
    shutdown: bool,
}

struct Shared {
    engine: Arc<Engine>,
    state: Mutex<SchedState>,
    work: Condvar,
    max_batch: usize,
    deadline: Option<Duration>,
    complete: Completion,
    /// Sender half of the replicator channel; `None` once shutdown has
    /// hung up (late large responses then fall back to inline encoding).
    large: Mutex<Option<mpsc::Sender<ReplicateJob>>>,
}

/// The coalescing key: `(kernel, full, shard)`. Only byte-identical
/// run requests share a bucket — a sharded sub-range run never
/// coalesces with a different range or the unsharded whole.
type RunKey = (u64, bool, Option<(u64, u64)>);

/// What an executor pulled out of the queues in one lock acquisition.
enum Work {
    One(Task),
    Batch(RunKey, Vec<Task>),
}

/// The coalescing request scheduler. Owns its executor threads; they
/// drain outstanding work and exit on [`Scheduler::shutdown`] (or
/// drop).
pub struct Scheduler {
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
    replicator: Option<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts `executors` executor threads over `engine`. Run requests
    /// for the same `(kernel, full)` key coalesce up to `max_batch` per
    /// dispatch; `deadline`, when set, bounds how long any request may
    /// wait in queue before it is refused.
    pub fn new(
        engine: Arc<Engine>,
        executors: usize,
        max_batch: usize,
        deadline: Option<Duration>,
        complete: Completion,
    ) -> Scheduler {
        let (tx, rx) = mpsc::channel::<ReplicateJob>();
        let shared = Arc::new(Shared {
            engine,
            state: Mutex::new(SchedState::default()),
            work: Condvar::new(),
            max_batch: max_batch.max(1),
            deadline,
            complete,
            large: Mutex::new(Some(tx)),
        });
        let replicator = {
            let complete = Arc::clone(&shared.complete);
            std::thread::Builder::new()
                .name("systec-serve-replicate".to_string())
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let line = Arc::new(job.response.encode());
                        for conn in job.conns {
                            (complete)(conn, Arc::clone(&line));
                        }
                    }
                })
                .expect("spawn scheduler replicator")
        };
        let executors = (0..executors.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("systec-serve-exec-{i}"))
                    .spawn(move || executor(&shared))
                    .expect("spawn scheduler executor")
            })
            .collect();
        Scheduler { shared, executors, replicator: Some(replicator) }
    }

    /// Enqueues one decoded request from connection `conn`. The
    /// response arrives through the completion callback, possibly on
    /// another thread, possibly before this returns.
    pub fn submit(&self, conn: u64, request: Request) {
        let mut st = relock(&self.shared.state);
        let task = Task { conn, request, enqueued: Instant::now() };
        match task.request {
            Request::Run { kernel, full, shard } => {
                let key = (kernel, full, shard);
                if st.run_queues.entry(key).or_default().is_empty() {
                    st.run_order.push_back(key);
                }
                st.run_queues.get_mut(&key).expect("just inserted").push_back(task);
            }
            _ => st.general.push_back(task),
        }
        st.depth += 1;
        self.shared.engine.serve_metrics().queued.set(st.depth as u64);
        drop(st);
        self.shared.work.notify_one();
    }

    /// Stops executors from dequeuing, letting submissions pile up into
    /// deterministic batches (test hook; admission keeps running).
    pub fn pause(&self) {
        relock(&self.shared.state).paused = true;
    }

    /// Releases a [`Scheduler::pause`].
    pub fn resume(&self) {
        relock(&self.shared.state).paused = false;
        self.shared.work.notify_all();
    }

    /// Drains outstanding work, stops the executors and the replicator,
    /// and joins them (in-flight large responses are fully fanned out
    /// before the replicator exits).
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        self.join_replicator();
    }

    /// Hangs up the replicator channel (executors are already joined,
    /// so no new jobs can arrive) and joins the thread.
    fn join_replicator(&mut self) {
        relock(&self.shared.large).take();
        if let Some(handle) = self.replicator.take() {
            let _ = handle.join();
        }
    }

    fn begin_shutdown(&self) {
        let mut st = relock(&self.shared.state);
        st.shutdown = true;
        // Shutdown overrides pause: a paused scheduler must still
        // drain and exit rather than hang its joiner.
        st.paused = false;
        drop(st);
        self.shared.work.notify_all();
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
        self.begin_shutdown();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        self.join_replicator();
    }
}

fn executor(shared: &Shared) {
    loop {
        let mut st = relock(&shared.state);
        let work = loop {
            if !st.paused {
                if let Some(task) = st.general.pop_front() {
                    st.depth -= 1;
                    shared.engine.serve_metrics().queued.set(st.depth as u64);
                    break Work::One(task);
                }
                if let Some(key) = st.run_order.pop_front() {
                    let queue = st.run_queues.get_mut(&key).expect("ordered key has a queue");
                    let take = queue.len().min(shared.max_batch);
                    let batch: Vec<Task> = queue.drain(..take).collect();
                    if queue.is_empty() {
                        st.run_queues.remove(&key);
                    } else {
                        // Leftovers keep their place in the rotation.
                        st.run_order.push_back(key);
                    }
                    st.depth -= batch.len();
                    shared.engine.serve_metrics().queued.set(st.depth as u64);
                    break Work::Batch(key, batch);
                }
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
        // the completions, wedging every victim connection's
        // one-in-flight gate forever.
        match work {
            Work::One(task) => {
                let line = catch_unwind(AssertUnwindSafe(|| one_reply(shared, &task)))
                    .unwrap_or_else(|_panic| {
                        shared.engine.serve_metrics().panics_caught.inc();
                        shared.engine.count_error();
                        internal_reply()
                    });
                (shared.complete)(task.conn, line);
            }
            Work::Batch(key, batch) => {
                let mut live = Vec::with_capacity(batch.len());
                for task in batch {
                    if expired(shared, &task) {
                        let line = deadline_reply(shared, &task);
                        (shared.complete)(task.conn, line);
                    } else {
                        live.push(task);
                    }
                }
                if live.is_empty() {
                    continue;
                }
                // `dispatch_batch` removes tasks from `live` as it
                // answers them; whatever a panic leaves behind gets a
                // structured internal_error so no requester ever hangs.
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| dispatch_batch(shared, key, &mut live)));
                if outcome.is_err() {
                    shared.engine.serve_metrics().panics_caught.inc();
                    let line = internal_reply();
                    for task in live.drain(..) {
                        shared.engine.count_error();
                        (shared.complete)(task.conn, Arc::clone(&line));
                    }
                }
            }
        }
    }
}

/// Serves one non-coalesced task and returns its encoded reply.
fn one_reply(shared: &Shared, task: &Task) -> Arc<String> {
    if expired(shared, task) {
        deadline_reply(shared, task)
    } else {
        Arc::new(shared.engine.handle(&task.request).encode())
    }
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

/// Dispatches one coalesced batch, answering and removing every task in
/// `live`. Split out of [`executor`] so its caller can catch a panic
/// and account for exactly the tasks left unanswered.
fn dispatch_batch(shared: &Shared, (kernel, full, shard): RunKey, live: &mut Vec<Task>) {
    if let Some(plan) = shared.engine.fault_plan() {
        if plan.fire(FaultSite::DispatchDelay) {
            std::thread::sleep(plan.delay());
        }
        if plan.fire(FaultSite::ExecutorPanic) {
            panic!("injected executor panic");
        }
    }
    // Deadline re-check immediately *before* dispatch: the check at
    // dequeue happened an arbitrary scheduling delay ago (the executor
    // may have stalled on the previous batch), and a batch assembled
    // just under the wire must not run arbitrarily late.
    let mut i = 0;
    while i < live.len() {
        if expired(shared, &live[i]) {
            let task = live.remove(i);
            let line = deadline_reply(shared, &task);
            (shared.complete)(task.conn, line);
        } else {
            i += 1;
        }
    }
    if live.is_empty() {
        return;
    }
    let n = live.len() as u64;
    let response = shared.engine.run_batch(kernel, full, shard, n);
    let response = if response_elems(&response) >= LARGE_OUTPUT_ELEMS {
        // Hand the body off: encoding a multi-megabyte line
        // and fanning it out would stall this executor.
        let job = ReplicateJob { response, conns: live.iter().map(|t| t.conn).collect() };
        let sent = match relock(&shared.large).as_ref() {
            Some(tx) => tx.send(job).map_err(|mpsc::SendError(j)| j),
            None => Err(job),
        };
        match sent {
            Ok(()) => {
                shared.engine.serve_metrics().offloaded_replications.inc();
                live.clear();
                return;
            }
            // Channel already hung up (shutdown race):
            // encode inline after all.
            Err(job) => job.response,
        }
    } else {
        response
    };
    let line = Arc::new(response.encode());
    for task in live.drain(..) {
        (shared.complete)(task.conn, Arc::clone(&line));
    }
}

fn expired(shared: &Shared, task: &Task) -> bool {
    shared.deadline.is_some_and(|limit| task.enqueued.elapsed() >= limit)
}

fn deadline_reply(shared: &Shared, task: &Task) -> Arc<String> {
    let limit = shared.deadline.expect("only expired tasks get here");
    shared.engine.count_error();
    shared.engine.serve_metrics().deadline_exceeded.inc();
    Arc::new(
        Response::error(
            ErrorCode::DeadlineExceeded,
            format!(
                "request waited {}ms in queue, over the {}ms deadline",
                task.enqueued.elapsed().as_millis(),
                limit.as_millis()
            ),
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

    fn warmed_engine() -> (Arc<Engine>, u64) {
        warm(Arc::new(Engine::new()))
    }

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

    #[test]
    fn paused_submissions_coalesce_into_one_byte_identical_dispatch() {
        let (engine, kernel) = warmed_engine();
        let oracle = engine.handle(&Request::Run { kernel, full: false, shard: None }).encode();
        let dispatches_before = engine.serve_metrics().batch_dispatches.get();

        let log = CompletionLog::new();
        let scheduler = Scheduler::new(Arc::clone(&engine), 1, 32, None, log.sink());
        scheduler.pause();
        for conn in 0..5 {
            scheduler.submit(conn, Request::Run { kernel, full: false, shard: None });
        }
        assert_eq!(engine.serve_metrics().queued.get(), 5);
        scheduler.resume();
        let completions = log.wait_for(5);
        assert_eq!(completions.len(), 5, "every requester must be answered");
        for (_, line) in &completions {
            assert_eq!(**line, oracle, "coalesced responses must match the serial oracle");
        }
        let m = engine.serve_metrics();
        assert_eq!(m.batch_dispatches.get() - dispatches_before, 1, "5 runs, one dispatch");
        assert_eq!(m.batched_runs.get(), 5);
        assert_eq!(m.queued.get(), 0, "queue drained");
        scheduler.shutdown();
        // Request accounting is indistinguishable from serial serving:
        // the oracle run plus the 5 coalesced ones.
        let Response::Stats { requests, .. } = engine.handle(&Request::Stats) else { panic!() };
        assert_eq!(requests.run, 6);
    }

    #[test]
    fn distinct_keys_do_not_coalesce_together() {
        let (engine, kernel) = warmed_engine();
        let log = CompletionLog::new();
        let scheduler = Scheduler::new(Arc::clone(&engine), 1, 32, None, log.sink());
        scheduler.pause();
        // Same kernel, but `full` differs: two keys, two dispatches.
        scheduler.submit(0, Request::Run { kernel, full: false, shard: None });
        scheduler.submit(1, Request::Run { kernel, full: true, shard: None });
        scheduler.submit(2, Request::Run { kernel, full: false, shard: None });
        // A general request rides alongside without joining any batch.
        scheduler.submit(3, Request::Ping);
        scheduler.resume();
        let completions = log.wait_for(4);
        assert_eq!(completions.len(), 4);
        let pong = completions.iter().find(|(conn, _)| *conn == 3).expect("ping answered");
        assert_eq!(Response::decode(&pong.1).unwrap(), Response::Pong);
        let m = engine.serve_metrics();
        assert_eq!(m.batch_dispatches.get(), 2, "one per (kernel, full) key");
        assert_eq!(m.batched_runs.get(), 3);
        scheduler.shutdown();
    }

    #[test]
    fn executor_panic_answers_every_victim_and_keeps_serving() {
        use crate::fault::{FaultPlan, FaultSite};
        let engine = Arc::new(
            Engine::new()
                .with_fault_plan(Arc::new(FaultPlan::seeded(11).nth(FaultSite::ExecutorPanic, 1))),
        );
        let (engine, kernel) = warm(engine);
        let oracle = engine.handle(&Request::Run { kernel, full: false, shard: None }).encode();

        let log = CompletionLog::new();
        let scheduler = Scheduler::new(Arc::clone(&engine), 1, 32, None, log.sink());
        scheduler.pause();
        for conn in 0..3 {
            scheduler.submit(conn, Request::Run { kernel, full: false, shard: None });
        }
        scheduler.resume();
        // Regression: before the catch, the injected panic killed the
        // sole executor thread and these three completions never came —
        // the victims' one-in-flight gates stayed wedged forever.
        let completions = log.wait_for(3);
        assert_eq!(completions.len(), 3, "every victim of the panic is answered");
        for (_, line) in &completions {
            let resp = Response::decode(line).unwrap();
            assert!(matches!(resp, Response::Error { code: ErrorCode::Internal, .. }), "{resp:?}");
        }
        assert_eq!(engine.serve_metrics().panics_caught.get(), 1);
        // The same executor thread keeps serving byte-identically.
        scheduler.submit(7, Request::Run { kernel, full: false, shard: None });
        let completions = log.wait_for(4);
        let after = completions.iter().find(|(conn, _)| *conn == 7).expect("served after panic");
        assert_eq!(**after.1, *oracle);
        scheduler.shutdown();
        let Response::Stats { requests, .. } = engine.handle(&Request::Stats) else { panic!() };
        assert_eq!(requests.errors, 3, "one error per orphaned victim");
    }

    #[test]
    fn deadline_is_rechecked_immediately_before_dispatch() {
        use crate::fault::{FaultPlan, FaultSite};
        // The dequeue-time check passes (the task just arrived), then an
        // injected stall pushes the batch past the deadline: the
        // pre-dispatch re-check must refuse it instead of running late.
        let plan = FaultPlan::seeded(3)
            .nth(FaultSite::DispatchDelay, 1)
            .delay_for(Duration::from_millis(80));
        let engine = Arc::new(Engine::new().with_fault_plan(Arc::new(plan)));
        let (engine, kernel) = warm(engine);
        let log = CompletionLog::new();
        let scheduler =
            Scheduler::new(Arc::clone(&engine), 1, 32, Some(Duration::from_millis(20)), log.sink());
        scheduler.submit(0, Request::Run { kernel, full: false, shard: None });
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
        let (engine, kernel) = warmed_engine();
        let log = CompletionLog::new();
        let scheduler =
            Scheduler::new(Arc::clone(&engine), 1, 32, Some(Duration::ZERO), log.sink());
        for conn in 0..3 {
            scheduler.submit(conn, Request::Run { kernel, full: false, shard: None });
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
