//! Chaos tier: deterministic fault injection under concurrency.
//!
//! A seeded [`FaultPlan`] drives panics and IO failures through a
//! server carrying 16 concurrent connections, and every property the
//! fault-tolerance story promises is asserted:
//!
//! * an injected panic answers its victims with a **structured**
//!   `internal_error` — the process never aborts and the server keeps
//!   serving;
//! * an engine-level panic **quarantines** the kernel handle; victims
//!   re-prepare the same spec and resume — and every successful run,
//!   before or after, is **byte-identical** to an oracle captured on a
//!   never-faulted engine;
//! * injected read/write faults sever exactly their victim connection;
//!   peers never notice and reconnecting clients converge;
//! * injected journal failures refuse the mutation with zero side
//!   effects, and recovery (including a torn journal tail) restores
//!   every applied tensor with its exact generation.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use systec_serve::protocol::{
    ErrorCode, Placement, Request, Response, StorageFormat, TensorPayload,
};
use systec_serve::{Client, Engine, FaultSite, RetryPolicy, ServerConfig};

const CONNS: usize = 16;
const RUNS_PER_CONN: u64 = 12;

fn config() -> ServerConfig {
    ServerConfig { executors: common::executors(), ..ServerConfig::default() }
}

/// 16 connections hammer one kernel while the plan injects an
/// executor-level panic (caught at the scheduler) and an engine-level
/// panic (caught around the kernel, quarantining the handle). Every
/// client must complete its quota of successful runs, each
/// byte-identical to the oracle; panics surface only as structured
/// errors.
#[test]
fn injected_panics_never_abort_and_survivors_stay_byte_identical() {
    let plan = Arc::new(
        common::plan(0xC4A05).nth(FaultSite::ExecutorPanic, 3).nth(FaultSite::ExecPanic, 7),
    );
    let engine = Engine::new().with_fault_plan(Arc::clone(&plan));
    let h = common::warmed_server_with(engine, config());
    let addr = h.server.addr();
    let oracle = Arc::new(h.oracle);
    let internal_errors = Arc::new(AtomicU64::new(0));
    let quarantined_refusals = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..CONNS)
        .map(|_| {
            let oracle = Arc::clone(&oracle);
            let internal_errors = Arc::clone(&internal_errors);
            let quarantined_refusals = Arc::clone(&quarantined_refusals);
            let mut kernel = h.kernel;
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut successes = 0u64;
                let mut budget = 10_000u32; // no silent infinite loop
                while successes < RUNS_PER_CONN {
                    budget = budget.checked_sub(1).expect("no convergence");
                    let line = client
                        .send_raw(&Request::Run { kernel, full: false, shard: None }.encode())
                        .unwrap();
                    match Response::decode(&line).unwrap() {
                        Response::Ran { .. } => {
                            assert_eq!(line, *oracle, "successful runs must be byte-identical");
                            successes += 1;
                        }
                        Response::Error { code: ErrorCode::Internal, .. } => {
                            // A panic victim: structured, retryable.
                            internal_errors.fetch_add(1, Ordering::SeqCst);
                        }
                        Response::Error { code: ErrorCode::KernelQuarantined, .. } => {
                            // The handle died; re-prepare mints a fresh
                            // one serving identical bytes.
                            quarantined_refusals.fetch_add(1, Ordering::SeqCst);
                            kernel = common::prepare_kernel(&mut client);
                        }
                        other => panic!("unexpected response: {other:?}"),
                    }
                }
                successes
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().expect("no client thread may die"), RUNS_PER_CONN);
    }

    // Both injections fired, were counted, and the server still serves.
    assert_eq!(plan.injected(FaultSite::ExecutorPanic), 1);
    assert_eq!(plan.injected(FaultSite::ExecPanic), 1);
    let mut probe = Client::connect(addr).unwrap();
    assert_eq!(probe.request(&Request::Ping).unwrap(), Response::Pong);
    let Response::Stats { serve, .. } = probe.request(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    assert!(serve.panics_caught >= 2, "both panics must be counted: {}", serve.panics_caught);
    assert_eq!(serve.quarantined_kernels, 1, "exactly the engine-level panic quarantines");
    // The quarantine was visible to at least one client (its victims
    // got internal_error; subsequent runs got the structured refusal).
    assert!(internal_errors.load(Ordering::SeqCst) >= 1);
    probe.request(&Request::Shutdown).unwrap();
    h.server.wait();
}

/// Injected socket faults (read and write) sever exactly their victim
/// connections. Clients reconnect with [`RetryPolicy`] backoff and
/// still complete their full quota of byte-identical runs; the server
/// never aborts.
#[test]
fn injected_io_faults_sever_only_their_victims() {
    let plan =
        Arc::new(common::plan(0x10FA).nth(FaultSite::ConnRead, 5).nth(FaultSite::ConnWrite, 11));
    let engine = Engine::new().with_fault_plan(Arc::clone(&plan));
    let h = common::warmed_server_with(engine, config());
    let addr = h.server.addr();
    let oracle = Arc::new(h.oracle);
    let kernel = h.kernel;

    let workers: Vec<_> = (0..CONNS)
        .map(|i| {
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    attempts: 8,
                    base: Duration::from_millis(5),
                    cap: Duration::from_millis(100),
                    seed: 0xBEEF + i as u64,
                };
                let mut client = Client::connect_with_retry(addr, &policy).unwrap();
                let mut successes = 0u64;
                let mut reconnects = 0u64;
                let mut budget = 10_000u32;
                while successes < RUNS_PER_CONN {
                    budget = budget.checked_sub(1).expect("no convergence");
                    match client
                        .send_raw(&Request::Run { kernel, full: false, shard: None }.encode())
                    {
                        Ok(line) => {
                            assert_eq!(line, *oracle, "severed peers must not corrupt survivors");
                            successes += 1;
                        }
                        Err(_) => {
                            // Our connection was the victim: reconnect
                            // and resume. Peers never see this.
                            reconnects += 1;
                            client = Client::connect_with_retry(addr, &policy).unwrap();
                        }
                    }
                }
                (successes, reconnects)
            })
        })
        .collect();
    let mut total_reconnects = 0u64;
    for w in workers {
        let (successes, reconnects) = w.join().expect("no client thread may die");
        assert_eq!(successes, RUNS_PER_CONN);
        total_reconnects += reconnects;
    }

    assert_eq!(plan.injected(FaultSite::ConnRead), 1);
    assert_eq!(plan.injected(FaultSite::ConnWrite), 1);
    assert!(total_reconnects >= 1, "at least one victim observed its severed connection");
    let mut probe = Client::connect(addr).unwrap();
    assert_eq!(probe.request(&Request::Ping).unwrap(), Response::Pong);
    probe.request(&Request::Shutdown).unwrap();
    h.server.wait();
}

/// Journal faults and a torn tail: registrations racing an injected
/// journal-write failure either apply (journaled, recovered exactly)
/// or refuse with zero side effects — and recovery after a torn tail
/// restores every applied tensor with its exact pre-crash generation.
#[test]
fn journal_faults_and_torn_tails_recover_every_applied_tensor() {
    let dir = std::env::temp_dir().join(format!("systec-chaos-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: a durable server with ~30% of journal appends failing.
    let plan = Arc::new(common::plan(0xD15C).rate(FaultSite::JournalWrite, 300_000));
    let engine = Engine::new()
        .with_fault_plan(Arc::clone(&plan))
        .with_data_dir(&dir)
        .expect("open data dir");
    let server = systec_serve::serve_with("127.0.0.1:0", engine, config()).expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    // Register many tensors; record exactly which applied and at what
    // generation — the recovery oracle.
    let mut applied: Vec<(String, u64)> = Vec::new();
    let mut refused = 0u64;
    for i in 0..24 {
        let name = format!("t{i}");
        let resp = client
            .request(&Request::RegisterTensor {
                name: name.clone(),
                dims: vec![3],
                payload: TensorPayload::Dense(vec![i as f64, 1.0, -1.0]),
                format: StorageFormat::Auto,
                placement: Placement::Hash,
            })
            .unwrap();
        match resp {
            Response::Registered { generation, .. } => applied.push((name, generation)),
            Response::Error { code: ErrorCode::Internal, .. } => refused += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(refused >= 1, "the injected journal failures must have fired");
    assert!(plan.injected(FaultSite::JournalWrite) >= 1);
    // A refused registration has zero side effects: the live count is
    // exactly the applied set.
    let Response::Stats { serve, .. } = client.request(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    assert_eq!(serve.registry_tensors as usize, applied.len());

    // Graceful shutdown drains and flushes the journal.
    client.request(&Request::Shutdown).unwrap();
    server.wait();

    // Tear the journal tail: append garbage bytes as a crash mid-append
    // would.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("journal.dat"))
            .expect("journal exists");
        f.write_all(&[0x17, 0xFF, 0x00, 0x42, 0x99]).unwrap();
    }

    // Phase 2: recover. Every applied tensor must be back; the torn
    // tail must be counted; generations must be exact (asserted by
    // re-registering: the next generation is exactly old + 1).
    let engine = Engine::new().with_data_dir(&dir).expect("recover data dir");
    let Response::Stats { serve, .. } = engine.handle(&Request::Stats) else { panic!() };
    assert_eq!(serve.registry_tensors as usize, applied.len(), "every applied tensor recovers");
    assert!(serve.recovery_replayed as usize >= applied.len());
    assert!(serve.recovery_truncated >= 5, "the torn tail was measured and dropped");
    for (name, generation) in &applied {
        let resp = engine.handle(&Request::RegisterTensor {
            name: name.clone(),
            dims: vec![3],
            payload: TensorPayload::Dense(vec![0.0, 0.0, 0.0]),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        let Response::Registered { generation: next, .. } = resp else { panic!("{resp:?}") };
        assert_eq!(next, generation + 1, "generation counter for {name} must survive recovery");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
