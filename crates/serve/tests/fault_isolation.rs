//! Fault-isolation tier (on the shared `common` harness, like the
//! chaos tier): misbehaving connections must not disturb well-behaved
//! ones, and shutdown must leak no workers.
//!
//! * garbage lines get a structured `parse` error and the connection
//!   **stays open**;
//! * a connection that disconnects mid-request (no trailing newline)
//!   is cleaned up while in-flight traffic on other connections
//!   completes normally;
//! * unregistered tensors / bad handles get error replies, not drops;
//! * shutdown joins every connection handler (`active_connections`
//!   returns to zero) and — reusing PR 4's pool-reuse assertion — the
//!   steady-state run traffic spawned **zero** extra `rayon` pool
//!   workers beyond warmup.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use systec_serve::protocol::{
    ErrorCode, Placement, Request, Response, StorageFormat, TensorPayload, Variant,
};
use systec_serve::{serve, Client, Engine};

#[test]
fn faulty_connections_are_isolated_and_shutdown_leaks_nothing() {
    let common::Harness { server, kernel, oracle } = common::warmed_server();
    let addr = server.addr();

    // A well-behaved connection runs continuously in the background
    // while the faults below happen, checking every response against
    // the harness oracle (captured on a separate, never-faulted
    // engine).
    let stop = Arc::new(AtomicBool::new(false));
    let victim_stop = Arc::clone(&stop);
    let victim = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let expected = oracle;
        let mut completed = 0u64;
        while !victim_stop.load(Ordering::SeqCst) {
            let line = client
                .send_raw(&Request::Run { kernel, full: false, shard: None }.encode())
                .unwrap();
            assert_eq!(line, expected, "in-flight runs must be untouched by faulty peers");
            completed += 1;
        }
        completed
    });

    // Fault 1: garbage, then a valid request on the SAME connection —
    // the server answers a structured error and keeps the line open.
    let mut faulty = Client::connect(addr).unwrap();
    for garbage in ["this is not json", "{\"op\":", "{\"op\":\"warp\"}", "{}"] {
        let line = faulty.send_raw(garbage).unwrap();
        match Response::decode(&line).unwrap() {
            Response::Error { code: ErrorCode::Parse, .. } => {}
            other => panic!("garbage `{garbage}` got {other:?}"),
        }
    }
    assert_eq!(faulty.request(&Request::Ping).unwrap(), Response::Pong, "connection survives");

    // Fault 2: a mid-request disconnect — half a request, no newline,
    // then a hard drop.
    {
        let mut half = TcpStream::connect(addr).unwrap();
        half.write_all(br#"{"op":"run","ker"#).unwrap();
        half.flush().unwrap();
        drop(half);
    }

    // Fault 3: semantic errors get error replies, not drops.
    let resp = faulty
        .request(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * z[j]".into(),
            sym: vec![],
            inputs: vec![("z".into(), "never_registered".into())],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: false,
        })
        .unwrap();
    assert!(matches!(resp, Response::Error { code: ErrorCode::UnknownTensor, .. }), "{resp:?}");
    let resp = faulty.request(&Request::Run { kernel: 4096, full: false, shard: None }).unwrap();
    assert!(matches!(resp, Response::Error { code: ErrorCode::UnknownKernel, .. }), "{resp:?}");
    let resp = faulty
        .request(&Request::RegisterTensor {
            name: "bad".into(),
            dims: vec![2, 2],
            payload: TensorPayload::Coo(vec![(vec![9, 9], 1.0)]),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        })
        .unwrap();
    assert!(matches!(resp, Response::Error { code: ErrorCode::BadTensor, .. }), "{resp:?}");
    assert_eq!(faulty.request(&Request::Ping).unwrap(), Response::Pong, "still alive after all");

    // Let the victim overlap the faults for a while, then take the
    // pool-reuse snapshot: steady-state parallel serving must not keep
    // spawning pool workers (PR 4's persistent-pool guarantee). The
    // churn runs below overlap the victim's — all the time at wire
    // speed, where 88 ms of socket stalls per round trip used to keep
    // the two apart — and the harness warmed the pool from a single
    // connection, so first bring it to one worker per task the
    // executors can have outstanding at once (the harness kernel runs
    // on 2 threads). From there on nothing may spawn, with no gap
    // between runs.
    let outstanding = common::executors() * 2;
    rayon::scope(|s| s.spawn_batch((0..outstanding).map(|_| |_: &rayon::Scope<'_, '_>| {})));
    let workers_after_warmup = rayon::pool_workers_spawned();
    let mut churn = Client::connect(addr).unwrap();
    for _ in 0..50 {
        let line =
            churn.send_raw(&Request::Run { kernel, full: false, shard: None }.encode()).unwrap();
        assert!(matches!(Response::decode(&line), Ok(Response::Ran { .. })));
    }
    assert_eq!(
        rayon::pool_workers_spawned(),
        workers_after_warmup,
        "steady-state serving reuses parked pool workers"
    );

    stop.store(true, Ordering::SeqCst);
    let victim_runs = victim.join().expect("victim connection never errored");
    assert!(victim_runs > 1, "the well-behaved connection made progress throughout");

    // Error accounting: 4 garbage lines + 3 semantic errors + the
    // mid-request disconnect (EOF delivers its partial line, which
    // fails to parse).
    let Response::Stats { requests, .. } = churn.request(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    assert_eq!(requests.errors, 8);

    // Clean shutdown on signal: the wire acknowledges, every handler
    // joins, no connection workers leak.
    let resp = churn.request(&Request::Shutdown).unwrap();
    assert_eq!(resp, Response::ShuttingDown);
    // Connections other than the shutdown sender are severed.
    let err = faulty.request(&Request::Ping);
    assert!(err.is_err(), "peer connections are closed by shutdown");
    server.wait();
}

#[test]
fn oversized_request_lines_are_answered_and_cut_off() {
    use std::io::{BufRead, BufReader};

    let server = serve("127.0.0.1:0", Engine::new()).expect("bind");
    // Stream more than MAX_REQUEST_LINE bytes with no newline: the
    // server must answer one structured error and hang up instead of
    // buffering without bound.
    let mut hog = TcpStream::connect(server.addr()).unwrap();
    let chunk = vec![b'a'; 1 << 20];
    let mut sent = 0usize;
    while sent <= systec_serve::server::MAX_REQUEST_LINE {
        if hog.write_all(&chunk).is_err() {
            break; // server already cut us off mid-stream
        }
        sent += chunk.len();
    }
    let _ = hog.flush();
    let mut reader = BufReader::new(hog.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match Response::decode(reply.trim_end()) {
        Ok(Response::Error { code: ErrorCode::LineTooLong, message }) => {
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected a parse error for the oversized line, got {other:?}"),
    }
    // The connection is closed afterwards (framing is unrecoverable).
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap_or(0), 0, "connection must be closed");

    // Other clients are unaffected.
    let mut ok = Client::connect(server.addr()).unwrap();
    assert_eq!(ok.request(&Request::Ping).unwrap(), Response::Pong);
    server.join();
}

#[test]
fn programmatic_shutdown_joins_all_handlers() {
    let probe = Arc::new(Engine::new());
    let server = serve("127.0.0.1:0", Arc::clone(&probe)).expect("bind");
    let addr = server.addr();
    // Park a few idle connections mid-read.
    let mut idle = Vec::new();
    for _ in 0..4 {
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
        idle.push(c);
    }
    // Handlers are live.
    for _ in 0..100 {
        if server.active_connections() == 4 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(server.active_connections(), 4);
    server.shutdown();
    server.wait();
    // wait() returns only after every handler joined; nothing serves
    // anymore, and the engine is still sane for inspection.
    drop(probe);
    for c in &mut idle {
        assert!(c.request(&Request::Ping).is_err(), "sockets are shut down");
    }
}

#[test]
fn a_panicking_spec_is_circuit_broken_at_prepare_over_the_wire() {
    use std::sync::Arc;
    use systec_serve::{FaultSite, ServerConfig};

    // Every run of the harness spec panics. Three strikes (the panic
    // budget): the warmed handle's panic and two full prepare → panic →
    // quarantine bounces, then the *spec* is refused
    // at prepare time with a structured, non-retryable error — over
    // the wire, exactly like the engine-level unit tier promises.
    let plan = Arc::new(common::plan(0xB0DCE7).rate(FaultSite::ExecPanic, 1_000_000));
    let engine = Engine::new().with_fault_plan(plan);
    let common::Harness { server, kernel, .. } =
        common::warmed_server_with(engine, ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let strike = |client: &mut Client, kernel: u64| {
        let resp = client.request(&Request::Run { kernel, full: false, shard: None }).unwrap();
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::Internal, .. }),
            "a panicking run answers internal_error: {resp:?}"
        );
    };
    strike(&mut client, kernel);
    // The quarantine bounce: a fresh prepare mints a fresh handle
    // (the quarantined one must not satisfy dedup) and panics again.
    let mut handles = vec![kernel];
    for _ in 0..2 {
        let bounced = common::prepare_kernel(&mut client);
        assert!(!handles.contains(&bounced), "quarantined handles must not satisfy dedup");
        strike(&mut client, bounced);
        handles.push(bounced);
    }

    // Budget exhausted: the bounce is broken before another doomed
    // compile.
    let resp = client
        .request(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
            sym: vec!["A".into()],
            inputs: vec![],
            variant: Variant::Systec,
            threads: Some(2),
            sharded: false,
        })
        .unwrap();
    let Response::Error { code, message } = resp else { panic!("{resp:?}") };
    assert_eq!(code, ErrorCode::KernelQuarantined);
    assert!(message.contains("circuit-broken"), "{message}");

    // Re-registering the data bumps its generation, which re-keys the
    // spec and re-opens the breaker: clients with fresh data are not
    // locked out by the old spec's strikes.
    common::register_inputs(&mut client);
    let reopened = common::prepare_kernel(&mut client);
    assert!(!handles.contains(&reopened));

    assert_eq!(client.request(&Request::Shutdown).unwrap(), Response::ShuttingDown);
    server.wait();
}
