//! The router twins of `crates/serve/tests/readiness.rs`: a cluster
//! front is the worker's own event loop with the router behind its
//! `Service` seam, so what that tier pins for a worker holds for the
//! front too.
//!
//! * an idle front makes no loop wake-ups;
//! * a client that stops reading a multi-megabyte reply does not stall
//!   another connection's `ping`, and gets the exact bytes once it
//!   reads;
//! * a `shutdown` that arrives while a sharded `run` is in flight on
//!   another connection still answers that run — the loop's drain —
//!   and only then reaches the shards.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use systec::router::{route, RouterConfig};
use systec::serve::{serve, Client, Engine, FaultPlan, FaultSite, RunningServer};

/// The window a spinning loop gets to show itself in.
const WATCH: Duration = Duration::from_millis(300);

/// Waits until the loop has gone quiet — the wake-up count equal across
/// 20 ms — and returns the count. A loop that spins never gets there.
fn settled(front: &RunningServer) -> u64 {
    let mut last = front.loop_wakeups();
    for _ in 0..500 {
        std::thread::sleep(Duration::from_millis(20));
        let now = front.loop_wakeups();
        if now == last {
            return now;
        }
        last = now;
    }
    panic!("the event loop never goes quiet ({last} wake-ups and counting): it is spinning");
}

fn assert_quiet(front: &RunningServer, why: &str) {
    let before = settled(front);
    std::thread::sleep(WATCH);
    assert_eq!(front.loop_wakeups() - before, 0, "wake-ups over {WATCH:?}: {why}");
}

/// Two in-process shards over `engines` and a router front on them.
fn cluster(engines: [Engine; 2]) -> (Vec<RunningServer>, RunningServer) {
    let shards: Vec<RunningServer> =
        engines.into_iter().map(|e| serve("127.0.0.1:0", e).expect("bind shard")).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let front = route("127.0.0.1:0", &addrs, RouterConfig::default()).expect("route");
    (shards, front)
}

fn ok(client: &mut Client, line: &str) -> String {
    let reply = client.send_raw(line).expect("round trip");
    assert!(reply.starts_with(r#"{"ok":true"#), "{line} -> {reply}");
    reply
}

#[test]
fn an_idle_router_front_makes_no_wakeups() {
    let (shards, front) = cluster([Engine::new(), Engine::new()]);
    let mut clients: Vec<Client> = (0..4)
        .map(|_| {
            let mut client = Client::connect(front.addr()).unwrap();
            ok(&mut client, r#"{"op":"ping"}"#);
            client
        })
        .collect();
    assert_eq!(front.active_connections(), 4);
    assert_quiet(&front, "four open, idle connections");

    ok(&mut clients[0], r#"{"op":"shutdown"}"#);
    front.wait();
    shards.into_iter().for_each(RunningServer::wait);
}

#[test]
fn a_stalled_reader_does_not_delay_a_neighbours_ping() {
    let (shards, front) = cluster([Engine::new(), Engine::new()]);
    // A dense 800 x 800 outer product: a reply line of well over 10 MB,
    // more than a loopback socket pair buffers for a peer that is not
    // reading. The hash tag puts both operands on one shard.
    let n = 800;
    let operand: Vec<String> = (0..n).map(|k| format!("0.{}", 1_234_567 + 37 * k)).collect();
    let mut client = Client::connect(front.addr()).unwrap();
    for name in ["{o}a", "{o}b"] {
        ok(
            &mut client,
            &format!(
                r#"{{"op":"register_tensor","name":"{name}","dims":[{n}],"dense":[{}]}}"#,
                operand.join(",")
            ),
        );
    }
    ok(
        &mut client,
        r#"{"op":"prepare","einsum":"for i, j: Y[i, j] += a[i] * b[j]","inputs":{"a":"{o}a","b":"{o}b"},"threads":1}"#,
    );
    let run = r#"{"op":"run","kernel":0,"full":true}"#;
    let oracle = ok(&mut client, run);
    assert!(oracle.len() > 10 << 20, "the reply must outgrow the socket buffers");

    // The first reply byte has arrived: the whole line is queued and
    // the front has written until the socket refused more.
    let mut stalled = TcpStream::connect(front.addr()).unwrap();
    stalled.write_all(format!("{run}\n").as_bytes()).unwrap();
    assert_eq!(stalled.peek(&mut [0u8; 1]).unwrap(), 1);
    assert_quiet(&front, "blocked output waits for writability");

    let started = Instant::now();
    for _ in 0..50 {
        ok(&mut client, r#"{"op":"ping"}"#);
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "50 pings beside a stalled reader: {elapsed:?}");

    let mut reply = String::new();
    BufReader::new(stalled).read_line(&mut reply).unwrap();
    assert!(reply.strip_suffix('\n') == Some(oracle.as_str()), "the drained reply is exact");

    ok(&mut client, r#"{"op":"shutdown"}"#);
    front.wait();
    shards.into_iter().for_each(RunningServer::wait);
}

#[test]
fn a_shutdown_drains_the_sharded_run_in_flight_on_another_connection() {
    // Every run sleeps 300 ms inside shard 0's engine, so the front's
    // fan-out is still waiting on that leg when the shutdown arrives.
    let slow = Arc::new(
        FaultPlan::seeded(0x22)
            .rate(FaultSite::ExecDelay, 1_000_000)
            .delay_for(Duration::from_millis(300)),
    );
    let (shards, front) =
        cluster([Engine::new().with_fault_plan(Arc::clone(&slow)), Engine::new()]);
    let mut client = Client::connect(front.addr()).unwrap();
    for line in [
        r#"{"op":"register_tensor","name":"A","dims":[4,4],"coo":[[0,1,2.0],[1,0,2.0],[2,3,1.5],[3,2,1.5],[2,2,5.0]],"placement":"replicate"}"#,
        r#"{"op":"register_tensor","name":"x","dims":[4],"dense":[1,2,3,4],"placement":"replicate"}"#,
        r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","sym":["A"],"threads":1,"sharded":true}"#,
    ] {
        ok(&mut client, line);
    }
    let run = r#"{"op":"run","kernel":0}"#;
    let oracle = ok(&mut client, run);
    let runs_before = slow.injected(FaultSite::ExecDelay);

    let mut in_flight = TcpStream::connect(front.addr()).unwrap();
    in_flight.write_all(format!("{run}\n").as_bytes()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while slow.injected(FaultSite::ExecDelay) == runs_before {
        assert!(Instant::now() < deadline, "the sharded run never reached shard 0");
        std::thread::sleep(Duration::from_millis(2));
    }
    let ack = ok(&mut client, r#"{"op":"shutdown"}"#);
    assert!(ack.contains("shutting_down"), "{ack}");

    let mut reply = String::new();
    BufReader::new(in_flight).read_line(&mut reply).unwrap();
    assert_eq!(reply.strip_suffix('\n'), Some(oracle.as_str()), "the run outlives the shutdown");
    // The broadcast was queued behind the run and reached both shards.
    front.wait();
    shards.into_iter().for_each(RunningServer::wait);
}
