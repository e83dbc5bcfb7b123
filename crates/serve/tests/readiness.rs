//! Readiness tier: the event loop waits on sockets, not on timers, and
//! level-triggered interest follows what the loop will do next.
//!
//! The instrument is [`RunningServer::loop_wakeups`] — how often the
//! loop has returned from its `poll(2)` wait. A loop that polls on a
//! timer, keeps write interest on an idle socket, or keeps read
//! interest on a stream it will not read moves that counter thousands
//! of times in the windows below; a readiness-driven one does not move
//! it at all.
//!
//! * idle connections cost no wake-ups, a `ping` a small constant;
//! * a client that does not read its multi-megabyte reply parks the
//!   connection on writability: no spin, no delay for a neighbour, and
//!   the exact bytes once it does read;
//! * a peer that half-closes while its request is in flight still gets
//!   the reply, and the end-of-stream it left behind wakes nobody;
//! * a shutdown with output pending and unread input on another
//!   connection drains without spinning and delivers every byte.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use systec_serve::protocol::{Placement, Request, Response, StorageFormat, TensorPayload, Variant};
use systec_serve::{serve, serve_with, Client, Engine, FaultSite, RunningServer, ServerConfig};
use systec_tensor::generate::{random_dense, rng};

/// The window a spinning loop gets to show itself in.
const WATCH: Duration = Duration::from_millis(300);

/// Waits until the loop has gone quiet — the wake-up count equal across
/// 20 ms — and returns the count. A loop that spins never gets there.
fn settled(server: &RunningServer) -> u64 {
    let mut last = server.loop_wakeups();
    for _ in 0..500 {
        std::thread::sleep(Duration::from_millis(20));
        let now = server.loop_wakeups();
        if now == last {
            return now;
        }
        last = now;
    }
    panic!("the event loop never goes quiet ({last} wake-ups and counting): it is spinning");
}

fn assert_quiet(server: &RunningServer, why: &str) {
    let before = settled(server);
    std::thread::sleep(WATCH);
    assert_eq!(server.loop_wakeups() - before, 0, "wake-ups over {WATCH:?}: {why}");
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A server whose one kernel answers with a dense 800 x 800 outer
/// product — a reply line of well over 10 MB, more than a loopback
/// socket pair buffers for a peer that is not reading — plus the run
/// request and the exact reply line.
fn big_reply_server(config: ServerConfig) -> (RunningServer, String, String) {
    let engine = Arc::new(Engine::new());
    let server = serve_with("127.0.0.1:0", Arc::clone(&engine), config).expect("bind");
    let n = 800;
    let mut r = rng(0x0B16);
    for name in ["a", "b"] {
        let resp = engine.handle(&Request::RegisterTensor {
            name: name.into(),
            dims: vec![n],
            payload: TensorPayload::Dense(random_dense(vec![n], &mut r).as_slice().to_vec()),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    }
    let resp = engine.handle(&Request::Prepare {
        einsum: "for i, j: Y[i, j] += a[i] * b[j]".into(),
        sym: vec![],
        inputs: vec![],
        variant: Variant::Systec,
        threads: Some(1),
        sharded: false,
    });
    let Response::Prepared { kernel, .. } = resp else { panic!("prepare failed: {resp:?}") };
    let run = Request::Run { kernel, full: true, shard: None };
    let oracle = engine.handle(&run).encode();
    assert!(oracle.len() > 10 << 20, "the reply must outgrow the socket buffers");
    (server, run.encode(), oracle)
}

/// Sends `run` and returns once the first reply byte has arrived: the
/// whole line is queued by then and the server has written until the
/// socket refused more.
fn request_without_reading(server: &RunningServer, run: &str) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(format!("{run}\n").as_bytes()).unwrap();
    assert_eq!(stream.peek(&mut [0u8; 1]).unwrap(), 1);
    stream
}

fn read_reply(stream: TcpStream) -> String {
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    line
}

#[test]
fn idle_connections_cost_no_wakeups_and_a_ping_a_small_constant() {
    let server = serve("127.0.0.1:0", Engine::new()).expect("bind");
    let mut clients: Vec<Client> = (0..8)
        .map(|_| {
            let mut client = Client::connect(server.addr()).unwrap();
            assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
            client
        })
        .collect();
    assert_eq!(server.active_connections(), 8);
    assert_quiet(&server, "eight open, idle connections");

    let before = settled(&server);
    for client in &mut clients {
        for _ in 0..10 {
            assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
        }
    }
    // Per ping: the request readable, the completion's notify, and at
    // most one notify that lost the race with a loop already awake.
    let woke = settled(&server) - before;
    assert!((80..=3 * 80).contains(&woke), "80 pings cost {woke} wake-ups");
    server.join();
}

#[test]
fn a_stalled_reader_neither_spins_the_loop_nor_delays_its_neighbours() {
    let (server, run, oracle) = big_reply_server(ServerConfig::default());
    let stalled = request_without_reading(&server, &run);
    assert_quiet(&server, "blocked output waits for writability");

    let before = settled(&server);
    let mut neighbour = Client::connect(server.addr()).unwrap();
    let started = Instant::now();
    for _ in 0..50 {
        assert_eq!(neighbour.request(&Request::Ping).unwrap(), Response::Pong);
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "50 pings beside a stalled reader: {elapsed:?}");
    let woke = settled(&server) - before;
    assert!(woke <= 3 * 50 + 2, "the stalled connection adds no wake-ups: {woke}");

    let reply = read_reply(stalled);
    assert!(reply.strip_suffix('\n') == Some(oracle.as_str()), "the drained reply is exact");
    assert_quiet(&server, "write interest goes once the queue is empty");
    server.join();
}

#[test]
fn a_half_close_with_the_request_in_flight_still_gets_its_reply() {
    // Every run sleeps 150 ms inside the engine: the peer's FIN arrives
    // while the request is in flight, and stays unread-able until the
    // connection closes.
    let plan = common::plan(0x4A1F)
        .rate(FaultSite::ExecDelay, 1_000_000)
        .delay_for(Duration::from_millis(150));
    let engine = Engine::new().with_fault_plan(Arc::new(plan));
    let common::Harness { server, kernel, oracle } =
        common::warmed_server_with(engine, ServerConfig::default());

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    wait_until("the connection is accepted", || server.active_connections() == 1);
    let before = settled(&server);
    let run = Request::Run { kernel, full: false, shard: None }.encode();
    stream.write_all(format!("{run}\n").as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert_eq!(reply, format!("{oracle}\n"), "the reply, then the server's close");
    wait_until("the connection is released", || server.active_connections() == 0);
    // Request and FIN (one event or two), the completion (one notify or
    // two) — not 150 ms of an end-of-stream that is always readable.
    let woke = settled(&server) - before;
    assert!(woke <= 6, "a half-closed connection in flight woke the loop {woke} times");
    server.join();
}

#[test]
fn shutdown_with_output_pending_drains_without_spinning() {
    let config = ServerConfig { drain_timeout: Duration::from_secs(60), ..ServerConfig::default() };
    let (server, run, oracle) = big_reply_server(config);
    let stalled = request_without_reading(&server, &run);
    let mut bystander = TcpStream::connect(server.addr()).unwrap();
    bystander.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = [0u8; 64];
    assert!(bystander.read(&mut pong).unwrap() > 0);

    server.shutdown();
    settled(&server);
    // Input the draining loop will never consume.
    bystander.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    assert_quiet(&server, "a drain with blocked output and unread input");

    let reply = read_reply(stalled);
    assert!(reply.strip_suffix('\n') == Some(oracle.as_str()), "the drained reply is exact");
    wait_until("the drain completes", || server.active_connections() == 0);
    server.wait();
}
