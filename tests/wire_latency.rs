//! Wire latency guard: a served round trip costs what the work costs,
//! not what a timer costs.
//!
//! Sequential `ping`s and small `run`s through [`Client::send_raw`]
//! against an in-process worker and against a router front over two
//! workers (a sharded run: front socket, two leg sockets, merge). The
//! median round trip must stay under 10 ms. A debug build on a busy box
//! measures 0.1 – 1.5 ms; one Nagle / delayed-ACK stall (a line and its
//! newline in separate writes, a socket without `TCP_NODELAY`) is 40 ms
//! per direction, and an event loop that parks on a timer instead of
//! the sockets adds its period to every hop — so the bound has room on
//! both sides and names the regression in `cargo test -q` instead of in
//! the next benchmark run.
//!
//! The same session also carries the root's served-vs-direct check: one
//! `run` reply, byte for byte, against [`oracle_response`] of the same
//! kernel compiled and run directly through `Prepared` — for the worker
//! and for the two-shard router (the fixture is dyadic, so the sharded
//! `add` fold is bit-equal to the unsharded one).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use systec::codegen::{ExecContext, Parallelism};
use systec::exec::Counters;
use systec::ir::parse_einsum;
use systec::kernels::{parse_symmetry, Prepared};
use systec::router::{route, RouterConfig};
use systec::serve::{oracle_response, serve, Client, Engine};
use systec::tensor::{csf, CooTensor, DenseTensor, SparseTensor, Tensor};

const BOUND: Duration = Duration::from_millis(10);

const SETUP: &[&str] = &[
    r#"{"op":"register_tensor","name":"A","dims":[4,4],"coo":[[0,1,2.0],[1,0,2.0],[2,3,1.5],[3,2,1.5],[2,2,5.0]],"placement":"replicate"}"#,
    r#"{"op":"register_tensor","name":"x","dims":[4],"dense":[1,2,3,4],"placement":"replicate"}"#,
    r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","sym":["A"],"threads":1,"sharded":true}"#,
];

/// The median round trip of `count` sequential `line` requests.
fn median_round_trip(client: &mut Client, line: &str, count: usize) -> Duration {
    let mut trips: Vec<Duration> = (0..count)
        .map(|_| {
            let started = Instant::now();
            let reply = client.send_raw(line).expect("round trip");
            let took = started.elapsed();
            assert!(reply.starts_with(r#"{"ok":true"#), "{line} -> {reply}");
            took
        })
        .collect();
    trips.sort();
    trips[count / 2]
}

/// The reply line a `run` of `SETUP`'s kernel must produce: the same
/// tensors, compiled and run directly, through the same response codec.
fn direct_run_line() -> String {
    let mut a = CooTensor::new(vec![4, 4]);
    for (i, j, v) in [(0, 1, 2.0), (1, 0, 2.0), (2, 3, 1.5), (3, 2, 1.5), (2, 2, 5.0)] {
        a.push(&[i, j], v);
    }
    let x = DenseTensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).expect("x");
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), Tensor::Sparse(SparseTensor::from_coo(&a, &csf(2)).expect("A")));
    inputs.insert("x".to_string(), Tensor::Dense(x));
    let einsum = parse_einsum("for i, j: y[i] += A[i, j] * x[j]").expect("einsum");
    let symmetry = parse_symmetry(&einsum, &["A".to_string()]).expect("symmetry");
    let prepared = Prepared::compile_einsum(&einsum, &symmetry, &inputs)
        .expect("compile")
        .with_parallelism(Parallelism::threads(1));
    let (mut outputs, mut counters) = (HashMap::new(), Counters::new());
    prepared.run_timed_into(&mut outputs, &mut ExecContext::new(), &mut counters).expect("run");
    oracle_response(&outputs, &counters).encode()
}

fn assert_prompt(target: &str, client: &mut Client) {
    for line in SETUP {
        let reply = client.send_raw(line).expect("set-up round trip");
        assert!(reply.starts_with(r#"{"ok":true"#), "{line} -> {reply}");
    }
    let served = client.send_raw(r#"{"op":"run","kernel":0}"#).expect("run round trip");
    assert_eq!(served, direct_run_line(), "{target}: a served run must equal the direct one");
    let ping = median_round_trip(client, r#"{"op":"ping"}"#, 200);
    let run = median_round_trip(client, r#"{"op":"run","kernel":0}"#, 50);
    eprintln!("{target}: median ping {ping:?}, median run {run:?}");
    assert!(
        ping < BOUND && run < BOUND,
        "{target}: median ping {ping:?}, median run {run:?} — a round trip is waiting on a \
         timer (split write, missing TCP_NODELAY, or a timed park in the event loop)"
    );
}

#[test]
fn a_worker_answers_in_the_time_the_work_takes() {
    let server = serve("127.0.0.1:0", Engine::new()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_prompt("worker", &mut client);
    server.join();
}

#[test]
fn a_router_front_over_two_shards_answers_in_the_time_the_work_takes() {
    let shards: Vec<_> =
        (0..2).map(|_| serve("127.0.0.1:0", Engine::new()).expect("bind shard")).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let router = route("127.0.0.1:0", &addrs, RouterConfig::default()).expect("route");
    let mut client = Client::connect(router.addr()).expect("connect");
    assert_prompt("router over two shards", &mut client);
    // The router relays the shutdown to both shards.
    let reply = client.send_raw(r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(reply.starts_with(r#"{"ok":true"#), "{reply}");
    router.wait();
    shards.into_iter().for_each(|shard| shard.wait());
}
