//! Cluster differential tier: a `systec-router` fronting three real
//! `systec serve` worker processes over loopback, fed the same request
//! stream as one single-process worker — and every response compared
//! **byte-for-byte**.
//!
//! The stream exercises every routing mode:
//!
//! * hash-placed registrations (forwarded to one owning shard) and
//!   `{tag}` co-located pairs;
//! * `"placement":"replicate"` broadcasts;
//! * plain prepares (single-shard, handle rewritten into router space)
//!   and `"sharded":true` prepares (broadcast, merge schedule);
//! * sharded runs merged across shards — a reduction-merged symmetric
//!   kernel *and* a row-merged plain kernel — with outputs **and work
//!   counters** exactly matching the single process (the fold
//!   identities and integer counters make the merge exact, not
//!   approximate);
//! * dedup parity: re-preparing a sharded spec without `"sharded"`
//!   returns the same handle on both sides;
//! * error parity: unknown handles and garbage lines produce identical
//!   error bytes, which requires the router's handle space to advance
//!   in lockstep with the single process.
//!
//! A second test sends the same *bytes* to both fronts — blank lines,
//! invalid UTF-8, CRLF, a last line ended by EOF, several requests in
//! one `write` — and compares what comes back byte for byte: both
//! fronts are one event loop, so they frame alike.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use systec::router::{route, RouterConfig};
use systec::serve::RunningServer;

/// The request stream both the cluster and the single-process oracle
/// serve. Values are dyadic (integers and halves), so every partial
/// sum a shard produces — and the fixed-order fold that merges them —
/// is exact in `f64`, which is what lets the byte-identity assertion
/// cover merged floating-point outputs and not just counters.
const SCRIPT: &[&str] = &[
    // A hash-placed symmetric matrix and a replicated vector.
    r#"{"op":"register_tensor","name":"A","dims":[4,4],"coo":[[0,1,2.0],[1,0,2.0],[2,3,1.5],[3,2,1.5],[1,1,0.5]]}"#,
    r#"{"op":"register_tensor","name":"x","dims":[4],"dense":[1.0,2.0,3.0,4.0],"placement":"replicate"}"#,
    // Re-register A: the generation bumps identically on both sides.
    r#"{"op":"register_tensor","name":"A","dims":[4,4],"coo":[[0,1,2.0],[1,0,2.0],[2,3,1.5],[3,2,1.5],[1,1,0.5]]}"#,
    // A hash-tag co-located pair: both names route by `job`.
    r#"{"op":"register_tensor","name":"{job}B","dims":[4,4],"dense":[1.0,0.0,2.0,0.0,0.0,3.0,0.0,4.0,5.0,0.0,6.0,0.0,0.0,7.0,0.0,8.0]}"#,
    r#"{"op":"register_tensor","name":"{job}v","dims":[4],"dense":[1.0,1.0,2.0,3.0]}"#,
    // Kernel 0: symmetric matvec over the hash-placed A.
    r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","sym":["A"],"threads":1}"#,
    r#"{"op":"run","kernel":0}"#,
    r#"{"op":"run","kernel":0}"#,
    // Kernel 1: input bindings remap through the hash tag.
    r#"{"op":"prepare","einsum":"for i, j: w[i] += B[i, j] * v[j]","inputs":{"B":"{job}B","v":"{job}v"},"threads":1}"#,
    r#"{"op":"run","kernel":1}"#,
    // Replicated operands for the sharded kernels below.
    r#"{"op":"register_tensor","name":"A2","dims":[4,4],"coo":[[0,1,2.0],[1,0,2.0],[2,3,3.0],[3,2,3.0],[2,2,5.0]],"placement":"replicate"}"#,
    r#"{"op":"register_tensor","name":"x2","dims":[4],"dense":[1.0,2.0,3.0,4.0],"placement":"replicate"}"#,
    // Kernel 2: sharded symmetric matvec — y reduction-merges (add).
    r#"{"op":"prepare","einsum":"for i, j: y[i] += A2[i, j] * x2[j]","sym":["A2"],"threads":1,"sharded":true}"#,
    r#"{"op":"run","kernel":2}"#,
    r#"{"op":"run","kernel":2,"full":true}"#,
    // Kernel 3: sharded plain matvec — y row-window-merges.
    r#"{"op":"prepare","einsum":"for i, j: y[i] += A2[i, j] * x2[j]","threads":1,"sharded":true}"#,
    r#"{"op":"run","kernel":3}"#,
    // The sharded spec re-prepared plain: dedups to kernel 2 on both
    // sides (the dedup key ignores `sharded` everywhere).
    r#"{"op":"prepare","einsum":"for i, j: y[i] += A2[i, j] * x2[j]","sym":["A2"],"threads":1}"#,
    // Error parity: the handle spaces advanced in lockstep, so even
    // the "have N" count in the message matches.
    r#"{"op":"run","kernel":99}"#,
    r#"this is not json"#,
    // Replicated unregister broadcasts; ghost unregister is idempotent.
    r#"{"op":"unregister","name":"x"}"#,
    r#"{"op":"unregister","name":"ghost"}"#,
    r#"{"op":"ping"}"#,
];

struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn spawn() -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_systec"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn systec serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut banner = String::new();
        reader.read_line(&mut banner).expect("readable banner");
        let addr =
            banner.trim().rsplit(' ').next().expect("banner ends with the address").to_string();
        assert!(addr.contains(':'), "unexpected banner: {banner}");
        // Keep draining stdout so the worker's shutdown message never
        // hits a closed pipe (println! panics on EPIPE).
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Worker { child, addr }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn connect(addr: &str) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("cannot connect to {addr}: {e}"),
        }
    }
}

fn exchange(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(response.ends_with('\n'), "response line truncated: {response:?}");
    response.pop();
    response
}

/// Three worker processes, a router front over them, and the
/// single-process oracle.
fn cluster_and_oracle() -> (Vec<Worker>, RunningServer, Worker) {
    let workers: Vec<Worker> = (0..3).map(|_| Worker::spawn()).collect();
    let shard_addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let running =
        route("127.0.0.1:0", &shard_addrs, RouterConfig::default()).expect("start router");
    (workers, running, Worker::spawn())
}

/// Writes `bytes` in one `write`, half-closes, and returns everything
/// the front sends back until it closes the connection.
fn raw_session(addr: &str, bytes: &[u8]) -> String {
    let mut stream = connect(addr);
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("the front answers, then closes");
    String::from_utf8(reply).expect("replies are UTF-8")
}

/// `(what, bytes on the wire, reply lines owed)`. Every request here
/// answers the same on a fresh worker and a fresh cluster.
const FRAMING: &[(&str, &[u8], usize)] = &[
    ("a blank line between two requests", b"{\"op\":\"ping\"}\n\n{\"op\":\"ping\"}\n", 2),
    ("invalid UTF-8, then a request", b"\xff\xfe\n{\"op\":\"ping\"}\n", 2),
    ("a CRLF-terminated request", b"{\"op\":\"unregister\",\"name\":\"ghost\"}\r\n", 1),
    (
        "a last request ended by EOF",
        b"{\"op\":\"ping\"}\n{\"op\":\"unregister\",\"name\":\"ghost\"}",
        2,
    ),
    (
        "eight requests in one write",
        b"{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n\
          {\"op\":\"ping\"}\n{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n",
        8,
    ),
];

#[test]
fn front_parity_the_same_bytes_frame_the_same_on_a_cluster_and_on_one_process() {
    let (_workers, running, oracle) = cluster_and_oracle();
    let cluster_addr = running.addr().to_string();
    for (what, bytes, lines) in FRAMING {
        let from_cluster = raw_session(&cluster_addr, bytes);
        let from_oracle = raw_session(&oracle.addr, bytes);
        assert_eq!(
            from_cluster, from_oracle,
            "{what} diverged\ncluster: {from_cluster:?}\noracle:  {from_oracle:?}"
        );
        assert_eq!(from_oracle.matches('\n').count(), *lines, "{what}: {from_oracle:?}");
    }
    running.join();
}

#[test]
fn a_three_shard_cluster_is_byte_identical_to_one_process() {
    let (workers, running, oracle) = cluster_and_oracle();

    let mut cluster_conn = connect(&running.addr().to_string());
    let mut oracle_conn = connect(&oracle.addr);
    for (step, line) in SCRIPT.iter().enumerate() {
        let from_cluster = exchange(&mut cluster_conn, line);
        let from_oracle = exchange(&mut oracle_conn, line);
        assert_eq!(
            from_cluster, from_oracle,
            "step {step} diverged\nrequest: {line}\ncluster: {from_cluster}\noracle:  {from_oracle}"
        );
    }

    // The merged sharded run really was a run reply, not a pair of
    // matching errors: re-run kernel 2 and check the merged values.
    let ran = exchange(&mut cluster_conn, r#"{"op":"run","kernel":2}"#);
    // A2 is symmetric with (0,1)=2, (2,3)=3, (2,2)=5; x2 = 1..4:
    // y = [2*2, 2*1, 5*3+3*4, 3*3] = [4, 2, 27, 9].
    assert!(ran.contains("[4,2,27,9]"), "merged sharded run values: {ran}");

    // Cross-shard plain prepares fail structurally at the router (a
    // single process would accept them, so this sits outside the
    // differential stream): find two names the ring scatters.
    let ring = systec::router::HashRing::new(3);
    let a = "scatter-a".to_string();
    let b = (0..1000)
        .map(|k| format!("scatter-b{k}"))
        .find(|name| ring.shard_for(name) != ring.shard_for(&a))
        .expect("some name lands on another shard");
    for name in [&a, &b] {
        let line =
            format!(r#"{{"op":"register_tensor","name":"{name}","dims":[2],"dense":[1.0,2.0]}}"#);
        let r = exchange(&mut cluster_conn, &line);
        assert!(r.starts_with("{\"ok\":true"), "{r}");
    }
    let line = format!(
        r#"{{"op":"prepare","einsum":"for i, j: y[i] += M[i, j] * u[j]","inputs":{{"M":"{a}","u":"{b}"}},"threads":1}}"#
    );
    let r = exchange(&mut cluster_conn, &line);
    assert!(r.contains("\"code\":\"invalid_kernel\"") && r.contains("co-locate"), "{r}");

    // Cluster-wide introspection (router-specific, so not part of the
    // differential stream): stats sees three healthy shards with the
    // ring fully occupied, metrics exposes the router families.
    let stats = exchange(&mut cluster_conn, r#"{"op":"stats"}"#);
    assert!(stats.contains("\"reply\":\"cluster_stats\""), "{stats}");
    assert_eq!(stats.matches("\"healthy\":true").count(), 3, "{stats}");
    assert_eq!(stats.matches("\"vnodes\":64").count(), 3, "{stats}");
    let metrics = exchange(&mut cluster_conn, r#"{"op":"metrics"}"#);
    for family in [
        "systec_router_forwarded_total",
        "systec_router_fanouts_total",
        "systec_router_broadcasts_total",
        "systec_router_merges_total",
        "systec_router_merge_us_bucket",
        "systec_router_shards_healthy 3",
    ] {
        assert!(metrics.contains(family), "missing {family} in {metrics}");
    }

    // Shutdown through the router reaches every worker.
    let bye = exchange(&mut cluster_conn, r#"{"op":"shutdown"}"#);
    assert!(bye.contains("shutting_down"), "{bye}");
    running.wait();
    for mut worker in workers {
        let status = worker.child.wait().expect("reap worker");
        assert!(status.success(), "worker exited {status:?} after shutdown broadcast");
    }
    let bye = exchange(&mut oracle_conn, r#"{"op":"shutdown"}"#);
    assert!(bye.contains("shutting_down"), "{bye}");
}
