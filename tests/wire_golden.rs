//! Wire golden: every byte the serving stack puts on the wire, pinned.
//!
//! One scripted session against an in-process worker (`serve` on an
//! ephemeral port, driven through [`Client::send_raw`]) and one against
//! an in-process [`Router`] over two such workers, recorded as a
//! transcript and diffed against `tests/golden/wire.golden`:
//!
//! * full bytes for `registered` / `unregistered` / `prepared` (with
//!   `split` and `warning`) / `run` (finite, `inf`, `-inf`, `nan`) /
//!   `pong` / `shutting_down`, and for every error code reachable
//!   without fault injection;
//! * ~30 malformed request lines → the exact error reply;
//! * for `stats`, `cluster_stats` and both `metrics` texts the
//!   skeleton — key order, every `# HELP` / `# TYPE` line and every
//!   sample name + label set, in order — with the timing-dependent
//!   values masked (latencies, nanosecond totals, histogram buckets),
//!   as are the three families that count compiler and VM internals,
//!   and every count the serving script determines pinned, so a field
//!   wired to the wrong key or family shows up too.
//!
//! The codec, the stats records and the Prometheus exposition are
//! derived from declarations; this file is what proves a change to the
//! derivation left the wire alone. Regenerate after an *intentional*
//! wire change with:
//!
//! ```sh
//! SYSTEC_BLESS=1 cargo test --test wire_golden
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use systec::router::{route, Router, RouterConfig};
use systec::serve::json::Json;
use systec::serve::server::MAX_REQUEST_LINE;
use systec::serve::{serve, serve_with, Client, Engine, ServerConfig};

/// How much of a reply line the transcript pins.
#[derive(Clone, Copy)]
enum Pin {
    /// Every byte.
    Bytes,
    /// Every byte except digit runs (queue-wait milliseconds, ports).
    Digits,
    /// Every byte except the numbers under [`TIMING_KEYS`].
    Timing,
    /// The reply envelope plus the exposition: `# HELP`, `# TYPE` and
    /// every sample line verbatim, except that the samples
    /// [`unpinned_sample`] names have their value masked.
    Metrics,
}

/// The recorded session.
#[derive(Default)]
struct Transcript {
    out: String,
    /// Runtime strings (ephemeral addresses) replaced by stable names.
    aliases: Vec<(String, String)>,
}

impl Transcript {
    fn section(&mut self, title: &str) {
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        self.out.push_str("## ");
        self.out.push_str(title);
        self.out.push('\n');
    }

    /// Records one request/reply pair. `shown` is what the transcript
    /// prints for the request (the line itself unless it is huge).
    fn record(&mut self, shown: &str, reply: &str, pin: Pin) {
        let mut reply = reply.to_string();
        for (from, to) in &self.aliases {
            reply = reply.replace(from, to);
        }
        self.out.push_str("> ");
        self.out.push_str(shown);
        self.out.push('\n');
        match pin {
            Pin::Bytes => self.reply_line(&reply),
            Pin::Digits => self.reply_line(&mask_digits(&reply)),
            Pin::Timing => self.reply_line(&mask_timing(&reply)),
            Pin::Metrics => {
                let json = Json::parse(&reply).expect("metrics reply is JSON");
                let text = json.get("text").and_then(Json::as_str).expect("metrics text");
                let envelope = reply.split("\"text\":").next().expect("split yields a head");
                self.reply_line(&format!("{envelope}\"text\":…}}"));
                for line in text.lines() {
                    self.out.push_str("  | ");
                    if !line.starts_with('#') && unpinned_sample(line) {
                        let (sample, _value) = line.rsplit_once(' ').expect("sample has a value");
                        self.out.push_str(sample);
                        self.out.push_str(" #");
                    } else {
                        self.out.push_str(line);
                    }
                    self.out.push('\n');
                }
            }
        }
    }

    fn reply_line(&mut self, reply: &str) {
        self.out.push_str("< ");
        self.out.push_str(reply);
        self.out.push('\n');
    }
}

/// Replaces every digit run with `#`.
fn mask_digits(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_run = false;
    for c in line.chars() {
        if c.is_ascii_digit() {
            if !in_run {
                out.push('#');
            }
            in_run = true;
        } else {
            in_run = false;
            out.push(c);
        }
    }
    out
}

/// `stats` keys whose values are wall-clock measurements.
const TIMING_KEYS: &[&str] = &["median_us", "p90_us", "p99_us", "max_us", "us"];

/// Masks the number after every `"key":` of [`TIMING_KEYS`].
fn mask_timing(line: &str) -> String {
    let mut line = line.to_string();
    for key in TIMING_KEYS {
        let pattern = format!("\"{key}\":");
        let mut out = String::with_capacity(line.len());
        let mut rest = line.as_str();
        while let Some(at) = rest.find(&pattern) {
            let (head, tail) = rest.split_at(at + pattern.len());
            out.push_str(head);
            out.push('#');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
        }
        out.push_str(rest);
        line = out;
    }
    line
}

/// Families that count what the compiler and the VM chose to do (spans
/// per build, fused-body selections, VM entries): the serving script
/// determines them only through instruction selection, and a VM change
/// must not have to re-bless the wire.
const COMPILER_INTERNAL: &[&str] =
    &["systec_compile_phase_total", "systec_fused_dispatch_total", "systec_vm_runs_total"];

/// Whether an exposition sample's value is left out of the golden: a
/// wall-clock measurement — nanosecond / microsecond families, except a
/// histogram's `_count`, which counts events the script fixes — or a
/// [`COMPILER_INTERNAL`] count.
fn unpinned_sample(line: &str) -> bool {
    let name = line.split(['{', ' ']).next().expect("split yields a head");
    let timing = (name.contains("_ns") || name.contains("_us")) && !name.ends_with("_count");
    timing || COMPILER_INTERNAL.contains(&name)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join("wire.golden")
}

// ---------------------------------------------------------------------
// The worker session
// ---------------------------------------------------------------------

/// Registry cap of the scripted worker: far above what the session
/// registers, far below the one registration that must be refused.
const MAX_BYTES: u64 = 1 << 16;

/// Well-formed requests, in order, each pinned byte for byte.
const WORKER_SCRIPT: &[&str] = &[
    r#"{"op":"ping"}"#,
    // Registration: coo and dense payloads, a re-registration (the
    // generation bumps), both forced formats, an accepted-and-ignored
    // placement.
    r#"{"op":"register_tensor","name":"A","dims":[4,4],"coo":[[0,1,2.0],[1,0,2.0],[2,3,1.5],[3,2,1.5],[1,1,0.5]]}"#,
    r#"{"op":"register_tensor","name":"x","dims":[4],"dense":[1.0,2.0,3.0,4.0]}"#,
    r#"{"op":"register_tensor","name":"A","dims":[4,4],"coo":[[0,1,2.0],[1,0,2.0],[2,3,1.5],[3,2,1.5],[1,1,0.5]]}"#,
    r#"{"op":"register_tensor","name":"v","dims":[3],"dense":[1,0,2],"format":"csf"}"#,
    r#"{"op":"register_tensor","name":"D","dims":[2,2],"coo":[[0,1,7]],"format":"dense"}"#,
    r#"{"op":"register_tensor","name":"weird \"name\"\n","dims":[2],"dense":[0.25,-3],"placement":"replicate"}"#,
    // Kernel 0: symmetric matvec; its sharded twin dedups onto the same
    // handle and adds the merge schedule.
    r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","sym":["A"],"threads":1}"#,
    r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","sym":["A"],"threads":1,"sharded":true}"#,
    // Kernel 1: naive variant through input bindings, row-merged.
    r#"{"op":"prepare","einsum":"for i, j: w[i] += B[i, j] * u[j]","inputs":{"B":"A","u":"x"},"variant":"naive","sharded":true}"#,
    // Kernel 2: threads on a non-splittable plan → structured warning.
    r#"{"op":"prepare","einsum":"for i, j: C[j, i] = A[i, j]","variant":"naive","threads":4}"#,
    // Kernels 3 and 4: min= / max= reductions whose untouched rows
    // report the fold identity (`inf` / `-inf`).
    r#"{"op":"register_tensor","name":"G","dims":[3,3],"coo":[[0,1,1.5],[1,0,1.5]]}"#,
    r#"{"op":"register_tensor","name":"d","dims":[3],"dense":[0,1,2]}"#,
    r#"{"op":"prepare","einsum":"for i, j: y[i] min= G[i, j] + d[j]","sym":["G"],"threads":1,"sharded":true}"#,
    r#"{"op":"prepare","einsum":"for i, j: y[i] max= G[i, j] + d[j]","sym":["G"],"threads":1,"sharded":true}"#,
    // Kernel 5: finite inputs whose products overflow to ±inf and sum
    // to NaN.
    r#"{"op":"register_tensor","name":"H","dims":[2,2],"dense":[1e308,-1e308,1,1]}"#,
    r#"{"op":"register_tensor","name":"h","dims":[2],"dense":[1e308,1e308]}"#,
    r#"{"op":"prepare","einsum":"for i, j: y[i] += H[i, j] * h[j]","threads":1}"#,
    // Runs: pooled, full, both shard windows, every non-finite shape.
    r#"{"op":"run","kernel":0}"#,
    r#"{"op":"run","kernel":0,"full":true}"#,
    r#"{"op":"run","kernel":0,"shard":[0,2]}"#,
    r#"{"op":"run","kernel":0,"shard":[1,2]}"#,
    r#"{"op":"run","kernel":1}"#,
    r#"{"op":"run","kernel":2}"#,
    r#"{"op":"run","kernel":3}"#,
    r#"{"op":"run","kernel":4}"#,
    r#"{"op":"run","kernel":5}"#,
    // Every engine-side error code reachable without fault injection.
    r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","inputs":{"A":"missing"}}"#,
    r#"{"op":"run","kernel":99}"#,
    r#"{"op":"prepare","einsum":"for i j y += nonsense"}"#,
    r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","sym":["x:0-1"]}"#,
    r#"{"op":"run","kernel":0,"full":true,"shard":[0,2]}"#,
    r#"{"op":"run","kernel":2,"shard":[0,2]}"#,
    r#"{"op":"register_tensor","name":"T","dims":[0],"dense":[]}"#,
    r#"{"op":"register_tensor","name":"T","dims":[2],"dense":[1,2,3]}"#,
    r#"{"op":"register_tensor","name":"T","dims":[2],"dense":["nan",0]}"#,
    r#"{"op":"register_tensor","name":"T","dims":[2,2],"coo":[[5,0,1]]}"#,
    r#"{"op":"register_tensor","name":"","dims":[2],"dense":[1,2]}"#,
    // Re-registering a pinned input makes kernel 0 stale.
    r#"{"op":"register_tensor","name":"x","dims":[4],"dense":[4,3,2,1]}"#,
    r#"{"op":"run","kernel":0}"#,
    r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","sym":["A"],"threads":1}"#,
    r#"{"op":"run","kernel":6}"#,
    // Unregister is idempotent.
    r#"{"op":"unregister","name":"x"}"#,
    r#"{"op":"unregister","name":"x"}"#,
    r#"{"op":"unregister","name":"weird \"name\"\n"}"#,
];

/// Malformed request lines: each must answer a `parse` error with
/// exactly these bytes and leave the connection open.
const MALFORMED: &[&str] = &[
    "not json",
    "{",
    "{}",
    "[1,2]",
    r#"{"op":7}"#,
    r#"{"op":"warp"}"#,
    r#"{"op":"ping"} trailing"#,
    r#"{"op":"run"}"#,
    r#"{"op":"run","kernel":-1}"#,
    r#"{"op":"run","kernel":1.5}"#,
    r#"{"op":"run","kernel":"0"}"#,
    r#"{"op":"run","kernel":1,"full":"yes"}"#,
    r#"{"op":"run","kernel":1,"shard":[0]}"#,
    r#"{"op":"run","kernel":1,"shard":[0,1,2]}"#,
    r#"{"op":"run","kernel":1,"shard":[2,2]}"#,
    r#"{"op":"run","kernel":1,"shard":[0,0]}"#,
    r#"{"op":"run","kernel":1,"shard":[-1,2]}"#,
    r#"{"op":"register_tensor","dims":[2],"dense":[1,2]}"#,
    r#"{"op":"register_tensor","name":"A","dense":[1,2]}"#,
    r#"{"op":"register_tensor","name":"A","dims":[-2],"dense":[1,2]}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2]}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2],"dense":[1],"coo":[]}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2],"dense":7}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2],"dense":["x"]}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2,2],"coo":7}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2,2],"coo":[[0,1]]}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2,2],"coo":[[0,-1,1]]}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2,2],"coo":[[0,1,"x"]]}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2],"dense":[1,2],"format":"auto"}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2],"dense":[1,2],"format":3}"#,
    r#"{"op":"register_tensor","name":"A","dims":[2],"dense":[1,2],"placement":"mirror"}"#,
    r#"{"op":"unregister"}"#,
    r#"{"op":"unregister","name":7}"#,
    r#"{"op":"prepare"}"#,
    r#"{"op":"prepare","einsum":"e","sym":"A"}"#,
    r#"{"op":"prepare","einsum":"e","sym":[1]}"#,
    r#"{"op":"prepare","einsum":"e","inputs":[]}"#,
    r#"{"op":"prepare","einsum":"e","inputs":{"A":1}}"#,
    r#"{"op":"prepare","einsum":"e","variant":"fast"}"#,
    r#"{"op":"prepare","einsum":"e","variant":null}"#,
    r#"{"op":"prepare","einsum":"e","threads":-2}"#,
    r#"{"op":"prepare","einsum":"e","sharded":"yes"}"#,
];

/// Streams more than [`MAX_REQUEST_LINE`] newline-free bytes at `addr`
/// and returns the one reply line; the front must then have closed the
/// connection.
fn flood(addr: SocketAddr) -> String {
    let mut hog = TcpStream::connect(addr).expect("connect hog");
    let chunk = vec![b'a'; 1 << 20];
    let mut sent = 0usize;
    while sent <= MAX_REQUEST_LINE {
        if hog.write_all(&chunk).is_err() {
            break; // the front already cut the flood off
        }
        sent += chunk.len();
    }
    let _ = hog.flush();
    let mut reader = BufReader::new(hog);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("oversized-line reply");
    // Closed: end of stream, or a reset for the flood it never read.
    assert!(matches!(reader.read(&mut [0u8; 1]), Ok(0) | Err(_)), "the connection stays open");
    reply.trim_end().to_string()
}

/// Returns the `line_too_long` reply, for the router front to match.
fn worker_session(t: &mut Transcript) -> String {
    t.section("worker");
    // A zero slow threshold makes "slow" deterministic under any load
    // (every pooled run is slow), so the stats skeleton cannot flake.
    // A data dir makes the journal counters move.
    let data_dir = std::env::temp_dir().join(format!("systec-wire-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let engine = Engine::new()
        .with_slow_threshold(Duration::ZERO)
        .with_max_registered_bytes(MAX_BYTES)
        .with_data_dir(&data_dir)
        .expect("open data dir");
    let server = serve("127.0.0.1:0", engine).expect("bind worker");
    let mut client = Client::connect(server.addr()).expect("connect worker");
    for line in WORKER_SCRIPT {
        let reply = client.send_raw(line).expect("worker reply");
        t.record(line, &reply, Pin::Bytes);
    }

    // admission_rejected: one dense registration over the byte cap.
    let elems = 10_000;
    let big = format!(
        r#"{{"op":"register_tensor","name":"big","dims":[{elems}],"dense":[{}]}}"#,
        vec!["0"; elems].join(",")
    );
    let reply = client.send_raw(&big).expect("worker reply");
    t.record(&format!("<register_tensor `big`: {elems} dense zeros>"), &reply, Pin::Bytes);

    t.section("worker: malformed lines");
    for line in MALFORMED {
        let reply = client.send_raw(line).expect("malformed lines keep the connection open");
        t.record(line, &reply, Pin::Bytes);
    }

    // line_too_long: a newline-free flood past the cap, on its own
    // connection (the server closes it after the reply).
    t.section("worker: oversized line");
    let too_long = flood(server.addr());
    t.record("<more than MAX_REQUEST_LINE bytes, no newline>", &too_long, Pin::Bytes);

    t.section("worker: introspection");
    for (line, pin) in [(r#"{"op":"stats"}"#, Pin::Timing), (r#"{"op":"metrics"}"#, Pin::Metrics)] {
        let reply = client.send_raw(line).expect("worker reply");
        t.record(line, &reply, pin);
    }
    let reply = client.send_raw(r#"{"op":"shutdown"}"#).expect("shutdown ack");
    t.record(r#"{"op":"shutdown"}"#, &reply, Pin::Bytes);
    server.wait();

    // A restart on the same data dir replays the journal.
    t.section("worker: restarted on its data dir");
    let engine = Engine::new().with_data_dir(&data_dir).expect("reopen data dir");
    let server = serve("127.0.0.1:0", engine).expect("bind worker");
    let mut client = Client::connect(server.addr()).expect("connect worker");
    let reply = client.send_raw(r#"{"op":"stats"}"#).expect("worker reply");
    t.record(r#"{"op":"stats"}"#, &reply, Pin::Bytes);
    server.join();
    let _ = std::fs::remove_dir_all(&data_dir);

    // deadline_exceeded: a zero deadline expires every queued request.
    t.section("worker: zero deadline");
    let config = ServerConfig { deadline: Some(Duration::ZERO), ..ServerConfig::default() };
    let server = serve_with("127.0.0.1:0", Engine::new(), config).expect("bind worker");
    let mut client = Client::connect(server.addr()).expect("connect worker");
    let reply = client.send_raw(r#"{"op":"ping"}"#).expect("worker reply");
    t.record(r#"{"op":"ping"}"#, &reply, Pin::Digits);
    server.join();
    too_long
}

// ---------------------------------------------------------------------
// The router session
// ---------------------------------------------------------------------

/// Requests answered by a router over two healthy shards.
const ROUTER_SCRIPT: &[(&str, Pin)] = &[
    (r#"{"op":"ping"}"#, Pin::Bytes),
    // Replicated operands, then a reduction-merged (add) and a
    // row-merged sharded kernel.
    (
        r#"{"op":"register_tensor","name":"A","dims":[4,4],"coo":[[0,1,2.0],[1,0,2.0],[2,3,3.0],[3,2,3.0],[2,2,5.0]],"placement":"replicate"}"#,
        Pin::Bytes,
    ),
    (
        r#"{"op":"register_tensor","name":"x","dims":[4],"dense":[1.0,2.0,3.0,4.0],"placement":"replicate"}"#,
        Pin::Bytes,
    ),
    (
        r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","sym":["A"],"threads":1,"sharded":true}"#,
        Pin::Bytes,
    ),
    (r#"{"op":"run","kernel":0}"#, Pin::Bytes),
    (r#"{"op":"run","kernel":0,"full":true}"#, Pin::Bytes),
    (
        r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","threads":1,"sharded":true}"#,
        Pin::Bytes,
    ),
    (r#"{"op":"run","kernel":1}"#, Pin::Bytes),
    // The plain twin of kernel 0 dedups onto its handle.
    (
        r#"{"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","sym":["A"],"threads":1}"#,
        Pin::Bytes,
    ),
    // A hash-tag co-located pair: forwarded to one owner, handle
    // rewritten into router space.
    (
        r#"{"op":"register_tensor","name":"{job}B","dims":[2,2],"dense":[1.0,0.0,2.0,3.0]}"#,
        Pin::Bytes,
    ),
    (r#"{"op":"register_tensor","name":"{job}v","dims":[2],"dense":[1.0,2.0]}"#, Pin::Bytes),
    (
        r#"{"op":"prepare","einsum":"for i, j: w[i] += B[i, j] * v[j]","inputs":{"B":"{job}B","v":"{job}v"},"threads":1}"#,
        Pin::Bytes,
    ),
    (r#"{"op":"run","kernel":2}"#, Pin::Bytes),
    // A non-splittable sharded prepare forwards whole and warns.
    (
        r#"{"op":"prepare","einsum":"for i, j: C[j, i] = A[i, j]","variant":"naive","threads":4,"sharded":true}"#,
        Pin::Bytes,
    ),
    // Router-side refusals and relayed worker errors.
    (r#"{"op":"run","kernel":0,"shard":[0,2]}"#, Pin::Bytes),
    (r#"{"op":"run","kernel":99}"#, Pin::Bytes),
    (r#"{"op":"register_tensor","name":"p","dims":[2],"dense":[1,2]}"#, Pin::Bytes),
    (r#"{"op":"register_tensor","name":"q","dims":[2],"dense":[1,2]}"#, Pin::Bytes),
    (r#"{"op":"prepare","einsum":"for i: y[i] += p[i] * q[i]"}"#, Pin::Bytes),
    (r#"{"op":"prepare","einsum":"for i: y[i] += p[i] * x[i]","sharded":true}"#, Pin::Bytes),
    (r#"{"op":"prepare","einsum":"for i j y += nonsense","sharded":true}"#, Pin::Bytes),
    ("not json", Pin::Bytes),
    (r#"{"op":"unregister","name":"p"}"#, Pin::Bytes),
    (r#"{"op":"unregister","name":"never"}"#, Pin::Bytes),
    (r#"{"op":"unregister","name":"x"}"#, Pin::Bytes),
    (r#"{"op":"stats"}"#, Pin::Bytes),
    (r#"{"op":"metrics"}"#, Pin::Metrics),
];

fn router_session(t: &mut Transcript, too_long: &str) {
    t.section("router over two shards");
    let shards: Vec<_> =
        (0..2).map(|_| serve("127.0.0.1:0", Engine::new()).expect("bind shard")).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    for (k, addr) in addrs.iter().enumerate() {
        // Lettered, so that `Pin::Digits` leaves the alias alone.
        t.aliases.push((addr.clone(), format!("<shard {}>", ["a", "b"][k])));
    }
    // A router front is the worker's event loop: the flood that the
    // worker section records gets the same bytes back here, through
    // the same cap (so the transcript has them once).
    let front = route("127.0.0.1:0", &addrs, RouterConfig::default()).expect("router front");
    assert_eq!(flood(front.addr()), too_long, "a router front's line cap");
    front.join();

    let router = Router::connect(&addrs, &RouterConfig::default()).expect("connect shards");
    for (line, pin) in ROUTER_SCRIPT {
        t.record(line, &router.respond(line), *pin);
    }

    // shard_unavailable: stop shard 1, then fan a sharded run out.
    t.section("router with shard 1 down");
    let mut shards = shards.into_iter();
    let (shard0, shard1) = (shards.next().expect("shard 0"), shards.next().expect("shard 1"));
    shard1.join();
    for (line, pin) in [
        (r#"{"op":"run","kernel":0}"#, Pin::Bytes),
        (r#"{"op":"stats"}"#, Pin::Digits),
        (r#"{"op":"shutdown"}"#, Pin::Bytes),
    ] {
        t.record(line, &router.respond(line), pin);
    }
    // The shutdown broadcast reached the surviving shard.
    shard0.wait();
}

#[test]
fn wire_bytes_match_the_golden_transcript() {
    let mut t = Transcript::default();
    let too_long = worker_session(&mut t);
    router_session(&mut t, &too_long);
    let path = golden_path();
    if std::env::var_os("SYSTEC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &t.out).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with SYSTEC_BLESS=1)", path.display()));
    if t.out != golden {
        let (line, got, want) = t
            .out
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (got, want))| got != want)
            .map_or((0, "<one transcript is a prefix of the other>", ""), |(k, (g, w))| {
                (k + 1, g, w)
            });
        panic!(
            "wire transcript differs from {} at line {line}:\n  got:  {got}\n  want: {want}\n\
             ({} vs {} lines; re-bless with SYSTEC_BLESS=1 only for an intentional wire change)",
            path.display(),
            t.out.lines().count(),
            golden.lines().count()
        );
    }
}
