//! The four workloads that drive real `systec serve` / `systec cluster`
//! child processes over loopback through `systec_serve::Client`, as a
//! service caller would.
//!
//! All load is closed-loop: a connection sends its next request only
//! after the previous reply arrived (plus the stated think time). Run
//! replies are byte-deterministic by protocol contract, so after the
//! first reply has been decoded and checked against the reference, the
//! hot path compares reply bytes instead of decoding up to 740 KB per
//! op on a core the server needs.

use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use systec_serve::protocol::{Placement, Request, Response, StorageFormat, TensorPayload, Variant};
use systec_serve::{Client, Engine};
use systec_tensor::DenseTensor;

use crate::inputs::{self, Entries, Rng};
use crate::measure::{Op, Window};
use crate::procs::Server;
use crate::reference;
use crate::trace::{Tracer, NO_PARENT};
use crate::Scale;

pub const SSYMV: &str = "for i, j: y[i] += A[i, j] * x[j]";
pub const SYPRD: &str = "for i, j: y[] += x[i] * A[i, j] * x[j]";

/// Ops every set-up runs before it counts as warm; the first of them
/// is decoded and checked against the reference.
const SETUP_WARM_OPS: usize = 6;

pub fn register_line(
    name: &str,
    dims: &[usize],
    payload: TensorPayload,
    placement: Placement,
) -> String {
    Request::RegisterTensor {
        name: name.to_string(),
        dims: dims.to_vec(),
        payload,
        format: StorageFormat::Auto,
        placement,
    }
    .encode()
}

pub fn prepare_line(einsum: &str, inputs: &[(&str, &str)], sharded: bool) -> String {
    Request::Prepare {
        einsum: einsum.to_string(),
        sym: vec!["A".to_string()],
        inputs: inputs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        variant: Variant::Systec,
        threads: None,
        sharded,
    }
    .encode()
}

pub fn run_line(kernel: u64, shard: Option<(u64, u64)>) -> String {
    Request::Run { kernel, full: false, shard }.encode()
}

fn unregister_line(name: &str) -> String {
    Request::Unregister { name: name.to_string() }.encode()
}

/// One served kernel: what to register, what to prepare, and the
/// output the reference expects from a run.
pub struct Served {
    pub label: &'static str,
    pub a: Entries,
    pub x: DenseTensor,
    pub reference: Vec<f64>,
    /// Pre-encoded request lines (the benchmark's own cost, not set-up).
    pub register: Vec<String>,
    pub prepare: String,
}

impl Served {
    /// `names` are the registry names of `A` and `x`. With `cluster`,
    /// tensors are placed on every shard and the kernel is prepared for
    /// sharded runs (a lone worker accepts and ignores both).
    pub fn named(
        label: &'static str,
        einsum: &'static str,
        a: Entries,
        x: DenseTensor,
        names: [&str; 2],
        cluster: bool,
    ) -> Served {
        let reference = if einsum == SYPRD {
            reference::syprd(&a, x.as_slice())
        } else {
            reference::ssymv(&a, x.as_slice())
        };
        let placement = if cluster { Placement::Replicate } else { Placement::Hash };
        let register = vec![
            register_line(names[0], &a.dims, a.to_payload(), placement),
            register_line(
                names[1],
                x.dims(),
                TensorPayload::Dense(x.as_slice().to_vec()),
                placement,
            ),
        ];
        let prepare = prepare_line(einsum, &[("A", names[0]), ("x", names[1])], cluster);
        Served { label, a, x, reference, register, prepare }
    }
}

/// `serve_small`: SYPRD on a 4000² matrix with ~160 k stored entries —
/// a ~0.5 ms kernel and a reply of a couple of hundred bytes, so
/// transport, event-loop park and scheduler are the whole op.
pub fn small_inputs(seed: u64, scale: Scale) -> Served {
    let (n, nnz) = if scale == Scale::Quick { (800, 16_000) } else { (4000, 160_000) };
    let a =
        inputs::symmetric_banded(n, (nnz - n) / 2, 80, 0.7, &mut Rng::for_input(seed, "small/A"));
    let x = inputs::dense(vec![n], &mut Rng::for_input(seed, "small/x"));
    Served::named("syprd-4000", SYPRD, a, x, ["A", "x"], false)
}

/// `serve_large` and `cluster_sharded`: SSYMV on a 40 000² banded
/// matrix with ~370 k stored entries — a ~1 ms kernel and a ~740 KB
/// reply, so `Response::encode`, reply replication and the socket write
/// dominate.
pub fn large_inputs(seed: u64, scale: Scale, cluster: bool) -> Served {
    let (n, nnz) = if scale == Scale::Quick { (4000, 36_000) } else { (40_000, 370_000) };
    let a =
        inputs::symmetric_banded(n, (nnz - n) / 2, 12, 0.9, &mut Rng::for_input(seed, "large/A"));
    let x = inputs::dense(vec![n], &mut Rng::for_input(seed, "large/x"));
    Served::named("ssymv-40000", SSYMV, a, x, ["A", "x"], cluster)
}

/// Sends a line, insists on `"ok":true`, and decodes the reply.
pub fn call(client: &mut Client, line: &str) -> Result<Response, String> {
    let reply = client.send_raw(line).map_err(|e| format!("transport: {e}"))?;
    decode_ok(&reply)
}

fn decode_ok(reply: &str) -> Result<Response, String> {
    match Response::decode(reply).map_err(|e| format!("undecodable reply: {e}"))? {
        Response::Error { code, message } => Err(format!("{code}: {message}")),
        ok => Ok(ok),
    }
}

fn prepared_handle(resp: Response) -> Result<u64, String> {
    match resp {
        Response::Prepared { kernel, .. } => Ok(kernel),
        other => Err(format!("prepare answered {other:?}")),
    }
}

/// Decodes a run reply line and checks its `y` against the reference.
pub fn check_run(reply: &str, want: &[f64]) -> Result<(), String> {
    run_matches(&decode_ok(reply)?, "y", want)
}

/// Whether a decoded run reply holds `out` equal to the reference.
fn run_matches(resp: &Response, out: &str, want: &[f64]) -> Result<(), String> {
    let Response::Ran { outputs, .. } = resp else {
        return Err(format!("run answered {resp:?}"));
    };
    let got = outputs.iter().find(|o| o.name == out).ok_or_else(|| format!("no output {out}"))?;
    let dev = reference::rel_deviation(&got.values, want);
    if dev > reference::TOLERANCE {
        return Err(format!("output deviates from the reference by {dev:e}"));
    }
    Ok(())
}

/// A server that holds the workload's tensors and prepared kernel.
pub struct Ready {
    pub server: Server,
    pub run: String,
    /// The verified reply every later run must equal byte for byte.
    pub expected: String,
}

/// Spawns the server, registers, prepares, verifies the first run and
/// warms up. Also returns the seconds spent inside the program: spawn →
/// pong, the register and prepare round trips, and the warm-up ops.
pub fn set_up(bin: &Path, served: &Served, cluster: bool) -> Result<(Ready, f64), String> {
    let server = if cluster { Server::cluster(bin, 2)? } else { Server::serve(bin)? };
    let mut setup_s = server.ready_s;
    let mut client = server.connect()?;
    let t0 = Instant::now();
    for line in &served.register {
        call(&mut client, line)?;
    }
    let handle = prepared_handle(call(&mut client, &served.prepare)?)?;
    let run = run_line(handle, None);
    let expected = client.send_raw(&run).map_err(|e| format!("first run: {e}"))?;
    setup_s += t0.elapsed().as_secs_f64();
    check_run(&expected, &served.reference)?;
    let t0 = Instant::now();
    for _ in 1..SETUP_WARM_OPS {
        if client.send_raw(&run).map_err(|e| format!("warm-up run: {e}"))? != expected {
            return Err("a warm-up reply differs from the verified first reply".into());
        }
    }
    setup_s += t0.elapsed().as_secs_f64();
    Ok((Ready { server, run, expected }, setup_s))
}

impl Ready {
    /// A closed loop of `conns` connections on this server's kernel.
    pub fn load(&self, conns: usize, think: Duration) -> Load<'_> {
        Load { addr: &self.server.addr, run: &self.run, expected: &self.expected, conns, think }
    }
}

/// Who a closed loop talks to, what it sends and how hard.
pub struct Load<'a> {
    pub addr: &'a str,
    pub run: &'a str,
    /// The verified reply every reply must equal byte for byte.
    pub expected: &'a str,
    pub conns: usize,
    /// Pause between a reply and the connection's next request.
    pub think: Duration,
}

/// The closed loop over `load.conns` connections, one thread each: send,
/// await the reply, compare its bytes, think, repeat for `seconds`.
/// With `origin`, each thread records a `client.rtt` span per op.
pub fn closed_loop(
    load: &Load,
    seconds: f64,
    origin: Option<Instant>,
) -> Result<(Window, Option<Tracer>), String> {
    let &Load { addr, run, expected, conns, think } = load;
    let barrier = Barrier::new(conns);
    let results: Vec<Result<(Window, Option<Tracer>), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<(Window, Option<Tracer>), String> {
                    // The first request on a fresh connection skips the
                    // delayed-ACK wait every later one pays; keep it
                    // out of the window. Failures are raised only after
                    // the barrier, so no thread waits for a dead one.
                    let connected = Client::connect(addr)
                        .and_then(|mut c| c.send_raw(run).map(|_| c))
                        .map_err(|e| format!("connection {conn} to {addr}: {e}"));
                    barrier.wait();
                    let mut client = connected?;
                    let mut tracer = origin.map(Tracer::new);
                    let rtt = tracer.as_mut().map(|t| t.name("client.rtt"));
                    let mut w = Window::default();
                    let start = Instant::now();
                    while start.elapsed().as_secs_f64() < seconds {
                        let t0 = Instant::now();
                        let reply = client.send_raw(run);
                        let t1 = Instant::now();
                        if let (Some(tr), Some(name)) = (tracer.as_mut(), rtt) {
                            tr.record(
                                name,
                                t0,
                                t1,
                                NO_PARENT,
                                (w.ops.len() as u64) << 8 | conn as u64,
                            );
                        }
                        // A reply that is refused, wrong or lost is a
                        // failed op; a lost connection ends this loop.
                        let (ok, alive) = match &reply {
                            Ok(r) => (r == expected, true),
                            Err(_) => (false, false),
                        };
                        w.ops.push(Op {
                            lat_ms: (t1 - t0).as_secs_f64() * 1e3,
                            end_s: (t1 - start).as_secs_f64(),
                            ok,
                        });
                        if !alive {
                            break;
                        }
                        if !think.is_zero() {
                            std::thread::sleep(think);
                        }
                    }
                    w.wall_s = start.elapsed().as_secs_f64();
                    Ok((w, tracer))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a load thread panicked")).collect()
    });
    let mut window = Window::default();
    let mut tracer: Option<Tracer> = origin.map(Tracer::new);
    for r in results {
        let (w, t) = r?;
        window.join(w);
        if let (Some(all), Some(t)) = (tracer.as_mut(), t) {
            all.absorb(t);
        }
    }
    Ok((window, tracer))
}

// ---------------------------------------------------------------------
// prepare_churn
// ---------------------------------------------------------------------

/// One tenant's life: everything pre-encoded except the `run` lines,
/// which need the handle `prepare` returns.
pub struct Cycle {
    register_a: String,
    register_x: String,
    prepare: String,
    register_a_again: String,
    unregister: [String; 2],
    reference: [Vec<f64>; 2],
}

pub const CHURN_ROUND_TRIPS: usize = 9;

/// Tenant `k` of a churn run: a symmetric matrix of side `n0 + k` (so
/// the plan key is new to the server) with ~60 k stored entries, its
/// vector, and a second matrix of the same shape with fresh contents.
pub fn churn_cycle(seed: u64, k: usize, scale: Scale) -> Cycle {
    let (n0, pairs) = if scale == Scale::Quick { (600, 2700) } else { (6000, 27_000) };
    let n = n0 + k;
    let (a_name, x_name) = (format!("A{k}"), format!("x{k}"));
    let gen = |tag: &str| {
        inputs::symmetric_banded(
            n,
            pairs,
            24,
            0.8,
            &mut Rng::for_input(seed, &format!("churn/{tag}/{k}")),
        )
    };
    let (a1, a2) = (gen("a1"), gen("a2"));
    let x = inputs::dense(vec![n], &mut Rng::for_input(seed, &format!("churn/x/{k}")));
    let reg = |a: &Entries| register_line(&a_name, &a.dims, a.to_payload(), Placement::Hash);
    Cycle {
        register_a: reg(&a1),
        register_x: register_line(
            &x_name,
            x.dims(),
            TensorPayload::Dense(x.as_slice().to_vec()),
            Placement::Hash,
        ),
        prepare: prepare_line(SSYMV, &[("A", &a_name), ("x", &x_name)], false),
        register_a_again: reg(&a2),
        unregister: [unregister_line(&a_name), unregister_line(&x_name)],
        reference: [reference::ssymv(&a1, x.as_slice()), reference::ssymv(&a2, x.as_slice())],
    }
}

/// Runs one tenant cycle: register A and x, prepare (plan-cache miss),
/// run; re-register A with fresh values (a generation bump — the same
/// `prepare` on unchanged data would only dedupe onto the old handle),
/// prepare (plan-cache hit that still materialises variants), run;
/// unregister both. Any refusal or wrong output fails the op.
pub fn run_cycle(
    mut send: impl FnMut(&str) -> Result<Response, String>,
    c: &Cycle,
) -> Result<(), String> {
    send(&c.register_a)?;
    send(&c.register_x)?;
    for (half, reference) in c.reference.iter().enumerate() {
        if half == 1 {
            send(&c.register_a_again)?;
        }
        let handle = prepared_handle(send(&c.prepare)?)?;
        run_matches(&send(&run_line(handle, None))?, "y", reference)?;
    }
    send(&c.unregister[0])?;
    send(&c.unregister[1])?;
    Ok(())
}

/// A fresh `systec serve` child warmed by `warm.len()` tenant cycles.
pub fn churn_set_up(bin: &Path, warm: &[Cycle]) -> Result<(Server, f64), String> {
    let server = Server::serve(bin)?;
    let mut client = server.connect()?;
    let t0 = Instant::now();
    for c in warm {
        run_cycle(|line| call(&mut client, line), c)?;
    }
    let setup_s = server.ready_s + t0.elapsed().as_secs_f64();
    Ok((server, setup_s))
}

/// The churn loop: one connection, one cycle after another, each on a
/// tenant the server has not seen yet. Tenants are generated between
/// ops, outside the op timer (the generator is the benchmark's cost).
pub struct Churn<'a> {
    pub server: &'a Server,
    pub seed: u64,
    pub scale: Scale,
    /// The next tenant index; every op takes a fresh one.
    pub next_tenant: usize,
    /// Seconds the generator ran so far.
    pub generating_s: f64,
}

impl Churn<'_> {
    /// Runs cycles for `seconds`. When traced, every cycle is an `op`
    /// span with one `client.rtt` child a round trip.
    pub fn run(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Window, String> {
        let mut client = self.server.connect()?;
        let names = tracer.as_mut().map(|t| (t.name("op"), t.name("client.rtt")));
        let mut w = Window::default();
        let mut generating_s = 0.0;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let g0 = Instant::now();
            let cycle = churn_cycle(self.seed, self.next_tenant, self.scale);
            generating_s += g0.elapsed().as_secs_f64();
            self.next_tenant += 1;
            let mut marks: Vec<(Instant, Instant)> = Vec::with_capacity(CHURN_ROUND_TRIPS);
            let t0 = Instant::now();
            let outcome = run_cycle(
                |line| {
                    let s = Instant::now();
                    let reply = client.send_raw(line).map_err(|e| format!("transport: {e}"));
                    marks.push((s, Instant::now()));
                    decode_ok(&reply?)
                },
                &cycle,
            );
            let t1 = Instant::now();
            if let (Some(tr), Some((op, rtt))) = (tracer.as_mut(), names) {
                let id = w.ops.len() as u64;
                let root = tr.record(op, t0, t1, NO_PARENT, id);
                for (s, e) in &marks {
                    tr.record(rtt, *s, *e, root, id);
                }
            }
            let lat_ms = (t1 - t0).as_secs_f64() * 1e3;
            let end_s = (t1 - start).as_secs_f64() - generating_s;
            w.ops.push(Op { lat_ms, end_s, ok: outcome.is_ok() });
            if let Err(e) = outcome {
                eprintln!("prepare_churn: tenant {} failed: {e}", self.next_tenant - 1);
            }
        }
        // The generator ran between ops; it is not the program's time.
        w.wall_s = start.elapsed().as_secs_f64() - generating_s;
        self.generating_s += generating_s;
        Ok(w)
    }
}

// ---------------------------------------------------------------------
// Replaying a request on an in-process engine, layer by layer
// ---------------------------------------------------------------------

/// Self-times of one request pushed through the serving layers in this
/// process: what `Request::decode`, `Engine::handle`, `Response::encode`
/// and the client's `Response::decode` cost for this exact line.
#[derive(Default, Clone, Copy)]
pub struct Replay {
    pub decode_s: f64,
    pub handle_s: f64,
    pub encode_s: f64,
    pub client_decode_s: f64,
}

impl Replay {
    pub fn total_s(&self) -> f64 {
        self.decode_s + self.handle_s + self.encode_s + self.client_decode_s
    }
}

/// Replays `line` on `engine`, recording the four layer spans under
/// `parent` when tracing, and returns the reply line with the timings.
pub fn replay(
    engine: &Engine,
    line: &str,
    tracer: Option<(&mut Tracer, u32, u64)>,
) -> Result<(String, Replay), String> {
    let t0 = Instant::now();
    let request = Request::decode(line).map_err(|e| format!("replay decode: {e}"))?;
    let t1 = Instant::now();
    let response = engine.handle(&request);
    let t2 = Instant::now();
    let reply = response.encode();
    let t3 = Instant::now();
    let decoded = Response::decode(&reply).map_err(|e| format!("replay client decode: {e}"))?;
    let t4 = Instant::now();
    if let Response::Error { code, message } = decoded {
        return Err(format!("replay refused: {code}: {message}"));
    }
    if let Some((tr, parent, op)) = tracer {
        for (name, s, e) in [
            ("protocol.decode", t0, t1),
            ("engine.handle", t1, t2),
            ("protocol.encode", t2, t3),
            ("client.decode", t3, t4),
        ] {
            let id = tr.name(name);
            tr.record(id, s, e, parent, op);
        }
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        reply,
        Replay {
            decode_s: secs(t0, t1),
            handle_s: secs(t1, t2),
            encode_s: secs(t2, t3),
            client_decode_s: secs(t3, t4),
        },
    ))
}

/// An in-process engine holding the workload's tensors and kernel, for
/// replays. Returns the engine and its `run` line.
pub fn local_engine(served: &Served) -> Result<(Engine, String), String> {
    let engine = Engine::new();
    for line in &served.register {
        replay(&engine, line, None)?;
    }
    let (reply, _) = replay(&engine, &served.prepare, None)?;
    let handle = prepared_handle(decode_ok(&reply)?)?;
    Ok((engine, run_line(handle, None)))
}

/// What the public `stats` verb of the worker (a cluster's first
/// worker) says about its batches and its busiest kernel.
#[derive(Clone, Copy)]
pub struct EngineStats {
    pub batched_runs: u64,
    pub batch_dispatches: u64,
    /// The server's own median of the busiest kernel's run time.
    pub kernel_median_us: f64,
}

impl EngineStats {
    pub fn of(server: &Server) -> Result<EngineStats, String> {
        let addr = server.shards.first().unwrap_or(&server.addr);
        let mut client =
            Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
        let Response::Stats { serve, kernels, .. } = call(&mut client, r#"{"op":"stats"}"#)? else {
            return Err("`stats` answered something else".into());
        };
        let busiest = kernels.iter().max_by_key(|k| k.runs);
        Ok(EngineStats {
            batched_runs: serve.batched_runs,
            batch_dispatches: serve.batch_dispatches,
            kernel_median_us: busiest.and_then(|k| k.median_us).unwrap_or(0.0),
        })
    }

    /// Runs per dispatch since `earlier` was taken.
    pub fn batch_mean_since(&self, earlier: &EngineStats) -> f64 {
        (self.batched_runs - earlier.batched_runs) as f64
            / (self.batch_dispatches - earlier.batch_dispatches).max(1) as f64
    }
}
