//! The per-layer probe: every layer of the system timed from outside,
//! at its public entry points, on fixed-size seeded probe inputs.
//!
//! A traced run of any workload ends with this probe, so each of the
//! six traced runs reports every per-layer metric and a change to one
//! layer shows in all of them. The probe sizes are the probe's own; the
//! workload's own requests are decomposed separately, by the replay in
//! `serve.rs` and the per-cell spans in `kernels.rs`.
//!
//! No number here is a single-shot timing. Every number that is later
//! divided by another comes from `measure::interleave` (both sides
//! alternate in short blocks in this one process until each holds its
//! share of samples) or, for round trips, from [`take_turns`].

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use systec_codegen::CompiledKernel as Bytecode;
use systec_core::Compiler;
use systec_exec::{alloc_outputs, hoist_conditions, lower, prepare_variants};
use systec_kernels::{clear_plan_cache, native, Counters, ExecContext, LaneMode, Prepared};
use systec_router::{Router, RouterConfig};
use systec_serve::protocol::{Placement, Request, Response, TensorPayload};
use systec_serve::{Client, Engine};
use systec_tensor::{DenseTensor, SparseTensor, Tensor};

use crate::inputs::{self, Rng};
use crate::kernels::{self, CellInput, KernelInputs};
use crate::measure::{geomean, interleave, median, time_call, Side, Window};
use crate::procs::Server;
use crate::serve::{
    self, call, prepare_line, register_line, run_line, EngineStats, Load, SSYMV, SYPRD,
};
use crate::Scale;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

pub fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), (value, unit));
}

/// Seconds of samples each side of a kernel comparison gets. A ratio
/// over a group of kernels (the geomeans) rests on the group's sum:
/// 3 × 0.2 s for rank 2 and 5 × 0.12 s for rank 3+, i.e. 0.6 s a side.
fn side_budget(kernel: &str, scale: Scale) -> Duration {
    let full = if RANK2.contains(&kernel) { 0.2 } else { 0.12 };
    Duration::from_secs_f64(if scale == Scale::Quick { full / 10.0 } else { full })
}

/// Repetitions of every single-shot timing (a pipeline stage, a
/// prepare, a register): each reports the median of this many.
const PIPELINE_REPS: usize = 5;

/// The paper's reported speed-up of the symmetric kernel over naive,
/// printed beside the measured geomeans (§5.2: 1.36× SSYMV … 30.4×
/// MTTKRP-5; the rank-2 kernels share the 1.36–1.45× band).
pub const PAPER_RANK2_SPEEDUP: f64 = 1.45;

fn probe_inputs(seed: u64, scale: Scale) -> KernelInputs {
    // One in-L2 banded matrix for the three rank-2 kernels, then the
    // rank-3+ workload's own (small) operands.
    let (n, nnz) = if scale == Scale::Quick { (400, 6000) } else { (2000, 60_000) };
    let mut r2 = kernels::rank2_inputs_from(seed, &[("probe-2000", n, nnz, 40)], None);
    let r3 = kernels::rank3plus_inputs(seed, scale);
    let shift = r2.operands.len();
    r2.operands.extend(r3.operands);
    r2.cells.extend(r3.cells.into_iter().map(|mut c| {
        c.operand += shift;
        c
    }));
    r2
}

fn native_call(
    kernel: &str,
    a: &SparseTensor,
    dense: Option<&DenseTensor>,
) -> Option<Box<dyn FnMut()>> {
    let a = a.clone();
    let d = dense.cloned();
    Some(match kernel {
        "ssymv" => {
            let x = d?;
            Box::new(move || {
                std::hint::black_box(native::symmetric_csr_spmv(&a, &x));
            })
        }
        "syprd" => {
            let x = d?;
            Box::new(move || {
                std::hint::black_box(native::csr_syprd(&a, &x));
            })
        }
        "bellman_ford" => {
            let x = d?;
            let y0 = DenseTensor::filled(x.dims().to_vec(), f64::INFINITY);
            Box::new(move || {
                std::hint::black_box(native::csr_bellman_ford(&a, &x, &y0));
            })
        }
        "ssyrk" => Box::new(move || {
            std::hint::black_box(native::csr_ssyrk(&a));
        }),
        "mttkrp3" => {
            let b = d?;
            Box::new(move || {
                std::hint::black_box(native::csf_mttkrp3(&a, &b));
            })
        }
        _ => return None,
    })
}

/// `tensor`, `core`, `exec`, `codegen`, `codegen::vm` and `kernels`.
pub fn library_layers(
    seed: u64,
    scale: Scale,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let inputs = probe_inputs(seed, scale);

    // tensor → core → exec → codegen, one stage at a time over the
    // probe's operands and its eight kernels. The whole pipeline is
    // repeated and every stage reports its median repetition.
    let reps = if scale == Scale::Quick { 2 } else { PIPELINE_REPS };
    let nnz: usize = inputs.operands.iter().map(|op| op.coo.nnz()).sum();
    let mut stages: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut packed = Vec::new();
    let mut bytecode_len = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        packed.clear();
        for op in &inputs.operands {
            let t = SparseTensor::from_coo(&op.coo, &op.formats).map_err(|e| e.to_string())?;
            packed.push(Tensor::Sparse(t));
        }
        let pack_ns = t0.elapsed().as_secs_f64() * 1e9;
        let (mut core_ms, mut core_ms_mttkrp5) = (0.0, 0.0);
        let (mut lower_ms, mut variants_ms, mut codegen_ms) = (0.0, 0.0, 0.0);
        bytecode_len = 0;
        for ci in &inputs.cells {
            let mut bound = ci.bind(&packed);
            let t0 = Instant::now();
            let compiled = Compiler::new()
                .compile(&ci.def.einsum, &ci.def.symmetry)
                .map_err(|e| format!("{}: {e}", ci.kernel))?;
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            core_ms += dt;
            if ci.kernel == "mttkrp5" {
                core_ms_mttkrp5 = dt;
            }
            let t0 = Instant::now();
            let main = hoist_conditions(compiled.main);
            let hoist = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let variants = prepare_variants(&main, &bound).map_err(|e| e.to_string())?;
            if ci.kernel == "ssymv" {
                variants_ms = t0.elapsed().as_secs_f64() * 1e3;
            }
            bound.extend(variants);
            let outputs = alloc_outputs(&main, &bound).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let lowered = lower(&main, &bound, &outputs).map_err(|e| e.to_string())?;
            lower_ms += (hoist + t0.elapsed().as_secs_f64()) * 1e3;
            let t0 = Instant::now();
            let bytecode =
                Bytecode::compile(&lowered, &bound, &outputs).map_err(|e| e.to_string())?;
            codegen_ms += t0.elapsed().as_secs_f64() * 1e3;
            bytecode_len += bytecode.len();
        }
        for (stage, value) in [
            ("tensor.pack_ns_per_nnz", pack_ns / nnz as f64),
            ("core.compile_ms", core_ms),
            ("core.compile_ms.mttkrp5", core_ms_mttkrp5),
            ("exec.lower_ms", lower_ms),
            ("exec.variants_ms", variants_ms),
            ("codegen.compile_ms", codegen_ms),
        ] {
            stages.entry(stage).or_default().push(value);
        }
    }
    for (stage, samples) in &stages {
        let unit = if stage.ends_with("_ns_per_nnz") { "ns" } else { "ms" };
        put(m, *stage, median(samples), unit);
    }
    put(m, "codegen.bytecode_len", bytecode_len as f64, "count");

    // kernels: a cold and a warm `Prepared::compile`.
    for kernel in ["ssymv", "mttkrp5"] {
        let ci = inputs.cells.iter().find(|c| c.kernel == kernel).expect("probe has the kernel");
        let bound = ci.bind(&packed);
        let (mut miss, mut hit) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            clear_plan_cache();
            let t0 = Instant::now();
            Prepared::compile(&ci.def, &bound).map_err(|e| e.to_string())?;
            miss.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            Prepared::compile(&ci.def, &bound).map_err(|e| e.to_string())?;
            hit.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        put(m, format!("kernels.prepare_miss_ms.{kernel}"), median(&miss), "ms");
        put(m, format!("kernels.prepare_hit_ms.{kernel}"), median(&hit), "ms");
    }

    // codegen::vm against naive, scalar folds and the native comparators.
    let mut speedups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut sampled_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut vs_native_rank2 = Vec::new();
    for ci in &inputs.cells {
        let c = compare(ci, &packed, side_budget(ci.kernel, scale))?;
        let k = ci.kernel;
        put(m, format!("vm.{k}.sym_us"), c.us(0), "us");
        put(m, format!("vm.{k}.naive_us"), c.us(1), "us");
        put(m, format!("vm.{k}.scalar_us"), c.us(2), "us");
        put(m, format!("vm.{k}.reads_ratio"), c.reads_ratio, "ratio");
        let group = if RANK2.contains(&k) { "rank2" } else { "rank3plus" };
        speedups.entry(group).or_default().push(c.us(1) / c.us(0));
        *sampled_s.entry(group).or_default() += c.sampled_s();
        if c.timed.len() == 4 {
            put(m, format!("native.{k}.us"), c.us(3), "us");
            put(m, format!("vm.{k}.vs_native"), c.us(0) / c.us(3), "ratio");
            if group == "rank2" {
                vs_native_rank2.push(c.us(0) / c.us(3));
            }
        }
    }
    put(m, "vm.rank2.speedup_geomean", geomean(&speedups["rank2"]), "ratio");
    put(m, "vm.rank3plus.speedup_geomean", geomean(&speedups["rank3plus"]), "ratio");
    put(m, "vm.rank2.vs_native_geomean", geomean(&vs_native_rank2), "ratio");
    drop((packed, inputs));

    // The same three rank-2 kernels on a matrix three times the L2: the
    // paper's rank-2 win is a bandwidth win (ROADMAP 2b).
    let shape = if scale == Scale::Quick {
        ("probe-out-l2", 3000, 30_001, 96)
    } else {
        ("probe-out-l2", 30_237, kernels::OUT_OF_L2_NNZ, 96)
    };
    let big = kernels::rank2_inputs_from(seed, &[shape], None);
    let op = &big.operands[0];
    let packed =
        [Tensor::Sparse(SparseTensor::from_coo(&op.coo, &op.formats).map_err(|e| e.to_string())?)];
    let (mut sym_us, mut naive_us, mut ratios, mut out_l2_s) = (0.0, 0.0, Vec::new(), 0.0);
    for ci in &big.cells {
        let c = compare(ci, &packed, side_budget(ci.kernel, scale))?;
        sym_us += c.us(0);
        naive_us += c.us(1);
        ratios.push(c.us(1) / c.us(0));
        out_l2_s += c.sampled_s();
    }
    put(m, "vm.rank2.out_l2.sym_us", sym_us, "us");
    put(m, "vm.rank2.out_l2.naive_us", naive_us, "us");
    put(m, "vm.rank2.out_l2.speedup_geomean", geomean(&ratios), "ratio");
    notes.push(format!(
        "ratios: sides alternate in ~2 ms blocks in this process; the rank-2 geomeans rest on \
         {:.2} s of samples a side, the out-of-L2 geomean on {out_l2_s:.2} s, the rank-3+ geomean \
         on {:.2} s",
        sampled_s["rank2"], sampled_s["rank3plus"]
    ));
    Ok(())
}

const RANK2: [&str; 3] = ["ssymv", "syprd", "bellman_ford"];

/// One cell run four ways in interleaved blocks: the symmetric plan,
/// the naive plan, the symmetric plan with scalar folds and, where
/// `native.rs` has one, the hand-written comparator — in that order.
struct Compared {
    timed: Vec<Side>,
    /// Naive ÷ symmetric loads of the symmetric operand, from `Counters`.
    reads_ratio: f64,
}

impl Compared {
    fn us(&self, side: usize) -> f64 {
        self.timed[side].per_call_s * 1e6
    }

    /// Seconds of samples under the naive ÷ symmetric ratio's thinner side.
    fn sampled_s(&self) -> f64 {
        self.timed[0].sampled_s.min(self.timed[1].sampled_s)
    }
}

fn compare(ci: &CellInput, packed: &[Tensor], per_side: Duration) -> Result<Compared, String> {
    let a = packed[ci.operand].as_sparse().expect("operands are packed sparse");
    let bound = ci.bind(packed);
    let sym = Prepared::compile(&ci.def, &bound).map_err(|e| e.to_string())?;
    let naive = Prepared::naive(&ci.def, &bound).map_err(|e| e.to_string())?;
    let reads = |p: &Prepared| -> Result<u64, String> {
        Ok(p.run_timed().map_err(|e| e.to_string())?.1.reads_of_family("A"))
    };
    let reads_ratio = reads(&naive)? as f64 / reads(&sym)? as f64;

    let runner = |p: &Prepared, lanes: LaneMode| {
        let p = p.clone();
        let mut outputs = HashMap::new();
        let mut ctx = ExecContext::new().with_lane_mode(lanes);
        let mut counters = Counters::new();
        move || {
            p.run_timed_into(&mut outputs, &mut ctx, &mut counters).expect("a prepared kernel runs")
        }
    };
    let mut sym_run = runner(&sym, LaneMode::Lanes);
    let mut naive_run = runner(&naive, LaneMode::Lanes);
    let mut scalar_run = runner(&sym, LaneMode::Scalar);
    let mut native_run = native_call(ci.kernel, a, ci.dense.as_ref().map(|(_, t)| t));
    let mut sides: Vec<&mut dyn FnMut()> = vec![&mut sym_run, &mut naive_run, &mut scalar_run];
    if let Some(f) = native_run.as_mut() {
        sides.push(f.as_mut());
    }
    Ok(Compared { timed: interleave(&mut sides, per_side), reads_ratio })
}

/// The probe's two served kernels: a scalar-reply SYPRD and an SSYMV
/// whose reply carries `n` values.
pub struct ServeProbe {
    pub small: serve::Served,
    pub large: serve::Served,
}

pub fn serve_probe(seed: u64, scale: Scale) -> ServeProbe {
    // The large reply carries as many values as `serve_large`'s, so the
    // router's costs (leg decode, merge, re-encode) stand clear of the
    // noise of the round trips they are differences of.
    let (n_small, n_large, nnz_small, nnz_large) = if scale == Scale::Quick {
        (400, 1000, 6000, 6000)
    } else {
        (2000, 40_000, 60_000, 120_000)
    };
    let gen = |label: &str, n: usize, nnz: usize| {
        inputs::symmetric_banded(n, (nnz - n) / 2, 24, 0.8, &mut Rng::for_input(seed, label))
    };
    let a_small = gen("probe/small", n_small, nnz_small);
    let a_large = gen("probe/large", n_large, nnz_large);
    let x_small = inputs::dense(vec![n_small], &mut Rng::for_input(seed, "probe/xs"));
    let x_large = inputs::dense(vec![n_large], &mut Rng::for_input(seed, "probe/xl"));
    ServeProbe {
        small: serve::Served::named("probe-syprd", SYPRD, a_small, x_small, ["pA", "px"], true),
        large: serve::Served::named("probe-ssymv", SSYMV, a_large, x_large, ["qA", "qx"], true),
    }
}

/// `serve::protocol` and `serve::engine`, in this process.
pub fn serving_layers(probe: &ServeProbe, scale: Scale, m: &mut Metrics) -> Result<(), String> {
    let budget = Duration::from_secs_f64(if scale == Scale::Quick { 0.01 } else { 0.2 });
    let reps = if scale == Scale::Quick { 2 } else { PIPELINE_REPS };
    let engine = Engine::new();
    let mut handles = Vec::new();
    let mut replies = Vec::new();
    for served in [&probe.small, &probe.large] {
        for line in &served.register {
            serve::replay(&engine, line, None)?;
        }
        let (reply, _) = serve::replay(&engine, &served.prepare, None)?;
        let Response::Prepared { kernel, .. } =
            Response::decode(&reply).map_err(|e| e.to_string())?
        else {
            return Err(format!("probe prepare answered {reply}"));
        };
        handles.push(kernel);
        let (reply, _) = serve::replay(&engine, &run_line(kernel, None), None)?;
        serve::check_run(&reply, &served.reference)?;
        replies.push(reply);
    }
    let run_small = run_line(handles[0], None);
    let register_large = &probe.large.register[0];

    // protocol
    put(
        m,
        "protocol.decode_run_us",
        time_call(|| drop(std::hint::black_box(Request::decode(&run_small))), budget) * 1e6,
        "us",
    );
    put(
        m,
        "protocol.decode_register_ms",
        time_call(|| drop(std::hint::black_box(Request::decode(register_large))), budget) * 1e3,
        "ms",
    );
    let decoded: Vec<Response> = replies
        .iter()
        .map(|r| Response::decode(r).expect("the engine's own reply decodes"))
        .collect();
    let encode_small = time_call(|| drop(std::hint::black_box(decoded[0].encode())), budget);
    let encode_large = time_call(|| drop(std::hint::black_box(decoded[1].encode())), budget);
    put(m, "protocol.encode_small_us", encode_small * 1e6, "us");
    put(m, "protocol.encode_large_ms", encode_large * 1e3, "ms");
    put(
        m,
        "protocol.encode_ns_per_value",
        encode_large * 1e9 / probe.large.reference.len() as f64,
        "ns",
    );
    put(
        m,
        "protocol.decode_large_ms",
        time_call(|| drop(std::hint::black_box(Response::decode(&replies[1]))), budget) * 1e3,
        "ms",
    );
    put(m, "protocol.reply_bytes_small", replies[0].len() as f64, "count");
    put(m, "protocol.reply_bytes_large", replies[1].len() as f64, "count");

    // engine
    for (size, handle) in [("small", handles[0]), ("large", handles[1])] {
        let execute =
            time_call(|| drop(engine.execute(handle).expect("the probe kernel runs")), budget);
        put(m, format!("engine.execute_{size}_us"), execute * 1e6, "us");
        let request = Request::Run { kernel: handle, full: false, shard: None };
        let run = time_call(|| drop(std::hint::black_box(engine.handle(&request))), budget);
        put(m, format!("engine.run_{size}_us"), run * 1e6, "us");
    }
    // Registering and preparing: a miss on a cold plan cache, then a hit
    // after a generation bump (the same prepare on unchanged data would
    // only dedupe onto the old handle).
    let register = Request::decode(register_large).map_err(|e| e.to_string())?;
    let prepare = Request::decode(&probe.large.prepare).map_err(|e| e.to_string())?;
    let (mut reg_ms, mut miss_ms, mut hit_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        clear_plan_cache();
        for out in [&mut miss_ms, &mut hit_ms] {
            let t0 = Instant::now();
            let r = engine.handle(&register);
            reg_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let p = engine.handle(&prepare);
            out.push(t0.elapsed().as_secs_f64() * 1e3);
            if !matches!((&r, &p), (Response::Registered { .. }, Response::Prepared { .. })) {
                return Err(format!("probe register/prepare answered {r:?} / {p:?}"));
            }
        }
    }
    put(m, "engine.register_ms", median(&reg_ms), "ms");
    put(m, "engine.prepare_miss_ms", median(&miss_ms), "ms");
    put(m, "engine.prepare_hit_ms", median(&hit_ms), "ms");
    Ok(())
}

type RoundTrip<'a> = &'a mut dyn FnMut() -> Result<(), String>;

/// Timed round trips a turn, after one untimed.
const TURN: usize = 4;

/// Takes turns over `sides` until each has `per_side` seconds of timed
/// round trips, and returns each side's median milliseconds and sampled
/// seconds. A connection keeps TCP state: left idle while the others
/// have their turn, it answers its first request without the
/// delayed-ACK wait every request of a steady stream pays. So a turn is
/// one untimed round trip and then [`TURN`] timed ones.
fn take_turns(sides: &mut [RoundTrip], per_side: f64) -> Result<Vec<(f64, f64)>, String> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); sides.len()];
    let mut sampled = vec![0.0f64; sides.len()];
    while sampled.iter().any(|&s| s < per_side) {
        for (k, side) in sides.iter_mut().enumerate() {
            if sampled[k] >= per_side {
                continue;
            }
            side()?;
            for _ in 0..TURN {
                let t0 = Instant::now();
                side()?;
                let dt = t0.elapsed().as_secs_f64();
                samples[k].push(dt * 1e3);
                sampled[k] += dt;
            }
        }
    }
    Ok(samples.iter().map(|s| median(s)).zip(sampled).collect())
}

/// One round trip of `line`; a refusal or a reply other than `expected`
/// is an error.
fn round_trip(client: &mut Client, line: &str, expected: Option<&str>) -> Result<(), String> {
    let reply = client.send_raw(line).map_err(|e| format!("`{line}`: transport: {e}"))?;
    if expected.is_some_and(|want| want != reply) || reply.starts_with("{\"ok\":false") {
        return Err(format!("`{line}` answered unexpectedly: {reply:.120}"));
    }
    Ok(())
}

/// A `ping` connection of the benchmark's own: `TCP_NODELAY`, line and
/// newline in one write. The gap to `Client` is `client.rs`'s share of
/// a round trip.
struct RawPing {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl RawPing {
    fn connect(addr: &str) -> Result<RawPing, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(RawPing { writer, reader: BufReader::new(stream), reply: String::new() })
    }

    fn round_trip(&mut self) -> Result<(), String> {
        self.reply.clear();
        self.writer
            .write_all(b"{\"op\":\"ping\"}\n")
            .and_then(|()| self.reader.read_line(&mut self.reply))
            .map_err(|e| format!("raw ping: {e}"))?;
        if self.reply.contains("pong") {
            Ok(())
        } else {
            Err(format!("raw ping answered {}", self.reply))
        }
    }
}

/// A closed loop of the probe's own; any failed op fails the probe.
fn probe_loop(load: &Load, duration: Duration) -> Result<Window, String> {
    let (w, _) = serve::closed_loop(load, duration.as_secs_f64(), None)?;
    if w.failed() > 0 {
        return Err(format!("{} of a probe loop's {} ops failed", w.failed(), w.attempted()));
    }
    Ok(w)
}

/// `serve::server` + `serve::client`, and `router`: one `systec cluster
/// --shards 2` child, its workers addressed directly for the wire and
/// leg numbers, and a second `Router` in this process for `respond`.
///
/// The seven kinds of round trip take turns ([`take_turns`]) until each
/// has a second of samples, and each reports its median; the router's
/// costs are differences of those.
pub fn wire_layers(
    bin: &Path,
    probe: &ServeProbe,
    scale: Scale,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let per_side = Duration::from_secs_f64(if scale == Scale::Quick { 0.1 } else { 1.0 });
    let cluster = Server::cluster(bin, 2)?;
    put(m, "server.spawn_ready_ms", cluster.ready_s * 1e3, "ms");
    let worker = cluster.shards[0].as_str();
    let connect = |addr: &str| Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"));

    // The front's copy of the probe kernel.
    let mut front = cluster.connect()?;
    for line in &probe.large.register {
        call(&mut front, line)?;
    }
    let Response::Prepared { kernel, .. } = call(&mut front, &probe.large.prepare)? else {
        return Err("the front did not prepare the probe kernel".into());
    };
    let front_run = run_line(kernel, None);
    let merged = front.send_raw(&front_run).map_err(|e| e.to_string())?;
    serve::check_run(&merged, &probe.large.reference)?;

    // Each leg alone, and the whole run on one worker: the prepare
    // dedupes onto the handle the front's broadcast already minted.
    let mut legs = Vec::new();
    for (k, addr) in cluster.shards.iter().enumerate() {
        let mut c = connect(addr)?;
        let Response::Prepared { kernel, .. } = call(&mut c, &probe.large.prepare)? else {
            return Err(format!("worker {k} did not prepare the probe kernel"));
        };
        legs.push((c, run_line(kernel, Some((k as u64, cluster.shards.len() as u64)))));
    }
    let [(leg0_client, leg0_run), (leg1_client, leg1_run)] = &mut legs[..] else {
        return Err(format!("the cluster printed {} shard addresses, not 2", legs.len()));
    };
    // An unsharded run folds in another order than the merge of two
    // legs, so its reply is checked on its own.
    let mut whole_client = connect(worker)?;
    let Response::Prepared { kernel, .. } = call(&mut whole_client, &probe.large.prepare)? else {
        return Err("worker 0 did not prepare the probe kernel".into());
    };
    let whole_run = run_line(kernel, None);
    let whole = whole_client.send_raw(&whole_run).map_err(|e| e.to_string())?;
    serve::check_run(&whole, &probe.large.reference)?;

    // `Router::respond` with no front socket: a router of our own over
    // the same live workers. Its tensors carry other names, so its
    // registrations do not stale the front's handles.
    let router = Router::connect(&cluster.shards, &RouterConfig::default())
        .map_err(|e| format!("in-process router: {e}"))?;
    let respond_ok = |line: &str| -> Result<String, String> {
        let reply = router.respond(line);
        if reply.starts_with("{\"ok\":false") {
            return Err(format!("in-process router refused: {reply:.160}"));
        }
        Ok(reply)
    };
    let a = &probe.large.a;
    let x = &probe.large.x;
    respond_ok(&register_line("rA", &a.dims, a.to_payload(), Placement::Replicate))?;
    respond_ok(&register_line(
        "rx",
        x.dims(),
        TensorPayload::Dense(x.as_slice().to_vec()),
        Placement::Replicate,
    ))?;
    let prepared = respond_ok(&prepare_line(SSYMV, &[("A", "rA"), ("x", "rx")], true))?;
    let Ok(Response::Prepared { kernel, .. }) = Response::decode(&prepared) else {
        return Err(format!("in-process router prepare answered {prepared}"));
    };
    let router_run = run_line(kernel, None);

    let mut ping_client = connect(worker)?;
    let mut raw = RawPing::connect(worker)?;
    let timed = take_turns(
        &mut [
            &mut || round_trip(&mut ping_client, r#"{"op":"ping"}"#, None),
            &mut || raw.round_trip(),
            &mut || round_trip(&mut front, &front_run, Some(&merged)),
            &mut || round_trip(leg0_client, leg0_run, None),
            &mut || round_trip(leg1_client, leg1_run, None),
            &mut || round_trip(&mut whole_client, &whole_run, Some(&whole)),
            &mut || {
                if router.respond(&router_run) == merged {
                    Ok(())
                } else {
                    Err("the in-process router's merged reply differs from the front's".into())
                }
            },
        ],
        per_side.as_secs_f64(),
    )?;
    let ms = |side: usize| timed[side].0;
    let (front_ms, whole_ms, respond_ms) = (ms(2), ms(5), ms(6));
    let (leg_max, leg_min) = (ms(3).max(ms(4)), ms(3).min(ms(4)));
    put(m, "wire.ping_p50_ms", ms(0), "ms");
    put(m, "wire.raw_ping_p50_ms", ms(1), "ms");
    put(m, "router.respond_ms", respond_ms, "ms");
    put(m, "router.leg_max_ms", leg_max, "ms");
    put(m, "router.leg_min_ms", leg_min, "ms");
    put(m, "router.front_run_ms", front_ms, "ms");
    put(m, "router.whole_run_ms", whole_ms, "ms");
    put(m, "router.merge_ms", respond_ms - leg_max, "ms");
    put(m, "router.fanout_cost_ms", front_ms - whole_ms, "ms");
    notes.push(format!(
        "wire: each kind of round trip sampled for {:.2} s or more, in turns of {TURN}; the front \
         socket's own share (front run - respond = {:.3} ms) is below what these medians resolve",
        timed.iter().map(|t| t.1).fold(f64::MAX, f64::min),
        front_ms - respond_ms
    ));

    // What the router gets out of a second connection: the front's
    // sharded run back to back on one connection, then on two. The
    // router answers one request at a time behind its state lock.
    for (conns, name) in [(1, "router.one_conn_ops_per_s"), (2, "router.two_conn_ops_per_s")] {
        let load = Load {
            addr: &cluster.addr,
            run: &front_run,
            expected: &merged,
            conns,
            think: Duration::ZERO,
        };
        put(m, name, probe_loop(&load, per_side)?.ops_per_s(), "1/s");
    }

    // What a worker's `stats` says about two connections running the
    // unsharded kernel back to back on it.
    let before = EngineStats::of(&cluster)?;
    let load =
        Load { addr: worker, run: &whole_run, expected: &whole, conns: 2, think: Duration::ZERO };
    probe_loop(&load, per_side)?;
    let after = EngineStats::of(&cluster)?;
    put(m, "engine.batch_mean", after.batch_mean_since(&before), "ratio");
    put(m, "engine.kernel_median_us", after.kernel_median_us, "us");
    put(m, "server.probe_peak_rss_mb", cluster.peak_rss_mb(), "MB");
    drop(router);
    cluster.stop()
}
