//! One run of one workload: set-up (repeated), warm-up, the timed
//! window, and — in a traced run — the spans, the replay and the
//! per-layer probe.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::kernels::{self, KernelInputs};
use crate::layers::{self, put, Metrics};
use crate::measure::{median, Window, ROUND_OPS};
use crate::procs::{self, Server};
use crate::serve::{self, EngineStats, Served};
use crate::trace::Tracer;
use crate::Scale;

pub struct Workload {
    pub name: &'static str,
    /// Connections × think time of the closed loop, as printed.
    pub load: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "kernels_rank2",
        load: "in-process closed loop, 1 thread, no think time; op = one sweep over 12 cells",
        why: "the VM's contiguous fold / DotAxpy runners do all the work and nothing else does",
    },
    Workload {
        name: "kernels_rank3plus",
        load: "in-process closed loop, 1 thread, no think time; op = one sweep over 5 cells",
        why: "the same VM used through probe / gather / lookup-table loops, where symmetry wins",
    },
    Workload {
        name: "serve_small",
        load: "closed loop, 2 connections, 2 ms think time; op = one run, ~200-byte reply",
        why: "transport, event-loop park and scheduler are the whole op; the VM is under 1 %",
    },
    Workload {
        name: "serve_large",
        load: "closed loop, 2 connections back to back; op = one run, ~740 KB reply",
        why: "Response::encode, reply replication and the socket write dominate",
    },
    Workload {
        name: "cluster_sharded",
        load: "closed loop, 1 connection, 45 ms think time; op = one sharded run through the router",
        why: "same kernel and reply as serve_large, so the difference is fan-out, merge and re-encode",
    },
    Workload {
        name: "prepare_churn",
        load: "closed loop, 1 connection back to back; op = one tenant cycle of 9 round trips",
        why: "the write path: Request::decode of large payloads, registry churn, prepare on miss and hit",
    },
];

#[derive(Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// A traced run alternates this many untraced and traced slices, so
/// slow drift of the machine lands on both sides of the overhead ratio.
const TRACE_SLICES: usize = 3;

impl Config {
    fn slice_s(&self) -> f64 {
        self.seconds / (2 * TRACE_SLICES) as f64
    }

    /// Warm-up before the window: at least a second of ops.
    fn warmup_s(&self) -> f64 {
        if self.scale == Scale::Quick {
            0.2
        } else {
            1.0
        }
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run).
    pub metrics: Metrics,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

/// Seconds of set-up a run aims at: the first set-up's duration decides
/// how many repetitions fit, between two and five.
const SETUP_BUDGET_S: f64 = 4.0;

/// Repeats `set_up` from scratch and returns the last instance with
/// every repetition's seconds; `setup_s` is their median. A traced run
/// reports no `setup_s` and sets up once.
fn repeat_set_up<T>(
    cfg: &Config,
    mut set_up: impl FnMut() -> Result<(T, f64), String>,
    mut tear_down: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let (mut instance, first) = set_up()?;
    let repetitions =
        if cfg.trace { 1 } else { ((SETUP_BUDGET_S / first).ceil() as usize).clamp(2, 5) };
    let mut seconds = vec![first];
    while seconds.len() < repetitions {
        tear_down(instance)?;
        let (next, s) = set_up()?;
        instance = next;
        seconds.push(s);
    }
    Ok((instance, seconds))
}

fn results_dir() -> PathBuf {
    procs::repo_root().join("benchmark/results")
}

fn write_trace(name: &str, tracer: &Tracer, notes: &mut Vec<String>) {
    let dir = results_dir();
    let path = dir.join(format!("trace_{name}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => {
            notes.push(format!("trace: {} spans written to {}", tracer.len(), path.display()))
        }
        Err(e) => notes.push(format!("trace: could not write {}: {e}", path.display())),
    }
    for (layer, st) in tracer.self_times() {
        notes.push(format!(
            "span {layer:<18} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
            st.spans, st.total_ms, st.self_ms
        ));
    }
}

/// The end-to-end metrics of an untraced run: the window's median
/// latency and its correct ops ÷ wall time.
fn end_to_end(setups: &[f64], w: &Window, notes: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::new();
    put(&mut m, "setup_s", median(setups), "s");
    put(&mut m, "op_p50_ms", w.op_p50_ms(), "ms");
    put(&mut m, "ops_per_s", w.ops_per_s(), "1/s");
    notes.push(format!(
        "window: {} ops attempted, {} failed, {:.3} s wall; p50 {:.4} ms over {} correct ops (p10 \
         {:.4} ms, p90 {:.4} ms), {:.3} ops/s; set-up repetitions {:?} s",
        w.attempted(),
        w.failed(),
        w.wall_s,
        w.op_p50_ms(),
        w.attempted() - w.failed(),
        w.quantile(0.1),
        w.quantile(0.9),
        w.ops_per_s(),
        setups.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    m
}

/// The in-process workloads take latency and throughput from the
/// window's best round: the round of [`ROUND_OPS`] consecutive sweeps
/// with the lowest median latency, and the one with the most correct
/// sweeps per second.
///
/// Their op is the same compute-bound work every time on this process's
/// own thread, so what disturbs it comes from outside and only ever
/// slows it: on the 2-vCPU box this was written on, for seconds to
/// minutes at a time anything with a high instruction rate runs up to
/// 1.6x slower (a neighbour on the core; a dependent multiply chain
/// timed beside the ops does not notice). Over one ten-minute capture
/// of 10 s windows the whole window's median spread (IQR / median over
/// ten windows) by up to 50 % and its ops ÷ wall time by up to 28 %; the
/// best round's median by under 5 %, its throughput by under 9 %. A
/// round is whole sweeps back to back with nothing dropped inside it, so
/// a stall or a slower mode the program itself adds is in every round.
/// The served workloads are not treated this way: their latency steps by
/// timer quanta in both directions, and their whole-window numbers
/// repeat.
fn best_round(m: &mut Metrics, w: &Window, notes: &mut Vec<String>) {
    let rounds = w.rounds();
    let p50 = rounds.iter().filter(|r| r.has_correct_ops()).map(Window::op_p50_ms);
    let ops = rounds.iter().map(Window::ops_per_s);
    put(m, "op_p50_ms", p50.fold(f64::INFINITY, f64::min), "ms");
    put(m, "ops_per_s", ops.fold(0.0, f64::max), "1/s");
    notes.push(format!(
        "op_p50_ms and ops_per_s are those of the best of {} rounds of {ROUND_OPS} sweeps",
        rounds.len()
    ));
}

/// The per-layer metrics every traced run derives from its own window.
fn window_layers(
    m: &mut Metrics,
    plain: &Window,
    traced: &Window,
    accounted_ms: f64,
    tracer: &Tracer,
    inputs_s: f64,
    peak_rss_mb: f64,
) {
    let mut all = Window::default();
    all.append(plain);
    all.append(traced);
    put(m, "op_p10_ms", all.quantile(0.1), "ms");
    put(m, "op_p90_ms", all.quantile(0.9), "ms");
    put(m, "op_p99_ms", all.quantile(0.99), "ms");
    put(m, "op.traced_p50_ms", traced.op_p50_ms(), "ms");
    put(m, "op.accounted_ms", accounted_ms, "ms");
    put(m, "op.unaccounted_ms", traced.op_p50_ms() - accounted_ms, "ms");
    put(m, "trace.overhead_pct", (traced.op_p50_ms() / plain.op_p50_ms() - 1.0) * 100.0, "%");
    put(m, "trace.spans", tracer.len() as f64, "count");
    put(m, "bench.inputs_s", inputs_s, "s");
    put(m, "peak_rss_mb", peak_rss_mb, "MB");
}

/// A workload with a server of its own reports `engine.batch_mean` and
/// `engine.kernel_median_us` from that server's `stats` over its own
/// window, in place of the probe's.
fn window_engine_stats(
    m: &mut Metrics,
    before: &EngineStats,
    after: &EngineStats,
    traced: &Window,
    notes: &mut Vec<String>,
) {
    put(m, "engine.batch_mean", after.batch_mean_since(before), "ratio");
    put(m, "engine.kernel_median_us", after.kernel_median_us, "us");
    notes.push(format!(
        "stats over the window: {} runs in {} dispatches; the server's kernel median is {:.2} % of \
         the op's p50",
        after.batched_runs - before.batched_runs,
        after.batch_dispatches - before.batch_dispatches,
        after.kernel_median_us / (traced.op_p50_ms() * 10.0)
    ));
}

fn probe_all(
    cfg: &Config,
    bin: &Path,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    layers::library_layers(cfg.seed, cfg.scale, m, notes)?;
    let t1 = Instant::now();
    let probe = layers::serve_probe(cfg.seed, cfg.scale);
    layers::serving_layers(&probe, cfg.scale, m)?;
    let t2 = Instant::now();
    layers::wire_layers(bin, &probe, cfg.scale, m, notes)?;
    notes.push(format!(
        "probe: every layer timed at its public entry points: library {:.2} s, protocol + engine \
         {:.2} s, wire + router {:.2} s; the paper's rank-2 speed-up over naive is {:.2}x",
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        t2.elapsed().as_secs_f64(),
        layers::PAPER_RANK2_SPEEDUP
    ));
    Ok(())
}

fn outcome(windows: &[&Window], metrics: Metrics, notes: Vec<String>) -> Outcome {
    let attempted = windows.iter().map(|w| w.attempted()).sum();
    let failed = windows.iter().map(|w| w.failed()).sum();
    Outcome { correct: failed == 0, attempted, failed, metrics, notes }
}

// ---------------------------------------------------------------------
// In-process workloads
// ---------------------------------------------------------------------

fn run_kernels(
    cfg: &Config,
    name: &str,
    inputs: &KernelInputs,
    bin: Option<&Path>,
    inputs_s: f64,
) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let (mut prepared, setups) = repeat_set_up(
        cfg,
        || kernels::prepare(inputs),
        |p| {
            drop(p);
            Ok(())
        },
    )?;
    notes.push(format!(
        "set-up: {} cells; packing {} stored entries took {:.1} ns each",
        prepared.cells.len(),
        prepared.packed_nnz,
        prepared.pack_s * 1e9 / prepared.packed_nnz as f64
    ));
    kernels::window(&mut prepared.cells, cfg.warmup_s(), None);
    if !cfg.trace {
        let w = kernels::window(&mut prepared.cells, cfg.seconds, None);
        require_correct_ops(&w)?;
        let mut m = end_to_end(&setups, &w, &mut notes);
        best_round(&mut m, &w, &mut notes);
        return Ok(outcome(&[&w], m, notes));
    }

    let (mut plain, mut traced) = (Window::default(), Window::default());
    let mut tracer = Tracer::new(Instant::now());
    let mut per_cell = kernels::cell_samples(&prepared.cells);
    for _ in 0..TRACE_SLICES {
        plain.append(&kernels::window(&mut prepared.cells, cfg.slice_s(), None));
        let trace = Some((&mut tracer, &mut per_cell));
        traced.append(&kernels::window(&mut prepared.cells, cfg.slice_s(), trace));
    }
    require_correct_ops(&plain)?;
    require_correct_ops(&traced)?;
    let mut accounted_us = 0.0;
    for (label, samples) in &per_cell {
        let us = median(samples);
        accounted_us += us;
        notes.push(format!(
            "cell {label:<28} {us:>10.2} us  {:>5.1} % of the sweep",
            us / (traced.op_p50_ms() * 10.0)
        ));
    }
    notes.push(format!(
        "cells sum to {:.4} ms; the sweep's p50 is {:.4} ms",
        accounted_us / 1e3,
        traced.op_p50_ms()
    ));
    write_trace(name, &tracer, &mut notes);
    let mut m = Metrics::new();
    window_layers(
        &mut m,
        &plain,
        &traced,
        accounted_us / 1e3,
        &tracer,
        inputs_s,
        procs::own_peak_rss_mb(),
    );
    drop(prepared);
    let bin = bin.expect("a traced run has the binary built");
    probe_all(cfg, bin, &mut m, &mut notes)?;
    Ok(outcome(&[&plain, &traced], m, notes))
}

fn require_correct_ops(w: &Window) -> Result<(), String> {
    if w.has_correct_ops() {
        Ok(())
    } else {
        Err(format!("none of the window's {} ops completed correctly", w.attempted()))
    }
}

// ---------------------------------------------------------------------
// serve_small, serve_large, cluster_sharded
// ---------------------------------------------------------------------

/// Ops replayed layer by layer on an in-process engine after a traced
/// window.
const REPLAYS: usize = 24;

fn run_served(
    cfg: &Config,
    bin: &Path,
    name: &str,
    served: &Served,
    conns: usize,
    think: Duration,
    inputs_s: f64,
) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let cluster = name == "cluster_sharded";
    let (ready, setups) =
        repeat_set_up(cfg, || serve::set_up(bin, served, cluster), |r| r.server.stop())?;
    notes.push(format!(
        "set-up: spawn to first pong {:.2} ms; reply is {} bytes; kernel `{}`",
        ready.server.ready_s * 1e3,
        ready.expected.len(),
        served.label
    ));
    let load = ready.load(conns, think);
    serve::closed_loop(&load, cfg.warmup_s(), None)?;
    if !cfg.trace {
        let (w, _) = serve::closed_loop(&load, cfg.seconds, None)?;
        require_correct_ops(&w)?;
        let m = end_to_end(&setups, &w, &mut notes);
        ready.server.stop()?;
        return Ok(outcome(&[&w], m, notes));
    }

    let before = EngineStats::of(&ready.server)?;
    let origin = Instant::now();
    let (mut plain, mut traced) = (Window::default(), Window::default());
    let mut tracer = Tracer::new(origin);
    for _ in 0..TRACE_SLICES {
        plain.append(&serve::closed_loop(&load, cfg.slice_s(), None)?.0);
        let (w, spans) = serve::closed_loop(&load, cfg.slice_s(), Some(origin))?;
        traced.append(&w);
        tracer.absorb(spans.expect("a traced loop returns its spans"));
    }
    require_correct_ops(&plain)?;
    require_correct_ops(&traced)?;
    let stats = EngineStats::of(&ready.server)?;
    let peak_rss_mb = ready.server.peak_rss_mb();
    ready.server.stop()?;

    // The same request, layer by layer, in this process.
    let (engine, run) = serve::local_engine(served)?;
    let rtts = tracer.named("client.rtt");
    let step = (rtts.len() / REPLAYS).max(1);
    let mut replays = Vec::new();
    for &(span, op) in rtts.iter().step_by(step).take(REPLAYS) {
        let (reply, r) = serve::replay(&engine, &run, Some((&mut tracer, span, op)))?;
        if !cluster && reply != ready.expected {
            return Err("the in-process replay's reply differs from the server's".into());
        }
        replays.push(r);
    }
    let med =
        |f: fn(&serve::Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>()) * 1e3;
    let (decode, handle, encode, client) =
        (med(|r| r.decode_s), med(|r| r.handle_s), med(|r| r.encode_s), med(|r| r.client_decode_s));
    let accounted_ms = decode + handle + encode;
    notes.push(format!(
        "replay of {} ops in-process: protocol.decode {decode:.4} ms, engine.handle {handle:.4} ms, \
         protocol.encode {encode:.4} ms (sum {accounted_ms:.4} ms); client.decode {client:.4} ms is \
         skipped on the hot path (bytes are compared)",
        replays.len()
    ));
    notes.push(format!(
        "server.transport_ms.{name} = op_p50_ms - (decode + engine.handle + encode) = {:.4} ms",
        traced.op_p50_ms() - accounted_ms
    ));
    write_trace(name, &tracer, &mut notes);
    let mut m = Metrics::new();
    window_layers(&mut m, &plain, &traced, accounted_ms, &tracer, inputs_s, peak_rss_mb);
    drop(engine);
    probe_all(cfg, bin, &mut m, &mut notes)?;
    window_engine_stats(&mut m, &before, &stats, &traced, &mut notes);
    if name == "serve_small" {
        let transport = m["op.unaccounted_ms"].0;
        let ping = m["wire.ping_p50_ms"].0;
        notes.push(format!(
            "trace.transport_agreement_pct = |transport {transport:.3} ms - wire.ping_p50_ms {ping:.3} ms| \
             / ping = {:.2} %",
            (transport - ping).abs() / ping * 100.0
        ));
    }
    Ok(outcome(&[&plain, &traced], m, notes))
}

// ---------------------------------------------------------------------
// prepare_churn
// ---------------------------------------------------------------------

fn run_churn(cfg: &Config, bin: &Path) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let warm_cycles = 2;
    let t0 = Instant::now();
    let warm: Vec<serve::Cycle> =
        (0..warm_cycles).map(|k| serve::churn_cycle(cfg.seed, k, cfg.scale)).collect();
    let inputs_s = t0.elapsed().as_secs_f64();
    let (server, setups) = repeat_set_up(cfg, || serve::churn_set_up(bin, &warm), Server::stop)?;
    notes.push(format!(
        "set-up: spawn to first pong {:.2} ms, then {warm_cycles} tenant cycles",
        server.ready_s * 1e3
    ));
    // Tenants 0.. warmed the server; the windows continue from there so
    // every op meets a plan key the server has not seen.
    let mut churn = serve::Churn {
        server: &server,
        seed: cfg.seed,
        scale: cfg.scale,
        next_tenant: warm_cycles,
        generating_s: 0.0,
    };
    churn.run(cfg.warmup_s(), None)?;
    if !cfg.trace {
        let w = churn.run(cfg.seconds, None)?;
        require_correct_ops(&w)?;
        let m = end_to_end(&setups, &w, &mut notes);
        notes.push(format!(
            "generator: {:.3} s between ops, outside every op timer",
            churn.generating_s
        ));
        server.stop()?;
        return Ok(outcome(&[&w], m, notes));
    }

    let before = EngineStats::of(&server)?;
    let (mut plain, mut traced) = (Window::default(), Window::default());
    let mut tracer = Tracer::new(Instant::now());
    let mut first_traced = None;
    for _ in 0..TRACE_SLICES {
        plain.append(&churn.run(cfg.slice_s(), None)?);
        first_traced.get_or_insert(churn.next_tenant);
        traced.append(&churn.run(cfg.slice_s(), Some(&mut tracer))?);
    }
    let first_traced = first_traced.expect("a traced run has slices");
    let generating_s = churn.generating_s;
    require_correct_ops(&plain)?;
    require_correct_ops(&traced)?;
    let stats = EngineStats::of(&server)?;
    let peak_rss_mb = server.peak_rss_mb();
    server.stop()?;

    // Replay the traced window's first tenants on an in-process engine.
    let engine = systec_serve::Engine::new();
    let ops = tracer.named("op");
    let mut totals = Vec::new();
    let (mut decode, mut handle, mut encode) = (0.0, 0.0, 0.0);
    for (k, &(span, op)) in ops.iter().take(3).enumerate() {
        let cycle = serve::churn_cycle(cfg.seed, first_traced + k, cfg.scale);
        let mut sum = serve::Replay::default();
        serve::run_cycle(
            |line| {
                let (reply, r) = serve::replay(&engine, line, Some((&mut tracer, span, op)))?;
                sum.decode_s += r.decode_s;
                sum.handle_s += r.handle_s;
                sum.encode_s += r.encode_s;
                sum.client_decode_s += r.client_decode_s;
                systec_serve::protocol::Response::decode(&reply).map_err(|e| e.to_string())
            },
            &cycle,
        )?;
        totals.push(sum.total_s() * 1e3);
        decode += sum.decode_s * 1e3 / 3.0;
        handle += sum.handle_s * 1e3 / 3.0;
        encode += sum.encode_s * 1e3 / 3.0;
    }
    let accounted_ms = median(&totals);
    notes.push(format!(
        "replay of {} tenant cycles in-process: protocol.decode {decode:.3} ms, engine.handle \
         {handle:.3} ms, protocol.encode {encode:.3} ms per cycle; {:.3} ms a cycle with the \
         client's own decode",
        totals.len(),
        accounted_ms
    ));
    notes.push(format!("generator: {generating_s:.3} s between ops, outside every op timer"));
    write_trace("prepare_churn", &tracer, &mut notes);
    let mut m = Metrics::new();
    window_layers(&mut m, &plain, &traced, accounted_ms, &tracer, inputs_s, peak_rss_mb);
    drop(engine);
    probe_all(cfg, bin, &mut m, &mut notes)?;
    window_engine_stats(&mut m, &before, &stats, &traced, &mut notes);
    Ok(outcome(&[&plain, &traced], m, notes))
}

/// Runs `name` once under `cfg`.
pub fn run(name: &str, cfg: &Config) -> Result<Outcome, String> {
    // Building the program is no part of any number, `bench.inputs_s`
    // included: every workload but the untraced in-process ones needs
    // the binary, so it is built before the first timer starts.
    let in_process = name.starts_with("kernels_");
    let bin = if in_process && !cfg.trace { None } else { Some(procs::build_systec()?) };
    let t0 = Instant::now();
    match (name, bin) {
        ("kernels_rank2", bin) => {
            let inputs = kernels::rank2_inputs(cfg.seed, cfg.scale);
            run_kernels(cfg, name, &inputs, bin.as_deref(), t0.elapsed().as_secs_f64())
        }
        ("kernels_rank3plus", bin) => {
            let inputs = kernels::rank3plus_inputs(cfg.seed, cfg.scale);
            run_kernels(cfg, name, &inputs, bin.as_deref(), t0.elapsed().as_secs_f64())
        }
        ("serve_small", Some(bin)) => {
            let served = serve::small_inputs(cfg.seed, cfg.scale);
            let think = Duration::from_millis(2);
            run_served(cfg, &bin, name, &served, 2, think, t0.elapsed().as_secs_f64())
        }
        ("serve_large", Some(bin)) => {
            let served = serve::large_inputs(cfg.seed, cfg.scale, false);
            run_served(cfg, &bin, name, &served, 2, Duration::ZERO, t0.elapsed().as_secs_f64())
        }
        ("cluster_sharded", Some(bin)) => {
            let served = serve::large_inputs(cfg.seed, cfg.scale, true);
            // Through the router an op takes 66 or 110 ms as delayed
            // ACKs fall, and back to back the share of each is a coin
            // flip from run to run, with one connection or with two
            // (two only queue behind the router's state lock: 135 or
            // 180 ms). A pause just longer than the 40 ms delayed-ACK
            // timer lets every pending ACK go out, so each op starts
            // from the same state. What two connections get out of the
            // router is a per-layer number, `router.two_conn_ops_per_s`.
            let think = Duration::from_millis(45);
            run_served(cfg, &bin, name, &served, 1, think, t0.elapsed().as_secs_f64())
        }
        ("prepare_churn", Some(bin)) => run_churn(cfg, &bin),
        (other, _) => Err(format!("unknown workload `{other}`")),
    }
}
