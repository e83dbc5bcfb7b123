//! The `systec` command-line driver — the analogue of the artifact's
//! `run_SySTeC.jl`: feed it an einsum and symmetry declarations, inspect
//! the generated kernel, and optionally run it on random data against the
//! naive baseline. The `serve` and `client` subcommands expose the
//! long-lived einsum server (`systec-serve`).
//!
//! ```sh
//! systec "for i, j: y[i] += A[i, j] * x[j]" --sym A
//! systec "for i, k, l, j: C[i, j] += A[i, k, l] * B[k, j] * B[l, j]" \
//!        --sym A --run --n 30 --density 1e-2 --rank 8
//! systec "for i, j, k: C[i, j] += A[i, k] * A[j, k]" --run   # SSYRK, output symmetry
//! systec "for i, j: y[i] += A[i, j] * x[j]" --sym A:0-1      # explicit partition
//! systec serve --addr 127.0.0.1:7171 --threads 2             # einsum server
//! systec client --addr 127.0.0.1:7171 '{"op":"ping"}'        # scripted exchange
//! systec cluster --shards 3 --listen 127.0.0.1:7070          # sharded cluster
//! ```

use std::collections::HashMap;
use std::io::BufRead;
use std::process::ExitCode;

use systec::compiler::{Compiler, SymmetrySpec};
use systec::exec::reference::reference_einsum;
use systec::ir::{parse_einsum, Einsum};
use systec::kernels::{parse_symmetry, serial_fallback_note, Parallelism, Prepared};
use systec::serve::protocol::{Request, Response};
use systec::serve::wire::Record;
use systec::serve::{serve_with, Client, Engine, RetryPolicy, ServerConfig};
use systec::tensor::generate::{random_dense, rng};
use systec::tensor::{csf, CooTensor, SparseTensor, Tensor};

struct Options {
    einsum: String,
    symmetric: Vec<String>,
    run: bool,
    n: usize,
    density: f64,
    rank: usize,
    seed: u64,
    threads: usize,
}

fn usage() -> &'static str {
    "usage: systec \"for <order>: <out>[..] <op> <expr>\" [options]\n\
     \n\
     options:\n\
       --sym NAME            declare NAME fully symmetric\n\
       --sym NAME:0-1,2      declare a partial symmetry partition (parts of mode\n\
                             positions, `-` within a part, `,` between parts)\n\
       --run                 execute on random data and compare with the naive kernel\n\
       --threads T           worker threads for --run\n\
                             (default 1 = serial; 0 = all cores). Plans the\n\
                             compiler cannot prove row-splittable SILENTLY run\n\
                             serially regardless of T; the run prints a one-line\n\
                             note when that happens\n\
       --n N                 dimension extent for --run (default 30)\n\
       --density P           sparse fill probability for --run (default 0.01)\n\
       --rank R              extent of indices that only appear densely (default 8)\n\
       --seed S              RNG seed (default 42)\n\
     \n\
     subcommands:\n\
       systec serve --addr HOST:PORT [--threads T] [--max-conns N]\n\
                    [--max-bytes B] [--deadline-ms D] [--executors E]\n\
                    [--data-dir PATH]\n\
                             run the long-lived einsum server (line-delimited JSON\n\
                             over TCP; see the README's Serving section). --threads\n\
                             sets the default per-run parallelism for splittable\n\
                             plans. --max-conns caps concurrent connections and\n\
                             --max-bytes caps registered tensor bytes (over-cap\n\
                             requests get structured admission_rejected errors);\n\
                             --deadline-ms bounds how long a queued request may\n\
                             wait before a deadline_exceeded error. Requests\n\
                             queue FIFO, one execution per run; --executors sets\n\
                             the threads serving the queue (default 2). --data-dir\n\
                             makes the tensor registry durable: mutations are\n\
                             journaled write-ahead\n\
                             under PATH and recovered on restart (generations\n\
                             included). Runs until a client sends\n\
                             {\"op\":\"shutdown\"}, then drains in-flight work and\n\
                             flushes the journal before exiting\n\
       systec client --addr HOST:PORT [--retry N] [REQUEST...]\n\
                             send request lines (or stdin, one request per line)\n\
                             and print each response; exits non-zero if any\n\
                             response reports ok:false. --retry N retries connect\n\
                             failures, dropped connections, and retryable error\n\
                             codes (deadline_exceeded, admission_rejected,\n\
                             internal_error) up to N times with exponential\n\
                             backoff; note a retried mutation (register) is\n\
                             re-applied, bumping the generation again\n\
       systec top --addr HOST:PORT [--interval-ms N] [--iters K]\n\
                             poll a server's stats and render a per-kernel latency\n\
                             table (runs, p50/p90/p99/max, slow runs) plus cache\n\
                             and worker-pool counters, every N ms (default 1000).\n\
                             --iters K stops after K refreshes (0 = forever)\n\
       systec route --listen HOST:PORT --shard HOST:PORT [--shard HOST:PORT ...]\n\
                    [--retry N]\n\
                             front a cluster of running systec-serve workers: one\n\
                             endpoint speaking the worker protocol, consistent-hash\n\
                             routing by tensor name ({tag} hash tags co-locate),\n\
                             \"placement\":\"replicate\" broadcasts, \"sharded\":true\n\
                             prepares fan runs out as row ranges and merge them\n\
                             deterministically (see the README's Sharded serving\n\
                             section). The front is the worker's own event loop\n\
                             at its defaults; --retry N retries the initial shard\n\
                             connects\n\
       systec cluster --shards N [--listen HOST:PORT] [--threads T]\n\
                      [--data-dir PATH]\n\
                             spawn N systec-serve workers on loopback ports plus a\n\
                             router fronting them, and supervise: a worker that\n\
                             dies is respawned on its old port (with its old\n\
                             --data-dir PATH/shard-K, so the durable registry\n\
                             recovers) until a client sends {\"op\":\"shutdown\"}\n"
}

fn serve_main(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut threads = 1usize;
    let mut max_bytes: Option<u64> = None;
    let mut data_dir: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => threads = v,
                None => return fail("--threads needs a number"),
            },
            "--max-conns" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.max_conns = Some(v),
                None => return fail("--max-conns needs a number"),
            },
            "--max-bytes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_bytes = Some(v),
                None => return fail("--max-bytes needs a number"),
            },
            "--deadline-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.deadline = Some(std::time::Duration::from_millis(v)),
                None => return fail("--deadline-ms needs a number"),
            },
            "--executors" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 1 => config.executors = v,
                _ => return fail("--executors needs a number >= 1"),
            },
            "--data-dir" => match it.next() {
                Some(v) => data_dir = Some(v.clone()),
                None => return fail("--data-dir needs a directory path"),
            },
            other => return fail(&format!("unknown serve option `{other}`\n\n{}", usage())),
        }
    }
    let mut engine = Engine::with_parallelism(Parallelism::threads(threads));
    if let Some(cap) = max_bytes {
        engine = engine.with_max_registered_bytes(cap);
    }
    if let Some(dir) = &data_dir {
        engine = match engine.with_data_dir(dir) {
            Ok(e) => e,
            Err(e) => return fail(&format!("cannot open data dir {dir}: {e}")),
        };
    }
    let running = match serve_with(addr.as_str(), engine, config) {
        Ok(r) => r,
        Err(e) => return fail(&format!("cannot bind {addr}: {e}")),
    };
    println!("systec-serve listening on {}", running.addr());
    running.wait();
    println!("systec-serve stopped");
    ExitCode::SUCCESS
}

fn client_main(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut retry = 0u32;
    let mut requests: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--retry" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => retry = v,
                None => return fail("--retry needs a number"),
            },
            other => requests.push(other.to_string()),
        }
    }
    let Some(addr) = addr else {
        return fail("systec client needs --addr HOST:PORT");
    };
    let policy = RetryPolicy::with_attempts(retry + 1);
    let mut client = match Client::connect_with_retry(addr.as_str(), &policy) {
        Ok(c) => c,
        Err(e) => return fail(&format!("cannot connect to {addr}: {e}")),
    };
    let mut all_ok = true;
    let exchange = |client: &mut Client, line: &str| -> Result<bool, String> {
        let mut attempt = 0u32;
        loop {
            match client.send_raw(line) {
                Ok(response) => {
                    // Retryable error codes (deadline_exceeded,
                    // admission_rejected, internal_error) re-send the
                    // same line after backoff; everything else prints.
                    if attempt < retry && is_retryable_error_line(&response) {
                        std::thread::sleep(policy.delay(attempt));
                        attempt += 1;
                        continue;
                    }
                    println!("{response}");
                    // `ok:false` responses flip the exit code (scripted
                    // smoke tests assert on it), but the exchange
                    // continues.
                    return Ok(!response.starts_with("{\"ok\":false"));
                }
                Err(_) if attempt < retry => {
                    // The connection dropped mid-exchange: back off,
                    // reconnect, and re-send the same line. A failed
                    // reconnect is reported by the next send attempt.
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                    if let Ok(fresh) = Client::connect(addr.as_str()) {
                        *client = fresh;
                    }
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    };
    if requests.is_empty() {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => return fail(&format!("reading stdin: {e}")),
            };
            if line.trim().is_empty() {
                continue;
            }
            match exchange(&mut client, &line) {
                Ok(ok) => all_ok &= ok,
                Err(e) => return fail(&e),
            }
        }
    } else {
        for line in &requests {
            match exchange(&mut client, line) {
                Ok(ok) => all_ok &= ok,
                Err(e) => return fail(&e),
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn route_main(args: &[String]) -> ExitCode {
    let mut listen = "127.0.0.1:7070".to_string();
    let mut shards: Vec<String> = Vec::new();
    let mut config = systec::router::RouterConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => match it.next() {
                Some(v) => listen = v.clone(),
                None => return fail("--listen needs HOST:PORT"),
            },
            "--shard" => match it.next() {
                Some(v) => shards.push(v.clone()),
                None => return fail("--shard needs HOST:PORT"),
            },
            "--retry" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(v) => config.connect_retry = RetryPolicy::with_attempts(v + 1),
                None => return fail("--retry needs a number"),
            },
            other => return fail(&format!("unknown route option `{other}`\n\n{}", usage())),
        }
    }
    if shards.is_empty() {
        return fail("systec route needs at least one --shard HOST:PORT");
    }
    let running = match systec::router::route(listen.as_str(), &shards, config) {
        Ok(r) => r,
        Err(e) => return fail(&format!("cannot start router on {listen}: {e}")),
    };
    println!("systec-router listening on {}", running.addr());
    running.wait();
    println!("systec-router stopped");
    ExitCode::SUCCESS
}

/// One supervised worker process of `systec cluster`.
struct ClusterWorker {
    child: std::process::Child,
    /// The concrete loopback address the worker bound (port 0 resolved
    /// at first spawn; respawns reuse it so the ring stays stable).
    addr: String,
    data_dir: Option<String>,
}

/// Spawns one `systec serve` worker and reads its banner for the bound
/// address. The rest of its stdout is drained by a detached thread so
/// the worker's shutdown message never blocks or breaks the pipe.
fn spawn_cluster_worker(
    exe: &std::path::Path,
    addr: &str,
    threads: usize,
    data_dir: Option<&str>,
) -> Result<(std::process::Child, String), String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("serve")
        .arg("--addr")
        .arg(addr)
        .arg("--threads")
        .arg(threads.to_string())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    if let Some(dir) = data_dir {
        cmd.arg("--data-dir").arg(dir);
    }
    let mut child = cmd.spawn().map_err(|e| format!("cannot spawn worker: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut banner = String::new();
    if reader.read_line(&mut banner).map_err(|e| format!("reading worker banner: {e}"))? == 0 {
        let _ = child.wait();
        return Err(format!("worker on {addr} exited before its banner"));
    }
    let bound = banner
        .trim()
        .rsplit(' ')
        .next()
        .ok_or_else(|| format!("malformed worker banner: {banner:?}"))?
        .to_string();
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });
    Ok((child, bound))
}

fn cluster_main(args: &[String]) -> ExitCode {
    let mut shards = 2usize;
    let mut listen = "127.0.0.1:7070".to_string();
    let mut threads = 1usize;
    let mut data_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 1 => shards = v,
                _ => return fail("--shards needs a number >= 1"),
            },
            "--listen" => match it.next() {
                Some(v) => listen = v.clone(),
                None => return fail("--listen needs HOST:PORT"),
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => threads = v,
                None => return fail("--threads needs a number"),
            },
            "--data-dir" => match it.next() {
                Some(v) => data_dir = Some(v.clone()),
                None => return fail("--data-dir needs a directory path"),
            },
            other => return fail(&format!("unknown cluster option `{other}`\n\n{}", usage())),
        }
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(&format!("cannot locate the systec binary: {e}")),
    };
    let mut workers = Vec::with_capacity(shards);
    for k in 0..shards {
        let dir = data_dir.as_ref().map(|base| format!("{base}/shard-{k}"));
        match spawn_cluster_worker(&exe, "127.0.0.1:0", threads, dir.as_deref()) {
            Ok((child, addr)) => {
                println!("cluster shard {k}: {addr}");
                workers.push(ClusterWorker { child, addr, data_dir: dir });
            }
            Err(e) => return fail(&format!("shard {k}: {e}")),
        }
    }
    let shard_addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let config = systec::router::RouterConfig::default();
    let running = match systec::router::route(&listen, &shard_addrs, config) {
        Ok(r) => r,
        Err(e) => return fail(&format!("cannot start router on {listen}: {e}")),
    };
    println!("systec-router listening on {}", running.addr());
    while !running.stopping() {
        for (k, worker) in workers.iter_mut().enumerate() {
            // The front raises `stopping` before the shutdown reaches a
            // shard, so an exit seen with it down is a crash.
            let exited = matches!(worker.child.try_wait(), Ok(Some(_)));
            if !exited || running.stopping() {
                continue;
            }
            // The worker died without a shutdown: respawn it on its old
            // port (and old durable registry) so the router's next
            // reconnect finds it rejoined.
            eprintln!("cluster shard {k} ({}) died; respawning", worker.addr);
            match spawn_cluster_worker(&exe, &worker.addr, threads, worker.data_dir.as_deref()) {
                Ok((child, addr)) => {
                    worker.child = child;
                    worker.addr = addr;
                    eprintln!("cluster shard {k} rejoined on {}", worker.addr);
                }
                Err(e) => eprintln!("cluster shard {k} respawn failed: {e}"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    // Returns once the drain is over and every live worker has the
    // shutdown broadcast; reap.
    running.wait();
    for worker in &mut workers {
        let _ = worker.child.wait();
    }
    println!("systec-cluster stopped");
    ExitCode::SUCCESS
}

fn top_main(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut interval_ms = 1000u64;
    let mut iters = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => interval_ms = v,
                None => return fail("--interval-ms needs a number"),
            },
            "--iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => iters = v,
                None => return fail("--iters needs a number"),
            },
            other => return fail(&format!("unknown top option `{other}`\n\n{}", usage())),
        }
    }
    let Some(addr) = addr else {
        return fail("systec top needs --addr HOST:PORT");
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => return fail(&format!("cannot connect to {addr}: {e}")),
    };
    let mut round = 0u64;
    loop {
        let resp = match client.request(&Request::Stats) {
            Ok(r) => r,
            Err(e) => return fail(&format!("stats request failed: {e}")),
        };
        let Response::Stats { cache, requests, pool, serve, kernels, slow } = resp else {
            return fail(&format!("unexpected stats reply: {resp:?}"));
        };
        render_top(&addr, &cache, &requests, &pool, &serve, &kernels, &slow);
        round += 1;
        if iters != 0 && round >= iters {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One flat stats record as a `section: key=value …` line, straight
/// from its declaration — a field added to the record shows up here
/// without this file changing.
fn record_line(section: &str, record: &impl Record) -> String {
    let fields = record.to_json();
    let pairs = fields.as_obj().unwrap_or_default();
    let cells: Vec<String> = pairs.iter().map(|(key, value)| format!("{key}={value}")).collect();
    format!("{section}: {}", cells.join(" "))
}

/// One `systec top` refresh: a per-kernel latency table plus one-line
/// cache / pool / request / serve summaries.
fn render_top(
    addr: &str,
    cache: &systec::serve::protocol::CachePayload,
    requests: &systec::serve::protocol::RequestCountsPayload,
    pool: &systec::serve::protocol::PoolPayload,
    serve: &systec::serve::protocol::ServePayload,
    kernels: &[systec::serve::protocol::KernelStatPayload],
    slow: &[systec::serve::protocol::SlowRunPayload],
) {
    let us = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.1}"));
    println!("systec top — {addr}");
    println!("{}", record_line("requests", requests));
    println!("{}", record_line("cache", cache));
    println!("{}", record_line("pool", pool));
    println!("{}", record_line("serve", serve));
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}  spec",
        "kernel", "runs", "p50us", "p90us", "p99us", "maxus", "slow"
    );
    for k in kernels {
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}  {}",
            k.kernel,
            k.runs,
            us(k.median_us),
            us(k.p90_us),
            us(k.p99_us),
            us(k.max_us),
            k.slow,
            k.spec
        );
    }
    if !slow.is_empty() {
        let entries: Vec<String> =
            slow.iter().map(|s| format!("kernel {} {}us", s.kernel, s.us)).collect();
        println!("recent slow runs: {}", entries.join(", "));
    }
    println!();
}

/// Whether a raw response line decodes to an error with a retryable
/// code ([`systec::serve::protocol::ErrorCode::retryable`]).
fn is_retryable_error_line(line: &str) -> bool {
    matches!(
        Response::decode(line),
        Ok(Response::Error { code, .. }) if code.retryable()
    )
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let einsum = args.next().ok_or_else(|| usage().to_string())?;
    let mut opts = Options {
        einsum,
        symmetric: Vec::new(),
        run: false,
        n: 30,
        density: 0.01,
        rank: 8,
        seed: 42,
        threads: 1,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sym" => {
                // Declarations are validated against the einsum later,
                // by the shared `systec::kernels::parse_symmetry`.
                opts.symmetric.push(args.next().ok_or("--sym needs a tensor name")?);
            }
            "--run" => opts.run = true,
            "--threads" => opts.threads = next_num(&mut args, "--threads")? as usize,
            "--n" => opts.n = next_num(&mut args, "--n")? as usize,
            "--rank" => opts.rank = next_num(&mut args, "--rank")? as usize,
            "--density" => opts.density = next_num(&mut args, "--density")?,
            "--seed" => opts.seed = next_num(&mut args, "--seed")? as u64,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown option `{other}`\n\n{}", usage())),
        }
    }
    Ok(opts)
}

fn next_num(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<f64, String> {
    args.next().and_then(|v| v.parse().ok()).ok_or_else(|| format!("{flag} needs a number"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return serve_main(&argv[1..]),
        Some("client") => return client_main(&argv[1..]),
        Some("route") => return route_main(&argv[1..]),
        Some("cluster") => return cluster_main(&argv[1..]),
        Some("top") => return top_main(&argv[1..]),
        _ => {}
    }
    let opts = match parse_args(argv.into_iter()) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let einsum = match parse_einsum(&opts.einsum) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot parse einsum: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match parse_symmetry(&einsum, &opts.symmetric) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("--sym: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let kernel = match Compiler::new().compile(&einsum, &spec) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("compilation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("== input ==\n{einsum}\n");
    println!("== generated kernel ==\n{}", kernel.program);
    if !kernel.chain.is_empty() {
        let chain: Vec<&str> = kernel.chain.iter().map(|i| i.name()).collect();
        println!("\ncanonical chain: {}", chain.join(" <= "));
    }
    if let Some(partition) = &kernel.output_partition {
        println!("output symmetry: {partition:?}");
    }

    if opts.run {
        if let Err(msg) = run_kernel(&einsum, &spec, &kernel, &opts) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Generates random inputs shaped by the einsum, runs the compiled kernel
/// against the naive baseline and the brute-force reference, and prints
/// times and counters.
fn run_kernel(
    einsum: &Einsum,
    spec: &SymmetrySpec,
    kernel: &systec::compiler::CompiledKernel,
    opts: &Options,
) -> Result<(), String> {
    let mut r = rng(opts.seed);
    let mut inputs: HashMap<String, Tensor> = HashMap::new();
    // Sparse-index extents get n; indices appearing only outside the
    // symmetric tensors (e.g. MTTKRP's j) get `rank`.
    let chain_or_sym: std::collections::BTreeSet<&str> = einsum
        .rhs
        .accesses()
        .iter()
        .filter(|a| spec.partition(&a.tensor.name).is_some())
        .flat_map(|a| a.indices.iter().map(|i| i.name()))
        .collect();
    let extent = |index: &systec::ir::Index| {
        if chain_or_sym.is_empty() || chain_or_sym.contains(index.name()) {
            opts.n
        } else {
            opts.rank
        }
    };
    for access in einsum.rhs.accesses() {
        let name = access.tensor.name.clone();
        if inputs.contains_key(&name) {
            continue;
        }
        let dims: Vec<usize> = access.indices.iter().map(extent).collect();
        let tensor = if spec.partition(&name).is_some() {
            // Symmetric: sample then symmetrize over the partition.
            let partition = spec.partition(&name).expect("checked");
            let mut coo = CooTensor::new(dims.clone());
            let total: f64 = dims.iter().map(|&d| d as f64).product();
            let draws = (opts.density * total).ceil() as usize;
            use rand::Rng;
            for _ in 0..draws.max(1) {
                let coords: Vec<usize> = dims.iter().map(|&d| r.gen_range(0..d)).collect();
                let v = r.gen_range(0.1..1.0);
                for perm in partition.permutations() {
                    let permuted: Vec<usize> = perm.iter().map(|&p| coords[p]).collect();
                    coo.set(&permuted, v);
                }
            }
            Tensor::Sparse(
                SparseTensor::from_coo(&coo, &csf(dims.len()))
                    .map_err(|e| format!("packing {name}: {e}"))?,
            )
        } else if access.rank() >= 2 && access.indices.iter().all(|i| extent(i) == opts.n) {
            // Square non-symmetric operands stay sparse (e.g. SSYRK's A).
            let mut coo = CooTensor::new(dims.clone());
            let total: f64 = dims.iter().map(|&d| d as f64).product();
            use rand::Rng;
            for _ in 0..((opts.density * total).ceil() as usize).max(1) {
                let coords: Vec<usize> = dims.iter().map(|&d| r.gen_range(0..d)).collect();
                coo.set(&coords, r.gen_range(0.1..1.0));
            }
            Tensor::Sparse(
                SparseTensor::from_coo(&coo, &csf(dims.len()))
                    .map_err(|e| format!("packing {name}: {e}"))?,
            )
        } else {
            Tensor::Dense(random_dense(dims, &mut r))
        };
        inputs.insert(name, tensor);
    }

    let parallelism = Parallelism::threads(opts.threads);
    let sym = Prepared::from_programs(kernel.main.clone(), kernel.replication.clone(), &inputs)
        .map_err(|e| format!("preparing compiled kernel: {e}"))?
        .with_parallelism(parallelism);
    if let Some(note) = serial_fallback_note(parallelism, sym.splittable()) {
        println!("{note}");
    }
    let naive_prog = Compiler::new().naive(einsum);
    let naive = Prepared::from_programs(naive_prog, None, &inputs)
        .map_err(|e| format!("preparing naive kernel: {e}"))?
        .with_parallelism(parallelism);

    let t0 = std::time::Instant::now();
    let (out_sym, c_sym) = sym.run_full().map_err(|e| e.to_string())?;
    let t_sym = t0.elapsed();
    let t0 = std::time::Instant::now();
    let (out_naive, c_naive) = naive.run_full().map_err(|e| e.to_string())?;
    let t_naive = t0.elapsed();

    println!(
        "\n== run (n={}, density={}, seed={}, parallelism={:?}) ==",
        opts.n, opts.density, opts.seed, parallelism
    );
    let out_name = einsum.output.tensor.display_name();
    let diff = out_sym[&out_name].max_abs_diff(&out_naive[&out_name]).map_err(|e| e.to_string())?;
    println!("max |systec - naive| = {diff:.3e}");
    let reference = reference_einsum(einsum, &inputs).map_err(|e| e.to_string())?;
    let ref_diff = out_sym[&out_name].max_abs_diff(&reference).map_err(|e| e.to_string())?;
    println!("max |systec - reference| = {ref_diff:.3e}");
    println!("systec: {t_sym:?}   naive: {t_naive:?}");
    println!("systec counters: {c_sym}");
    println!("naive  counters: {c_naive}");
    if diff > 1e-9 || ref_diff > 1e-9 {
        return Err("MISMATCH: compiled kernel disagrees with the baseline".to_string());
    }
    Ok(())
}
