//! End-to-end serving tier: spawn the real TCP server on an ephemeral
//! port, hammer it with 32 concurrent client connections × 108 requests
//! each over six distinct kernels, and assert
//!
//! * every run response is **byte-identical** across all connections and
//!   repetitions, and identical to a direct `Prepared::run_timed_into`
//!   oracle serialized through the same codec (outputs bit-exact,
//!   counters exact) — including a > 1 MB reply line (a 260 × 260 dense
//!   output) written intact while 31 other connections are served;
//! * the plan cache performed **exactly one build per distinct kernel
//!   key** — single-flight holds under real sockets (`CacheStats.builds`
//!   asserted);
//! * request/run accounting in `stats` is exact — one dispatch per
//!   `run`, the queue drained — with zero errors and zero evictions.
//!
//! This file deliberately holds a single `#[test]`: the assertions are
//! against process-wide plan-cache statistics, which a concurrently
//! running sibling test would perturb.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use systec_codegen::{ExecContext, Parallelism};
use systec_exec::Counters;
use systec_ir::parse_einsum;
use systec_kernels::{clear_plan_cache, parse_symmetry, plan_cache_stats, Prepared};
use systec_serve::protocol::{Placement, Request, Response, StorageFormat, TensorPayload, Variant};
use systec_serve::{oracle_response, serve, Client, Engine};
use systec_tensor::generate::{random_dense, rng, sprand, symmetric_erdos_renyi};
use systec_tensor::{csf, CooTensor, DenseTensor, Tensor};

const CLIENTS: usize = 32;
const RUNS_PER_KERNEL: usize = 20; // x 5 small kernels = 100 run requests per client
const LARGE_RUNS: usize = 2; // + 2 of the large-reply kernel

/// One kernel of the workload: the protocol prepare request plus
/// everything the oracle needs to reproduce it directly.
struct KernelCase {
    label: &'static str,
    einsum: &'static str,
    sym: Vec<String>,
    variant: Variant,
    threads: usize,
    /// Run requests each client sends for it.
    runs: usize,
}

fn cases() -> Vec<KernelCase> {
    vec![
        KernelCase {
            label: "ssymv",
            einsum: "for i, j: y[i] += A[i, j] * x[j]",
            sym: vec!["A".into()],
            variant: Variant::Systec,
            threads: 1,
            runs: RUNS_PER_KERNEL,
        },
        KernelCase {
            label: "ssymv-naive",
            einsum: "for i, j: y[i] += A[i, j] * x[j]",
            sym: vec![],
            variant: Variant::Naive,
            threads: 1,
            runs: RUNS_PER_KERNEL,
        },
        KernelCase {
            label: "syprd",
            einsum: "for i, j: y[] += x[i] * A[i, j] * x[j]",
            sym: vec!["A".into()],
            variant: Variant::Systec,
            threads: 1,
            runs: RUNS_PER_KERNEL,
        },
        KernelCase {
            label: "bellman-ford",
            einsum: "for i, j: y[i] min= A[i, j] + d[j]",
            sym: vec!["A".into()],
            variant: Variant::Systec,
            threads: 1,
            runs: RUNS_PER_KERNEL,
        },
        KernelCase {
            // Parallel execution over real sockets: SSYRK is
            // row-splittable, so threads=2 dispatches the worker pool.
            label: "ssyrk",
            einsum: "for i, j, k: C[i, j] += G[i, k] * G[j, k]",
            sym: vec![],
            variant: Variant::Systec,
            threads: 2,
            runs: RUNS_PER_KERNEL,
        },
        KernelCase {
            // A dense 260 x 260 output, 67 600 elements: the reply line
            // is over a megabyte and spans many write sweeps.
            label: "spmm-large",
            einsum: "for i, k, j: Y[i, j] += S[i, k] * B[k, j]",
            sym: vec![],
            variant: Variant::Systec,
            threads: 1,
            runs: LARGE_RUNS,
        },
    ]
}

fn prepare_request(case: &KernelCase) -> Request {
    Request::Prepare {
        einsum: case.einsum.into(),
        sym: case.sym.clone(),
        inputs: vec![],
        variant: case.variant,
        threads: Some(case.threads),
        sharded: false,
    }
}

/// The shared dataset, both as registration requests and as the local
/// tensors the oracle binds. The protocol carries values with shortest
/// round-trip printing, so the server's packed tensors are bit-identical
/// to these.
struct Dataset {
    requests: Vec<Request>,
    local: HashMap<String, Tensor>,
}

fn coo_payload(coo: &CooTensor) -> TensorPayload {
    TensorPayload::Coo(coo.entries().map(|(coords, v)| (coords.to_vec(), v)).collect())
}

fn dataset() -> Dataset {
    let n = 30;
    let mut r = rng(0xE2E);
    let a = symmetric_erdos_renyi(n, 2, 0.15, &mut r);
    let g = sprand(n, n, 120, &mut r);
    let x = random_dense(vec![n], &mut r);
    let d = random_dense(vec![n], &mut r);
    let (big, mut big_rng) = (260, rng(0xB16));
    let s = sprand(big, big, 8_000, &mut big_rng);
    let b = random_dense(vec![big, big], &mut big_rng);

    let mut local = HashMap::new();
    local.insert(
        "A".to_string(),
        Tensor::Sparse(systec_tensor::SparseTensor::from_coo(&a, &csf(2)).unwrap()),
    );
    local.insert(
        "G".to_string(),
        Tensor::Sparse(systec_tensor::SparseTensor::from_coo(&g, &csf(2)).unwrap()),
    );
    local.insert(
        "S".to_string(),
        Tensor::Sparse(systec_tensor::SparseTensor::from_coo(&s, &csf(2)).unwrap()),
    );
    local.insert("x".to_string(), Tensor::Dense(x.clone()));
    local.insert("d".to_string(), Tensor::Dense(d.clone()));
    local.insert("B".to_string(), Tensor::Dense(b.clone()));

    let dense_req = |name: &str, t: &DenseTensor| Request::RegisterTensor {
        name: name.into(),
        dims: t.dims().to_vec(),
        payload: TensorPayload::Dense(t.as_slice().to_vec()),
        format: StorageFormat::Auto,
        placement: Placement::Hash,
    };
    let requests = vec![
        Request::RegisterTensor {
            name: "A".into(),
            dims: vec![n, n],
            payload: coo_payload(&a),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        },
        Request::RegisterTensor {
            name: "G".into(),
            dims: vec![n, n],
            payload: coo_payload(&g),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        },
        Request::RegisterTensor {
            name: "S".into(),
            dims: vec![big, big],
            payload: coo_payload(&s),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        },
        dense_req("x", &x),
        dense_req("d", &d),
        dense_req("B", &b),
    ];
    Dataset { requests, local }
}

/// The direct-execution oracle: prepare through the same plan-cache
/// path, execute with `run_timed_into`, serialize through the same
/// response codec.
fn oracle_line(case: &KernelCase, registered: &HashMap<String, Tensor>) -> String {
    let einsum = parse_einsum(case.einsum).unwrap();
    // Bind exactly the tensors the einsum reads, as the server does —
    // the plan key covers all bindings, so binding extra tensors would
    // (correctly) key a different plan.
    let local: HashMap<String, Tensor> = einsum
        .rhs
        .accesses()
        .iter()
        .map(|a| (a.tensor.name.clone(), registered[&a.tensor.name].clone()))
        .collect();
    let local = &local;
    let prepared = match case.variant {
        Variant::Systec => {
            let sym = parse_symmetry(&einsum, &case.sym).unwrap();
            Prepared::compile_einsum(&einsum, &sym, local).unwrap()
        }
        Variant::Naive => Prepared::naive_einsum(&einsum, local).unwrap(),
    }
    .with_parallelism(Parallelism::threads(case.threads));
    let mut outputs = HashMap::new();
    let mut ctx = ExecContext::new();
    let mut counters = Counters::new();
    prepared.run_timed_into(&mut outputs, &mut ctx, &mut counters).unwrap();
    oracle_response(&outputs, &counters).encode()
}

#[test]
fn thirty_two_connections_hundred_requests_byte_deterministic() {
    clear_plan_cache();
    let data = dataset();
    let server = serve("127.0.0.1:0", Engine::new()).expect("bind ephemeral port");
    let addr = server.addr();

    // Register the shared tensors over one setup connection.
    let mut setup = Client::connect(addr).unwrap();
    for req in &data.requests {
        let resp = setup.request(req).unwrap();
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    }

    let builds_before_hammer = plan_cache_stats().builds;
    assert_eq!(builds_before_hammer, 0, "registration must not build plans");

    // Hammer: every client prepares every kernel itself (32 concurrent
    // prepares per key → single-flight must collapse them to one build)
    // and then runs each `runs` times, keeping one copy of each kernel's
    // reply line and how often it came back (hoarding every > 1 MB line
    // would dominate the test's memory).
    let all_cases = Arc::new(cases());
    let mut workers = Vec::new();
    for client_id in 0..CLIENTS {
        let all_cases = Arc::clone(&all_cases);
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut handles = Vec::new();
            for case in all_cases.iter() {
                let line = client.send_raw(&prepare_request(case).encode()).expect("prepare");
                match Response::decode(&line).expect("prepared reply decodes") {
                    Response::Prepared { kernel, splittable, .. } => {
                        if case.label == "ssyrk" {
                            assert!(splittable, "ssyrk must be row-splittable");
                        }
                        handles.push(kernel);
                    }
                    other => panic!("client {client_id}: prepare failed: {other:?}"),
                }
            }
            // Interleave kernels so concurrent traffic mixes plans.
            let mut lines: Vec<(String, usize)> = vec![(String::new(), 0); all_cases.len()];
            for round in 0..RUNS_PER_KERNEL {
                for (k, &handle) in handles.iter().enumerate() {
                    if round >= all_cases[k].runs {
                        continue;
                    }
                    let req = Request::Run { kernel: handle, full: false, shard: None };
                    let line = client
                        .send_raw(&req.encode())
                        .unwrap_or_else(|e| panic!("client {client_id} round {round}: {e}"));
                    let (first, count) = &mut lines[k];
                    if *count == 0 {
                        *first = line;
                    } else {
                        assert!(line == *first, "client {client_id} round {round}: reply changed");
                    }
                    *count += 1;
                }
            }
            (handles, lines)
        }));
    }
    let results: Vec<_> = workers.into_iter().map(|w| w.join().expect("client thread")).collect();

    // Byte-determinism: within a client, across clients, and against
    // the direct-execution oracle.
    for (k, case) in all_cases.iter().enumerate() {
        let expected = oracle_line(case, &data.local);
        let mut seen = 0usize;
        for (handles, lines) in &results {
            assert_eq!(handles.len(), all_cases.len());
            let (line, count) = &lines[k];
            assert!(
                *line == expected,
                "kernel {} must serve byte-identical oracle responses",
                case.label
            );
            seen += count;
        }
        assert_eq!(seen, CLIENTS * case.runs, "{}", case.label);
    }
    let total_runs = all_cases.iter().map(|case| (CLIENTS * case.runs) as u64).sum::<u64>();

    // Identical prepares dedupe to one handle per kernel across every
    // connection.
    let first_handles = &results[0].0;
    for (handles, _) in &results {
        assert_eq!(handles, first_handles, "handles must be shared across connections");
    }

    // Single-flight under real sockets: exactly one plan build per
    // distinct kernel key, even with 32 concurrent prepares per key —
    // and the oracle preparations above shared those plans (hits, not
    // builds).
    let stats = plan_cache_stats();
    assert_eq!(
        stats.builds,
        all_cases.len() as u64,
        "exactly one build per distinct kernel key (got {stats:?})"
    );
    assert_eq!(stats.evictions, 0, "six plans never evict from a 64-entry cache");

    // Server-side accounting is exact.
    let stats_resp = setup.request(&Request::Stats).unwrap();
    let Response::Stats { cache, requests, serve: srv, kernels, .. } = stats_resp else {
        panic!("stats failed: {stats_resp:?}")
    };
    assert_eq!(cache.builds, all_cases.len() as u64);
    assert_eq!(cache.evictions, 0);
    assert_eq!(requests.register_tensor, data.requests.len() as u64);
    assert_eq!(requests.prepare, (CLIENTS * all_cases.len()) as u64);
    assert_eq!(requests.run, total_runs);
    assert_eq!(requests.errors, 0, "a clean workload answers no errors");

    // Every run traveled the scheduler's queue and was one execution,
    // the queue drained, and nothing expired, went stale, or was
    // rejected.
    assert_eq!(srv.batched_runs, total_runs, "every run dispatches through the scheduler");
    assert_eq!(srv.batch_dispatches, total_runs, "one execution per run");
    assert_eq!(srv.queued, 0, "queue drains once clients join");
    assert_eq!(srv.deadline_exceeded, 0);
    assert_eq!(srv.stale_runs, 0);
    assert_eq!(srv.rejected_conns, 0);
    assert_eq!(srv.rejected_bytes, 0);
    assert_eq!(srv.registry_tensors, data.requests.len() as u64);
    assert_eq!(srv.registry_evictions, 0, "no byte cap configured, nothing evicts");
    assert_eq!(srv.pinned, 6, "A, G, S, x, d, B each pinned at generation 0");
    assert_eq!(kernels.len(), all_cases.len(), "prepares dedupe to one handle per kernel");
    // Every client prepares the cases in order, so handle k is case k.
    for (k, case) in kernels.iter().zip(all_cases.iter()) {
        assert_eq!(k.runs, (CLIENTS * case.runs) as u64, "{}", k.spec);
        assert!(k.median_us.is_some(), "{} has latency samples", k.spec);
        assert!(k.p90_us.is_some() && k.p99_us.is_some() && k.max_us.is_some(), "{}", k.spec);
    }

    // The Prometheus exposition over the same socket: required families
    // present, and — with all clients joined and the pool quiescent —
    // two consecutive scrapes of the idle server are byte-identical
    // (the metrics verb's own request count is excluded by design).
    let metrics_resp = setup.request(&Request::Metrics).unwrap();
    let Response::Metrics { text } = metrics_resp else {
        panic!("metrics failed: {metrics_resp:?}")
    };
    for family in [
        "systec_admission_rejects_total",
        "systec_compile_phase_ns_total",
        "systec_kernel_latency_ns_bucket",
        "systec_kernel_runs_total",
        "systec_plan_cache_builds_total",
        "systec_pool_submitted_total",
        "systec_registry_bytes",
        "systec_requests_total",
        "systec_serve_batch_dispatches_total",
        "systec_serve_queue_depth",
    ] {
        assert!(text.contains(family), "missing {family}");
    }
    assert!(
        text.contains(&format!(
            "systec_kernel_latency_ns_count{{kernel=\"0\"}} {}",
            CLIENTS * RUNS_PER_KERNEL
        )),
        "kernel 0 histogram must hold every pooled run"
    );
    let Response::Metrics { text: again } = setup.request(&Request::Metrics).unwrap() else {
        panic!("second metrics scrape failed")
    };
    assert_eq!(text, again, "idle scrapes must be byte-identical");

    // Clean shutdown over the wire.
    let resp = setup.request(&Request::Shutdown).unwrap();
    assert_eq!(resp, Response::ShuttingDown);
    server.wait();
}
