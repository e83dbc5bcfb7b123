//! Shared harness for the fault tiers (`fault_isolation.rs`,
//! `chaos_e2e.rs`): one warmed ssymv server with a deterministic
//! workload, an explicit [`FaultPlan`] hook, and the byte-identical
//! oracle every healthy run must reproduce.

// Each test binary compiles this module separately and uses a
// different subset of it.
#![allow(dead_code)]

use std::sync::Arc;

use systec_serve::protocol::{Placement, Request, Response, StorageFormat, TensorPayload, Variant};
use systec_serve::{serve_with, Client, Engine, FaultPlan, RunningServer, ServerConfig};
use systec_tensor::generate::{random_dense, rng, symmetric_erdos_renyi};

/// A running warmed server: tensors registered, one ssymv kernel
/// prepared, and the oracle line captured from a fault-free engine.
pub struct Harness {
    /// The running server under test.
    pub server: RunningServer,
    /// The prepared kernel handle.
    pub kernel: u64,
    /// The exact response line a healthy `run` must produce —
    /// captured from a separate, never-faulted engine so injected
    /// faults cannot contaminate it.
    pub oracle: String,
}

/// Scheduler executors for the tier: `SYSTEC_TEST_THREADS` when CI
/// pins it, else 2.
pub fn executors() -> usize {
    std::env::var("SYSTEC_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// The deterministic harness inputs as registration requests.
fn input_requests() -> Vec<Request> {
    let n = 24;
    let mut r = rng(0xFA017);
    let a = symmetric_erdos_renyi(n, 2, 0.2, &mut r);
    let x = random_dense(vec![n], &mut r);
    vec![
        Request::RegisterTensor {
            name: "A".into(),
            dims: vec![n, n],
            payload: TensorPayload::Coo(a.entries().map(|(c, v)| (c.to_vec(), v)).collect()),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        },
        Request::RegisterTensor {
            name: "x".into(),
            dims: vec![n],
            payload: TensorPayload::Dense(x.as_slice().to_vec()),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        },
    ]
}

/// The ssymv prepare for the harness inputs (threads=2 so runs
/// exercise the worker pool).
fn prepare_request() -> Request {
    Request::Prepare {
        einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
        sym: vec!["A".into()],
        inputs: vec![],
        variant: Variant::Systec,
        threads: Some(2),
        sharded: false,
    }
}

/// Registers the deterministic ssymv inputs over the wire.
pub fn register_inputs(client: &mut Client) {
    for request in input_requests() {
        let resp = client.request(&request).unwrap();
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    }
}

/// Prepares the ssymv kernel over the wire and returns its handle.
pub fn prepare_kernel(client: &mut Client) -> u64 {
    let resp = client.request(&prepare_request()).unwrap();
    let Response::Prepared { kernel, splittable, .. } = resp else {
        panic!("prepare failed: {resp:?}")
    };
    assert!(splittable, "ssymv splits; threads=2 dispatches the pool");
    kernel
}

/// Registers the inputs directly against the engine — used to warm a
/// fault-injected server without the setup traffic itself consuming
/// events from the socket fault streams.
pub fn register_inputs_engine(engine: &Engine) {
    for request in input_requests() {
        let resp = engine.handle(&request);
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    }
}

/// Prepares the ssymv kernel directly against the engine.
pub fn prepare_kernel_engine(engine: &Engine) -> u64 {
    let resp = engine.handle(&prepare_request());
    let Response::Prepared { kernel, splittable, .. } = resp else {
        panic!("prepare failed: {resp:?}")
    };
    assert!(splittable, "ssymv splits; threads=2 dispatches the pool");
    kernel
}

/// The run line a fault-free engine produces for the harness workload —
/// computed on its own engine, independent of any server under test.
pub fn oracle_line() -> String {
    let engine = Engine::new();
    register_inputs_engine(&engine);
    let kernel = prepare_kernel_engine(&engine);
    let line = engine.handle(&Request::Run { kernel, full: false, shard: None }).encode();
    assert!(matches!(Response::decode(&line), Ok(Response::Ran { .. })), "{line}");
    line
}

/// Boots a warmed server around `engine` (attach a [`FaultPlan`]
/// and/or data dir to it first) and captures the oracle. The warmup
/// happens engine-side, so it consumes no socket fault events.
pub fn warmed_server_with(engine: Engine, config: ServerConfig) -> Harness {
    let oracle = oracle_line();
    let engine = Arc::new(engine);
    let server = serve_with("127.0.0.1:0", Arc::clone(&engine), config).expect("bind");
    register_inputs_engine(&engine);
    let kernel = prepare_kernel_engine(&engine);
    Harness { server, kernel, oracle }
}

/// A warmed fault-free server with the default transport config.
pub fn warmed_server() -> Harness {
    warmed_server_with(Engine::new(), ServerConfig::default())
}

/// Convenience: a seeded plan builder the tiers share, so every tier
/// names its faults the same way.
pub fn plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
}
