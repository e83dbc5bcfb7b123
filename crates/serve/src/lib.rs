//! # systec-serve
//!
//! A long-lived einsum server over the shared plan cache — the serving
//! layer of the ROADMAP's millions-of-users story. SySTeC's payoff is
//! cheap reuse: the symmetry-aware compile is expensive once, then
//! amortized across many executions. This crate turns that into a
//! service: a TCP server (std `TcpListener`, no network dependencies)
//! speaking a line-delimited JSON protocol, where
//!
//! * tensors are **registered once** into an in-process registry,
//! * kernels are **prepared once** — N connections preparing the same
//!   (einsum, symmetry, formats, dims) key trigger exactly **one**
//!   single-flight plan build in the process-wide cache, and
//! * executions run on **pooled per-kernel run slots** (outputs,
//!   counters and a warmed [`systec_codegen::ExecContext`] each), so the
//!   steady-state execution path allocates **nothing** per request.
//!
//! ## Protocol
//!
//! See [`protocol`] for the verb table. A quick exchange:
//!
//! ```text
//! > {"op":"register_tensor","name":"A","dims":[4,4],"coo":[[0,1,2.0],[1,0,2.0]]}
//! < {"ok":true,"reply":"registered","name":"A","nnz":2,"generation":0}
//! > {"op":"prepare","einsum":"for i, j: y[i] += A[i, j] * x[j]","sym":["A"]}
//! < {"ok":true,"reply":"prepared","kernel":0,"splittable":true}
//! > {"op":"run","kernel":0}
//! < {"ok":true,"reply":"run","outputs":{...},"counters":{...}}
//! ```
//!
//! ## Example (in-process)
//!
//! ```
//! use systec_serve::{serve, Client, Engine};
//! use systec_serve::protocol::{Request, Response, StorageFormat, TensorPayload, Variant};
//!
//! let server = serve("127.0.0.1:0", Engine::new()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client.request(&Request::Ping).unwrap();
//! assert_eq!(reply, Response::Pong);
//! client.request(&Request::Shutdown).unwrap();
//! server.wait();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod durability;
pub mod engine;
pub mod fault;
pub mod json;
mod kernel_table;
pub mod protocol;
mod registry;
pub mod scheduler;
pub mod server;
mod shortest;
pub mod wire;

/// Recovers a mutex even when a panic elsewhere poisoned it: every
/// guarded structure in this crate stays consistent across panics
/// (pools of reusable state, connection bookkeeping), so poisoning must
/// not disable the server for the rest of the process.
pub(crate) fn relock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use client::{Client, ClientError, RetryPolicy};
pub use engine::{oracle_response, Engine, EngineError, RunLease};
pub use fault::{FaultPlan, FaultSite};
pub use server::{
    serve, serve_service, serve_with, Completion, RunningServer, ServerConfig, Service,
};
