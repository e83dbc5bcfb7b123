//! Sharded multi-process serving for SySTeC kernels.
//!
//! A `systec-router` process is the single TCP endpoint of a cluster of
//! `systec-serve` workers. It speaks *exactly* the worker's
//! line-delimited JSON protocol — clients built against one process
//! point at the router unchanged — and places work across shards with a
//! consistent-hash ring ([`ring`]) or a row-range fan-out with
//! deterministic reduction merges ([`router`]). "Exactly" covers
//! framing, the line cap, connection admission and the shutdown drain:
//! the front runs on `systec_serve`'s event loop and the shard legs on
//! its `Client`, so this crate has no transport of its own.
//!
//! The load-bearing invariant, enforced by the cluster differential
//! tier at the repo root: a router in front of N workers answers every
//! request **byte-for-byte identically** to one worker fed the same
//! stream — handles, error lines, work counters, and merged sharded-run
//! outputs, with one stated exception: an output merged with `add`
//! equals the fold of the same N chunk windows bit for bit, but agrees
//! with the *unsharded* fold only to 1e-9 (see [`router`]).

pub mod ring;
pub mod router;

/// Recovers a mutex even when a panic elsewhere poisoned it: the
/// router's shared state stays consistent across handler panics for
/// the same reason the worker's does — a poisoned lock must not take
/// the whole front down.
pub(crate) fn relock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use ring::{routing_key, HashRing, DEFAULT_VNODES};
pub use router::{route, Router, RouterConfig};
