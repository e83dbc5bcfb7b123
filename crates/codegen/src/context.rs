//! Caller-owned, reusable execution state.
//!
//! `vm::execute` used to rebuild its register files, counter vectors and
//! vector-loop scratch on every invocation — roughly ten small heap
//! allocations per run, which dominates repeated sub-100µs kernel
//! invocations. An [`ExecContext`] owns that state across runs: buffers
//! are *reset* (cheap fills over retained capacity) instead of
//! reallocated, so the steady-state execution path performs **zero**
//! allocations (enforced by `tests/alloc_regression.rs`).
//!
//! The context also holds one [`Bank`] per worker for row-parallel
//! execution: each worker runs over its own register files, scratch
//! vectors, private reduction buffers and
//! [`systec_exec::CounterBank`], merged deterministically (fixed worker
//! order) when the workers join.
//!
//! A context carries no plan- or data-specific state between runs beyond
//! buffer *capacity*: every run re-derives sizes and contents from the
//! program it executes, so one context can be interleaved freely across
//! kernels of different shapes (enforced by `tests/context_reuse.rs`).
//! The one buffer a run does not reset, the workspace-row slots
//! ([`Bank::ws`]), is validated on every read instead. A context holds no
//! settings: every run folds in the interpreter's left-to-right order.

use systec_exec::CounterBank;

/// An inert stub kept so the benchmark harness, which names both
/// variants, still compiles. Every runner folds left to right, so it has
/// no effect; ROADMAP item 2's benchmark-first PR deletes it.
#[derive(Clone, Copy, Debug)]
pub enum LaneMode {
    /// No effect.
    Scalar,
    /// No effect.
    Lanes,
}

/// Per-worker execution state: register files, workspace-row slots, a
/// counter bank, and private reduction buffers.
#[derive(Clone, Debug, Default)]
pub(crate) struct Bank {
    /// The `usize` register file (loop indices, counters, positions).
    pub u: Vec<usize>,
    /// The `f64` register file (scalars + temporaries).
    pub f: Vec<f64>,
    /// Workspace-row position slots, grown to the program's
    /// `ws_len` on first use and never cleared: a slot reads as a member
    /// only while it points into its current scattered window, so
    /// nothing one run leaves there is observable in the next.
    pub ws: Vec<usize>,
    /// This worker's work counters.
    pub counters: CounterBank,
    /// Private buffers for reduction-merged outputs, by reduced-output
    /// ordinal.
    pub reduce: Vec<Vec<f64>>,
}

impl Bank {
    /// Fills reduction buffer `ordinal` with `len` copies of `identity`,
    /// reusing capacity.
    pub fn reset_reduce(&mut self, ordinal: usize, len: usize, identity: f64) {
        if self.reduce.len() <= ordinal {
            self.reduce.resize_with(ordinal + 1, Vec::new);
        }
        let buf = &mut self.reduce[ordinal];
        buf.clear();
        buf.resize(len, identity);
    }
}

/// Reusable execution state owned by the caller.
///
/// Thread one context through repeated invocations
/// ([`crate::CompiledKernel::run_with`], or
/// `systec_kernels::Prepared::run_timed_into`) to make the steady-state
/// path allocation-free. Contexts are cheap to create but not free to
/// warm up: the first run through a context (or the first run of a
/// larger plan) sizes its buffers.
///
/// A context may be reused across different kernels and shapes in any
/// order; results are identical to running each kernel with a fresh
/// context. It is **not** `Sync` — one context serves one caller at a
/// time (parallel runs split it into per-worker banks internally).
#[derive(Debug, Default)]
pub struct ExecContext {
    banks: Vec<Bank>,
}

impl ExecContext {
    /// A fresh context with no warmed buffers.
    pub fn new() -> Self {
        ExecContext::default()
    }

    /// Returns the context unchanged (see [`LaneMode`]).
    #[must_use]
    pub fn with_lane_mode(self, _: LaneMode) -> Self {
        self
    }

    /// Mutable access to the first `n` worker banks, growing the set if
    /// needed (serial execution uses exactly one bank).
    pub(crate) fn banks(&mut self, n: usize) -> &mut [Bank] {
        if self.banks.len() < n {
            self.banks.resize_with(n, Bank::default);
        }
        &mut self.banks[..n]
    }
}
