//! # systec-telemetry
//!
//! A lock-free, preallocated metrics and tracing core for the systec
//! workspace. The compiler and the server report into this crate —
//! compile-phase spans, VM dispatch counts and run time, per-kernel
//! latency histograms, the serving counters — and the serve crate
//! renders the result as an expanded `stats` verb, a Prometheus
//! `metrics` verb, and the `systec top` CLI table.
//!
//! Design constraints, in priority order:
//!
//! 1. **Nothing on a hot path may allocate or lock.** Histograms are
//!    fixed `[AtomicU64; N]` arrays ([`Histogram`]), counters are
//!    single atomics, and both are `const`-constructible so the global
//!    registry is a `static` with no lazy-init branch.
//! 2. **Recording is unconditional.** There is no off switch: a
//!    record call is a few relaxed RMWs, cheap enough to leave on, and
//!    counters double as request accounting that tests assert exact
//!    identities over.
//! 3. **Exposition is deterministic.** All exported values are
//!    integers (nanoseconds, counts); the [`prom`] writer emits
//!    families in sorted name order, so a scrape of an idle process is
//!    byte-stable.
//!
//! Counters here are process-lifetime monotonic (Prometheus
//! semantics): they are never reset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod prom;

pub use histogram::{bucket_index, bucket_upper, export_ladder, Histogram, Snapshot, BUCKETS};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// One atomic `u64` cell, `const`-constructible. A monotonic counter
/// only ever calls [`Counter::inc`] / [`Counter::add`]; a gauge (queue
/// depth, registry bytes) overwrites with [`Counter::set`]. Which of
/// the two a cell is lives in its exposition family's type, not here.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (gauges).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Compile-phase spans
// ---------------------------------------------------------------------------

/// The compile pipeline phases instrumented with [`span`] timers, in
/// pipeline order. Every plan-cache `build` decomposes into these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Einsum + symmetry declaration parsing.
    Parse,
    /// Symmetry-aware rewrite (the SySTeC compiler proper).
    Symmetrize,
    /// Hoisting, variant preparation, and lowering to VM programs.
    Lower,
    /// Fused-body selection over lowered vector loops.
    Fuse,
    /// Bytecode assembly of the lowered programs.
    Bytecode,
}

/// All phases, in pipeline order (also the exposition order).
pub const PHASES: [Phase; 5] =
    [Phase::Parse, Phase::Symmetrize, Phase::Lower, Phase::Fuse, Phase::Bytecode];

impl Phase {
    /// Stable lowercase label used in metric label values.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Symmetrize => "symmetrize",
            Phase::Lower => "lower",
            Phase::Fuse => "fuse",
            Phase::Bytecode => "bytecode",
        }
    }

    /// Position in [`PHASES`] — the declaration order (stable; usable
    /// as an array index).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated span statistics for one phase: count, total and max
/// duration in nanoseconds.
#[derive(Debug, Default)]
pub struct PhaseStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl PhaseStat {
    const fn new() -> Self {
        Self { count: AtomicU64::new(0), total_ns: AtomicU64::new(0), max_ns: AtomicU64::new(0) }
    }

    /// Records one span of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded spans.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds across all recorded spans.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Longest recorded span in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }
}

/// A scope timer: records the elapsed wall time into the global
/// [`PhaseStat`] for `phase` when dropped.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    phase: Phase,
    start: Instant,
}

/// Starts a [`Span`] for `phase`.
pub fn span(phase: Phase) -> Span {
    Span { phase, start: Instant::now() }
}

impl Drop for Span {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        global().phase(self.phase).record(ns);
    }
}

// ---------------------------------------------------------------------------
// VM vector-loop runners
// ---------------------------------------------------------------------------

/// The runners the VM executes vector-loop bodies through — one label
/// per `systec-codegen` `Runner`, which the compiler picks per body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunnerKind {
    /// Closed-form dot against a strided dense operand.
    Dot,
    /// Closed-form dot plus strided axpy sharing the driver value.
    DotAxpy,
    /// An intersection dot run from its probed side against the driver
    /// fiber scattered into a workspace row.
    WorkspaceDot,
    /// Dense loads into strided output stores, fold by fold over
    /// contiguous slices.
    Jam,
    /// The generic resolved body, coordinate by coordinate.
    Generic,
}

/// All runners, in exposition order.
pub const RUNNER_KINDS: [RunnerKind; 5] = [
    RunnerKind::Dot,
    RunnerKind::DotAxpy,
    RunnerKind::WorkspaceDot,
    RunnerKind::Jam,
    RunnerKind::Generic,
];

impl RunnerKind {
    /// Stable lowercase label used in metric label values.
    pub fn name(self) -> &'static str {
        match self {
            RunnerKind::Dot => "dot",
            RunnerKind::DotAxpy => "dot_axpy",
            RunnerKind::WorkspaceDot => "workspace_dot",
            RunnerKind::Jam => "jam",
            RunnerKind::Generic => "generic",
        }
    }

    /// Position in [`RUNNER_KINDS`] — the declaration order (stable;
    /// usable as an array index).
    pub fn index(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

/// The process-wide metric registry: a fixed `static` struct of
/// counters and phase stats. Fields are counted at their event sites
/// across the workspace; the serve crate reads them at scrape time.
#[derive(Debug)]
pub struct Metrics {
    /// Prepares whose parallelism request silently degraded to serial
    /// because the plan was not splittable.
    pub fallback_serial: Counter,
    /// VM `execute` entries.
    pub vm_runs: Counter,
    /// Total wall nanoseconds spent inside VM `execute`.
    pub vm_run_ns: Counter,
    phases: [PhaseStat; PHASES.len()],
    fused: [Counter; RUNNER_KINDS.len()],
}

impl Metrics {
    const fn new() -> Self {
        Self {
            fallback_serial: Counter::new(),
            vm_runs: Counter::new(),
            vm_run_ns: Counter::new(),
            phases: [const { PhaseStat::new() }; PHASES.len()],
            fused: [const { Counter::new() }; RUNNER_KINDS.len()],
        }
    }

    /// The span statistics for one compile phase.
    pub fn phase(&self, phase: Phase) -> &PhaseStat {
        &self.phases[phase.index()]
    }

    /// The dispatch counter for one vector-loop runner.
    pub fn fused(&self, runner: RunnerKind) -> &Counter {
        &self.fused[runner.index()]
    }
}

static GLOBAL: Metrics = Metrics::new();

/// The process-wide registry.
pub fn global() -> &'static Metrics {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_gauges_overwrite() {
        let c = Counter::new();
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        c.set(7);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn span_records_into_global_phase() {
        let before = global().phase(Phase::Parse).count();
        {
            let _s = span(Phase::Parse);
        }
        assert!(global().phase(Phase::Parse).count() > before);
    }

    #[test]
    fn indices_follow_the_exposition_tables() {
        assert!(PHASES.iter().enumerate().all(|(k, p)| p.index() == k));
        assert!(RUNNER_KINDS.iter().enumerate().all(|(k, r)| r.index() == k));
    }

    #[test]
    fn runner_names_are_unique() {
        let mut names: Vec<_> = RUNNER_KINDS.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RUNNER_KINDS.len());
    }
}
