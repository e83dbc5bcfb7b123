//! The kernel table: prepared handles, their pooled run state, and the
//! guards around running one. A `prepare` resolves to a handle through
//! one lookup-or-insert ([`KernelTable::get_or_insert_with`]) and one
//! reply builder ([`Live::prepared_reply`]); a `run` — pooled or
//! `full` — passes one refusal check ([`KernelTable::runnable`]) and one
//! guarded call ([`KernelEntry::guarded`]). A handle is an index and is
//! never reused, but what it holds of any size — the [`Live`] half — is
//! freed by the registration that makes its pin stale
//! ([`KernelTable::retire_stale`]).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use systec_codegen::ExecContext;
use systec_exec::{Counters, ExecError};
use systec_kernels::{serial_fallback_note, Prepared};
use systec_telemetry::prom::{counter, histogram, Metric, PromWriter};
use systec_telemetry::{self as telemetry, Histogram, Snapshot};
use systec_tensor::DenseTensor;

use crate::engine::EngineError;
use crate::fault::{FaultPlan, FaultSite};
use crate::protocol::{
    ErrorCode, KernelStatPayload, MergeRule, Response, ServeMetrics, Warning, WarningKind,
};
use crate::relock;

/// Consecutive panicking runs of one spec before `prepare` itself is
/// circuit-broken. A successful run of the spec resets the count.
pub(crate) const PANIC_BUDGET: u32 = 3;

/// Reusable per-run state for one kernel: initialized outputs, a
/// counters value and the VM's execution context, all retaining
/// capacity between runs — a `run` checks out exactly one.
#[derive(Debug, Default)]
pub(crate) struct RunSlot {
    pub(crate) outputs: HashMap<String, DenseTensor>,
    pub(crate) counters: Counters,
    pub(crate) ctx: ExecContext,
}

/// What running a handle takes, and everything of any size it holds:
/// the plan over its own copy of every input (and variant), and the
/// warmed run slots. Gone once the handle is retired; a run already
/// holding it finishes on its own `Arc`.
pub(crate) struct Live {
    pub(crate) prepared: Prepared,
    pub(crate) slots: Mutex<Vec<RunSlot>>,
}

/// One prepared kernel handle's identity, pins and statistics — kept
/// for the life of the process, retired or not.
pub(crate) struct KernelEntry {
    /// Human-readable spec (variant + einsum).
    spec: String,
    /// Dedup identity: `prepare`s with this exact key share a handle.
    dedup: String,
    /// Run latencies in nanoseconds: a fixed array of atomic buckets,
    /// so recording is wait-free and allocation-free.
    pub(crate) latency: Histogram,
    runs: AtomicU64,
    /// Runs that exceeded the engine's slow threshold.
    pub(crate) slow: AtomicU64,
    /// Registry pins: each bound input's registered name and the
    /// generation whose data this kernel copied at prepare time.
    pub(crate) pinned: Vec<(String, u64)>,
    /// Registry epoch at which the pins were last verified fresh.
    pub(crate) valid_epoch: AtomicU64,
    /// Set when a run of this handle panicked. A quarantined handle
    /// never executes again (`kernel_quarantined`), and dedup skips it
    /// so re-`prepare` mints a fresh handle over the same spec.
    quarantined: AtomicBool,
    /// Consecutive panics of this handle's *spec*, shared across the
    /// handles a re-prepared spec mints: quarantine increments it, a
    /// successful run resets it, `prepare` circuit-breaks at the budget.
    panic_count: Arc<AtomicU32>,
}

impl Live {
    /// The `prepared` reply for this handle — built here and nowhere
    /// else, whether the handle was found, raced for, or just inserted.
    /// The split payload maps the plan's per-output classification onto
    /// wire merge rules, sorted by output name; it is absent when the
    /// plan is not splittable, or reduces with an op no fixed-order fold
    /// can merge exactly (overwrite has no identity). A degraded parallel
    /// request carries the serial-fallback warning (and counts it).
    pub(crate) fn prepared_reply(&self, kernel: u64, sharded: bool) -> Response {
        let splittable = self.prepared.splittable();
        let split = sharded.then(|| self.prepared.split_outputs()).flatten().and_then(|kinds| {
            let mut split = kinds
                .into_iter()
                .map(|(name, kind)| Some((name, MergeRule::of(kind)?)))
                .collect::<Option<Vec<(String, MergeRule)>>>()?;
            split.sort_by(|a, b| a.0.cmp(&b.0));
            Some(split)
        });
        let warning =
            serial_fallback_note(self.prepared.parallelism(), splittable).map(|message| {
                telemetry::global().fallback_serial.inc();
                Warning { kind: WarningKind::SerialFallback, message }
            });
        Response::Prepared { kernel, splittable, split, warning }
    }
}

impl KernelEntry {
    /// Runs `run` behind the guards every execution of this handle gets,
    /// pooled or `full`: the chaos hooks (a forced slow run, a forced
    /// panic — one branch on a `None` without a plan), a `catch_unwind`
    /// that quarantines the handle, and on success `runs += 1` and a
    /// reset of the spec's panic streak. An executor error (not expected
    /// after a successful prepare) surfaces as `internal_error`.
    ///
    /// The catch covers the vendored rayon pool too: its workers resume
    /// task panics on the joining caller, so a parallel run's panic lands
    /// right here. `AssertUnwindSafe` is sound because the caller
    /// discards whatever a failed `run` borrowed, never repools it.
    pub(crate) fn guarded<T>(
        &self,
        kernel: u64,
        faults: Option<&FaultPlan>,
        metrics: &ServeMetrics,
        run: impl FnOnce() -> Result<T, ExecError>,
    ) -> Result<T, EngineError> {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = faults {
                if plan.fire(FaultSite::ExecDelay) {
                    std::thread::sleep(plan.delay());
                }
                if plan.fire(FaultSite::ExecPanic) {
                    panic!("injected kernel execution panic");
                }
            }
            run()
        }))
        .map_err(|_panic| {
            // Every caught panic counts; the first quarantines the handle
            // and is the spec's one strike (not one per racing victim).
            metrics.panics_caught.inc();
            if !self.quarantined.swap(true, Ordering::AcqRel) {
                metrics.quarantined_kernels.inc();
                self.panic_count.fetch_add(1, Ordering::AcqRel);
            }
            let message = format!(
                "execution of kernel {kernel} panicked; the handle is quarantined — \
                 re-prepare to mint a fresh one"
            );
            EngineError::new(ErrorCode::Internal, message)
        })?
        .map_err(|e| EngineError::new(ErrorCode::Internal, e.to_string()))?;
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.panic_count.store(0, Ordering::Release);
        Ok(result)
    }
}

/// A completed execution, borrowing nothing: holds the kernel's live
/// half and the checked-out slot, and returns the slot to its pool on
/// drop. Accessors expose the results for serialization.
pub struct RunLease {
    pub(crate) live: Arc<Live>,
    pub(crate) slot: RunSlot,
}

impl RunLease {
    /// The executed kernel's outputs (main program only, the paper's
    /// timed region).
    pub fn outputs(&self) -> &HashMap<String, DenseTensor> {
        &self.slot.outputs
    }

    /// Exact work counters of this run.
    pub fn counters(&self) -> &Counters {
        &self.slot.counters
    }
}

impl Drop for RunLease {
    fn drop(&mut self) {
        // What stays behind is an empty slot: nothing allocated, nothing freed.
        relock(&self.live.slots).push(std::mem::take(&mut self.slot));
    }
}

/// A table row: the entry, and its live half until it is retired.
struct Handle {
    entry: Arc<KernelEntry>,
    live: Option<Arc<Live>>,
}

/// What `prepare` resolves to: the handle and both its halves.
pub(crate) type Prepare = (u64, Arc<KernelEntry>, Arc<Live>);

/// Every handle `prepare` has minted, by arrival order (the handle *is*
/// the index), plus the per-spec panic streaks behind the `prepare`
/// circuit breaker.
#[derive(Default)]
pub(crate) struct KernelTable {
    kernels: RwLock<Vec<Handle>>,
    /// Consecutive panicking runs per spec dedup key, shared with the
    /// spec's kernel entries; at [`PANIC_BUDGET`] `prepare` refuses it.
    pub(crate) panic_counts: Mutex<HashMap<String, Arc<AtomicU32>>>,
}

/// The live handle for `dedup`, if any. Quarantined and retired
/// handles are invisible: re-preparing a panicked spec must mint a
/// fresh handle, and a retired one has nothing left to run.
fn find_live(kernels: &[Handle], dedup: &str) -> Option<Prepare> {
    kernels.iter().enumerate().find_map(|(k, h)| {
        let live = h.live.as_ref()?;
        let found = h.entry.dedup == dedup && !h.entry.quarantined.load(Ordering::Acquire);
        found.then(|| (k as u64, Arc::clone(&h.entry), Arc::clone(live)))
    })
}

impl KernelTable {
    /// The one lookup-or-insert behind `prepare`: the live handle for
    /// the spec `dedup` if there is one, else a fresh handle over what
    /// `compile` builds, its `pinned` generations verified at `epoch`.
    ///
    /// Refused up front with `kernel_quarantined` when the spec's runs
    /// panicked [`PANIC_BUDGET`] consecutive times — the circuit breaker
    /// on the quarantine → re-prepare bounce, tripped before compiling
    /// yet another doomed handle. `compile` runs outside every lock:
    /// concurrent prepares of different kernels must not serialize, and
    /// those of the same kernel single-flight inside the plan cache — so
    /// the table is re-checked under the write lock, and a racing
    /// prepare that inserted first wins.
    pub(crate) fn get_or_insert_with(
        &self,
        dedup: String,
        spec: String,
        pinned: Vec<(String, u64)>,
        epoch: u64,
        compile: impl FnOnce() -> Result<Prepared, EngineError>,
    ) -> Result<Prepare, EngineError> {
        let panic_count = Arc::clone(relock(&self.panic_counts).entry(dedup.clone()).or_default());
        let panics = panic_count.load(Ordering::Acquire);
        if panics >= PANIC_BUDGET {
            let message = format!(
                "this spec panicked on {panics} consecutive runs and is circuit-broken — \
                 re-register its data (or fix the spec) before preparing it again"
            );
            return Err(EngineError::new(ErrorCode::KernelQuarantined, message));
        }
        let found = find_live(&self.kernels.read().unwrap_or_else(PoisonError::into_inner), &dedup);
        if let Some(live) = found {
            return Ok(live);
        }
        let prepared = compile()?;
        let mut kernels = self.kernels.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(raced) = find_live(&kernels, &dedup) {
            return Ok(raced);
        }
        let live = Arc::new(Live { prepared, slots: Mutex::default() });
        let entry = Arc::new(KernelEntry {
            spec,
            dedup,
            latency: Histogram::new(),
            runs: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            pinned,
            valid_epoch: AtomicU64::new(epoch),
            quarantined: AtomicBool::new(false),
            panic_count,
        });
        kernels.push(Handle { entry: Arc::clone(&entry), live: Some(Arc::clone(&live)) });
        Ok(((kernels.len() - 1) as u64, entry, live))
    }

    /// `name` was just (re-)registered at `generation`: every handle
    /// pinning another generation of it can never run again (generations
    /// only grow, so its freshness check refuses it for good), and this
    /// registration is the owner that frees what such a handle holds.
    /// The entry stays — same index, spec and statistics, same
    /// `stale_tensor` answer. A prepare that bound the old generation
    /// and inserts after this sweep is collected by the name's next one.
    pub(crate) fn retire_stale(&self, name: &str, generation: u64) {
        let stale = |h: &Handle| h.entry.pinned.iter().any(|(n, g)| n == name && *g != generation);
        let mut kernels = self.kernels.write().unwrap_or_else(PoisonError::into_inner);
        let retired: Vec<Arc<Live>> =
            kernels.iter_mut().filter(|h| stale(h)).filter_map(|h| h.live.take()).collect();
        // The plans and input copies are freed outside the lock.
        drop(kernels);
        drop(retired);
    }

    /// The handle a `run` names, refusing an unknown one and — with the
    /// structured `kernel_quarantined` code — a quarantined one. The
    /// live half is `None` once the handle was retired.
    pub(crate) fn runnable(
        &self,
        kernel: u64,
    ) -> Result<(Arc<KernelEntry>, Option<Arc<Live>>), EngineError> {
        let kernels = self.kernels.read().unwrap_or_else(PoisonError::into_inner);
        let Some(Handle { entry, live }) =
            usize::try_from(kernel).ok().and_then(|k| kernels.get(k))
        else {
            let message = format!("no kernel with handle {kernel} (have {})", kernels.len());
            return Err(EngineError::new(ErrorCode::UnknownKernel, message));
        };
        if entry.quarantined.load(Ordering::Acquire) {
            let message = format!(
                "kernel {kernel} was quarantined after a panicking run — \
                 re-prepare the same spec to mint a fresh handle"
            );
            return Err(EngineError::new(ErrorCode::KernelQuarantined, message));
        }
        Ok((Arc::clone(entry), live.clone()))
    }

    /// Per-kernel statistics for the `stats` reply, sorted by handle.
    pub(crate) fn stats(&self) -> Vec<KernelStatPayload> {
        // A histogram quantile (nanoseconds) in microseconds; `None`
        // before the first recorded run.
        let quantile_us = |s: &Snapshot, q: f64| s.quantile(q).map(|ns| ns as f64 / 1_000.0);
        let kernels = self.kernels.read().unwrap_or_else(PoisonError::into_inner);
        kernels
            .iter()
            .enumerate()
            .map(|(k, Handle { entry, .. })| {
                let snapshot = entry.latency.snapshot();
                KernelStatPayload {
                    kernel: k as u64,
                    spec: entry.spec.clone(),
                    runs: entry.runs.load(Ordering::Relaxed),
                    median_us: quantile_us(&snapshot, 0.5),
                    p90_us: quantile_us(&snapshot, 0.9),
                    p99_us: quantile_us(&snapshot, 0.99),
                    max_us: (snapshot.count > 0).then(|| snapshot.max as f64 / 1_000.0),
                    slow: entry.slow.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// The per-kernel metric families, declared up front: an engine
    /// with no kernels still lists them.
    pub(crate) fn expose(&self, w: &mut PromWriter) {
        w.family(&KERNEL_LATENCY);
        w.family(&KERNEL_RUNS);
        w.family(&KERNEL_SLOW);
        let kernels = self.kernels.read().unwrap_or_else(PoisonError::into_inner);
        for (k, Handle { entry, .. }) in kernels.iter().enumerate() {
            let label = k.to_string();
            let kernel = [("kernel", label.as_str())];
            w.histogram(&KERNEL_LATENCY, &kernel, &entry.latency.snapshot());
            w.sample(&KERNEL_RUNS, &kernel, entry.runs.load(Ordering::Relaxed));
            w.sample(&KERNEL_SLOW, &kernel, entry.slow.load(Ordering::Relaxed));
        }
    }
}

const KERNEL_LATENCY: Metric = histogram(
    "systec_kernel_latency_ns",
    "Pooled main-program run latency per kernel handle, in nanoseconds.",
);
const KERNEL_RUNS: Metric =
    counter("systec_kernel_runs_total", "Completed runs per kernel handle.");
const KERNEL_SLOW: Metric =
    counter("systec_kernel_slow_total", "Runs over the slow threshold per kernel handle.");

#[cfg(test)]
impl KernelTable {
    /// Handles of `spec` that still hold their live half.
    pub(crate) fn live_count(&self, spec: &str) -> usize {
        let kernels = self.kernels.read().unwrap_or_else(PoisonError::into_inner);
        kernels.iter().filter(|h| h.entry.spec == spec && h.live.is_some()).count()
    }
}
