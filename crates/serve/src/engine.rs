//! The serving engine: everything behind the protocol, independent of
//! the transport.
//!
//! An [`Engine`] dispatches requests over the tensor registry
//! ([`crate::registry`]: one state machine, journaled write-ahead), the
//! kernel table ([`crate::kernel_table`]: prepared handles, their run
//! slots and the guards around running one), and owns the
//! request/latency metrics and their exposition. The TCP layer
//! ([`crate::server`]) decodes request lines and calls
//! [`Engine::handle`]; tests drive the engine directly (the
//! counting-allocator tier calls [`Engine::execute`] to isolate the
//! execution path from response serialization).
//!
//! ## The zero-allocation run path
//!
//! Plans are compiled once (process-wide single-flight plan cache, see
//! `systec_kernels::Prepared`), and every kernel handle keeps a pool of
//! warmed run slots — output tensors, a `Counters` value and an
//! [`ExecContext`], sized on first use. A `run` request checks out one
//! slot, calls `run_timed_into`, and returns it on drop: once as many
//! slots exist as there are concurrent runners of the kernel, the
//! steady-state execution path performs **zero** heap allocations
//! (`tests/serve_alloc_regression.rs`). Response serialization happens
//! after the lease is taken and is allowed to allocate.
//!
//! [`ExecContext`]: systec_codegen::ExecContext

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::durability::DEFAULT_SNAPSHOT_EVERY;
use crate::fault::FaultPlan;
use crate::kernel_table::{KernelEntry, KernelTable, Live, RunSlot};
use crate::registry::{build_tensor, SharedRegistry};
use crate::relock;

use systec_codegen::Parallelism;
use systec_exec::{Counters, ExecError};
use systec_ir::parse_einsum;
use systec_kernels::{parse_symmetry, plan_cache_stats, Prepared};
use systec_telemetry as telemetry;
use systec_telemetry::prom::{counter, gauge, Metric, PromWriter};
use systec_tensor::{DenseTensor, Tensor};

use crate::protocol::{
    CachePayload, CounterPayload, ErrorCode, OutputPayload, PoolPayload, Request, RequestMetrics,
    Response, ServeMetrics, SlowRunPayload, StorageFormat, TensorPayload, Variant,
};
use crate::wire::Record as _;

pub use crate::kernel_table::RunLease;

/// Runs slower than this are counted as slow and logged (overridable
/// via [`Engine::with_slow_threshold`]).
const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(10);

/// Capacity of the engine-wide slow-run log.
const SLOW_LOG_CAPACITY: usize = 32;

/// Records one over-threshold run in the slow log: a ring of the most
/// recent [`SLOW_LOG_CAPACITY`], oldest first. The buffer is allocated
/// once at engine construction, so appending on the run path is a lock
/// plus a slot write — no allocation.
fn record_slow(log: &mut VecDeque<SlowRunPayload>, entry: SlowRunPayload) {
    if log.len() == SLOW_LOG_CAPACITY {
        log.pop_front();
    }
    log.push_back(entry);
}

/// An engine-level failure, mapped onto a protocol error response.
#[derive(Debug)]
pub struct EngineError {
    /// Protocol error code.
    pub code: ErrorCode,
    /// Description.
    pub message: String,
}

impl EngineError {
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> EngineError {
        EngineError { code, message: message.into() }
    }
}

/// The protocol-independent serving core. Shared across connections
/// behind an `Arc`; all methods take `&self`.
pub struct Engine {
    tensors: SharedRegistry,
    kernels: KernelTable,
    counts: RequestMetrics,
    /// Per-engine serving metrics (queue, admission, registry
    /// lifecycle); owned here so parallel tests never bleed into each
    /// other's scrapes.
    serve: ServeMetrics,
    default_parallelism: Parallelism,
    slow_threshold_ns: u64,
    slow_log: Mutex<VecDeque<SlowRunPayload>>,
    /// Snapshot cadence handed to the journal at `with_data_dir`.
    snapshot_every: u64,
    /// Optional deterministic fault schedule (chaos tests only).
    fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An empty engine; executions default to serial.
    pub fn new() -> Engine {
        Engine::with_parallelism(Parallelism::Serial)
    }

    /// An engine whose executions use `default_parallelism` unless a
    /// `prepare` request carries an explicit `threads` — `Some(1)`
    /// really does force serial execution (plans the compiler cannot
    /// split run serially either way).
    pub fn with_parallelism(default_parallelism: Parallelism) -> Engine {
        Engine {
            tensors: SharedRegistry::default(),
            kernels: KernelTable::default(),
            counts: RequestMetrics::default(),
            serve: ServeMetrics::default(),
            default_parallelism,
            slow_threshold_ns: u64::try_from(DEFAULT_SLOW_THRESHOLD.as_nanos()).unwrap_or(u64::MAX),
            slow_log: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            fault_plan: None,
        }
    }

    /// Caps the total estimated bytes of registered tensors (admission
    /// control): a registration that cannot fit even after LRU-evicting
    /// every unpinned tensor is refused with `admission_rejected`, and
    /// nothing is evicted for a refused registration.
    pub fn with_max_registered_bytes(mut self, cap: u64) -> Engine {
        self.tensors.max_bytes = Some(cap);
        self
    }

    /// Overrides the slow-run threshold (default 10 ms): runs at or
    /// above it bump the per-kernel `slow` count and enter the
    /// engine-wide slow log reported by `stats`.
    pub fn with_slow_threshold(mut self, threshold: Duration) -> Engine {
        self.slow_threshold_ns = u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX);
        self
    }

    /// Overrides the journal→snapshot fold cadence (records between
    /// snapshots). Call before [`Engine::with_data_dir`].
    pub fn with_snapshot_every(mut self, records: u64) -> Engine {
        self.snapshot_every = records.max(1);
        self
    }

    /// Installs a deterministic fault schedule (chaos tests). Without a
    /// plan every injection site is a single `Option` load.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Engine {
        self.fault_plan = Some(plan);
        self
    }

    /// The installed fault schedule, if any — read by the scheduler and
    /// transport so one plan drives every seam.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault_plan.as_ref()
    }

    /// Makes the registry durable under `dir`: recovers the snapshot +
    /// journal written by a previous process (truncating any torn
    /// tail), then journals every subsequent mutation write-ahead.
    /// Generation counters are part of the records, so stale-pin
    /// semantics survive the restart.
    pub fn with_data_dir(mut self, dir: impl AsRef<Path>) -> io::Result<Engine> {
        self.tensors.open(dir.as_ref(), self.snapshot_every, &self.serve)?;
        Ok(self)
    }

    /// Fsyncs the journal if one is open (graceful-drain hook; every
    /// append already syncs, so this is cheap).
    pub fn flush_journal(&self) {
        self.tensors.flush(&self.serve);
    }

    /// Handles one request, returning the response to write back.
    /// `shutdown` is acknowledged here but acted on by the transport.
    pub fn handle(&self, request: &Request) -> Response {
        let result = match request {
            // `placement` is a routing concern: a single worker stores
            // every tensor it is asked to, wherever a router would put it.
            Request::RegisterTensor { name, dims, payload, format, placement: _ } => {
                self.counts.register_tensor.inc();
                self.register(name, dims, payload, *format)
            }
            Request::Unregister { name } => {
                self.counts.unregister.inc();
                self.tensors
                    .unregister(name, self.fault_plan.as_deref(), &self.serve)
                    .map(|existed| Response::Unregistered { name: name.clone(), existed })
            }
            Request::Prepare { einsum, sym, inputs, variant, threads, sharded } => {
                self.counts.prepare.inc();
                self.prepare(einsum, sym, inputs, *variant, *threads, *sharded)
            }
            Request::Run { kernel, full, shard } => {
                self.counts.run.inc();
                // One `run`, one execution: the pair always moves together.
                self.serve.batch_dispatches.inc();
                self.serve.batched_runs.inc();
                self.run(*kernel, *full, *shard)
            }
            Request::Stats => {
                self.counts.stats.inc();
                Ok(self.stats())
            }
            Request::Metrics => {
                self.counts.metrics.inc();
                Ok(Response::Metrics { text: self.metrics_text() })
            }
            Request::Ping => {
                self.counts.ping.inc();
                Ok(Response::Pong)
            }
            Request::Shutdown => Ok(Response::ShuttingDown),
        };
        result.unwrap_or_else(|e| {
            self.count_error();
            Response::error(e.code, e.message)
        })
    }

    /// Counts an error answered outside [`Engine::handle`] (the
    /// transport's parse failures), so `stats.requests.errors` covers
    /// every error response the server ever wrote.
    pub fn count_error(&self) {
        self.counts.errors.inc();
    }

    fn register(
        &self,
        name: &str,
        dims: &[usize],
        payload: &TensorPayload,
        format: StorageFormat,
    ) -> Result<Response, EngineError> {
        if name.is_empty() {
            return Err(EngineError::new(ErrorCode::BadTensor, "tensor name must be non-empty"));
        }
        let (data, nnz) = build_tensor(dims, payload, format)
            .map_err(|message| EngineError::new(ErrorCode::BadTensor, message))?;
        let generation =
            self.tensors.register(name, data, self.fault_plan.as_deref(), &self.serve)?;
        self.kernels.retire_stale(name, generation);
        Ok(Response::Registered { name: name.to_string(), nnz, generation })
    }

    fn prepare(
        &self,
        einsum_text: &str,
        sym: &[String],
        input_map: &[(String, String)],
        variant: Variant,
        threads: Option<usize>,
        sharded: bool,
    ) -> Result<Response, EngineError> {
        let invalid = |message: String| EngineError::new(ErrorCode::InvalidKernel, message);
        let parse_span = telemetry::span(telemetry::Phase::Parse);
        let einsum = parse_einsum(einsum_text).map_err(|e| invalid(e.to_string()))?;
        let symmetry = parse_symmetry(&einsum, sym).map_err(invalid)?;
        drop(parse_span);

        // Resolve einsum tensor names to registered data. Unmapped names
        // default to themselves.
        let mut bindings: Vec<(String, String)> = (einsum.rhs.accesses().iter())
            .map(|access| {
                let tensor = &access.tensor.name;
                let registered =
                    input_map.iter().find(|(t, _)| t == tensor).map_or(tensor, |m| &m.1);
                (tensor.clone(), registered.clone())
            })
            .collect();
        bindings.sort();
        bindings.dedup();
        let (inputs, pinned, epoch) = self.tensors.bind(&bindings)?;

        // Canonical identity for handle dedup: the einsum re-rendered,
        // the declarations as sent, the bindings *and the generations
        // they resolved to* (so a prepare after a re-register mints a
        // fresh handle over the new data), the variant, threads.
        let spec = format!("{}::{einsum}", variant.as_str());
        let dedup = format!(
            "{spec}::sym={sym:?}::inputs={bindings:?}::gens={pinned:?}::threads={threads:?}"
        );
        let compile = || {
            // The deep copy `Prepared` works on, taken from the shared
            // handles — outside the registry lock.
            let inputs: HashMap<String, Tensor> =
                inputs.iter().map(|(t, data)| (t.clone(), Tensor::clone(data))).collect();
            let prepared = match variant {
                Variant::Systec => Prepared::compile_einsum(&einsum, &symmetry, &inputs),
                Variant::Naive => Prepared::naive_einsum(&einsum, &inputs),
            }
            .map_err(|e| match e {
                ExecError::InvalidKernel { message } => invalid(message),
                other => invalid(other.to_string()),
            })?;
            let parallelism = threads.map_or(self.default_parallelism, Parallelism::threads);
            Ok(prepared.with_parallelism(parallelism))
        };
        let (kernel, entry, live) =
            self.kernels.get_or_insert_with(dedup, spec, pinned, epoch, compile)?;
        // Pin only what a kernel entry holds a copy of — after the
        // compile, so a refused prepare pins nothing.
        self.tensors.pin(&entry.pinned, &self.serve);
        Ok(live.prepared_reply(kernel, sharded))
    }

    /// Executes a prepared kernel on the pooled path (main program only)
    /// and returns a lease over the results. **Steady state performs
    /// zero heap allocations** — the lease returns the warmed slot and
    /// context to their pools on drop.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownKernel`] for a bad handle; executor failures
    /// surface as [`ErrorCode::Internal`] (not expected after successful
    /// preparation).
    pub fn execute(&self, kernel: u64) -> Result<RunLease, EngineError> {
        self.execute_shard(kernel, None)
    }

    /// The handle a `run` may execute: known, not quarantined, and its
    /// pinned tensors still the current generations. A retired handle
    /// (see [`KernelTable::retire_stale`]) is refused by that last check
    /// like any stale one: it was retired after the registry published
    /// the generation that made its pin stale.
    fn admit(&self, kernel: u64) -> Result<(Arc<KernelEntry>, Arc<Live>), EngineError> {
        let (entry, live) = self.kernels.runnable(kernel)?;
        self.tensors.ensure_fresh(&entry.pinned, &entry.valid_epoch, &self.serve)?;
        let retired = || EngineError::new(ErrorCode::Internal, "a retired kernel passed as fresh");
        Ok((entry, live.ok_or_else(retired)?))
    }

    /// [`Engine::execute`], shard-aware: with a `shard`, only that
    /// top-level row range executes (row-owned outputs keep their
    /// initialization outside the window; reduced outputs accumulate
    /// the range's contribution onto it).
    fn execute_shard(
        &self,
        kernel: u64,
        shard: Option<(usize, usize)>,
    ) -> Result<RunLease, EngineError> {
        let (entry, live) = self.admit(kernel)?;
        if shard.is_some() && live.prepared.split_outputs().is_none() {
            let message =
                format!("kernel {kernel} is not row-splittable; `shard` needs a splittable plan");
            return Err(EngineError::new(ErrorCode::InvalidKernel, message));
        }
        let mut slot = relock(&live.slots).pop().unwrap_or_default();
        let started = Instant::now();
        let faults = self.fault_plan.as_deref();
        let RunSlot { outputs, counters, ctx } = &mut slot;
        // A failed run drops its slot — poisoned intermediate state never
        // goes back to the pool.
        entry.guarded(kernel, faults, &self.serve, || match shard {
            None => live.prepared.run_timed_into(outputs, ctx, counters),
            Some((k, shards)) => live.prepared.run_shard_into(outputs, ctx, counters, k, shards),
        })?;
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        entry.latency.record(nanos);
        if nanos >= self.slow_threshold_ns {
            entry.slow.fetch_add(1, Ordering::Relaxed);
            let entry = SlowRunPayload { kernel, us: nanos / 1_000 };
            record_slow(&mut relock(&self.slow_log), entry);
        }
        Ok(RunLease { live, slot })
    }

    /// The `run` verb: the pooled main program (optionally one `shard`
    /// of it), or with `full` the complete result.
    fn run(
        &self,
        kernel: u64,
        full: bool,
        shard: Option<(u64, u64)>,
    ) -> Result<Response, EngineError> {
        let fit = |value: u64| {
            usize::try_from(value).map_err(|_| {
                let message = format!("shard value {value} does not fit this platform's usize");
                EngineError::new(ErrorCode::InvalidKernel, message)
            })
        };
        let shard = match shard {
            None => None,
            Some(_) if full => {
                return Err(EngineError::new(
                    ErrorCode::InvalidKernel,
                    "`shard` cannot be combined with `full`: output replication needs the \
                     complete result, not one row range",
                ))
            }
            Some((k, shards)) => Some((fit(k)?, fit(shards)?)),
        };
        if full {
            // The complete result (main + output replication): a fresh
            // allocation per request, documented as off the hot path.
            // Deliberately NOT recorded in the latency histogram: the
            // quantiles report the paper's timed region (pooled
            // main-program runs), and replication + fresh allocation
            // would skew them.
            let (entry, live) = self.admit(kernel)?;
            let faults = self.fault_plan.as_deref();
            let (outputs, counters) =
                entry.guarded(kernel, faults, &self.serve, || live.prepared.run_full())?;
            return Ok(oracle_response(&outputs, &counters));
        }
        let lease = self.execute_shard(kernel, shard)?;
        Ok(oracle_response(lease.outputs(), lease.counters()))
    }

    fn stats(&self) -> Response {
        Response::Stats {
            cache: cache_payload(),
            requests: self.counts.snapshot(),
            pool: pool_payload(),
            serve: self.serve.snapshot(),
            kernels: self.kernels.stats(),
            slow: relock(&self.slow_log).iter().cloned().collect(),
        }
    }

    /// Per-engine serving metrics (queue, admission, registry
    /// lifecycle). The transport and scheduler record into these.
    pub fn serve_metrics(&self) -> &ServeMetrics {
        &self.serve
    }

    /// Renders the Prometheus text exposition (format 0.0.4). Families
    /// appear in sorted name order and every value is an integer, so
    /// two scrapes of an idle server are byte-identical — the `metrics`
    /// verb's own request count is deliberately excluded from
    /// `systec_requests_total` for exactly that reason. Every family a
    /// stats record declares comes from the record; what is written out
    /// here is only what no record carries.
    fn metrics_text(&self) -> String {
        let mut w = PromWriter::new();
        cache_payload().expose(&mut w);
        pool_payload().expose(&mut w);
        self.counts.snapshot().expose(&mut w);
        self.serve.snapshot().expose(&mut w);

        let m = telemetry::global();
        for phase in telemetry::PHASES {
            let stat = m.phase(phase);
            w.sample(&COMPILE_PHASE_MAX_NS, &[("phase", phase.name())], stat.max_ns());
            w.sample(&COMPILE_PHASE_NS, &[("phase", phase.name())], stat.total_ns());
            w.sample(&COMPILE_PHASE_SPANS, &[("phase", phase.name())], stat.count());
        }
        w.sample(&FALLBACK_SERIAL, &[], m.fallback_serial.get());
        for site in crate::fault::FAULT_SITES {
            let injected = self.fault_plan.as_ref().map_or(0, |p| p.injected(site));
            w.sample(&FAULTS_INJECTED, &[("site", site.name())], injected);
        }
        for runner in telemetry::RUNNER_KINDS {
            w.sample(&FUSED_DISPATCH, &[("kind", runner.name())], m.fused(runner).get());
        }
        w.sample(&VM_RUN_NS, &[], m.vm_run_ns.get());
        w.sample(&VM_RUNS, &[], m.vm_runs.get());
        self.kernels.expose(&mut w);
        w.finish()
    }
}

// The families no stats record carries: process-global compile / VM
// telemetry and the fault plan (the per-kernel trio lives with the
// kernel table).
const COMPILE_PHASE_MAX_NS: Metric = gauge(
    "systec_compile_phase_max_ns",
    "Longest recorded span of each compile phase, in nanoseconds.",
);
const COMPILE_PHASE_NS: Metric =
    counter("systec_compile_phase_ns_total", "Total nanoseconds spent in each compile phase.");
const COMPILE_PHASE_SPANS: Metric =
    counter("systec_compile_phase_total", "Spans recorded for each compile phase.");
const FALLBACK_SERIAL: Metric = counter(
    "systec_fallback_serial_total",
    "Prepare responses that degraded a parallel request to serial.",
);
const FAULTS_INJECTED: Metric = counter(
    "systec_faults_injected_total",
    "Faults injected by the installed fault plan, by site (all zero in production).",
);
const FUSED_DISPATCH: Metric =
    counter("systec_fused_dispatch_total", "VM vector-loop dispatches by runner.");
const VM_RUN_NS: Metric =
    counter("systec_vm_run_ns_total", "Total wall nanoseconds inside VM execute.");
const VM_RUNS: Metric = counter("systec_vm_runs_total", "VM execute entries.");

/// The process-wide plan cache's statistics as the `cache` record.
fn cache_payload() -> CachePayload {
    let cache = plan_cache_stats();
    CachePayload {
        hits: cache.hits,
        misses: cache.misses,
        builds: cache.builds,
        evictions: cache.evictions,
        waits: cache.waits,
        entries: cache.entries as u64,
    }
}

/// The vendored worker pool's counters as the `pool` record.
fn pool_payload() -> PoolPayload {
    let pool = rayon::pool_stats();
    PoolPayload {
        workers: pool.workers_spawned as u64,
        submitted: pool.tasks_submitted as u64,
        executed: pool.tasks_executed as u64,
        helped: pool.tasks_helped as u64,
        parks: pool.parks as u64,
        wakeups: pool.wakeups as u64,
    }
}

/// Builds the deterministic run response — outputs and read counters in
/// sorted name order — for the server's own runs and, serializing a
/// direct `Prepared` execution exactly like them, as the e2e oracle: a
/// byte-identical line proves the served execution equals the direct one.
pub fn oracle_response(outputs: &HashMap<String, DenseTensor>, counters: &Counters) -> Response {
    let mut out: Vec<OutputPayload> = outputs
        .iter()
        .map(|(name, t)| OutputPayload {
            name: name.clone(),
            dims: t.dims().to_vec(),
            values: t.as_slice().to_vec(),
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Response::Ran { outputs: out, counters: CounterPayload::from(counters) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSite;
    use crate::kernel_table::PANIC_BUDGET;
    use crate::protocol::{MergeRule, Placement, WarningKind};

    fn register(engine: &Engine, name: &str, dims: &[usize], entries: &[(Vec<usize>, f64)]) {
        let resp = engine.handle(&Request::RegisterTensor {
            name: name.into(),
            dims: dims.to_vec(),
            payload: TensorPayload::Coo(entries.to_vec()),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    }

    fn try_register_dense(engine: &Engine, name: &str, dims: &[usize], values: &[f64]) -> Response {
        engine.handle(&Request::RegisterTensor {
            name: name.into(),
            dims: dims.to_vec(),
            payload: TensorPayload::Dense(values.to_vec()),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        })
    }

    fn register_dense(engine: &Engine, name: &str, dims: &[usize], values: &[f64]) {
        let resp = try_register_dense(engine, name, dims, values);
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    }

    fn ssymv_inputs(engine: &Engine) {
        register(
            engine,
            "A",
            &[4, 4],
            &[
                (vec![0, 1], 2.0),
                (vec![1, 0], 2.0),
                (vec![2, 3], 1.5),
                (vec![3, 2], 1.5),
                (vec![1, 1], 0.5),
            ],
        );
        register_dense(engine, "x", &[4], &[1.0, 2.0, 3.0, 4.0]);
    }

    fn ssymv_engine() -> Engine {
        let engine = Engine::new();
        ssymv_inputs(&engine);
        engine
    }

    fn prepare(engine: &Engine) -> u64 {
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
            sym: vec!["A".into()],
            inputs: vec![],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: false,
        });
        match resp {
            Response::Prepared { kernel, .. } => kernel,
            other => panic!("prepare failed: {other:?}"),
        }
    }

    #[test]
    fn register_prepare_run_produces_the_reference_result() {
        let engine = ssymv_engine();
        let kernel = prepare(&engine);
        let resp = engine.handle(&Request::Run { kernel, full: false, shard: None });
        let Response::Ran { outputs, counters } = resp else {
            panic!("run failed");
        };
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].name, "y");
        // y = A x with the symmetric A above.
        let expect = [2.0 * 2.0, 2.0 * 1.0 + 0.5 * 2.0, 1.5 * 4.0, 1.5 * 3.0];
        for (got, want) in outputs[0].values.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{:?}", outputs[0].values);
        }
        assert!(counters.flops > 0);
    }

    #[test]
    fn repeated_prepares_share_a_handle_and_runs_are_byte_deterministic() {
        let engine = ssymv_engine();
        let k1 = prepare(&engine);
        let k2 = prepare(&engine);
        assert_eq!(k1, k2, "identical prepares dedupe to one handle");
        let r1 = engine.handle(&Request::Run { kernel: k1, full: false, shard: None }).encode();
        let r2 = engine.handle(&Request::Run { kernel: k1, full: false, shard: None }).encode();
        assert_eq!(r1, r2, "repeated runs must serialize byte-identically");
    }

    #[test]
    fn unknown_names_and_handles_error() {
        let engine = ssymv_engine();
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
            sym: vec![],
            inputs: vec![("A".into(), "missing".into())],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: false,
        });
        assert!(matches!(resp, Response::Error { code: ErrorCode::UnknownTensor, .. }), "{resp:?}");
        let resp = engine.handle(&Request::Run { kernel: 99, full: false, shard: None });
        assert!(matches!(resp, Response::Error { code: ErrorCode::UnknownKernel, .. }), "{resp:?}");
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i j y += nonsense".into(),
            sym: vec![],
            inputs: vec![],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: false,
        });
        assert!(matches!(resp, Response::Error { code: ErrorCode::InvalidKernel, .. }), "{resp:?}");
        // Errors are visible in stats.
        let Response::Stats { requests, .. } = engine.handle(&Request::Stats) else {
            panic!("stats failed");
        };
        assert_eq!(requests.errors, 3);
        assert_eq!(requests.prepare, 2);
    }

    #[test]
    fn explicit_threads_one_forces_serial_on_a_parallel_engine() {
        // A server started with --threads N must still honor a client
        // that pins threads=1 for serial execution (the wire encodes an
        // explicit 1; absence inherits the default).
        let engine = Engine::with_parallelism(Parallelism::threads(4));
        register(&engine, "A", &[4, 4], &[(vec![0, 1], 2.0), (vec![1, 0], 2.0), (vec![2, 2], 1.0)]);
        register_dense(&engine, "x", &[4], &[1.0, 2.0, 3.0, 4.0]);
        let prep = |threads: Option<usize>| {
            let resp = engine.handle(&Request::Prepare {
                einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
                sym: vec!["A".into()],
                inputs: vec![],
                variant: Variant::Systec,
                threads,
                sharded: false,
            });
            match resp {
                Response::Prepared { kernel, splittable, .. } => {
                    assert!(splittable);
                    kernel
                }
                other => panic!("prepare failed: {other:?}"),
            }
        };
        let serial = prep(Some(1));
        let inherit = prep(None);
        assert_ne!(serial, inherit, "distinct parallelism → distinct handles");
        // The pinned-serial kernel never touches the worker pool...
        let spawned_before = rayon::pool_workers_spawned();
        for _ in 0..3 {
            drop(engine.execute(serial).unwrap());
        }
        assert_eq!(
            rayon::pool_workers_spawned(),
            spawned_before,
            "threads=1 must not dispatch pool workers"
        );
        // ...while the default-inheriting one dispatches Threads(4).
        drop(engine.execute(inherit).unwrap());
        assert!(
            rayon::pool_workers_spawned() > spawned_before,
            "the engine default (threads 4) dispatches the pool"
        );
        // Results agree bit-for-bit either way (PR 2's determinism).
        let a = engine.execute(serial).unwrap().outputs()["y"].clone();
        let b = engine.execute(inherit).unwrap().outputs()["y"].clone();
        assert_eq!(a, b);
    }

    #[test]
    fn degraded_parallel_prepare_carries_a_structured_warning() {
        let engine = Engine::new();
        register(&engine, "A", &[4, 4], &[(vec![0, 1], 2.0), (vec![1, 0], 2.0)]);
        let fallbacks_before = telemetry::global().fallback_serial.get();
        // A transpose's scattered overwrites keep the plan serial, so
        // asking for threads must be called out (kernels has the same
        // fixture for `serial_fallback_note`).
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: C[j, i] = A[i, j]".into(),
            sym: vec![],
            inputs: vec![],
            variant: Variant::Naive,
            threads: Some(4),
            sharded: false,
        });
        let Response::Prepared { splittable, warning, .. } = resp else { panic!("{resp:?}") };
        assert!(!splittable, "transpose must not be splittable");
        let warning = warning.expect("threads on a non-splittable plan must warn");
        assert_eq!(warning.kind, WarningKind::SerialFallback);
        assert!(warning.message.contains("--threads 4"), "{}", warning.message);
        assert!(
            telemetry::global().fallback_serial.get() > fallbacks_before,
            "the fallback counter must record the degradation"
        );
        // A satisfiable request stays quiet.
        register_dense(&engine, "x", &[4], &[1.0, 2.0, 3.0, 4.0]);
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
            sym: vec!["A".into()],
            inputs: vec![],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: false,
        });
        let Response::Prepared { warning, .. } = resp else { panic!("{resp:?}") };
        assert!(warning.is_none(), "{warning:?}");
    }

    #[test]
    fn stats_report_latency_quantiles_from_the_histogram() {
        let engine = ssymv_engine();
        let kernel = prepare(&engine);
        let Response::Stats { kernels, .. } = engine.handle(&Request::Stats) else {
            panic!("stats failed")
        };
        assert_eq!(kernels[0].runs, 0);
        assert!(kernels[0].median_us.is_none(), "no samples before the first run");
        assert!(kernels[0].max_us.is_none());
        for _ in 0..5 {
            drop(engine.execute(kernel).unwrap());
        }
        let Response::Stats { kernels, slow, .. } = engine.handle(&Request::Stats) else {
            panic!("stats failed")
        };
        let k = &kernels[0];
        assert_eq!(k.runs, 5);
        let (median, p90, p99, max) = (
            k.median_us.expect("median after runs"),
            k.p90_us.expect("p90 after runs"),
            k.p99_us.expect("p99 after runs"),
            k.max_us.expect("max after runs"),
        );
        assert!(median > 0.0 && median <= p90 && p90 <= p99, "{k:?}");
        // Quantiles are bucket upper bounds capped at the observed max.
        assert!(p99 <= max, "{k:?}");
        // A 12×12 tridiagonal SSYMV finishes far under the 10ms slow
        // threshold on any machine that can run the suite.
        assert_eq!(k.slow, 0, "{k:?}");
        assert!(slow.is_empty(), "{slow:?}");
    }

    #[test]
    fn slow_runs_enter_the_log_and_per_kernel_count() {
        let engine = ssymv_engine().with_slow_threshold(Duration::ZERO);
        let kernel = prepare(&engine);
        for _ in 0..3 {
            drop(engine.execute(kernel).unwrap());
        }
        let Response::Stats { kernels, slow, .. } = engine.handle(&Request::Stats) else {
            panic!("stats failed")
        };
        assert_eq!(kernels[0].slow, 3, "threshold 0 marks every run slow");
        assert_eq!(slow.len(), 3, "{slow:?}");
        assert!(slow.iter().all(|s| s.kernel == kernel), "{slow:?}");
    }

    #[test]
    fn metrics_exposition_carries_the_required_families() {
        let engine = ssymv_engine();
        let kernel = prepare(&engine);
        drop(engine.execute(kernel).unwrap());
        let Response::Metrics { text } = engine.handle(&Request::Metrics) else {
            panic!("metrics failed")
        };
        // Every family a stats record declares is in the scrape.
        let declared = [
            CachePayload::FIELDS,
            PoolPayload::FIELDS,
            crate::protocol::RequestCountsPayload::FIELDS,
            crate::protocol::ServePayload::FIELDS,
        ];
        for metric in declared.into_iter().flatten().filter_map(|field| field.metric) {
            let header = format!("# TYPE {} {}\n", metric.name, metric.kind);
            assert!(text.contains(&header), "missing {} in:\n{text}", metric.name);
        }
        assert!(
            text.contains("systec_kernel_latency_ns_count{kernel=\"0\"} 1\n"),
            "one pooled run must be in the kernel histogram:\n{text}"
        );
        assert!(
            text.contains("systec_kernel_latency_ns_bucket{kernel=\"0\",le=\"+Inf\"} 1\n"),
            "{text}"
        );
        // Families are emitted in sorted name order (scrape stability).
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
            .collect();
        let mut sorted = families.clone();
        sorted.sort_unstable();
        assert_eq!(families, sorted);
        // Engine-local families are byte-stable across idle scrapes
        // (global ones may move under concurrent tests in this
        // process; the CI smoke asserts whole-document stability
        // against a dedicated idle server).
        let Response::Metrics { text: again } = engine.handle(&Request::Metrics) else {
            panic!("metrics failed")
        };
        let local = |t: &str| -> Vec<String> {
            t.lines()
                .filter(|l| l.starts_with("systec_kernel_") || l.starts_with("systec_requests_"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(local(&text), local(&again), "metrics scrapes must not perturb themselves");
    }

    #[test]
    fn bad_tensor_payloads_are_rejected() {
        let engine = Engine::new();
        let coo = |entries: &[(&[usize], f64)]| {
            TensorPayload::Coo(entries.iter().map(|(c, v)| (c.to_vec(), *v)).collect())
        };
        for (dims, payload, message) in [
            (
                vec![2],
                TensorPayload::Dense(vec![1.0, 2.0, 3.0]),
                "dense payload has 3 values but dims [2] need 2",
            ),
            (vec![2], TensorPayload::Dense(vec![f64::NAN, 0.0]), "tensor values must be finite"),
            (
                vec![2, 2],
                coo(&[(&[5, 0], 1.0)]),
                "coordinate 5 out of bounds for mode 0 with extent 2",
            ),
            (vec![2, 2], coo(&[(&[0], 1.0)]), "coordinate arity 1 does not match tensor rank 2"),
            (vec![0], TensorPayload::Dense(vec![]), "dims must be non-empty and positive, got [0]"),
            // The first offender in arrival order is the one reported, and
            // an entry's value is checked before its coordinates.
            (
                vec![2, 2],
                coo(&[(&[0, 1], 1.0), (&[0, 9], 1.0), (&[0, 0], f64::NAN)]),
                "coordinate 9 out of bounds for mode 1 with extent 2",
            ),
            (
                vec![2, 2],
                coo(&[(&[0, 0], f64::INFINITY), (&[0, 9], 1.0)]),
                "tensor values must be finite",
            ),
            (vec![2, 2], coo(&[(&[7], f64::NAN)]), "tensor values must be finite"),
        ] {
            for format in [StorageFormat::Auto, StorageFormat::Dense, StorageFormat::Csf] {
                let resp = engine.handle(&Request::RegisterTensor {
                    name: "T".into(),
                    dims: dims.clone(),
                    payload: payload.clone(),
                    format,
                    placement: Placement::Hash,
                });
                let Response::Error { code: ErrorCode::BadTensor, message: got, .. } = &resp else {
                    panic!("{resp:?}")
                };
                assert_eq!(got, message);
            }
        }
    }

    #[test]
    fn full_runs_apply_replication() {
        let engine = Engine::new();
        register(&engine, "A", &[3, 3], &[(vec![0, 1], 1.0), (vec![1, 2], 2.0), (vec![0, 0], 3.0)]);
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j, k: C[i, j] += A[i, k] * A[j, k]".into(),
            sym: vec![],
            inputs: vec![],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: false,
        });
        let Response::Prepared { kernel, .. } = resp else { panic!("{resp:?}") };
        let Response::Ran { outputs: timed, .. } =
            engine.handle(&Request::Run { kernel, full: false, shard: None })
        else {
            panic!("run failed")
        };
        let Response::Ran { outputs: full, .. } =
            engine.handle(&Request::Run { kernel, full: true, shard: None })
        else {
            panic!("full run failed")
        };
        // SSYRK's timed region computes the upper triangle; `full`
        // replicates it below the diagonal.
        let c = |o: &[OutputPayload], i: usize, j: usize| o[0].values[i * 3 + j];
        assert_eq!(c(&full, 1, 0), c(&full, 0, 1));
        assert!(c(&timed, 1, 0) != c(&full, 1, 0) || c(&full, 0, 1) == 0.0);
    }

    #[test]
    fn slow_log_rotates_out_exactly_the_oldest_and_never_grows() {
        let mut log = VecDeque::with_capacity(SLOW_LOG_CAPACITY);
        let allocated = log.capacity();
        let kernels = |log: &VecDeque<SlowRunPayload>| -> Vec<u64> {
            log.iter().map(|entry| entry.kernel).collect()
        };
        for k in 0..SLOW_LOG_CAPACITY as u64 {
            record_slow(&mut log, SlowRunPayload { kernel: k, us: k });
        }
        // At exact capacity nothing has rotated out yet.
        assert_eq!(kernels(&log), (0..SLOW_LOG_CAPACITY as u64).collect::<Vec<u64>>());
        // One past it, entry 0 is gone and the order is still oldest first.
        let last = SLOW_LOG_CAPACITY as u64;
        record_slow(&mut log, SlowRunPayload { kernel: last, us: last });
        assert_eq!(kernels(&log), (1..=last).collect::<Vec<u64>>());
        assert_eq!(log.capacity(), allocated, "recording must never reallocate the ring");
    }

    #[test]
    fn re_registration_staleness_regression() {
        // The PR 7 bug: `Prepared` clones its inputs at prepare time, so
        // a re-registered tensor was silently ignored by existing
        // kernels. Now the kernel must fail loudly until re-prepared.
        let engine = ssymv_engine();
        let kernel = prepare(&engine);
        let resp = engine.handle(&Request::Run { kernel, full: false, shard: None });
        assert!(matches!(resp, Response::Ran { .. }), "{resp:?}");

        let resp = engine.handle(&Request::RegisterTensor {
            name: "x".into(),
            dims: vec![4],
            payload: TensorPayload::Dense(vec![4.0, 3.0, 2.0, 1.0]),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        let Response::Registered { generation, .. } = resp else { panic!("{resp:?}") };
        assert_eq!(generation, 1, "re-registration advances the generation");

        let resp = engine.handle(&Request::Run { kernel, full: false, shard: None });
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::StaleTensor, .. }),
            "a run over a re-registered input must fail loudly: {resp:?}"
        );

        // Re-preparing mints a fresh handle pinned to the new data.
        let fresh = prepare(&engine);
        assert_ne!(fresh, kernel, "new generations must not dedup onto the stale handle");
        let Response::Ran { outputs, .. } =
            engine.handle(&Request::Run { kernel: fresh, full: false, shard: None })
        else {
            panic!("fresh kernel must run")
        };
        // y = A x with x re-registered as [4, 3, 2, 1].
        let expect = [2.0 * 3.0, 2.0 * 4.0 + 0.5 * 3.0, 1.5 * 1.0, 1.5 * 2.0];
        for (got, want) in outputs[0].values.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{:?}", outputs[0].values);
        }

        let Response::Stats { serve, .. } = engine.handle(&Request::Stats) else {
            panic!("stats failed")
        };
        assert_eq!(serve.stale_runs, 1);
    }

    #[test]
    fn re_registration_retires_the_stale_handle_but_keeps_its_entry() {
        // The leak: a handle whose pin went stale can never run again,
        // yet it kept its `Prepared` (every input copy and variant) and
        // its run slots for the life of the process.
        const SPEC: &str = "systec::for i, j: y[i] += A[i, j] * x[j]";
        let engine = ssymv_engine();
        let kernel = prepare(&engine);
        let run = |kernel| engine.handle(&Request::Run { kernel, full: false, shard: None });
        // A lease taken before the registration finishes on its own
        // `Arc` and finds its slot pool still there on drop.
        let lease = engine.execute(kernel).unwrap();
        assert_eq!(engine.kernels.live_count(SPEC), 1);

        register_dense(&engine, "x", &[4], &[4.0, 3.0, 2.0, 1.0]);
        assert_eq!(engine.kernels.live_count(SPEC), 0, "the registration frees what it made stale");
        assert_eq!(lease.outputs()["y"].as_slice().len(), 4);
        drop(lease);

        // The entry stays: same answer, same index, same statistics.
        let Response::Error { code, message } = run(kernel) else { panic!("must refuse") };
        assert_eq!(code, ErrorCode::StaleTensor);
        assert!(message.contains("now generation 1; this kernel pinned generation 0"), "{message}");
        let Response::Stats { serve, kernels, .. } = engine.handle(&Request::Stats) else {
            panic!("stats failed")
        };
        assert_eq!((serve.stale_runs, serve.pinned), (1, 2));
        assert_eq!((kernels.len(), kernels[0].spec.as_str(), kernels[0].runs), (1, SPEC, 1));

        // A re-prepare mints a fresh live handle; an unrelated name's
        // registration retires nothing.
        let fresh = prepare(&engine);
        assert_ne!(fresh, kernel);
        register_dense(&engine, "unrelated", &[2], &[1.0, 2.0]);
        assert_eq!(engine.kernels.live_count(SPEC), 1);
        assert!(matches!(run(fresh), Response::Ran { .. }));
    }

    #[test]
    fn unregister_keeps_pinned_kernels_serving_and_is_idempotent() {
        let engine = ssymv_engine();
        let kernel = prepare(&engine);
        let before = engine.handle(&Request::Run { kernel, full: false, shard: None }).encode();

        let resp = engine.handle(&Request::Unregister { name: "x".into() });
        assert!(matches!(resp, Response::Unregistered { existed: true, .. }), "{resp:?}");
        // The kernel holds its own snapshot: runs keep working,
        // byte-identically — removal is not re-registration.
        assert_eq!(
            engine.handle(&Request::Run { kernel, full: false, shard: None }).encode(),
            before
        );

        let resp = engine.handle(&Request::Unregister { name: "x".into() });
        assert!(matches!(resp, Response::Unregistered { existed: false, .. }), "{resp:?}");

        // A new (non-deduped) prepare binding x now fails: the data is
        // gone for future kernels.
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
            sym: vec![],
            inputs: vec![],
            variant: Variant::Naive,
            threads: Some(1),
            sharded: false,
        });
        assert!(matches!(resp, Response::Error { code: ErrorCode::UnknownTensor, .. }), "{resp:?}");

        // Re-registering after unregister still advances the
        // generation: the name cannot be reborn at a pinned generation.
        let resp = engine.handle(&Request::RegisterTensor {
            name: "x".into(),
            dims: vec![4],
            payload: TensorPayload::Dense(vec![1.0, 2.0, 3.0, 4.0]),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        let Response::Registered { generation, .. } = resp else { panic!("{resp:?}") };
        assert_eq!(generation, 1, "generations survive unregister (no ABA)");

        let Response::Stats { requests, .. } = engine.handle(&Request::Stats) else {
            panic!("stats failed")
        };
        assert_eq!(requests.unregister, 2);
    }

    #[test]
    fn byte_cap_evicts_lru_unpinned_and_rejects_without_side_effects() {
        let engine = Engine::new().with_max_registered_bytes(100);
        // Each dense [4] vector is 32 estimated bytes.
        for name in ["a", "b", "c"] {
            register_dense(&engine, name, &[4], &[1.0, 2.0, 3.0, 4.0]);
        }
        // 96/100 held; a fourth 32-byte tensor evicts the LRU ("a").
        register_dense(&engine, "d", &[4], &[1.0, 2.0, 3.0, 4.0]);
        let Response::Stats { serve, .. } = engine.handle(&Request::Stats) else { panic!() };
        assert_eq!(serve.registry_tensors, 3);
        assert_eq!(serve.registry_bytes, 96);
        assert_eq!(serve.registry_evictions, 1);
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i: y[i] = a[i]".into(),
            sym: vec![],
            inputs: vec![],
            variant: Variant::Naive,
            threads: Some(1),
            sharded: false,
        });
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::UnknownTensor, .. }),
            "the LRU tensor must be gone: {resp:?}"
        );

        // Pin "b" via a prepared kernel: eviction must now skip it.
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i: y[i] = b[i]".into(),
            sym: vec![],
            inputs: vec![],
            variant: Variant::Naive,
            threads: Some(1),
            sharded: false,
        });
        let Response::Prepared { kernel, .. } = resp else { panic!("{resp:?}") };
        // A 64-byte tensor forces out both unpinned entries ("c", "d")
        // while pinned "b" survives.
        register_dense(&engine, "e", &[8], &[1.0; 8]);
        let Response::Stats { serve, .. } = engine.handle(&Request::Stats) else { panic!() };
        assert_eq!(serve.registry_tensors, 2, "b (pinned) + e");
        assert_eq!(serve.registry_bytes, 96);
        assert_eq!(serve.registry_evictions, 3);
        assert_eq!(serve.pinned, 1);
        let resp = engine.handle(&Request::Run { kernel, full: false, shard: None });
        assert!(matches!(resp, Response::Ran { .. }), "the pinned kernel keeps serving: {resp:?}");

        // A tensor that cannot fit even after evicting everything
        // unpinned is refused — and refusal evicts nothing.
        let resp = engine.handle(&Request::RegisterTensor {
            name: "f".into(),
            dims: vec![16],
            payload: TensorPayload::Dense(vec![1.0; 16]),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::AdmissionRejected, .. }),
            "{resp:?}"
        );
        let Response::Stats { serve, .. } = engine.handle(&Request::Stats) else { panic!() };
        assert_eq!(serve.registry_tensors, 2, "a refused registration must not evict");
        assert_eq!(serve.rejected_bytes, 1);
        assert_eq!(serve.registry_evictions, 3);

        // Re-registering the evicted "a" resumes its generation
        // sequence: eviction does not reset history either.
        let resp = engine.handle(&Request::RegisterTensor {
            name: "a".into(),
            dims: vec![4],
            payload: TensorPayload::Dense(vec![9.0, 9.0, 9.0, 9.0]),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        let Response::Registered { generation, .. } = resp else { panic!("{resp:?}") };
        assert_eq!(generation, 1, "generations survive eviction");
    }

    #[test]
    fn panicking_run_quarantines_the_handle_until_a_reprepare() {
        let oracle = {
            let clean = ssymv_engine();
            let k = prepare(&clean);
            clean.handle(&Request::Run { kernel: k, full: false, shard: None }).encode()
        };
        let plan = Arc::new(FaultPlan::seeded(5).nth(FaultSite::ExecPanic, 1));
        let engine = Engine::new().with_fault_plan(Arc::clone(&plan));
        ssymv_inputs(&engine);
        let kernel = prepare(&engine);
        // The injected panic surfaces as a structured internal_error,
        // not an abort.
        let resp = engine.handle(&Request::Run { kernel, full: false, shard: None });
        assert!(matches!(resp, Response::Error { code: ErrorCode::Internal, .. }), "{resp:?}");
        assert_eq!(plan.injected(FaultSite::ExecPanic), 1);
        // The handle is now quarantined: refused structurally, not
        // retried into the same poisoned state.
        let resp = engine.handle(&Request::Run { kernel, full: false, shard: None });
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::KernelQuarantined, .. }),
            "{resp:?}"
        );
        assert_eq!(engine.serve_metrics().panics_caught.get(), 1);
        assert_eq!(engine.serve_metrics().quarantined_kernels.get(), 1);
        // Re-preparing the identical spec mints a fresh handle — the
        // quarantined one is invisible to dedup — and the fresh handle
        // serves byte-identically to a never-faulted engine.
        let fresh = prepare(&engine);
        assert_ne!(fresh, kernel, "quarantined handles must not satisfy prepare dedup");
        let resp =
            engine.handle(&Request::Run { kernel: fresh, full: false, shard: None }).encode();
        assert_eq!(resp, oracle);
        // Exactly one injection: the fresh handle ran clean.
        assert_eq!(plan.injected(FaultSite::ExecPanic), 1);
    }

    #[test]
    fn full_run_panic_takes_the_same_quarantine_path() {
        let plan = Arc::new(FaultPlan::seeded(9).nth(FaultSite::ExecPanic, 1));
        let engine = Engine::new().with_fault_plan(plan);
        ssymv_inputs(&engine);
        let kernel = prepare(&engine);
        let resp = engine.handle(&Request::Run { kernel, full: true, shard: None });
        assert!(matches!(resp, Response::Error { code: ErrorCode::Internal, .. }), "{resp:?}");
        let resp = engine.handle(&Request::Run { kernel, full: true, shard: None });
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::KernelQuarantined, .. }),
            "{resp:?}"
        );
        assert_eq!(engine.serve_metrics().panics_caught.get(), 1);
    }

    #[test]
    fn panic_budget_circuit_breaks_the_spec_after_consecutive_panics() {
        // Every run of this spec panics. Without a budget, a client
        // bounces forever: prepare → panic → quarantine → fresh
        // prepare → panic. After `PANIC_BUDGET` strikes the
        // *spec* is refused at prepare time, not just the handle.
        let plan = Arc::new(FaultPlan::seeded(3).rate(FaultSite::ExecPanic, 1_000_000));
        let engine = Engine::new().with_fault_plan(plan);
        ssymv_inputs(&engine);
        let mut handles = Vec::new();
        for _ in 0..PANIC_BUDGET {
            let kernel = prepare(&engine);
            assert!(!handles.contains(&kernel), "quarantined handles must not satisfy dedup");
            handles.push(kernel);
            let resp = engine.handle(&Request::Run { kernel, full: false, shard: None });
            assert!(matches!(resp, Response::Error { code: ErrorCode::Internal, .. }), "{resp:?}");
        }
        // Strike three: the bounce is broken before another doomed
        // compile, with a structured (retryable=false) refusal.
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
            sym: vec!["A".into()],
            inputs: vec![],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: false,
        });
        let Response::Error { code, message, .. } = resp else { panic!("{resp:?}") };
        assert_eq!(code, ErrorCode::KernelQuarantined);
        assert!(message.contains("circuit-broken"), "{message}");
        // Re-registering an input bumps its pinned generation, which
        // re-keys the spec and re-opens the breaker.
        register_dense(&engine, "x", &[4], &[1.0, 2.0, 3.0, 4.0]);
        let kernel = prepare(&engine);
        assert!(!handles.contains(&kernel));
    }

    #[test]
    fn a_clean_run_resets_the_panic_streak() {
        let plan = Arc::new(FaultPlan::seeded(4).nth(FaultSite::ExecPanic, 1));
        let engine = Engine::new().with_fault_plan(plan);
        ssymv_inputs(&engine);
        let first = prepare(&engine);
        let resp = engine.handle(&Request::Run { kernel: first, full: false, shard: None });
        assert!(matches!(resp, Response::Error { code: ErrorCode::Internal, .. }), "{resp:?}");
        // One strike is below the budget, so the spec re-prepares...
        let second = prepare(&engine);
        assert_ne!(second, first);
        // ...and a clean run wipes the streak — the budget counts
        // *consecutive* panics, not lifetime panics.
        let resp = engine.handle(&Request::Run { kernel: second, full: false, shard: None });
        assert!(matches!(resp, Response::Ran { .. }), "{resp:?}");
        let counts = relock(&engine.kernels.panic_counts);
        assert!(
            counts.values().all(|c| c.load(Ordering::Acquire) == 0),
            "a successful run must zero the spec's streak"
        );
    }

    /// Prepare the ssymv spec with `sharded: true`, returning the
    /// handle and the advertised merge schedule.
    fn prepare_sharded(engine: &Engine) -> (u64, Vec<(String, MergeRule)>) {
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
            sym: vec!["A".into()],
            inputs: vec![],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: true,
        });
        match resp {
            Response::Prepared { kernel, split, .. } => {
                (kernel, split.expect("ssymv must advertise a merge schedule"))
            }
            other => panic!("prepare failed: {other:?}"),
        }
    }

    #[test]
    fn sharded_prepare_advertises_the_merge_schedule() {
        let engine = ssymv_engine();
        let (kernel, split) = prepare_sharded(&engine);
        // The symmetric ssymv scatters y[j] updates outside the owned
        // row, so shard partials must be folded with `+`, not
        // concatenated.
        assert_eq!(split, vec![("y".to_string(), MergeRule::Add)]);
        // `sharded` is advisory — the same spec dedupes to the same
        // handle as a plain prepare, and the plain response carries no
        // split payload, keeping non-sharded bytes unchanged.
        let plain = prepare(&engine);
        assert_eq!(kernel, plain, "`sharded` must not fork the dedup key");
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
            sym: vec!["A".into()],
            inputs: vec![],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: false,
        });
        let Response::Prepared { split, .. } = resp else { panic!("{resp:?}") };
        assert!(split.is_none(), "plain prepares must not grow a split payload");
    }

    #[test]
    fn shard_runs_merge_to_the_full_result_with_exact_counters() {
        let engine = ssymv_engine();
        let (kernel, split) = prepare_sharded(&engine);
        assert_eq!(split[0].1, MergeRule::Add);
        let resp = engine.handle(&Request::Run { kernel, full: false, shard: None });
        let Response::Ran { outputs: full, counters: serial } = resp else { panic!("{resp:?}") };
        // Run both halves and fold them the way the router does, with
        // the compiler's own merge: leg 0 seeds, leg 1 folds in.
        let run_shard = |k| {
            let resp = engine.handle(&Request::Run { kernel, full: false, shard: Some((k, 2)) });
            let Response::Ran { mut outputs, counters } = resp else { panic!("{resp:?}") };
            assert_eq!(outputs.len(), 1);
            assert_eq!(outputs[0].dims, full[0].dims, "shard partials keep the full shape");
            (outputs.remove(0), counters)
        };
        let (mut merged, mut summed) = run_shard(0);
        let (leg, counters) = run_shard(1);
        split[0].1.kind().merge_into(&mut merged.values, &leg.values, &leg.dims, 1, 2);
        summed.merge(counters);
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&merged.values),
            bits(&full[0].values),
            "folded shard partials must be bit-identical to the full run"
        );
        // Counters are integers, so the shard sum is exact — the
        // cluster's merged counters must equal a single process's.
        assert_eq!(summed, serial);
    }

    #[test]
    fn shard_requests_are_validated_structurally() {
        let engine = ssymv_engine();
        let (kernel, _) = prepare_sharded(&engine);
        // `shard` + `full` is contradictory: output replication wants
        // the complete result, a shard computes one row range.
        let resp = engine.handle(&Request::Run { kernel, full: true, shard: Some((0, 2)) });
        assert!(matches!(resp, Response::Error { code: ErrorCode::InvalidKernel, .. }), "{resp:?}");
        // A non-splittable plan has no row ranges to shard, and its
        // sharded prepare advertises no merge schedule.
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: C[j, i] = A[i, j]".into(),
            sym: vec![],
            inputs: vec![],
            variant: Variant::Naive,
            threads: None,
            sharded: true,
        });
        let Response::Prepared { kernel: transpose, splittable, split, .. } = resp else {
            panic!("{resp:?}")
        };
        assert!(!splittable);
        assert!(split.is_none(), "non-splittable plans must not advertise a merge schedule");
        let resp =
            engine.handle(&Request::Run { kernel: transpose, full: false, shard: Some((0, 2)) });
        assert!(matches!(resp, Response::Error { code: ErrorCode::InvalidKernel, .. }), "{resp:?}");
        // The refusals are structural, not stateful: a legal shard run
        // on the splittable kernel still serves afterwards.
        let resp = engine.handle(&Request::Run { kernel, full: false, shard: Some((1, 2)) });
        assert!(matches!(resp, Response::Ran { .. }), "{resp:?}");
    }

    #[test]
    fn journal_write_failure_refuses_mutations_without_side_effects() {
        let dir = std::env::temp_dir().join(format!("systec-engine-jfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = Arc::new(FaultPlan::seeded(2).nth(FaultSite::JournalWrite, 2));
        let engine = Engine::new()
            .with_fault_plan(Arc::clone(&plan))
            .with_data_dir(&dir)
            .expect("open data dir");
        // First registration journals cleanly.
        register_dense(&engine, "a", &[4], &[1.0, 2.0, 3.0, 4.0]);
        // The second append is the injected failure: the registration
        // must be refused and the registry left exactly as before.
        let resp = engine.handle(&Request::RegisterTensor {
            name: "b".into(),
            dims: vec![4],
            payload: TensorPayload::Dense(vec![9.0; 4]),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        assert!(matches!(resp, Response::Error { code: ErrorCode::Internal, .. }), "{resp:?}");
        let Response::Stats { serve, .. } = engine.handle(&Request::Stats) else { panic!() };
        assert_eq!(serve.registry_tensors, 1, "a refused registration must not apply");
        assert_eq!(plan.injected(FaultSite::JournalWrite), 1);
        // The journal on disk holds exactly the applied mutation: a
        // restart recovers "a" and nothing else.
        drop(engine);
        let recovered = Engine::new().with_data_dir(&dir).expect("reopen data dir");
        let Response::Stats { serve, .. } = recovered.handle(&Request::Stats) else { panic!() };
        assert_eq!(serve.registry_tensors, 1);
        assert_eq!(serve.recovery_replayed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Whether `name` is registered, probed with a one-tensor prepare.
    fn is_live(engine: &Engine, name: &str) -> bool {
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i: y[i] = t[i]".into(),
            sym: vec![],
            inputs: vec![("t".into(), name.into())],
            variant: Variant::Naive,
            threads: Some(1),
            sharded: false,
        });
        match resp {
            Response::Prepared { .. } => true,
            Response::Error { code: ErrorCode::UnknownTensor, .. } => false,
            other => panic!("probe of `{name}` failed: {other:?}"),
        }
    }

    #[test]
    fn journal_batch_failure_leaves_no_orphan_eviction_records() {
        // A 64-byte cap holds two 32-byte vectors, so every registration
        // from `c` on evicts the LRU tensor: one mutation, journaled as
        // one batch (its evictions, then the registration). Whichever
        // journal write fails — the 3rd is `c`'s batch; when evictions
        // were appended one by one, the 4th was `c`'s registration,
        // *after* `a`'s eviction was already on disk — the refused
        // request must leave nothing behind, in memory or on disk: a
        // restart recovers exactly the registry the live server kept.
        for n in [3, 4] {
            let dir = std::env::temp_dir()
                .join(format!("systec-engine-orphan-{n}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let plan = Arc::new(FaultPlan::seeded(8).nth(FaultSite::JournalWrite, n));
            let engine = Engine::new()
                .with_fault_plan(plan)
                .with_max_registered_bytes(64)
                .with_data_dir(&dir)
                .expect("open data dir");
            let refused = ["a", "b", "c", "d"].into_iter().find(|name| {
                match try_register_dense(&engine, name, &[4], &[1.0; 4]) {
                    Response::Registered { .. } => false,
                    Response::Error { code: ErrorCode::Internal, .. } => true,
                    other => panic!("{other:?}"),
                }
            });
            let refused = refused.expect("the injected failure refuses one registration");
            let Response::Stats { serve: live, .. } = engine.handle(&Request::Stats) else {
                panic!()
            };
            let recovered = Engine::new().with_data_dir(&dir).expect("reopen data dir");
            let Response::Stats { serve, .. } = recovered.handle(&Request::Stats) else { panic!() };
            assert_eq!(serve.recovery_replayed, live.journal_records, "write {n}: orphan records");
            assert_eq!(serve.recovery_truncated, 0, "write {n}: the failed batch was rolled back");
            assert_eq!(serve.registry_bytes, live.registry_bytes);
            for name in ["a", "b", "c", "d"] {
                assert_eq!(
                    is_live(&recovered, name),
                    is_live(&engine, name),
                    "write {n} refused `{refused}`: `{name}` differs after a restart"
                );
            }
            if refused == "c" {
                assert!(is_live(&recovered, "a"), "the refused `c` must not have evicted `a`");
                assert_eq!(serve.recovery_replayed, 2, "`a` and `b`, nothing of `c`'s batch");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn journal_append_after_a_failed_append_is_recovered() {
        // The injected failure tears like a real one — half the frame
        // reaches the file. Unless that append is rolled back, the next
        // (acknowledged, fsynced) record lands behind the torn bytes and
        // recovery's longest-valid-prefix rule truncates it away.
        let dir = std::env::temp_dir().join(format!("systec-engine-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = Arc::new(FaultPlan::seeded(1).nth(FaultSite::JournalWrite, 1));
        let engine =
            Engine::new().with_fault_plan(plan).with_data_dir(&dir).expect("open data dir");
        let resp = try_register_dense(&engine, "a", &[4], &[1.0; 4]);
        assert!(matches!(resp, Response::Error { code: ErrorCode::Internal, .. }), "{resp:?}");
        register_dense(&engine, "b", &[4], &[2.0; 4]);
        drop(engine);
        let recovered = Engine::new().with_data_dir(&dir).expect("reopen data dir");
        let Response::Stats { serve, .. } = recovered.handle(&Request::Stats) else { panic!() };
        assert_eq!(serve.recovery_truncated, 0, "a failed append must leave no bytes behind");
        assert_eq!(serve.recovery_replayed, 1);
        assert!(is_live(&recovered, "b"), "the acknowledged registration must survive");
        assert!(!is_live(&recovered, "a"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_registry_survives_reopen_with_generations() {
        let dir = std::env::temp_dir().join(format!("systec-engine-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let oracle = {
            let engine = Engine::new().with_data_dir(&dir).expect("open data dir");
            ssymv_inputs(&engine);
            // Bump x so the recovered generation counter is nontrivial.
            register_dense(&engine, "x", &[4], &[1.0, 2.0, 3.0, 4.0]);
            let k = prepare(&engine);
            engine.handle(&Request::Run { kernel: k, full: false, shard: None }).encode()
        };
        let engine = Engine::new().with_data_dir(&dir).expect("reopen data dir");
        let Response::Stats { serve, .. } = engine.handle(&Request::Stats) else { panic!() };
        assert_eq!(serve.registry_tensors, 2);
        assert!(serve.recovery_replayed >= 2, "{}", serve.recovery_replayed);
        // Generations resume, not reset: the next x supersedes gen 1.
        let resp = engine.handle(&Request::RegisterTensor {
            name: "x".into(),
            dims: vec![4],
            payload: TensorPayload::Dense(vec![1.0, 2.0, 3.0, 4.0]),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
        let Response::Registered { generation, .. } = resp else { panic!("{resp:?}") };
        assert_eq!(generation, 2, "generation counters must survive restart");
        // And the recovered tensors serve byte-identically.
        let k = prepare(&engine);
        assert_eq!(
            engine.handle(&Request::Run { kernel: k, full: false, shard: None }).encode(),
            oracle
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An explicitly stored `0.0` is an entry — over min-plus, a
    /// zero-weight edge — and is journaled like any other, so the `run`
    /// reply bytes (values and read counters) survive a reopen.
    #[test]
    fn a_stored_zero_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("systec-engine-zero-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bellman_ford = |engine: &Engine| {
            let resp = engine.handle(&Request::Prepare {
                einsum: "for i, j: y[i] min= A[i, j] + d[j]".into(),
                sym: vec![],
                inputs: vec![],
                variant: Variant::Naive,
                threads: Some(1),
                sharded: false,
            });
            let Response::Prepared { kernel, .. } = resp else { panic!("{resp:?}") };
            engine.handle(&Request::Run { kernel, full: false, shard: None }).encode()
        };
        let live = {
            let engine = Engine::new().with_data_dir(&dir).expect("open data dir");
            // 0 –0– 1 –5– 2
            let edges =
                [(vec![0, 1], 0.0), (vec![1, 0], 0.0), (vec![1, 2], 5.0), (vec![2, 1], 5.0)];
            register(&engine, "A", &[3, 3], &edges);
            register_dense(&engine, "d", &[3], &[0.0, 100.0, 100.0]);
            bellman_ford(&engine)
        };
        assert!(live.contains(r#""values":[100,0,105]"#), "{live}");
        let engine = Engine::new().with_data_dir(&dir).expect("reopen data dir");
        assert_eq!(bellman_ford(&engine), live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
