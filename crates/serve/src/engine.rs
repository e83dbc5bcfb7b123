//! The serving engine: everything behind the protocol, independent of
//! the transport.
//!
//! An [`Engine`] owns the tensor registry, the kernel table, a shared
//! [`ContextPool`], and the request/latency metrics. The TCP layer
//! ([`crate::server`]) decodes request lines and calls
//! [`Engine::handle`]; tests drive the engine directly (the
//! counting-allocator tier calls [`Engine::execute`] to isolate the
//! execution path from response serialization).
//!
//! ## The zero-allocation run path
//!
//! Plans are compiled once (process-wide single-flight plan cache, see
//! `systec_kernels::Prepared`), and every kernel handle keeps a pool of
//! warmed [`RunSlot`]s — output tensors plus a `Counters` value sized on
//! first use. A `run` request checks out one slot and one pooled
//! [`ExecContext`], calls `run_timed_into`, and returns both on drop:
//! once as many slots/contexts exist as there are concurrent runners,
//! the steady-state execution path performs **zero** heap allocations
//! (`tests/serve_alloc_regression.rs`). Response serialization happens
//! after the lease is taken and is allowed to allocate.

use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use crate::durability::{Durability, Record, Recovery, DEFAULT_SNAPSHOT_EVERY};
use crate::fault::{FaultPlan, FaultSite};
use crate::relock;

use systec_codegen::{ContextPool, Parallelism, PooledContext};
use systec_exec::{Counters, ExecError};
use systec_ir::parse_einsum;
use systec_kernels::{parse_symmetry, plan_cache_stats, serial_fallback_note, Prepared};
use systec_telemetry::prom::{counter, gauge, histogram, Metric, PromWriter};
use systec_telemetry::{self as telemetry, Histogram, Snapshot};
use systec_tensor::{csf, CooTensor, DenseTensor, SparseTensor, Tensor};

use crate::protocol::{
    CachePayload, CounterPayload, ErrorCode, KernelStatPayload, MergeRule, OutputPayload,
    PoolPayload, Request, RequestMetrics, Response, ServeMetrics, SlowRunPayload, StorageFormat,
    TensorPayload, Variant, Warning, WarningKind,
};
use crate::wire::Record as _;

/// Runs slower than this are counted as slow and logged (overridable
/// via [`Engine::with_slow_threshold`]).
const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(10);

/// Capacity of the engine-wide slow-run log.
const SLOW_LOG_CAPACITY: usize = 32;

/// Consecutive panicking runs of one spec before `prepare` itself is
/// circuit-broken (overridable via [`Engine::with_panic_budget`]). A
/// successful run of the spec resets the count.
const DEFAULT_PANIC_BUDGET: u32 = 3;

/// A fixed-capacity ring of the most recent over-threshold runs. The
/// buffer is allocated once at engine construction, so appending on
/// the run path is a lock plus an index write — no allocation.
#[derive(Debug)]
struct SlowLog {
    entries: Vec<SlowRunPayload>,
    next: usize,
    recorded: u64,
}

impl SlowLog {
    fn new() -> SlowLog {
        SlowLog { entries: Vec::with_capacity(SLOW_LOG_CAPACITY), next: 0, recorded: 0 }
    }

    fn record(&mut self, entry: SlowRunPayload) {
        if self.entries.len() < SLOW_LOG_CAPACITY {
            self.entries.push(entry);
        } else {
            self.entries[self.next] = entry;
        }
        self.next = (self.next + 1) % SLOW_LOG_CAPACITY;
        self.recorded = self.recorded.saturating_add(1);
    }

    /// The retained entries, oldest first. The all-time `recorded`
    /// count is compared in u64 — casting it *down* to usize, as an
    /// earlier revision did, would wrap on 32-bit targets after 2^32
    /// slow runs and misreport a long-rotated ring as unrotated.
    fn snapshot(&self) -> Vec<SlowRunPayload> {
        if self.recorded <= self.entries.len() as u64 {
            self.entries.clone()
        } else {
            let mut out = Vec::with_capacity(self.entries.len());
            out.extend_from_slice(&self.entries[self.next..]);
            out.extend_from_slice(&self.entries[..self.next]);
            out
        }
    }
}

/// Reusable per-run state for one kernel: initialized outputs and a
/// counters value, both retaining capacity between runs.
#[derive(Debug, Default)]
struct RunSlot {
    outputs: HashMap<String, DenseTensor>,
    counters: Counters,
}

/// One prepared kernel handle.
struct KernelEntry {
    /// Human-readable spec (variant + einsum + symmetry + bindings).
    spec: String,
    /// Dedup identity: two `prepare` requests with this exact key share
    /// a handle.
    dedup: String,
    prepared: Prepared,
    slots: Mutex<Vec<RunSlot>>,
    /// Run latencies in nanoseconds: a fixed array of atomic buckets,
    /// so recording is wait-free and allocation-free.
    latency: Histogram,
    runs: AtomicU64,
    /// Runs that exceeded the engine's slow threshold.
    slow: AtomicU64,
    /// Registry pins: each bound input's registered name and the
    /// generation whose data this kernel cloned at prepare time.
    pinned: Vec<(String, u64)>,
    /// Registry epoch at which the pins were last verified fresh. A
    /// matching load lets the run path skip the registry entirely —
    /// the epoch only moves on (re-)registration.
    valid_epoch: AtomicU64,
    /// Set when a run of this handle panicked. A quarantined handle
    /// never executes again (`kernel_quarantined`), and the dedup
    /// searches skip it so re-`prepare` mints a fresh handle over the
    /// same spec.
    quarantined: AtomicBool,
    /// Consecutive panics of this handle's *spec* (shared across the
    /// handles a re-prepared spec mints): quarantine increments it, a
    /// successful run resets it, and `prepare` circuit-breaks the spec
    /// once it reaches the engine's panic budget.
    panic_count: Arc<AtomicU32>,
}

/// A completed execution, borrowing nothing: holds the kernel entry, the
/// checked-out slot and context, and returns the slot to its pools on
/// drop. Accessors expose the results for serialization.
pub struct RunLease {
    entry: Arc<KernelEntry>,
    slot: Option<RunSlot>,
    _ctx: PooledContext,
}

impl RunLease {
    /// The executed kernel's outputs (main program only, the paper's
    /// timed region).
    pub fn outputs(&self) -> &HashMap<String, DenseTensor> {
        &self.slot.as_ref().expect("present until drop").outputs
    }

    /// Exact work counters of this run.
    pub fn counters(&self) -> &Counters {
        &self.slot.as_ref().expect("present until drop").counters
    }
}

impl Drop for RunLease {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            relock(&self.entry.slots).push(slot);
        }
    }
}

/// One registered tensor plus its lifecycle bookkeeping.
#[derive(Debug)]
struct TensorEntry {
    data: Tensor,
    /// 0 on first registration of the name, +1 per re-registration;
    /// survives unregister and eviction (see [`Registry::generations`]).
    generation: u64,
    /// Estimated payload size charged against the byte cap.
    bytes: u64,
    /// Logical clock of the last registration or prepare binding —
    /// the LRU eviction order.
    last_used: u64,
}

/// The tensor registry: live tensors, the per-name generation history,
/// and the pin refcounts held by prepared kernels.
#[derive(Debug, Default)]
struct Registry {
    tensors: HashMap<String, TensorEntry>,
    /// Highest generation ever assigned per name. Kept after eviction
    /// and unregister so a name can never be reborn at a generation a
    /// stale kernel still pins (the classic ABA).
    generations: HashMap<String, u64>,
    /// Refcounts of `(name, generation)` pins held by kernel entries;
    /// a tensor pinned at its current generation is never evicted.
    pins: HashMap<(String, u64), u64>,
    /// Total estimated bytes of live tensors.
    bytes: u64,
    /// Logical clock driving `last_used`.
    clock: u64,
}

impl Registry {
    /// Marks `name` as just used (registration or prepare binding).
    fn touch(&mut self, name: &str) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.tensors.get_mut(name) {
            entry.last_used = clock;
        }
    }

    /// The least-recently-used live tensor that is not pinned at its
    /// current generation, excluding `keep` (the name being replaced —
    /// its bytes are already credited, so evicting it would
    /// double-count).
    fn lru_unpinned(&self, keep: &str) -> Option<String> {
        self.tensors
            .iter()
            .filter(|(name, e)| {
                name.as_str() != keep && !self.pins.contains_key(&((*name).clone(), e.generation))
            })
            .min_by_key(|(_, e)| e.last_used)
            .map(|(name, _)| name.clone())
    }

    /// Total bytes the LRU policy could free for a registration of
    /// `keep` (every live, unpinned tensor except `keep` itself).
    fn evictable_bytes(&self, keep: &str) -> u64 {
        self.tensors
            .iter()
            .filter(|(name, e)| {
                name.as_str() != keep && !self.pins.contains_key(&((*name).clone(), e.generation))
            })
            .map(|(_, e)| e.bytes)
            .sum()
    }
}

/// Estimated payload bytes of a registered tensor — the unit of the
/// `--max-bytes` admission cap. Dense values cost 8 bytes each; sparse
/// entries charge one value plus one coordinate per level.
fn tensor_bytes(tensor: &Tensor) -> u64 {
    match tensor {
        Tensor::Dense(d) => 8 * d.as_slice().len() as u64,
        Tensor::Sparse(s) => (8 + 8 * s.dims().len() as u64) * s.nnz() as u64,
    }
}

/// The dimensions of a stored tensor (for durable records).
fn tensor_dims(tensor: &Tensor) -> Vec<usize> {
    match tensor {
        Tensor::Dense(d) => d.dims().to_vec(),
        Tensor::Sparse(s) => s.dims().to_vec(),
    }
}

/// Serializes stored tensor data for a durable record: dense stays a
/// value list, sparse enumerates COO entries. The payload kind encodes
/// the storage, so replay rebuilds the same representation.
fn tensor_payload(tensor: &Tensor) -> TensorPayload {
    match tensor {
        Tensor::Dense(d) => TensorPayload::Dense(d.as_slice().to_vec()),
        Tensor::Sparse(s) => {
            let coo = s.to_coo();
            TensorPayload::Coo(coo.entries().map(|(c, v)| (c.to_vec(), v)).collect())
        }
    }
}

/// Rebuilds stored tensor data from a recovered record; `None` if the
/// record does not describe a valid tensor (skipped during replay —
/// the record passed its CRC, so this would indicate a writer bug, and
/// recovery must still never panic).
fn rebuild_tensor(dims: &[usize], payload: &TensorPayload) -> Option<Tensor> {
    match payload {
        TensorPayload::Dense(values) => {
            DenseTensor::from_vec(dims.to_vec(), values.clone()).ok().map(Tensor::Dense)
        }
        TensorPayload::Coo(entries) => {
            let mut coo = CooTensor::new(dims.to_vec());
            for (coords, v) in entries {
                coo.try_push(coords, *v).ok()?;
            }
            SparseTensor::from_coo(&coo, &csf(dims.len())).ok().map(Tensor::Sparse)
        }
    }
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
    fn new(code: ErrorCode, message: impl Into<String>) -> EngineError {
        EngineError { code, message: message.into() }
    }
}

/// The protocol-independent serving core. Shared across connections
/// behind an `Arc`; all methods take `&self`.
pub struct Engine {
    registry: RwLock<Registry>,
    /// Bumped on every (re-)registration. Kernel entries cache the
    /// epoch at which their pins last verified fresh, so steady-state
    /// runs check freshness with two relaxed atomic loads and no lock.
    registry_epoch: AtomicU64,
    kernels: RwLock<Vec<Arc<KernelEntry>>>,
    contexts: ContextPool,
    counts: RequestMetrics,
    /// Per-engine serving metrics (batching, admission, registry
    /// lifecycle); owned here so parallel tests never bleed into each
    /// other's scrapes.
    serve: ServeMetrics,
    /// Distribution of runs per coalesced dispatch.
    batch_size: Histogram,
    /// Admission cap on total estimated registered bytes (`None` =
    /// unlimited).
    max_registered_bytes: Option<u64>,
    default_parallelism: Parallelism,
    slow_threshold_ns: u64,
    slow_log: Mutex<SlowLog>,
    /// Optional durable registry (`--data-dir`): a write-ahead journal
    /// consulted *before* every registry mutation is applied.
    durability: Option<Mutex<Durability>>,
    /// Snapshot cadence handed to [`Durability`] at `with_data_dir`.
    snapshot_every: u64,
    /// Consecutive panicking runs per spec dedup key, shared with the
    /// spec's kernel entries. Bounds the quarantine → re-prepare →
    /// panic bounce: at `panic_budget` the spec is refused at `prepare`.
    panic_counts: Mutex<HashMap<String, Arc<AtomicU32>>>,
    /// Consecutive panics after which a spec is circuit-broken.
    panic_budget: u32,
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
            registry: RwLock::new(Registry::default()),
            registry_epoch: AtomicU64::new(0),
            kernels: RwLock::new(Vec::new()),
            contexts: ContextPool::new(),
            counts: RequestMetrics::default(),
            serve: ServeMetrics::default(),
            batch_size: Histogram::new(),
            max_registered_bytes: None,
            default_parallelism,
            slow_threshold_ns: u64::try_from(DEFAULT_SLOW_THRESHOLD.as_nanos()).unwrap_or(u64::MAX),
            slow_log: Mutex::new(SlowLog::new()),
            durability: None,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            panic_counts: Mutex::new(HashMap::new()),
            panic_budget: DEFAULT_PANIC_BUDGET,
            fault_plan: None,
        }
    }

    /// Overrides the per-spec panic budget (default 3): once a spec's
    /// runs panic that many times without an intervening success, its
    /// `prepare` is refused with `kernel_quarantined` instead of
    /// minting yet another doomed handle.
    pub fn with_panic_budget(mut self, budget: u32) -> Engine {
        self.panic_budget = budget.max(1);
        self
    }

    /// Caps the total estimated bytes of registered tensors (admission
    /// control): a registration that cannot fit even after LRU-evicting
    /// every unpinned tensor is refused with `admission_rejected`, and
    /// nothing is evicted for a refused registration.
    pub fn with_max_registered_bytes(mut self, cap: u64) -> Engine {
        self.max_registered_bytes = Some(cap);
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
        let (durability, recovery) = Durability::open(dir.as_ref(), self.snapshot_every)?;
        self.apply_recovery(recovery);
        self.durability = Some(Mutex::new(durability));
        Ok(self)
    }

    /// Replays recovered records into the (still single-owner) registry.
    fn apply_recovery(&mut self, recovery: Recovery) {
        let mut replayed = 0u64;
        {
            let reg = self.registry.get_mut().unwrap_or_else(PoisonError::into_inner);
            for record in recovery.records {
                match record {
                    Record::Register { name, dims, generation, payload } => {
                        let Some(data) = rebuild_tensor(&dims, &payload) else { continue };
                        let bytes = tensor_bytes(&data);
                        let freed = reg.tensors.get(&name).map_or(0, |e| e.bytes);
                        reg.bytes = (reg.bytes - freed) + bytes;
                        let prior = reg.generations.get(&name).copied();
                        reg.generations
                            .insert(name.clone(), prior.map_or(generation, |g| g.max(generation)));
                        reg.clock += 1;
                        let last_used = reg.clock;
                        reg.tensors
                            .insert(name, TensorEntry { data, generation, bytes, last_used });
                    }
                    Record::Unregister { name } => {
                        if let Some(entry) = reg.tensors.remove(&name) {
                            reg.bytes -= entry.bytes;
                        }
                    }
                    Record::Generations { generations } => {
                        for (name, generation) in generations {
                            let prior = reg.generations.get(&name).copied();
                            reg.generations
                                .insert(name, prior.map_or(generation, |g| g.max(generation)));
                        }
                    }
                }
                replayed += 1;
            }
            self.serve.registry_bytes.set(reg.bytes);
            self.serve.registry_tensors.set(reg.tensors.len() as u64);
        }
        self.serve.recovery_replayed.add(replayed);
        self.serve.recovery_truncated.add(recovery.truncated);
    }

    /// Appends one record to the journal (write-ahead) and fsyncs it,
    /// honoring an injected `JournalWrite` fault. No-op without
    /// `--data-dir`.
    fn journal_append(&self, dur: &mut Durability, record: &Record) -> io::Result<()> {
        if let Some(plan) = &self.fault_plan {
            if plan.fire(FaultSite::JournalWrite) {
                return Err(io::Error::other("injected journal write failure"));
            }
        }
        let bytes = dur.append(record)?;
        self.serve.journal_records.inc();
        self.serve.journal_bytes.add(bytes);
        self.serve.journal_fsyncs.inc();
        Ok(())
    }

    /// Folds the journal into a snapshot when due. Snapshot failure is
    /// non-fatal: the journal remains the source of truth.
    fn maybe_snapshot(&self, dur: &mut Durability, reg: &Registry) {
        if !dur.wants_snapshot() {
            return;
        }
        let mut generations: Vec<(String, u64)> =
            reg.generations.iter().map(|(n, g)| (n.clone(), *g)).collect();
        generations.sort();
        let mut records = vec![Record::Generations { generations }];
        let mut names: Vec<&String> = reg.tensors.keys().collect();
        names.sort();
        for name in names {
            let entry = &reg.tensors[name];
            records.push(Record::Register {
                name: name.clone(),
                dims: tensor_dims(&entry.data),
                generation: entry.generation,
                payload: tensor_payload(&entry.data),
            });
        }
        if let Ok((bytes, fsyncs)) = dur.write_snapshot(&records) {
            self.serve.journal_bytes.add(bytes);
            self.serve.journal_fsyncs.add(fsyncs);
        }
    }

    /// Fsyncs the journal if one is open (graceful-drain hook; every
    /// append already syncs, so this is cheap).
    pub fn flush_journal(&self) {
        if let Some(dur) = &self.durability {
            if relock(dur).sync().is_ok() {
                self.serve.journal_fsyncs.inc();
            }
        }
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
                self.unregister(name)
            }
            Request::Prepare { einsum, sym, inputs, variant, threads, sharded } => {
                self.counts.prepare.inc();
                self.prepare(einsum, sym, inputs, *variant, *threads, *sharded)
            }
            Request::Run { kernel, full, shard } => {
                self.counts.run.inc();
                self.run_coalesced(*kernel, *full, *shard, 1)
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
        if dims.is_empty() || dims.contains(&0) {
            return Err(EngineError::new(
                ErrorCode::BadTensor,
                format!("dims must be non-empty and positive, got {dims:?}"),
            ));
        }
        let bad = |message: String| EngineError::new(ErrorCode::BadTensor, message);
        let coo = match payload {
            TensorPayload::Dense(values) => {
                let expect: usize = dims.iter().product();
                if values.len() != expect {
                    return Err(bad(format!(
                        "dense payload has {} values but dims {dims:?} need {expect}",
                        values.len()
                    )));
                }
                if !values.iter().all(|v| v.is_finite()) {
                    return Err(bad("tensor values must be finite".into()));
                }
                if format == StorageFormat::Dense || format == StorageFormat::Auto {
                    let dense = DenseTensor::from_vec(dims.to_vec(), values.clone())
                        .map_err(|e| bad(e.to_string()))?;
                    let nnz = values.len() as u64;
                    return self.insert_tensor(name, Tensor::Dense(dense), nnz);
                }
                let dense = DenseTensor::from_vec(dims.to_vec(), values.clone())
                    .map_err(|e| bad(e.to_string()))?;
                CooTensor::from_dense(&dense)
            }
            TensorPayload::Coo(entries) => {
                let mut coo = CooTensor::new(dims.to_vec());
                for (coords, v) in entries {
                    if !v.is_finite() {
                        return Err(bad("tensor values must be finite".into()));
                    }
                    coo.try_push(coords, *v).map_err(|e| bad(e.to_string()))?;
                }
                if format == StorageFormat::Dense {
                    let dense = coo.to_dense();
                    let nnz = dense.as_slice().len() as u64;
                    return self.insert_tensor(name, Tensor::Dense(dense), nnz);
                }
                coo
            }
        };
        let sparse = SparseTensor::from_coo(&coo, &csf(dims.len()))
            .map_err(|e| bad(format!("packing to CSF: {e}")))?;
        let nnz = sparse.nnz() as u64;
        self.insert_tensor(name, Tensor::Sparse(sparse), nnz)
    }

    /// Admits validated tensor data under `name`: charges its estimated
    /// bytes against the registry cap (LRU-evicting unpinned tensors to
    /// make room), assigns the next generation for the name, and
    /// publishes the new registry epoch so kernels pinning an older
    /// generation fail their next freshness check loudly.
    fn insert_tensor(&self, name: &str, data: Tensor, nnz: u64) -> Result<Response, EngineError> {
        let bytes = tensor_bytes(&data);
        let mut reg = self.registry.write().unwrap_or_else(PoisonError::into_inner);
        // A replacement frees the old entry's bytes before the cap
        // check, and the replaced name itself is never an LRU victim.
        let freed = reg.tensors.get(name).map_or(0, |e| e.bytes);
        // Victims are *staged* (removed but held aside) rather than
        // dropped: if the journal append below fails, they go back and
        // the refused registration has no side effects at all.
        let mut victims: Vec<(String, TensorEntry)> = Vec::new();
        if let Some(cap) = self.max_registered_bytes {
            let mut projected = (reg.bytes - freed).saturating_add(bytes);
            if projected > cap {
                // Decide feasibility up front so a refused registration
                // has no side effects — rejection must not evict.
                if projected.saturating_sub(reg.evictable_bytes(name)) > cap {
                    self.serve.rejected_bytes.inc();
                    return Err(EngineError::new(
                        ErrorCode::AdmissionRejected,
                        format!(
                            "registering `{name}` ({bytes} bytes) would exceed the \
                             registered-bytes cap ({cap} bytes) even after evicting \
                             every unpinned tensor"
                        ),
                    ));
                }
                while projected > cap {
                    let victim = reg.lru_unpinned(name).expect("evictable bytes checked above");
                    let evicted = reg.tensors.remove(&victim).expect("victim is live");
                    reg.bytes -= evicted.bytes;
                    projected -= evicted.bytes;
                    victims.push((victim, evicted));
                }
            }
        }
        let generation = reg.generations.get(name).map_or(0, |g| g + 1);
        // Write-ahead: evictions and the registration hit the journal
        // (fsynced) before any of it becomes visible. A failed append
        // restores the staged victims and changes nothing.
        if let Some(dur) = &self.durability {
            let mut dur = relock(dur);
            let result = victims
                .iter()
                .try_for_each(|(victim, _)| {
                    self.journal_append(&mut dur, &Record::Unregister { name: victim.clone() })
                })
                .and_then(|()| {
                    self.journal_append(
                        &mut dur,
                        &Record::Register {
                            name: name.to_string(),
                            dims: tensor_dims(&data),
                            generation,
                            payload: tensor_payload(&data),
                        },
                    )
                });
            if let Err(e) = result {
                for (victim, entry) in victims {
                    reg.bytes += entry.bytes;
                    reg.tensors.insert(victim, entry);
                }
                return Err(EngineError::new(
                    ErrorCode::Internal,
                    format!("journal write failed, registration not applied: {e}"),
                ));
            }
        }
        self.serve.registry_evictions.add(victims.len() as u64);
        drop(victims);
        reg.generations.insert(name.to_string(), generation);
        reg.bytes = (reg.bytes - freed) + bytes;
        reg.clock += 1;
        let last_used = reg.clock;
        reg.tensors.insert(name.to_string(), TensorEntry { data, generation, bytes, last_used });
        self.serve.registry_bytes.set(reg.bytes);
        self.serve.registry_tensors.set(reg.tensors.len() as u64);
        // Fold the journal into a snapshot only after the mutation is
        // visible in `reg` — the snapshot replaces the journal, so it
        // must contain everything journaled so far.
        if let Some(dur) = &self.durability {
            self.maybe_snapshot(&mut relock(dur), &reg);
        }
        drop(reg);
        // Publish after the registry write: a run that observes the new
        // epoch re-verifies its pins under the registry lock and is
        // guaranteed to see the new generation there.
        self.registry_epoch.fetch_add(1, Ordering::Release);
        Ok(Response::Registered { name: name.to_string(), nnz, generation })
    }

    fn unregister(&self, name: &str) -> Result<Response, EngineError> {
        let mut reg = self.registry.write().unwrap_or_else(PoisonError::into_inner);
        // Write-ahead: journal the removal before applying it. A name
        // that was never registered journals nothing.
        if reg.tensors.contains_key(name) {
            if let Some(dur) = &self.durability {
                self.journal_append(
                    &mut relock(dur),
                    &Record::Unregister { name: name.to_string() },
                )
                .map_err(|e| {
                    EngineError::new(
                        ErrorCode::Internal,
                        format!("journal write failed, unregister not applied: {e}"),
                    )
                })?;
            }
        }
        let existed = match reg.tensors.remove(name) {
            Some(entry) => {
                reg.bytes -= entry.bytes;
                true
            }
            None => false,
        };
        self.serve.registry_bytes.set(reg.bytes);
        self.serve.registry_tensors.set(reg.tensors.len() as u64);
        if existed {
            if let Some(dur) = &self.durability {
                self.maybe_snapshot(&mut relock(dur), &reg);
            }
        }
        drop(reg);
        // `generations` is deliberately retained: a later re-register
        // still advances the name's generation, and kernels pinning the
        // removed data keep serving their own snapshot — removal
        // invalidates nothing, so the epoch does not move either.
        Ok(Response::Unregistered { name: name.to_string(), existed })
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
        let parse_span = telemetry::span(telemetry::Phase::Parse);
        let einsum = parse_einsum(einsum_text)
            .map_err(|e| EngineError::new(ErrorCode::InvalidKernel, e.to_string()))?;
        let symmetry = parse_symmetry(&einsum, sym)
            .map_err(|message| EngineError::new(ErrorCode::InvalidKernel, message))?;
        drop(parse_span);

        // Resolve einsum tensor names to registered data. Unmapped names
        // default to themselves.
        let mut bindings: Vec<(String, String)> = Vec::new();
        for access in einsum.rhs.accesses() {
            let tensor = access.tensor.name.clone();
            if bindings.iter().any(|(t, _)| *t == tensor) {
                continue;
            }
            let registered = input_map
                .iter()
                .find(|(t, _)| *t == tensor)
                .map_or_else(|| tensor.clone(), |(_, r)| r.clone());
            bindings.push((tensor, registered));
        }
        bindings.sort();
        // Snapshot the epoch BEFORE reading the bindings: if a
        // re-register lands in between, the cached epoch is already
        // behind and the first run re-verifies the pins (never the
        // reverse, which would let a stale pin ride a fresh epoch).
        let epoch_at_prepare = self.registry_epoch.load(Ordering::Acquire);
        let (inputs, pinned) = {
            let mut registry = self.registry.write().unwrap_or_else(PoisonError::into_inner);
            let mut inputs: HashMap<String, Tensor> = HashMap::new();
            let mut pinned: Vec<(String, u64)> = Vec::new();
            for (tensor, registered) in &bindings {
                let (data, generation) = match registry.tensors.get(registered) {
                    Some(entry) => (entry.data.clone(), entry.generation),
                    None => {
                        return Err(EngineError::new(
                            ErrorCode::UnknownTensor,
                            format!("tensor `{registered}` (for `{tensor}`) is not registered"),
                        ))
                    }
                };
                inputs.insert(tensor.clone(), data);
                if !pinned.iter().any(|(n, g)| n == registered && *g == generation) {
                    pinned.push((registered.clone(), generation));
                }
                registry.touch(registered);
            }
            (inputs, pinned)
        };

        // Canonical identity for handle dedup: the einsum re-rendered,
        // the declarations as sent, the bindings *and the generations
        // they resolved to* (so a prepare after a re-register mints a
        // fresh handle over the new data), the variant, threads.
        let variant_tag = match variant {
            Variant::Systec => "systec",
            Variant::Naive => "naive",
        };
        let dedup = format!(
            "{variant_tag}::{einsum}::sym={sym:?}::inputs={bindings:?}::gens={pinned:?}::threads={threads:?}"
        );
        // Circuit breaker on the quarantine → re-prepare bounce: a spec
        // whose runs panicked `panic_budget` consecutive times is refused
        // here, before compiling yet another doomed handle. The count is
        // shared with every handle the spec mints and resets on any
        // successful run.
        let panic_count = {
            let mut counts = relock(&self.panic_counts);
            Arc::clone(counts.entry(dedup.clone()).or_default())
        };
        let panics = panic_count.load(Ordering::Acquire);
        if panics >= self.panic_budget {
            return Err(EngineError::new(
                ErrorCode::KernelQuarantined,
                format!(
                    "this spec panicked on {panics} consecutive runs and is circuit-broken — \
                     re-register its data (or fix the spec) before preparing it again"
                ),
            ));
        }
        if let Some(found) = self.find_kernel(&dedup, sharded) {
            return Ok(found);
        }

        // Compile outside any engine lock: concurrent prepares of
        // different kernels must not serialize, and concurrent prepares
        // of the same kernel single-flight inside the plan cache.
        let prepared = match variant {
            Variant::Systec => Prepared::compile_einsum(&einsum, &symmetry, &inputs),
            Variant::Naive => Prepared::naive_einsum(&einsum, &inputs),
        }
        .map_err(|e| match e {
            ExecError::InvalidKernel { message } => {
                EngineError::new(ErrorCode::InvalidKernel, message)
            }
            other => EngineError::new(ErrorCode::InvalidKernel, other.to_string()),
        })?;
        let parallelism = threads.map_or(self.default_parallelism, Parallelism::threads);
        let prepared = prepared.with_parallelism(parallelism);
        let splittable = prepared.splittable();
        let warning = fallback_warning(parallelism, splittable);
        let entry = Arc::new(KernelEntry {
            spec: format!("{variant_tag}::{einsum}"),
            dedup,
            prepared,
            slots: Mutex::new(Vec::new()),
            latency: Histogram::new(),
            runs: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            pinned,
            valid_epoch: AtomicU64::new(epoch_at_prepare),
            quarantined: AtomicBool::new(false),
            panic_count,
        });

        let mut kernels = self.kernels.write().unwrap_or_else(PoisonError::into_inner);
        // Re-check under the write lock: a racing prepare of the same
        // spec may have inserted between our check and here. Quarantined
        // handles are invisible to dedup — re-preparing a panicked spec
        // must mint a fresh handle.
        if let Some(k) = kernels
            .iter()
            .position(|k| k.dedup == entry.dedup && !k.quarantined.load(Ordering::Acquire))
        {
            let existing = &kernels[k];
            return Ok(Response::Prepared {
                kernel: k as u64,
                splittable: existing.prepared.splittable(),
                split: sharded.then(|| split_payload(&existing.prepared)).flatten(),
                warning: warning.clone(),
            });
        }
        kernels.push(Arc::clone(&entry));
        let kernel = (kernels.len() - 1) as u64;
        drop(kernels);
        // Pin the bound generations only after winning the insert race:
        // the losing duplicate above never pinned, so the refcounts
        // track exactly the kernel entries that hold a data snapshot.
        let mut reg = self.registry.write().unwrap_or_else(PoisonError::into_inner);
        for (name, generation) in &entry.pinned {
            *reg.pins.entry((name.clone(), *generation)).or_insert(0) += 1;
        }
        self.serve.pinned.set(reg.pins.len() as u64);
        drop(reg);
        Ok(Response::Prepared {
            kernel,
            splittable,
            split: sharded.then(|| split_payload(&entry.prepared)).flatten(),
            warning,
        })
    }

    fn find_kernel(&self, dedup: &str, sharded: bool) -> Option<Response> {
        let kernels = self.kernels.read().unwrap_or_else(PoisonError::into_inner);
        kernels.iter().position(|k| k.dedup == dedup && !k.quarantined.load(Ordering::Acquire)).map(
            |k| Response::Prepared {
                kernel: k as u64,
                splittable: kernels[k].prepared.splittable(),
                split: sharded.then(|| split_payload(&kernels[k].prepared)).flatten(),
                warning: fallback_warning(
                    kernels[k].prepared.parallelism(),
                    kernels[k].prepared.splittable(),
                ),
            },
        )
    }

    fn entry(&self, kernel: u64) -> Result<Arc<KernelEntry>, EngineError> {
        let kernels = self.kernels.read().unwrap_or_else(PoisonError::into_inner);
        usize::try_from(kernel).ok().and_then(|k| kernels.get(k)).cloned().ok_or_else(|| {
            EngineError::new(
                ErrorCode::UnknownKernel,
                format!("no kernel with handle {kernel} (have {})", kernels.len()),
            )
        })
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
        self.execute_coalesced(kernel, None, 1)
    }

    /// [`Engine::execute`] for a coalesced batch: one execution that
    /// accounts for `n` identical requests — `runs += n`, `n` latency
    /// samples of the shared wall time, and at most one slow-log entry
    /// (the batch was one slow event, not `n`). With a `shard`, only
    /// that top-level row range executes (row-owned outputs keep their
    /// initialization outside the window; reduced outputs accumulate
    /// the range's contribution onto it).
    fn execute_coalesced(
        &self,
        kernel: u64,
        shard: Option<(usize, usize)>,
        n: u64,
    ) -> Result<RunLease, EngineError> {
        let entry = self.entry(kernel)?;
        self.check_quarantine(kernel, &entry)?;
        self.ensure_fresh(&entry)?;
        if shard.is_some() && entry.prepared.split_outputs().is_none() {
            return Err(EngineError::new(
                ErrorCode::InvalidKernel,
                format!("kernel {kernel} is not row-splittable; `shard` needs a splittable plan"),
            ));
        }
        let mut slot = relock(&entry.slots).pop().unwrap_or_default();
        let mut ctx = self.contexts.checkout();
        let started = Instant::now();
        // The catch covers the vendored rayon pool too: its workers
        // catch task panics and resume them on the joining caller, so a
        // parallel run's panic lands right here. `AssertUnwindSafe` is
        // sound because a panicking run's slot and context are
        // discarded below, never repooled.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.inject_exec_faults();
            match shard {
                None => {
                    entry.prepared.run_timed_into(&mut slot.outputs, &mut ctx, &mut slot.counters)
                }
                Some((k, shards)) => entry.prepared.run_shard_into(
                    &mut slot.outputs,
                    &mut ctx,
                    &mut slot.counters,
                    k,
                    shards,
                ),
            }
        }));
        let result = match result {
            Ok(result) => result,
            Err(_panic) => {
                // Poisoned intermediate state: drop the slot and the
                // context rather than returning them to their pools.
                drop(slot);
                ctx.discard();
                return Err(self.quarantine(kernel, &entry));
            }
        };
        if let Err(e) = result {
            // Return the slot before surfacing the failure.
            relock(&entry.slots).push(slot);
            return Err(EngineError::new(ErrorCode::Internal, e.to_string()));
        }
        entry.runs.fetch_add(n, Ordering::Relaxed);
        entry.panic_count.store(0, Ordering::Release);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        for _ in 0..n {
            entry.latency.record(nanos);
        }
        if nanos >= self.slow_threshold_ns {
            entry.slow.fetch_add(n, Ordering::Relaxed);
            relock(&self.slow_log).record(SlowRunPayload { kernel, us: nanos / 1_000 });
        }
        Ok(RunLease { entry, slot: Some(slot), _ctx: ctx })
    }

    /// Refuses execution of a quarantined handle with the structured
    /// `kernel_quarantined` code.
    fn check_quarantine(&self, kernel: u64, entry: &KernelEntry) -> Result<(), EngineError> {
        if entry.quarantined.load(Ordering::Acquire) {
            return Err(EngineError::new(
                ErrorCode::KernelQuarantined,
                format!(
                    "kernel {kernel} was quarantined after a panicking run — \
                     re-prepare the same spec to mint a fresh handle"
                ),
            ));
        }
        Ok(())
    }

    /// Quarantines a handle whose run panicked and builds the
    /// `internal_error` reply for the victims. The first quarantining
    /// thread bumps the gauge; every caught panic bumps the counter.
    fn quarantine(&self, kernel: u64, entry: &KernelEntry) -> EngineError {
        self.serve.panics_caught.inc();
        if !entry.quarantined.swap(true, Ordering::AcqRel) {
            self.serve.quarantined_kernels.inc();
            // One spec-level strike per quarantined handle (not per
            // victim request racing into this panic).
            entry.panic_count.fetch_add(1, Ordering::AcqRel);
        }
        EngineError::new(
            ErrorCode::Internal,
            format!(
                "execution of kernel {kernel} panicked; the handle is quarantined — \
                 re-prepare to mint a fresh one"
            ),
        )
    }

    /// Chaos-test hooks on the execution path: a forced slow run and a
    /// forced panic. Without a plan this is one branch on a `None`.
    fn inject_exec_faults(&self) {
        if let Some(plan) = &self.fault_plan {
            if plan.fire(FaultSite::ExecDelay) {
                std::thread::sleep(plan.delay());
            }
            if plan.fire(FaultSite::ExecPanic) {
                panic!("injected kernel execution panic");
            }
        }
    }

    /// Verifies the kernel's pinned tensors are still the current
    /// generations. Steady state is two relaxed-ish atomic loads: the
    /// registry epoch only moves on (re-)registration, so a matching
    /// cached epoch proves nothing was re-registered since the last
    /// check. On an epoch change the pins re-verify under the registry
    /// lock; an *unregistered* name does not invalidate (the kernel
    /// keeps serving its snapshot), a *re-registered* one does.
    fn ensure_fresh(&self, entry: &KernelEntry) -> Result<(), EngineError> {
        let epoch = self.registry_epoch.load(Ordering::Acquire);
        if entry.valid_epoch.load(Ordering::Relaxed) == epoch {
            return Ok(());
        }
        let reg = self.registry.read().unwrap_or_else(PoisonError::into_inner);
        for (name, pinned) in &entry.pinned {
            let current = reg.generations.get(name).copied().unwrap_or(*pinned);
            if current != *pinned {
                drop(reg);
                self.serve.stale_runs.inc();
                return Err(EngineError::new(
                    ErrorCode::StaleTensor,
                    format!(
                        "tensor `{name}` was re-registered (now generation {current}; this \
                         kernel pinned generation {pinned}) — re-prepare to pick up the new data"
                    ),
                ));
            }
        }
        drop(reg);
        entry.valid_epoch.store(epoch, Ordering::Relaxed);
        Ok(())
    }

    /// Handles `n` coalesced identical `run` requests with a single
    /// execution — one batch dispatch — and returns the one response
    /// every requester receives. Request and error accounting both
    /// count all `n`, so wire-level totals are indistinguishable from
    /// `n` serial requests.
    pub fn run_batch(
        &self,
        kernel: u64,
        full: bool,
        shard: Option<(u64, u64)>,
        n: u64,
    ) -> Response {
        self.serve.batch_dispatches.inc();
        self.serve.batched_runs.add(n);
        self.batch_size.record(n);
        self.counts.run.add(n);
        self.run_coalesced(kernel, full, shard, n).unwrap_or_else(|e| {
            self.counts.errors.add(n);
            Response::error(e.code, e.message)
        })
    }

    fn run_coalesced(
        &self,
        kernel: u64,
        full: bool,
        shard: Option<(u64, u64)>,
        n: u64,
    ) -> Result<Response, EngineError> {
        let shard = match shard {
            None => None,
            Some(_) if full => {
                return Err(EngineError::new(
                    ErrorCode::InvalidKernel,
                    "`shard` cannot be combined with `full`: output replication needs the \
                     complete result, not one row range",
                ))
            }
            Some((k, shards)) => Some((
                usize::try_from(k).map_err(|_| shard_overflow(k))?,
                usize::try_from(shards).map_err(|_| shard_overflow(shards))?,
            )),
        };
        if full {
            // The complete result (main + output replication): a fresh
            // allocation per request, documented as off the hot path.
            let entry = self.entry(kernel)?;
            self.check_quarantine(kernel, &entry)?;
            self.ensure_fresh(&entry)?;
            let (outputs, counters) = catch_unwind(AssertUnwindSafe(|| {
                self.inject_exec_faults();
                entry.prepared.run_full()
            }))
            .map_err(|_panic| self.quarantine(kernel, &entry))?
            .map_err(|e| EngineError::new(ErrorCode::Internal, e.to_string()))?;
            entry.runs.fetch_add(n, Ordering::Relaxed);
            entry.panic_count.store(0, Ordering::Release);
            // Deliberately NOT recorded in the latency histogram: the
            // quantiles report the paper's timed region (pooled
            // main-program runs), and replication + fresh allocation
            // would skew them.
            return Ok(ran_response(&outputs, &counters));
        }
        let lease = self.execute_coalesced(kernel, shard, n)?;
        Ok(ran_response(lease.outputs(), lease.counters()))
    }

    fn stats(&self) -> Response {
        let kernels = self.kernels.read().unwrap_or_else(PoisonError::into_inner);
        let kernel_stats = kernels
            .iter()
            .enumerate()
            .map(|(k, entry)| {
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
            .collect();
        Response::Stats {
            cache: cache_payload(),
            requests: self.counts.snapshot(),
            pool: pool_payload(),
            serve: self.serve.snapshot(),
            kernels: kernel_stats,
            slow: relock(&self.slow_log).snapshot(),
        }
    }

    /// Per-engine serving metrics (batching, admission, registry
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
        w.histogram(&BATCH_SIZE, &[], &self.batch_size.snapshot());

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
        for kind in telemetry::BODY_KINDS {
            w.sample(&FUSED_DISPATCH, &[("kind", kind.name())], m.fused(kind).get());
        }
        w.sample(&VM_RUN_NS, &[], m.vm_run_ns.get());
        w.sample(&VM_RUNS, &[], m.vm_runs.get());

        // Declared up front: an engine with no kernels still lists them.
        w.family(&KERNEL_LATENCY);
        w.family(&KERNEL_RUNS);
        w.family(&KERNEL_SLOW);
        let kernels = self.kernels.read().unwrap_or_else(PoisonError::into_inner);
        for (k, entry) in kernels.iter().enumerate() {
            let label = k.to_string();
            let kernel = [("kernel", label.as_str())];
            w.histogram(&KERNEL_LATENCY, &kernel, &entry.latency.snapshot());
            w.sample(&KERNEL_RUNS, &kernel, entry.runs.load(Ordering::Relaxed));
            w.sample(&KERNEL_SLOW, &kernel, entry.slow.load(Ordering::Relaxed));
        }
        w.finish()
    }

    /// The execution-context pool (observability for tests).
    pub fn context_pool(&self) -> &ContextPool {
        &self.contexts
    }
}

// The families no stats record carries: process-global compile / VM
// telemetry, the fault plan, the batch-size histogram, and the
// per-kernel trio.
const BATCH_SIZE: Metric = histogram("systec_serve_batch_size", "Runs coalesced per dispatch.");
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
    counter("systec_fused_dispatch_total", "VM vector-loop dispatches by fused-body kind.");
const KERNEL_LATENCY: Metric = histogram(
    "systec_kernel_latency_ns",
    "Pooled main-program run latency per kernel handle, in nanoseconds.",
);
const KERNEL_RUNS: Metric =
    counter("systec_kernel_runs_total", "Completed runs per kernel handle.");
const KERNEL_SLOW: Metric =
    counter("systec_kernel_slow_total", "Runs over the slow threshold per kernel handle.");
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

/// Converts a histogram quantile (nanoseconds) to microseconds for the
/// stats payload; `None` before the first recorded run.
fn quantile_us(snapshot: &Snapshot, q: f64) -> Option<f64> {
    snapshot.quantile(q).map(|ns| ns as f64 / 1_000.0)
}

/// Maps a splittable plan's per-output classification onto wire merge
/// rules for a `"sharded":true` prepare, sorted by output name. `None`
/// when the plan is not splittable — or reduces with an op that has no
/// identity (overwrite), which no fixed-order fold can merge exactly.
fn split_payload(prepared: &Prepared) -> Option<Vec<(String, MergeRule)>> {
    let mut split = prepared
        .split_outputs()?
        .into_iter()
        .map(|(name, kind)| Some((name, MergeRule::of(kind)?)))
        .collect::<Option<Vec<(String, MergeRule)>>>()?;
    split.sort_by(|a, b| a.0.cmp(&b.0));
    Some(split)
}

fn shard_overflow(value: u64) -> EngineError {
    EngineError::new(
        ErrorCode::InvalidKernel,
        format!("shard value {value} does not fit this platform's usize"),
    )
}

/// The structured serial-fallback warning for a degraded prepare, also
/// bumping the `fallback_serial` counter when one is issued.
fn fallback_warning(parallelism: Parallelism, splittable: bool) -> Option<Warning> {
    serial_fallback_note(parallelism, splittable).map(|message| {
        telemetry::global().fallback_serial.inc();
        Warning { kind: WarningKind::SerialFallback, message }
    })
}

/// Builds the deterministic run response: outputs and read counters in
/// sorted name order.
fn ran_response(outputs: &HashMap<String, DenseTensor>, counters: &Counters) -> Response {
    let mut out: Vec<OutputPayload> = outputs
        .iter()
        .map(|(name, t)| OutputPayload {
            name: name.clone(),
            dims: t.dims().to_vec(),
            values: t.as_slice().to_vec(),
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    let mut reads: Vec<(String, u64)> =
        counters.reads.iter().map(|(name, n)| (name.clone(), *n)).collect();
    reads.sort();
    Response::Ran {
        outputs: out,
        counters: CounterPayload {
            flops: counters.flops,
            writes: counters.writes,
            iterations: counters.iterations,
            reads,
        },
    }
}

/// Serializes a direct `Prepared` execution exactly like the server
/// serializes a `run` response — the e2e oracle: a byte-identical
/// response line proves the served execution equals the direct one.
pub fn oracle_response(outputs: &HashMap<String, DenseTensor>, counters: &Counters) -> Response {
    ran_response(outputs, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Placement;

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

    fn register_dense(engine: &Engine, name: &str, dims: &[usize], values: &[f64]) {
        let resp = engine.handle(&Request::RegisterTensor {
            name: name.into(),
            dims: dims.to_vec(),
            payload: TensorPayload::Dense(values.to_vec()),
            format: StorageFormat::Auto,
            placement: Placement::Hash,
        });
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
        for (dims, payload) in [
            (vec![2], TensorPayload::Dense(vec![1.0, 2.0, 3.0])),
            (vec![2], TensorPayload::Dense(vec![f64::NAN, 0.0])),
            (vec![2, 2], TensorPayload::Coo(vec![(vec![5, 0], 1.0)])),
            (vec![0], TensorPayload::Dense(vec![])),
        ] {
            let resp = engine.handle(&Request::RegisterTensor {
                name: "T".into(),
                dims,
                payload,
                format: StorageFormat::Auto,
                placement: Placement::Hash,
            });
            assert!(matches!(resp, Response::Error { code: ErrorCode::BadTensor, .. }), "{resp:?}");
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

    fn slow_entry(k: u64) -> SlowRunPayload {
        SlowRunPayload { kernel: k, us: k }
    }

    #[test]
    fn slow_log_at_exact_capacity_is_unrotated_and_oldest_first() {
        let mut log = SlowLog::new();
        for k in 0..SLOW_LOG_CAPACITY as u64 {
            log.record(slow_entry(k));
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), SLOW_LOG_CAPACITY);
        assert_eq!(snap.first().unwrap().kernel, 0, "nothing rotated out yet");
        assert_eq!(snap.last().unwrap().kernel, SLOW_LOG_CAPACITY as u64 - 1);
    }

    #[test]
    fn slow_log_one_past_capacity_rotates_out_exactly_the_oldest() {
        let mut log = SlowLog::new();
        for k in 0..=SLOW_LOG_CAPACITY as u64 {
            log.record(slow_entry(k));
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), SLOW_LOG_CAPACITY, "capacity is a hard bound");
        assert_eq!(snap.first().unwrap().kernel, 1, "entry 0 rotated out");
        assert_eq!(snap.last().unwrap().kernel, SLOW_LOG_CAPACITY as u64);
        // Oldest-first across the wrap point.
        for pair in snap.windows(2) {
            assert!(pair[0].kernel < pair[1].kernel, "{snap:?}");
        }
    }

    #[test]
    fn slow_log_recorded_counter_saturates_instead_of_wrapping() {
        let mut log = SlowLog::new();
        for k in 0..SLOW_LOG_CAPACITY as u64 {
            log.record(slow_entry(k));
        }
        log.recorded = u64::MAX;
        log.record(slow_entry(99));
        assert_eq!(log.recorded, u64::MAX, "the all-time count must saturate");
        // Saturated counts still classify the ring as rotated.
        assert_eq!(log.snapshot().len(), SLOW_LOG_CAPACITY);
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
        // prepare → panic. After `DEFAULT_PANIC_BUDGET` strikes the
        // *spec* is refused at prepare time, not just the handle.
        let plan = Arc::new(FaultPlan::seeded(3).rate(FaultSite::ExecPanic, 1_000_000));
        let engine = Engine::new().with_fault_plan(plan);
        ssymv_inputs(&engine);
        let mut handles = Vec::new();
        for _ in 0..DEFAULT_PANIC_BUDGET {
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
        let engine = Engine::new().with_fault_plan(plan).with_panic_budget(2);
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
        let counts = relock(&engine.panic_counts);
        assert!(
            counts.values().all(|c| c.load(Ordering::Acquire) == 0),
            "a successful run must zero the spec's streak"
        );
    }

    #[test]
    fn a_zero_panic_budget_clamps_to_one_strike() {
        let plan = Arc::new(FaultPlan::seeded(6).nth(FaultSite::ExecPanic, 1));
        let engine = Engine::new().with_fault_plan(plan).with_panic_budget(0);
        ssymv_inputs(&engine);
        let kernel = prepare(&engine);
        let resp = engine.handle(&Request::Run { kernel, full: false, shard: None });
        assert!(matches!(resp, Response::Error { code: ErrorCode::Internal, .. }), "{resp:?}");
        let resp = engine.handle(&Request::Prepare {
            einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
            sym: vec!["A".into()],
            inputs: vec![],
            variant: Variant::Systec,
            threads: Some(1),
            sharded: false,
        });
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::KernelQuarantined, .. }),
            "{resp:?}"
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
        // Run both halves and fold them the way the router does:
        // partial 0 first, later shards applied in fixed shard order.
        let mut partials = Vec::new();
        let mut summed = CounterPayload::default();
        for k in 0..2 {
            let resp = engine.handle(&Request::Run { kernel, full: false, shard: Some((k, 2)) });
            let Response::Ran { outputs, counters } = resp else { panic!("{resp:?}") };
            assert_eq!(outputs.len(), 1);
            assert_eq!(outputs[0].dims, full[0].dims, "shard partials keep the full shape");
            summed.flops += counters.flops;
            summed.writes += counters.writes;
            summed.iterations += counters.iterations;
            for (name, n) in counters.reads {
                match summed.reads.iter_mut().find(|(have, _)| *have == name) {
                    Some((_, total)) => *total += n,
                    None => summed.reads.push((name, n)),
                }
            }
            partials.push(outputs.into_iter().next().unwrap().values);
        }
        let merged: Vec<u64> =
            partials[0].iter().zip(&partials[1]).map(|(a, b)| (a + b).to_bits()).collect();
        let want: Vec<u64> = full[0].values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(merged, want, "folded shard partials must be bit-identical to the full run");
        // Counters are integers, so the shard sum is exact — the
        // cluster's merged counters must equal a single process's.
        summed.reads.sort();
        let mut serial_reads = serial.reads.clone();
        serial_reads.sort();
        assert_eq!(summed.flops, serial.flops);
        assert_eq!(summed.writes, serial.writes);
        assert_eq!(summed.iterations, serial.iterations);
        assert_eq!(summed.reads, serial_reads);
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
}
