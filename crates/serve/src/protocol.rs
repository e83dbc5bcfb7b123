//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order. Every
//! request is a JSON object with an `"op"` field; every response is an
//! object with an `"ok"` boolean — `true` plus a `"reply"` tag naming
//! the payload shape, or `false` plus `"code"`/`"error"`. A malformed
//! line produces an [`Response::Error`] with code [`ErrorCode::Parse`];
//! the connection stays open (fault isolation is a test tier).
//!
//! | verb | request fields | response fields |
//! |---|---|---|
//! | `register_tensor` | `name`, `dims`, `dense` *or* `coo` \[, `format`, `placement`\] | `reply:"registered"`, `name`, `nnz`, `generation` |
//! | `unregister` | `name` | `reply:"unregistered"`, `name`, `existed` |
//! | `prepare` | `einsum` \[, `sym`, `inputs`, `variant`, `threads`, `sharded`\] | `reply:"prepared"`, `kernel`, `splittable` \[, `split`, `warning`\] |
//! | `run` | `kernel` \[, `full`, `shard`\] | `reply:"run"`, `outputs`, `counters` (a router's sharded run: its legs' replies merged as text by [`merge_run`]) |
//! | `stats` | — | `reply:"stats"`, `cache`, `requests`, `pool`, `serve`, `kernels`, `slow` |
//! | `metrics` | — | `reply:"metrics"`, `text` (Prometheus exposition) |
//! | `ping` | — | `reply:"pong"` |
//! | `shutdown` | — | `reply:"shutting_down"` |
//!
//! Sharded serving adds three optional request fields and one reply. A
//! `register_tensor` `placement` of `"replicate"` asks a router to copy
//! the tensor to every shard instead of hashing it to one owner (a
//! single worker accepts and ignores it). A `prepare` with
//! `"sharded":true` asks for the cross-process merge classification:
//! when the plan is splittable the reply carries `split`, an object
//! mapping each output name to its merge rule — `"rows"` (each shard
//! owns a disjoint row range; concatenate in shard order) or
//! `"add"`/`"min"`/`"max"` (fold per-shard partials elementwise in
//! fixed shard order). A `run` with `"shard":[k, n]` executes only the
//! k-th of n top-level row ranges (0-based, `k < n`), reporting that
//! sub-range's outputs and exact counters; it is rejected with
//! `invalid_kernel` when combined with `full` or when the plan is not
//! splittable. A router answering for a dead worker uses the retryable
//! code `shard_unavailable`, and its `stats` verb answers with
//! `reply:"cluster_stats"` (`router` counters + a `shards` array)
//! instead of a worker's `reply:"stats"`.
//!
//! The `prepare` `warning` field, when present, is an object with a
//! stable machine-readable `kind` (currently only `"serial_fallback"`)
//! and a human-readable `message`. The `stats` reply extends the
//! original schema with per-kernel latency quantiles (`median_us`,
//! `p90_us`, `p99_us`, `max_us` — derived from a log-bucketed
//! histogram, absent before the first run), a `slow` count and log of
//! over-threshold runs, a `pool` section mirroring the worker-pool
//! counters, and a cache `waits` count (single-flight lookups that
//! blocked on another thread's build). The `metrics` reply carries the
//! same data as Prometheus text exposition format 0.0.4 in `text`.
//!
//! Every stats record, wire enum and structural verb below is a single
//! declaration ([`crate::wire`] derives its struct, codec, exposition
//! and field list): to add a field, a code or a metric family, add its
//! line here. Only `register_tensor`'s `dense`-xor-`coo` payload, the
//! `shard` range check and the hot `run` reply are written out by hand.
//! The payload is also the one field that skips the `Json` tree: a
//! request line (and a journal record) parses through
//! [`Document::parse`], which reads a cell-shaped `coo` or `dense`
//! array straight into one flat `f64` buffer, and [`TensorPayload`]
//! takes it from there into [`CooEntries`]' two flat buffers — no node
//! and no `Vec` per entry. Any other shape under those keys stays in the
//! tree and decodes exactly as before, so [`Request::from_json`] is the
//! differential oracle of [`Request::decode`]. The hot `run` reply skips
//! the tree on the way out: [`Response::encode`] writes it straight into
//! the line — names through the tree's escaper, values, dims and
//! counters through its number printer — and [`Response::to_json`]
//! keeps the tree as that writer's differential oracle. A router reads
//! its shard legs' `run` replies back in that same layout, without a
//! tree, and [`merge_run`] writes the merged reply through the same
//! writer, copying each cell's text where one leg decides it.
//!
//! Determinism: run responses contain **no timing** (latency lives in
//! `stats` medians), output/counter maps are serialized in sorted name
//! order, and values use the crate's shortest-round-trip `f64` printer
//! (byte-identical to `Display`) — so equal executions produce
//! byte-identical response lines, which the e2e tier asserts against a
//! direct-execution oracle.

use std::fmt;
use std::ops::Range;

use systec_codegen::{chunk_window, Counters, MergeKind};
use systec_ir::AssignOp;
use systec_telemetry::prom::{counter, gauge, Metric};

use crate::json::{exact_u64, printed_value, Cells, Document, Json, Reader, Writer};
use crate::wire::{need, opt, pairs_from_json, pairs_to_json, Field, Obj, Wire};
use crate::{record, wire_enum};

wire_enum! {
    /// Kind of a protocol failure, echoed in error responses as a stable
    /// machine-readable string.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum ErrorCode {
        /// The request line was not valid JSON or not a valid request shape.
        Parse = "parse",
        /// A named tensor is not in the registry.
        UnknownTensor = "unknown_tensor",
        /// A kernel handle does not exist.
        UnknownKernel = "unknown_kernel",
        /// The einsum or symmetry spec was rejected by the compiler.
        InvalidKernel = "invalid_kernel",
        /// Registered tensor data failed validation (dims, bounds, finiteness).
        BadTensor = "bad_tensor",
        /// The request line exceeded the server's size cap. The connection
        /// receives this reply and is then closed after the reply drains.
        LineTooLong = "line_too_long",
        /// The request sat in the scheduler past the server's per-request
        /// deadline and was answered without being executed.
        DeadlineExceeded = "deadline_exceeded",
        /// Admission control refused the work: the connection cap or the
        /// registered-bytes cap was reached.
        AdmissionRejected = "admission_rejected",
        /// A tensor pinned by this prepared kernel was re-registered since
        /// `prepare`; the kernel's snapshot is stale. Re-`prepare` to bind
        /// the new generation.
        StaleTensor = "stale_tensor",
        /// The executor hit an unexpected failure (including a caught panic)
        /// while serving this request. The request was not executed — or its
        /// output was discarded — and may be retried after the offending
        /// kernel is re-prepared.
        Internal = "internal_error",
        /// The kernel handle was quarantined after a panic during a previous
        /// run. The handle never serves again; `prepare` the same spec again
        /// to mint a fresh handle.
        KernelQuarantined = "kernel_quarantined",
        /// The shard that owns the requested key is down. Emitted by a
        /// router, never by a worker; retryable — the shard supervisor
        /// restarts dead workers and recovered tensors rejoin the ring.
        ShardUnavailable = "shard_unavailable",
    }
}

impl ErrorCode {
    /// Whether a client may transparently retry the same request after a
    /// backoff. Transient conditions (queueing past the deadline,
    /// admission pressure, an executor fault that quarantined a kernel
    /// mid-flight, a shard that the supervisor will restart) are
    /// retryable; `kernel_quarantined` is not — the handle is dead
    /// until the client re-`prepare`s.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::DeadlineExceeded
                | ErrorCode::AdmissionRejected
                | ErrorCode::Internal
                | ErrorCode::ShardUnavailable
        )
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A malformed request or response line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Human-readable description.
    pub message: String,
}

impl ProtoError {
    pub(crate) fn new(message: impl Into<String>) -> ProtoError {
        ProtoError { message: message.into() }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Tensor data carried by `register_tensor` and by a durable
/// `register` record.
#[derive(Clone, Debug, PartialEq)]
pub enum TensorPayload {
    /// Row-major dense values (`dense` field).
    Dense(Vec<f64>),
    /// Coordinate entries `[c0, …, ck, value]` (`coo` field), held flat.
    Coo(CooEntries),
}

/// Sparse entries in two flat buffers, as the wire's `coo` rows decode
/// and as the tensor builder reads them: entry `k` is
/// `coords[k·r .. (k+1)·r]` with value `vals[k]`, where the arity `r`
/// is `coords.len() / vals.len()` — the tensor's rank for a decoded
/// payload, checked against `dims` when the tensor is built.
///
/// Collects from `(coords, value)` pairs:
///
/// ```
/// use systec_serve::protocol::CooEntries;
///
/// let coo: CooEntries = [(vec![0, 1], 2.5), (vec![1, 0], 2.5)].into_iter().collect();
/// assert_eq!(coo.coords, [0, 1, 1, 0]);
/// assert_eq!(coo.iter().nth(1), Some((&[1, 0][..], 2.5)));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CooEntries {
    /// Every entry's coordinates, entry-major.
    pub coords: Vec<usize>,
    /// One value per entry.
    pub vals: Vec<f64>,
}

impl CooEntries {
    /// The number of entries.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Coordinates per entry (0 when there are no entries).
    pub fn arity(&self) -> usize {
        self.coords.len().checked_div(self.len()).unwrap_or(0)
    }

    /// `(coords, value)` per entry, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        let r = self.arity();
        self.vals.iter().enumerate().map(move |(k, &v)| (&self.coords[k * r..(k + 1) * r], v))
    }
}

/// # Panics
///
/// Panics if two entries have different coordinate counts.
impl FromIterator<(Vec<usize>, f64)> for CooEntries {
    fn from_iter<I: IntoIterator<Item = (Vec<usize>, f64)>>(entries: I) -> Self {
        let mut coo = CooEntries::default();
        for (coords, v) in entries {
            assert!(
                coo.is_empty() || coords.len() == coo.arity(),
                "every entry needs {} coordinates, got {coords:?}",
                coo.arity()
            );
            coo.coords.extend_from_slice(&coords);
            coo.vals.push(v);
        }
        coo
    }
}

wire_enum! {
    /// Requested storage for a registered tensor.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub enum StorageFormat {
        /// Pick from the payload: dense values stay dense, coordinates pack
        /// to CSF. Spelled by leaving `format` out.
        #[default]
        Auto,
        /// Force dense storage.
        Dense = "dense",
        /// Force compressed (CSF) storage.
        Csf = "csf",
    }
}

wire_enum! {
    /// Where a router places a registered tensor. A single worker accepts
    /// the field and ignores it (placement is a routing concern).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub enum Placement {
        /// Consistent-hash the name to one owning shard (default).
        #[default]
        Hash = "hash",
        /// Copy the tensor to every shard, as sharded kernels require for
        /// their inputs.
        Replicate = "replicate",
    }
}

wire_enum! {
    /// How a router combines one output's per-shard results into the
    /// single-process answer, as reported by a `"sharded":true` prepare.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum MergeRule {
        /// Each shard owns a disjoint top-level row range: take shard k's
        /// rows `[k·E/n, (k+1)·E/n)` and concatenate in shard order.
        Rows = "rows",
        /// Fold per-shard partials elementwise with `+` in fixed shard
        /// order.
        Add = "add",
        /// Fold per-shard partials elementwise with `min` in fixed shard
        /// order.
        Min = "min",
        /// Fold per-shard partials elementwise with `max` in fixed shard
        /// order.
        Max = "max",
    }
}

/// The one table between the wire's merge rules and the compiler's
/// per-output classification. `Reduce(Overwrite)` has no row: an
/// overwrite has no identity, so no fixed-order fold merges it exactly.
const MERGE_KINDS: [(MergeRule, MergeKind); 4] = [
    (MergeRule::Rows, MergeKind::Rows),
    (MergeRule::Add, MergeKind::Reduce(AssignOp::Add)),
    (MergeRule::Min, MergeKind::Reduce(AssignOp::Min)),
    (MergeRule::Max, MergeKind::Reduce(AssignOp::Max)),
];

impl MergeRule {
    /// The wire rule for a compiler classification; `None` for an
    /// output no shard merge can reproduce (an overwrite reduction).
    pub fn of(kind: MergeKind) -> Option<MergeRule> {
        MERGE_KINDS.iter().find(|(_, k)| *k == kind).map(|(rule, _)| *rule)
    }

    /// The compiler classification behind this rule: a merge folds
    /// per-shard buffers with its [`MergeKind::merge_into`].
    pub fn kind(self) -> MergeKind {
        let (_, kind) = MERGE_KINDS.iter().find(|(rule, _)| *rule == self).expect("every rule");
        *kind
    }
}

/// Output name → merge rule (the `split` of a sharded `prepared`).
impl Wire for Vec<(String, MergeRule)> {
    const KIND: &'static str = "object";
    fn to_json(&self) -> Json {
        pairs_to_json(self)
    }
    fn from_json(v: &Json, field: &str) -> Result<Self, ProtoError> {
        pairs_from_json(v, field, "known merge rules")
    }
}

wire_enum! {
    /// Which compilation the `prepare` verb performs.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub enum Variant {
        /// The symmetry-exploiting SySTeC compilation (default).
        #[default]
        Systec = "systec",
        /// The symmetry-oblivious naive kernel.
        Naive = "naive",
    }
}

wire_enum! {
    /// Kind of a structured warning attached to an otherwise-successful
    /// response, echoed on the wire as a stable machine-readable string.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum WarningKind {
        /// Worker threads were requested but the plan is not
        /// row-splittable; the kernel runs serially.
        SerialFallback = "serial_fallback",
    }
}

record! {
    /// A structured warning: a stable `kind` for machines plus a
    /// human-readable `message`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Warning {
        /// Machine-readable warning kind.
        pub kind: WarningKind,
        /// Human-readable description.
        pub message: String,
    }
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Put a named tensor in the server's registry.
    RegisterTensor {
        /// Registry name.
        name: String,
        /// Tensor shape.
        dims: Vec<usize>,
        /// The data.
        payload: TensorPayload,
        /// Storage selection.
        format: StorageFormat,
        /// Routing placement (router-interpreted; workers ignore it).
        placement: Placement,
    },
    /// Remove a named tensor from the registry. Prepared kernels keep
    /// their pinned snapshot and continue to serve; only future
    /// `prepare`s stop resolving the name.
    Unregister {
        /// Registry name to remove.
        name: String,
    },
    /// Compile (or fetch from the plan cache) a kernel and bind it to
    /// registered tensors; yields a kernel handle.
    Prepare {
        /// The einsum, in the CLI's `for …: out[…] op expr` syntax.
        einsum: String,
        /// Symmetry declarations (`"A"` or `"A:0-1,2"`).
        sym: Vec<String>,
        /// Einsum tensor name → registry name. Unmapped tensors default
        /// to their own name.
        inputs: Vec<(String, String)>,
        /// Which compilation to run.
        variant: Variant,
        /// Worker threads per execution: `None` inherits the server's
        /// default parallelism; `Some(1)` forces serial, `Some(0)` all
        /// cores, `Some(n)` n workers.
        threads: Option<usize>,
        /// Ask for the cross-process merge classification: the reply
        /// carries `split` when the plan is splittable.
        sharded: bool,
    },
    /// Execute a prepared kernel.
    Run {
        /// The handle from `prepare`.
        kernel: u64,
        /// Also apply output replication (`run_full` semantics). Off the
        /// pooled zero-allocation path.
        full: bool,
        /// Execute only the k-th of n top-level row ranges (`(k, n)`,
        /// 0-based). Requires a splittable plan and `full: false`.
        shard: Option<(u64, u64)>,
    },
    /// Server statistics.
    Stats,
    /// Prometheus text exposition of the server's metrics.
    Metrics,
    /// Liveness check.
    Ping,
    /// Stop the server.
    Shutdown,
}

/// One output tensor in a run response.
#[derive(Clone, Debug, PartialEq)]
pub struct OutputPayload {
    /// Output name.
    pub name: String,
    /// Shape.
    pub dims: Vec<usize>,
    /// Row-major values.
    pub values: Vec<f64>,
}

/// Work counters in a run response (sorted by tensor name).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CounterPayload {
    /// Semiring operations.
    pub flops: u64,
    /// Output element stores.
    pub writes: u64,
    /// Innermost loop-body executions.
    pub iterations: u64,
    /// Element loads per tensor, sorted by name.
    pub reads: Vec<(String, u64)>,
}

/// The wire form of a run's counters: reads in sorted name order.
impl From<&Counters> for CounterPayload {
    fn from(counters: &Counters) -> CounterPayload {
        let mut reads: Vec<(String, u64)> =
            counters.reads.iter().map(|(name, n)| (name.clone(), *n)).collect();
        reads.sort();
        let Counters { flops, writes, iterations, .. } = *counters;
        CounterPayload { flops, writes, iterations, reads }
    }
}

impl CounterPayload {
    /// Sums another run's counters into these with the executor's one
    /// counter sum, [`Counters::merge`] (exact, integers); reads stay
    /// sorted by name.
    pub fn merge(&mut self, other: CounterPayload) {
        let counters = |CounterPayload { flops, writes, iterations, reads }| Counters {
            flops,
            writes,
            iterations,
            reads: reads.into_iter().collect(),
        };
        let mut sum = counters(std::mem::take(self));
        sum.merge(&counters(other));
        *self = CounterPayload::from(&sum);
    }
}

record! {
    /// Plan-cache statistics in a stats response.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub struct CachePayload {
        /// Lookups served from the cache.
        pub hits: u64
            => counter("systec_plan_cache_hits_total", "Plan-cache lookups served from cache."),
        /// Lookups that had to build.
        pub misses: u64
            => counter("systec_plan_cache_misses_total", "Plan-cache lookups that missed."),
        /// Build closures actually executed (single-flight: one per
        /// concurrently requested key).
        pub builds: u64
            => counter("systec_plan_cache_builds_total", "Plan builds actually executed."),
        /// Plans evicted by the LRU policy.
        pub evictions: u64
            => counter("systec_plan_cache_evictions_total", "Plans evicted by the LRU policy."),
        /// Single-flight lookups that blocked on another thread's build.
        pub waits: u64 => counter(
            "systec_plan_cache_waits_total",
            "Single-flight lookups that blocked on another thread's build.",
        ),
        /// Plans currently cached.
        pub entries: u64 => gauge("systec_plan_cache_entries", "Plans currently cached."),
    }
}

record! {
    /// Worker-pool statistics in a stats response (process-wide counters
    /// from the vendored pool; all monotonic except `workers`).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub struct PoolPayload {
        /// Worker threads spawned so far.
        pub workers: u64 => gauge("systec_pool_workers", "Worker threads spawned so far."),
        /// Tasks handed to the pool.
        pub submitted: u64
            => counter("systec_pool_submitted_total", "Tasks handed to the worker pool."),
        /// Tasks executed by worker threads.
        pub executed: u64
            => counter("systec_pool_executed_total", "Tasks executed by pool worker threads."),
        /// Tasks drained by the submitting thread while it waited (a
        /// chunk-imbalance signal: helpers pick up leftover work).
        pub helped: u64 => counter(
            "systec_pool_helped_total",
            "Tasks drained by the submitting thread (chunk-imbalance signal).",
        ),
        /// Times a worker parked waiting for work.
        pub parks: u64
            => counter("systec_pool_parks_total", "Times a worker parked waiting for work."),
        /// Times a parked worker was woken.
        pub wakeups: u64
            => counter("systec_pool_wakeups_total", "Times a parked worker was woken."),
    }
}

record! {
    /// One over-threshold run in a stats response.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SlowRunPayload {
        /// The kernel handle.
        pub kernel: u64,
        /// The run's latency in microseconds.
        pub us: u64,
    }
}

/// The per-verb request family. The `metrics` verb's own count stays
/// out of it so two scrapes of an idle server are byte-identical.
const REQUESTS: Metric = counter(
    "systec_requests_total",
    "Requests handled by verb; the metrics verb itself is excluded \
     so idle scrapes are byte-stable.",
);

record! {
    /// Request counts in a stats response.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub struct RequestCountsPayload {
        /// `register_tensor` requests handled.
        pub register_tensor: u64 => REQUESTS.with("verb", "register_tensor"),
        /// `prepare` requests handled.
        pub prepare: u64 => REQUESTS.with("verb", "prepare"),
        /// `run` requests handled.
        pub run: u64 => REQUESTS.with("verb", "run"),
        /// `stats` requests handled.
        pub stats: u64 => REQUESTS.with("verb", "stats"),
        /// `metrics` requests handled.
        pub metrics: u64,
        /// `ping` requests handled.
        pub ping: u64 => REQUESTS.with("verb", "ping"),
        /// `unregister` requests handled.
        pub unregister: u64 => REQUESTS.with("verb", "unregister"),
        /// Requests answered with an error (including parse failures).
        pub errors: u64 => REQUESTS.with("verb", "errors"),
    }
    /// The live request counters of one engine (incremented per handled
    /// request); [`RequestMetrics::snapshot`] is the `requests` section.
    live pub struct RequestMetrics;
}

/// The admission-control family, one series per refusal reason.
const ADMISSION: Metric =
    counter("systec_admission_rejects_total", "Requests refused by admission control, by reason.");

record! {
    /// Serving-engine statistics in a stats response: registry lifecycle,
    /// the scheduler queue, and admission control.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub struct ServePayload {
        /// Tensors currently registered.
        pub registry_tensors: u64
            => gauge("systec_registry_tensors", "Tensors currently registered."),
        /// Estimated bytes currently held by the registry.
        pub registry_bytes: u64
            => gauge("systec_registry_bytes", "Estimated bytes of live registered tensors."),
        /// Unpinned tensors evicted by the LRU policy (monotonic).
        pub registry_evictions: u64 => counter(
            "systec_registry_evictions_total",
            "Tensors LRU-evicted to admit new registrations.",
        ),
        /// Live (name, generation) pins held by prepared kernels.
        pub pinned: u64,
        /// Executions dispatched for `run` requests: one per request
        /// that reached the engine. The scheduler is a FIFO queue and
        /// shares no execution, so this always equals `batched_runs`;
        /// the pair outlives the coalescing tier only because the
        /// benchmark reads both by name (ROADMAP 9(a)).
        pub batch_dispatches: u64 => counter(
            "systec_serve_batch_dispatches_total",
            "Executions dispatched for run requests (exactly one per run).",
        ),
        /// `run` requests that reached the engine (see
        /// `batch_dispatches`).
        pub batched_runs: u64 => counter(
            "systec_serve_batch_runs_total",
            "Run requests dispatched (one execution each).",
        ),
        /// Requests currently queued in the scheduler.
        pub queued: u64
            => gauge("systec_serve_queue_depth", "Requests waiting in the scheduler queue."),
        /// Connections refused at accept (`max-conns`).
        pub rejected_conns: u64 => ADMISSION.with("reason", "max_conns"),
        /// Registrations refused by the bytes cap (`max-bytes`).
        pub rejected_bytes: u64 => ADMISSION.with("reason", "max_bytes"),
        /// Requests answered with `deadline_exceeded` before execution.
        pub deadline_exceeded: u64 => ADMISSION.with("reason", "deadline"),
        /// Runs refused with `stale_tensor` (pinned data re-registered).
        pub stale_runs: u64 => counter(
            "systec_serve_stale_runs_total",
            "Runs refused because a pinned tensor was re-registered.",
        ),
        /// Executor panics caught and converted into `internal_error`
        /// replies (monotonic). The process never aborts on these.
        pub panics_caught: u64 => counter(
            "systec_panics_caught_total",
            "Executor panics caught and answered with internal_error.",
        ),
        /// Kernel handles quarantined after a caught panic. Quarantined
        /// handles answer `kernel_quarantined` until re-`prepare`d.
        pub quarantined_kernels: u64 => gauge(
            "systec_quarantined_kernels",
            "Kernel handles quarantined after a caught panic.",
        ),
        /// Records appended to the write-ahead journal (monotonic; zero
        /// when the server runs without `--data-dir`).
        pub journal_records: u64 => counter(
            "systec_journal_records_total",
            "Records appended to the durability write-ahead journal.",
        ),
        /// Bytes appended to the write-ahead journal (monotonic).
        pub journal_bytes: u64 => counter(
            "systec_journal_bytes_total",
            "Bytes appended to the durability write-ahead journal.",
        ),
        /// fsync calls issued by the journal/snapshot writer (monotonic).
        pub journal_fsyncs: u64 => counter(
            "systec_journal_fsyncs_total",
            "fsyncs issued by the journal/snapshot writer.",
        ),
        /// Durable records replayed at the last startup recovery.
        pub recovery_replayed: u64 => counter(
            "systec_recovery_replayed_total",
            "Durable records replayed at startup recovery.",
        ),
        /// Torn-tail bytes truncated from the journal at the last recovery.
        pub recovery_truncated: u64 => counter(
            "systec_recovery_truncated_total",
            "Torn-tail bytes truncated from the journal at recovery.",
        ),
    }
    /// The live serving metrics of one engine — owned per engine (not in
    /// the global registry) so engines in the same process, e.g.
    /// parallel tests, never bleed into each other's scrapes. The engine,
    /// the scheduler and the transport record into these;
    /// [`ServeMetrics::snapshot`] is the `serve` section of `stats`.
    live pub struct ServeMetrics;
}

record! {
    /// Per-kernel statistics in a stats response.
    #[derive(Clone, Debug, PartialEq)]
    pub struct KernelStatPayload {
        /// The kernel handle.
        pub kernel: u64,
        /// The kernel's spec string (einsum + variant + symmetry).
        pub spec: String,
        /// Completed runs.
        pub runs: u64,
        /// Median run latency in microseconds, from the kernel's latency
        /// histogram (`None` before the first run).
        pub median_us: Option<f64>,
        /// 90th-percentile run latency in microseconds.
        pub p90_us: Option<f64>,
        /// 99th-percentile run latency in microseconds.
        pub p99_us: Option<f64>,
        /// Maximum observed run latency in microseconds.
        pub max_us: Option<f64>,
        /// Runs that exceeded the server's slow-run threshold.
        pub slow: u64,
    }
}

record! {
    /// Router-level request counts in a cluster-stats response (the
    /// router keeps one of these under its state lock and counts into
    /// it directly).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
    pub struct RouterCountsPayload {
        /// `register_tensor` requests routed.
        pub register_tensor: u64,
        /// `prepare` requests routed.
        pub prepare: u64,
        /// `run` requests routed.
        pub run: u64,
        /// Runs that fanned out as per-shard sub-ranges and were merged.
        pub sharded_runs: u64,
        /// Requests broadcast to every shard (replicated registrations and
        /// sharded prepares).
        pub fanouts: u64,
        /// Tensor registrations replicated to every shard.
        pub replicated: u64,
        /// Requests answered with an error (including `shard_unavailable`).
        pub errors: u64,
    }
}

record! {
    /// One shard's row in a cluster-stats response.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ShardStatPayload {
        /// Shard ordinal (fixed merge order).
        pub shard: u64,
        /// The worker's listen address.
        pub addr: String,
        /// Whether the router currently holds a live connection.
        pub healthy: bool,
        /// Virtual nodes this shard occupies on the hash ring.
        pub vnodes: u64,
        /// Hash-placed tensors currently owned by this shard.
        pub keys: u64,
        /// Requests forwarded to this shard.
        pub forwarded: u64,
        /// Forwarded requests that failed at the transport (connection
        /// refused, reset, or timed out).
        pub errors: u64,
    }
}

/// A server response.
///
/// `Stats` is much larger than the hot variants (`Ran`, `Error`), but
/// responses are built transiently — encoded to a line and dropped, one
/// per request, never collected — so the size skew costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `register_tensor` succeeded.
    Registered {
        /// The registered name.
        name: String,
        /// Stored nonzeros (dense: the element count).
        nnz: u64,
        /// The name's registration generation (0 for a first
        /// registration, +1 per re-registration — persists across
        /// unregister, so a kernel pinned to an old generation can
        /// always detect staleness).
        generation: u64,
    },
    /// `unregister` succeeded.
    Unregistered {
        /// The removed name.
        name: String,
        /// Whether the name was registered (`false` is still success:
        /// unregister is idempotent).
        existed: bool,
    },
    /// `prepare` succeeded.
    Prepared {
        /// The kernel handle for `run`.
        kernel: u64,
        /// Whether executions can dispatch worker threads.
        splittable: bool,
        /// Output name → cross-process merge rule, sorted by name.
        /// Present only for a `"sharded":true` prepare of a splittable
        /// plan.
        split: Option<Vec<(String, MergeRule)>>,
        /// A structured warning (currently only the serial fallback,
        /// when threads were requested on a non-splittable plan).
        warning: Option<Warning>,
    },
    /// `run` succeeded.
    Ran {
        /// Output tensors, sorted by name.
        outputs: Vec<OutputPayload>,
        /// Exact work counters.
        counters: CounterPayload,
    },
    /// `stats` payload.
    Stats {
        /// Plan-cache statistics.
        cache: CachePayload,
        /// Request counts.
        requests: RequestCountsPayload,
        /// Worker-pool statistics.
        pool: PoolPayload,
        /// Serving-engine statistics (registry, queue, admission).
        serve: ServePayload,
        /// Per-kernel statistics, sorted by handle.
        kernels: Vec<KernelStatPayload>,
        /// Most recent over-threshold runs, oldest first.
        slow: Vec<SlowRunPayload>,
    },
    /// `stats` payload from a router: cluster-wide health instead of a
    /// single worker's engine counters.
    ClusterStats {
        /// Router-level request counts.
        router: RouterCountsPayload,
        /// Per-shard health and traffic, sorted by shard ordinal.
        shards: Vec<ShardStatPayload>,
    },
    /// `metrics` payload.
    Metrics {
        /// Prometheus text exposition (format 0.0.4); multi-line, so
        /// it rides the wire as one JSON-escaped string.
        text: String,
    },
    /// `ping` reply.
    Pong,
    /// `shutdown` acknowledged; the server stops after this line.
    ShuttingDown,
    /// Any failure.
    Error {
        /// Machine-readable failure kind.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error { code, message: message.into() }
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

pub(crate) fn dims_json(dims: &[usize]) -> Json {
    Json::Arr(dims.iter().map(|&d| Json::num_usize(d)).collect())
}

/// Encodes one tensor value. JSON has no non-finite numbers, but served
/// outputs legitimately contain them (`min=` kernels report the
/// never-updated identity `inf`), so those encode as the strings
/// `"inf"`, `"-inf"`, `"nan"` and decode back exactly (all NaNs decode
/// to the canonical `f64::NAN`).
pub(crate) fn value_json(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Str(non_finite_name(v).into())
    }
}

/// The wire spelling of a non-finite value.
fn non_finite_name(v: f64) -> &'static str {
    if v.is_nan() {
        "nan"
    } else if v > 0.0 {
        "inf"
    } else {
        "-inf"
    }
}

/// The hot reply, written straight into the line: the bytes of the
/// [`Response::to_json`] tree, without a node per value.
fn encode_run(outputs: &[OutputPayload], counters: &CounterPayload) -> String {
    /// Room for a 17-digit value, its sign, point and comma.
    const BYTES_PER_VALUE: usize = 24;
    let values: usize = outputs.iter().map(|o| o.values.len()).sum();
    let heads = outputs.iter().map(|o| (o.name.as_str(), o.dims.as_slice(), o));
    write_run(256 + BYTES_PER_VALUE * values, heads, counters, |w, o| {
        w.list(&o.values, |w, &v| write_value(w, v));
    })
}

/// The one layout of the `run` reply: each output's name and dims,
/// its values as `values` writes them, then the counters.
fn write_run<'a, T>(
    capacity: usize,
    outputs: impl IntoIterator<Item = (&'a str, &'a [usize], T)>,
    counters: &CounterPayload,
    mut values: impl FnMut(&mut Writer, T),
) -> String {
    let mut w = Writer::with_capacity(capacity);
    w.raw(r#"{"ok":true,"reply":"run","outputs":{"#);
    w.list(outputs, |w, (name, dims, o)| {
        w.str(name).raw(r#":{"dims":["#);
        w.list(dims, |w, &d| {
            w.num(d as f64);
        });
        w.raw(r#"],"values":["#);
        values(w, o);
        w.raw("]}");
    });
    w.raw(r#"},"counters":{"flops":"#).num(counters.flops as f64);
    w.raw(r#","writes":"#).num(counters.writes as f64);
    w.raw(r#","iterations":"#).num(counters.iterations as f64);
    w.raw(r#","reads":{"#);
    w.list(&counters.reads, |w, (name, n)| {
        w.str(name).raw(":").num(*n as f64);
    });
    w.raw("}}}");
    w.finish()
}

/// One output value: a number, or a non-finite value's string.
fn write_value(w: &mut Writer, v: f64) {
    if v.is_finite() {
        w.num(v);
    } else {
        w.str(non_finite_name(v));
    }
}

/// How many cells of a merged `run` reply [`merge_run`] copied from one
/// leg's text, and how many it parsed, folded and printed again.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergedCells {
    /// Cells copied as text: a row-owned cell from its owner, and a
    /// reduced cell that every leg but at most one left at the identity.
    pub copied: u64,
    /// Cells folded through `f64`s.
    pub folded: u64,
}

/// One output of a leg's `run` reply, as [`merge_run`] reads it.
struct LegOutput {
    name: String,
    dims: Vec<usize>,
    /// Where each `values` element ends in the leg's line; it starts
    /// at `start`, or one comma past the one before.
    ends: Vec<usize>,
    start: usize,
}

impl LegOutput {
    /// The byte span of element `i`.
    fn cell(&self, i: usize) -> Range<usize> {
        (if i == 0 { self.start } else { self.ends[i - 1] + 1 })..self.ends[i]
    }
}

/// A leg's `run` reply read without a tree: its outputs' shapes, the
/// span of every value, and its counters. `None` for any line that is not
/// [`write_run`]'s layout with every value as the printer writes it.
fn read_run(line: &str) -> Option<(Vec<LegOutput>, CounterPayload)> {
    let mut r = Reader::new(line);
    let mut outputs = Vec::new();
    r.raw(r#"{"ok":true,"reply":"run","outputs":{"#)?;
    r.list(b'}', |r| {
        let name = r.str()?;
        r.raw(r#":{"dims":["#)?;
        let mut dims = Vec::new();
        r.list(b']', |r| {
            dims.push(usize::try_from(exact_u64(r.num()?)?).ok()?);
            Some(())
        })?;
        r.raw(r#"],"values":["#)?;
        let start = r.pos();
        // No printed value holds a `]`, and each takes a byte and a comma.
        let most = line[start..].find(']').map_or(0, |len| len / 2 + 1);
        let mut ends = Vec::with_capacity(most);
        r.list(b']', |r| {
            r.printed()?;
            ends.push(r.pos());
            Some(())
        })?;
        outputs.push(LegOutput { name, dims, ends, start });
        r.raw("]}")
    })?;
    let int = |r: &mut Reader| exact_u64(r.num()?);
    r.raw(r#"},"counters":{"flops":"#)?;
    let flops = int(&mut r)?;
    r.raw(r#","writes":"#)?;
    let writes = int(&mut r)?;
    r.raw(r#","iterations":"#)?;
    let iterations = int(&mut r)?;
    r.raw(r#","reads":{"#)?;
    let mut reads = Vec::new();
    r.list(b'}', |r| {
        let name = r.str()?;
        r.raw(":")?;
        reads.push((name, int(r)?));
        Some(())
    })?;
    r.raw("}}}")?;
    r.at_end().then_some((outputs, CounterPayload { flops, writes, iterations, reads }))
}

/// Merges the replies of a sharded `run`'s legs, one per shard in shard
/// order, into the reply of one process that ran the same row windows
/// in that order — as text, without a tree or an `f64` buffer.
///
/// Each leg is read in [`write_run`]'s layout, every value checked
/// against the printer's grammar; a leg that is not is malformed. A
/// leg that answers an error is relayed verbatim, the first in shard
/// order. Names, dims and value counts must agree with leg 0's and every
/// output needs a rule in `merge` (with one leg, none is read), or the
/// reply is an `internal_error`; counters sum with
/// [`CounterPayload::merge`]. The reply is written through the same
/// [`write_run`] as [`Response::encode`]:
///
/// * a `rows` cell is copied from the leg whose [`chunk_window`] of
///   leading rows holds it (leg 0 keeps what no later window covers,
///   as [`MergeKind::merge_into`] seeds it);
/// * an `add`, `min` or `max` cell whose text is the identity (`0`,
///   `"inf"`, `"-inf"`) on every leg but at most one, and that one's
///   text is not `-0` or `"nan"`, is that one's text (or the identity);
/// * any other cell is read from every leg, folded in shard order with
///   [`AssignOp::apply`] — [`MergeKind::merge_into`]'s fold — and
///   printed again.
///
/// So the bytes are those of decoding every leg, merging with
/// [`MergeKind::merge_into`] and encoding the result. Folding with the
/// identity returns the other operand bit for bit, except `0 + -0` and
/// a `min` or `max` against a NaN, which take the fold. And the
/// shortest printer's output is a fixed point of print ∘ parse, so a
/// copied cell holds the bytes the printer would write again. That
/// rests on every leg having been printed by [`crate::shortest`], as
/// every worker's is; the grammar refuses what it can see is not.
pub fn merge_run(legs: &[String], merge: &[(String, MergeRule)]) -> (String, MergedCells) {
    let internal = |message: String| {
        (Response::error(ErrorCode::Internal, message).encode(), MergedCells::default())
    };
    let mut read = Vec::with_capacity(legs.len());
    for (k, line) in legs.iter().enumerate() {
        let Some(leg) = read_run(line) else {
            // A failed leg answers for the whole run: the first failing
            // shard's structured error relays verbatim, so a panic on
            // one shard is still a retryable error at the front.
            return match Response::decode(line) {
                Ok(Response::Error { .. }) => (line.clone(), MergedCells::default()),
                _ => internal(format!(
                    "shard {k} answered a row-range run with a malformed or wrong-kind reply"
                )),
            };
        };
        read.push(leg);
    }
    let rules = match merge_rules(&read, merge) {
        Ok(rules) => rules,
        Err(message) => return internal(message),
    };
    let (outputs, counters): (Vec<_>, Vec<_>) = read.into_iter().unzip();
    let mut counters = counters.into_iter();
    let mut sum = counters.next().expect("merge_rules refuses no legs");
    for leg in counters {
        // A leg only reports tensors its row window touched; the sum
        // keeps the union sorted by name, as the single process does.
        sum.merge(leg);
    }
    let mut tally = MergedCells::default();
    let heads = outputs[0].iter().zip(rules).enumerate();
    let heads = heads.map(|(at, (o, rule))| (o.name.as_str(), &o.dims[..], (at, rule)));
    let merged = write_run(legs.iter().map(String::len).sum(), heads, &sum, |w, (at, rule)| {
        let cells: Vec<(&str, &LegOutput)> =
            legs.iter().zip(&outputs).map(|(line, leg)| (line.as_str(), &leg[at])).collect();
        merge_values(w, &cells, rule.kind(), &mut tally);
    });
    (merged, tally)
}

/// Writes one output's merged values from its text in every leg (a
/// line and that output in it), by [`merge_run`]'s rules.
fn merge_values(
    w: &mut Writer,
    legs: &[(&str, &LegOutput)],
    kind: MergeKind,
    tally: &mut MergedCells,
) {
    let (n, (_, first)) = (legs.len(), legs[0]);
    let (count, dims) = (first.ends.len(), &first.dims);
    let identity = match kind {
        MergeKind::Reduce(op) => {
            let mut identity = Writer::with_capacity(8);
            write_value(&mut identity, op.identity().expect("a merge rule's fold has one"));
            identity.finish()
        }
        MergeKind::Rows => String::new(),
    };
    let extent = dims.first().copied().unwrap_or(1).max(1);
    let stride = count / extent;
    let mut owner = 0;
    w.list(0..count, |w, i| {
        let text = |k: usize| {
            let (line, leg) = legs[k];
            &line[leg.cell(i)]
        };
        // The leg whose text is the merged cell's.
        let from = match kind {
            MergeKind::Rows => {
                let row = i.checked_div(stride).unwrap_or(extent);
                while owner + 1 < n && row >= chunk_window(extent, owner, n).end {
                    owner += 1;
                }
                // Cells past the last whole row stay leg 0's, as
                // `merge_into` seeds them.
                if row < extent {
                    owner
                } else {
                    0
                }
            }
            MergeKind::Reduce(op) => {
                let mut written = (0..n).filter(|&k| text(k) != identity);
                match (written.next(), written.next()) {
                    (None, _) => 0,
                    (Some(k), None) if text(k) != "-0" && text(k) != "\"nan\"" => k,
                    _ => {
                        let cells = (0..n).map(|k| printed_value(text(k)));
                        let folded = cells.reduce(|acc, v| op.apply(acc, v));
                        write_value(w, folded.expect("at least one leg"));
                        tally.folded += 1;
                        return;
                    }
                }
            }
        };
        w.raw(text(from));
        tally.copied += 1;
    });
}

/// Each output's merge rule, checked against leg 0 leg by leg in shard
/// order: the output count, then output by output its name, dims and
/// value count, then its rule. With one leg no rule is read: it owns
/// every row.
fn merge_rules(
    legs: &[(Vec<LegOutput>, CounterPayload)],
    merge: &[(String, MergeRule)],
) -> Result<Vec<MergeRule>, String> {
    let ((first, _), rest) = legs.split_first().ok_or("a fan-out needs at least one leg")?;
    let mut rules = vec![MergeRule::Rows; first.len()];
    for (k, (outputs, _)) in rest.iter().enumerate() {
        let k = k + 1; // leg 0 is the seed
        if outputs.len() != first.len() {
            return Err(format!("shard {k} returned a different output set than shard 0"));
        }
        for ((o, seed), rule) in outputs.iter().zip(first).zip(&mut rules) {
            if o.name != seed.name || o.dims != seed.dims || o.ends.len() != seed.ends.len() {
                return Err(format!(
                    "shard {k} returned a mismatched shape for output `{}`",
                    seed.name
                ));
            }
            *rule = merge
                .iter()
                .find(|(name, _)| *name == seed.name)
                .map(|(_, rule)| *rule)
                .ok_or_else(|| format!("no merge rule for output `{}`", seed.name))?;
        }
    }
    Ok(rules)
}

pub(crate) fn value_from_json(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        Json::Str(s) => match s.as_str() {
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            "nan" => Some(f64::NAN),
            _ => None,
        },
        _ => None,
    }
}

pub(crate) fn values_json(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| value_json(v)).collect())
}

/// The `dense`-xor-`coo` field a `register_tensor` request and a durable
/// `register` record both carry.
impl TensorPayload {
    /// The fields the payload may sit in: a line decodes them as
    /// [`Cells`] when they are cell-shaped.
    pub(crate) const KEYS: &'static [&'static str] = &["dense", "coo"];

    pub(crate) fn to_json(&self) -> (&'static str, Json) {
        match self {
            TensorPayload::Dense(values) => ("dense", values_json(values)),
            TensorPayload::Coo(coo) => {
                let entry = |(coords, v): (&[usize], f64)| {
                    let mut item: Vec<Json> = coords.iter().map(|&c| Json::num_usize(c)).collect();
                    item.push(value_json(v));
                    Json::Arr(item)
                };
                ("coo", Json::Arr(coo.iter().map(entry).collect()))
            }
        }
    }

    /// Reads the field off an object describing a rank-`rank` tensor:
    /// from `cells` where [`Document::parse`] read it there, else from
    /// `json`. Either way a field decodes to the same payload or fails
    /// with the same message.
    pub(crate) fn read(
        json: &Json,
        cells: &mut Vec<(&'static str, Cells)>,
        rank: usize,
    ) -> Result<TensorPayload, ProtoError> {
        // `Ok`: the field was read as cells; `Err`: it is a tree node.
        let mut field = |key: &str| match cells.iter().position(|(k, _)| *k == key) {
            Some(at) => Some(Ok(cells.swap_remove(at).1)),
            None => json.get(key).map(Err),
        };
        match (field("dense"), field("coo")) {
            (Some(Ok(Cells { width: None, values })), None) => Ok(TensorPayload::Dense(values)),
            (Some(Ok(_)), None) => Err(ProtoError::new("`dense` must hold numeric values")),
            (Some(Err(d)), None) => Ok(TensorPayload::Dense(f64_array(d, "dense")?)),
            (None, Some(c)) => {
                let entry_shape = || {
                    ProtoError::new(format!(
                        "each `coo` entry must be an array of {rank} coordinates + a value"
                    ))
                };
                let mut coo = CooEntries::default();
                match c {
                    Ok(Cells { values, .. }) if values.is_empty() => {}
                    Ok(Cells { width, values }) if width == Some(rank + 1) => {
                        coo.coords.reserve_exact(values.len() / (rank + 1) * rank);
                        coo.vals.reserve_exact(values.len() / (rank + 1));
                        for row in values.chunks_exact(rank + 1) {
                            coo.push_row(row, |&v| Some(v))?;
                        }
                    }
                    Ok(_) => return Err(entry_shape()),
                    Err(rows) => {
                        let rows = rows
                            .as_arr()
                            .ok_or_else(|| ProtoError::new("`coo` must be an array"))?;
                        for row in rows {
                            let row = row.as_arr().filter(|cells| cells.len() == rank + 1);
                            coo.push_row(row.ok_or_else(entry_shape)?, value_from_json)?;
                        }
                    }
                }
                Ok(TensorPayload::Coo(coo))
            }
            _ => Err(ProtoError::new("register_tensor needs exactly one of `dense` or `coo`")),
        }
    }
}

impl CooEntries {
    /// Appends one `[c0, …, ck, value]` row whose cells `number` reads:
    /// the coordinates must be exact non-negative integers, checked
    /// left to right before the value.
    fn push_row<T>(
        &mut self,
        row: &[T],
        number: impl Fn(&T) -> Option<f64>,
    ) -> Result<(), ProtoError> {
        let (value, coords) = row.split_last().expect("a row holds its value");
        for c in coords {
            let c = number(c).and_then(exact_u64).and_then(|c| usize::try_from(c).ok());
            let bad = "`coo` coordinates must be non-negative integers";
            self.coords.push(c.ok_or_else(|| ProtoError::new(bad))?);
        }
        let v = number(value).ok_or_else(|| ProtoError::new("`coo` values must be numbers"))?;
        self.vals.push(v);
        Ok(())
    }
}

impl Request {
    /// Serializes to one line (no trailing newline).
    pub fn encode(&self) -> String {
        let obj = match self {
            Request::RegisterTensor { name, dims, payload, format, placement } => {
                let (key, data) = payload.to_json();
                Obj::op("register_tensor")
                    .with("name", name)
                    .raw("dims", dims_json(dims))
                    .raw(key, data)
                    .unless_default("format", format)
                    .unless_default("placement", placement)
            }
            Request::Unregister { name } => Obj::op("unregister").with("name", name),
            Request::Prepare { einsum, sym, inputs, variant, threads, sharded } => {
                Obj::op("prepare")
                    .with("einsum", einsum)
                    .unless_default("sym", sym)
                    .unless_default("inputs", inputs)
                    .unless_default("variant", variant)
                    .with("threads", threads)
                    .unless_default("sharded", sharded)
            }
            Request::Run { kernel, full, shard } => Obj::op("run")
                .with("kernel", kernel)
                .unless_default("full", full)
                .with("shard", shard),
            Request::Stats => Obj::op("stats"),
            Request::Metrics => Obj::op("metrics"),
            Request::Ping => Obj::op("ping"),
            Request::Shutdown => Obj::op("shutdown"),
        };
        obj.json().to_string()
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] describing the malformation; never
    /// panics, whatever the input.
    pub fn decode(line: &str) -> Result<Request, ProtoError> {
        let Document { tree, mut cells } = Document::parse(line, TensorPayload::KEYS)
            .map_err(|e| ProtoError::new(e.to_string()))?;
        Request::read(&tree, &mut cells)
    }

    /// Decodes a request already parsed into a tree: the same request,
    /// or the same error, as [`Request::decode`] of its line.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] describing the malformation.
    pub fn from_json(json: &Json) -> Result<Request, ProtoError> {
        Request::read(json, &mut Vec::new())
    }

    fn read(json: &Json, cells: &mut Vec<(&'static str, Cells)>) -> Result<Request, ProtoError> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::new("request object needs a string `op` field"))?;
        match op {
            "register_tensor" => {
                let name = require_str(json, "name")?;
                let dims = usize_array(json, "dims")?;
                let payload = TensorPayload::read(json, cells, dims.len())?;
                let format = opt(json, "format")?.unwrap_or_default();
                let placement = opt(json, "placement")?.unwrap_or_default();
                Ok(Request::RegisterTensor { name, dims, payload, format, placement })
            }
            "unregister" => Ok(Request::Unregister { name: require_str(json, "name")? }),
            "prepare" => Ok(Request::Prepare {
                einsum: require_str(json, "einsum")?,
                sym: opt(json, "sym")?.unwrap_or_default(),
                inputs: opt(json, "inputs")?.unwrap_or_default(),
                variant: opt(json, "variant")?.unwrap_or_default(),
                threads: opt(json, "threads")?,
                sharded: opt(json, "sharded")?.unwrap_or_default(),
            }),
            "run" => {
                let kernel =
                    need(json, "kernel", || "run needs an integer `kernel` handle".into())?;
                let full = opt(json, "full")?.unwrap_or_default();
                let shard: Option<(u64, u64)> = opt(json, "shard")?;
                if let Some((k, n)) = shard.filter(|(k, n)| k >= n) {
                    return Err(ProtoError::new(format!(
                        "`shard` ordinal {k} of {n} is out of range"
                    )));
                }
                Ok(Request::Run { kernel, full, shard })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError::new(format!("unknown op `{other}`"))),
        }
    }
}

fn require_str(json: &Json, field: &str) -> Result<String, ProtoError> {
    need(json, field, || format!("missing string field `{field}`"))
}

pub(crate) fn usize_array(json: &Json, field: &str) -> Result<Vec<usize>, ProtoError> {
    json.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::new(format!("missing array field `{field}`")))?
        .iter()
        .map(|d| {
            d.as_usize().ok_or_else(|| {
                ProtoError::new(format!("`{field}` must hold non-negative integers"))
            })
        })
        .collect()
}

pub(crate) fn f64_array(v: &Json, field: &str) -> Result<Vec<f64>, ProtoError> {
    v.as_arr()
        .ok_or_else(|| ProtoError::new(format!("`{field}` must be an array of numbers")))?
        .iter()
        .map(|x| {
            value_from_json(x)
                .ok_or_else(|| ProtoError::new(format!("`{field}` must hold numeric values")))
        })
        .collect()
}

impl Response {
    /// Serializes to one line (no trailing newline). Field order is
    /// fixed and maps are pre-sorted by the engine, so equal payloads
    /// encode byte-identically. The `run` reply is written straight
    /// into the line; every other reply prints its [`Response::to_json`]
    /// tree.
    pub fn encode(&self) -> String {
        match self {
            Response::Ran { outputs, counters } => encode_run(outputs, counters),
            other => other.to_json().to_string(),
        }
    }

    /// The reply as a `Json` tree, which prints to exactly the bytes of
    /// [`Response::encode`]: for the `run` reply this is the
    /// differential oracle of the direct writer.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Registered { name, nnz, generation } => Obj::reply("registered")
                .with("name", name)
                .with("nnz", nnz)
                .with("generation", generation)
                .json(),
            Response::Unregistered { name, existed } => {
                Obj::reply("unregistered").with("name", name).with("existed", existed).json()
            }
            Response::Prepared { kernel, splittable, split, warning } => Obj::reply("prepared")
                .with("kernel", kernel)
                .with("splittable", splittable)
                .with("split", split)
                .with("warning", warning)
                .json(),
            Response::Ran { outputs, counters } => Json::obj([
                ("ok", Json::Bool(true)),
                ("reply", Json::Str("run".into())),
                (
                    "outputs",
                    Json::Obj(
                        outputs
                            .iter()
                            .map(|o| {
                                (
                                    o.name.clone(),
                                    Json::obj([
                                        ("dims", dims_json(&o.dims)),
                                        ("values", values_json(&o.values)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
                (
                    "counters",
                    Json::obj([
                        ("flops", Json::num_u64(counters.flops)),
                        ("writes", Json::num_u64(counters.writes)),
                        ("iterations", Json::num_u64(counters.iterations)),
                        (
                            "reads",
                            Json::Obj(
                                counters
                                    .reads
                                    .iter()
                                    .map(|(name, n)| (name.clone(), Json::num_u64(*n)))
                                    .collect(),
                            ),
                        ),
                    ]),
                ),
            ]),
            Response::Stats { cache, requests, pool, serve, kernels, slow } => Obj::reply("stats")
                .with("cache", cache)
                .with("requests", requests)
                .with("pool", pool)
                .with("serve", serve)
                .with("kernels", kernels)
                .with("slow", slow)
                .json(),
            Response::ClusterStats { router, shards } => {
                Obj::reply("cluster_stats").with("router", router).with("shards", shards).json()
            }
            Response::Metrics { text } => Obj::reply("metrics").with("text", text).json(),
            Response::Pong => Obj::reply("pong").json(),
            Response::ShuttingDown => Obj::reply("shutting_down").json(),
            Response::Error { code, message } => {
                Obj::default().with("ok", &false).with("code", code).with("error", message).json()
            }
        }
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] describing the malformation; never
    /// panics, whatever the input.
    pub fn decode(line: &str) -> Result<Response, ProtoError> {
        let json = Json::parse(line).map_err(|e| ProtoError::new(e.to_string()))?;
        let ok: bool = need(&json, "ok", || "response object needs a boolean `ok` field".into())?;
        if !ok {
            return Ok(Response::Error {
                code: Field::take(&json, "code", "error response")?,
                message: Field::take(&json, "error", "error response")?,
            });
        }
        let reply = json
            .get("reply")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::new("ok response needs a `reply` tag"))?;
        match reply {
            "registered" => Ok(Response::Registered {
                name: Field::take(&json, "name", "registered reply")?,
                nnz: Field::take(&json, "nnz", "registered reply")?,
                generation: Field::take(&json, "generation", "registered reply")?,
            }),
            "unregistered" => Ok(Response::Unregistered {
                name: Field::take(&json, "name", "unregistered reply")?,
                existed: Field::take(&json, "existed", "unregistered reply")?,
            }),
            "prepared" => Ok(Response::Prepared {
                kernel: Field::take(&json, "kernel", "prepared reply")?,
                splittable: Field::take(&json, "splittable", "prepared reply")?,
                split: Field::take(&json, "split", "prepared reply")?,
                warning: Field::take(&json, "warning", "prepared reply")?,
            }),
            "run" => {
                let outputs = json
                    .get("outputs")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| ProtoError::new("run reply needs an `outputs` object"))?
                    .iter()
                    .map(|(name, o)| {
                        Ok(OutputPayload {
                            name: name.clone(),
                            dims: usize_array(o, "dims")?,
                            values: o
                                .get("values")
                                .map(|v| f64_array(v, "values"))
                                .transpose()?
                                .ok_or_else(|| ProtoError::new("output needs `values`"))?,
                        })
                    })
                    .collect::<Result<Vec<OutputPayload>, ProtoError>>()?;
                let c = json
                    .get("counters")
                    .ok_or_else(|| ProtoError::new("run reply needs `counters`"))?;
                let counters = CounterPayload {
                    flops: Field::take(c, "flops", "counters")?,
                    writes: Field::take(c, "writes", "counters")?,
                    iterations: Field::take(c, "iterations", "counters")?,
                    reads: c
                        .get("reads")
                        .and_then(Json::as_obj)
                        .ok_or_else(|| ProtoError::new("counters need a `reads` object"))?
                        .iter()
                        .map(|(name, n)| {
                            n.as_u64()
                                .map(|n| (name.clone(), n))
                                .ok_or_else(|| ProtoError::new("`reads` values must be integers"))
                        })
                        .collect::<Result<Vec<(String, u64)>, ProtoError>>()?,
                };
                Ok(Response::Ran { outputs, counters })
            }
            "stats" => Ok(Response::Stats {
                cache: Field::take(&json, "cache", "stats reply")?,
                requests: Field::take(&json, "requests", "stats reply")?,
                pool: Field::take(&json, "pool", "stats reply")?,
                serve: Field::take(&json, "serve", "stats reply")?,
                kernels: Field::take(&json, "kernels", "stats reply")?,
                slow: Field::take(&json, "slow", "stats reply")?,
            }),
            "cluster_stats" => Ok(Response::ClusterStats {
                router: Field::take(&json, "router", "cluster_stats reply")?,
                shards: Field::take(&json, "shards", "cluster_stats reply")?,
            }),
            "metrics" => {
                Ok(Response::Metrics { text: Field::take(&json, "text", "metrics reply")? })
            }
            "pong" => Ok(Response::Pong),
            "shutting_down" => Ok(Response::ShuttingDown),
            other => Err(ProtoError::new(format!("unknown reply tag `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{FieldSpec, Record};

    /// A record whose k-th declared field holds `base + k`: every field
    /// distinct, whatever the declaration grows to.
    fn numbered<R: Record>(base: u64) -> R {
        let values = R::FIELDS.iter().zip(base..);
        let pairs = values.map(|(f, v)| (f.name.to_string(), Json::num_u64(v))).collect();
        R::from_json(&Json::Obj(pairs), "record").expect("an integer per declared field")
    }

    #[test]
    fn request_encodings_roundtrip() {
        let reqs = [
            Request::RegisterTensor {
                name: "A".into(),
                dims: vec![4, 4],
                payload: TensorPayload::Coo(
                    [(vec![0, 1], 2.5), (vec![1, 0], 2.5)].into_iter().collect(),
                ),
                format: StorageFormat::Auto,
                placement: Placement::Hash,
            },
            Request::RegisterTensor {
                name: "weird \"name\"\n".into(),
                dims: vec![3],
                payload: TensorPayload::Dense(vec![1.0, -0.5, 3.25]),
                format: StorageFormat::Csf,
                placement: Placement::Replicate,
            },
            Request::Prepare {
                einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
                sym: vec!["A".into()],
                inputs: vec![("A".into(), "big".into()), ("x".into(), "vec".into())],
                variant: Variant::Naive,
                threads: Some(4),
                sharded: false,
            },
            Request::Prepare {
                einsum: "for i: y[i] = x[i]".into(),
                sym: vec![],
                inputs: vec![],
                variant: Variant::Systec,
                threads: None,
                sharded: true,
            },
            Request::Prepare {
                einsum: "for i: y[i] = x[i]".into(),
                sym: vec![],
                inputs: vec![],
                variant: Variant::Systec,
                // An explicit 1 is encoded (it FORCES serial; absence
                // inherits the server default).
                threads: Some(1),
                sharded: false,
            },
            Request::Unregister { name: "big_matrix".into() },
            Request::Unregister { name: "weird \"name\"\n".into() },
            Request::Run { kernel: 3, full: true, shard: None },
            Request::Run { kernel: 0, full: false, shard: None },
            Request::Run { kernel: 5, full: false, shard: Some((0, 3)) },
            Request::Run { kernel: 5, full: false, shard: Some((2, 3)) },
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.encode();
            assert!(!line.contains('\n'), "one request per line: {line}");
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn response_encodings_roundtrip() {
        let resps = [
            Response::Registered { name: "A".into(), nnz: 12, generation: 0 },
            Response::Registered { name: "A".into(), nnz: 9, generation: 3 },
            Response::Unregistered { name: "A".into(), existed: true },
            Response::Unregistered { name: "gone".into(), existed: false },
            Response::Prepared { kernel: 7, splittable: true, split: None, warning: None },
            Response::Prepared {
                kernel: 0,
                splittable: false,
                split: None,
                warning: Some(Warning {
                    kind: WarningKind::SerialFallback,
                    message: "running serially".into(),
                }),
            },
            Response::Prepared {
                kernel: 2,
                splittable: true,
                split: Some(vec![
                    ("s".into(), MergeRule::Add),
                    ("y".into(), MergeRule::Rows),
                    ("z".into(), MergeRule::Min),
                ]),
                warning: None,
            },
            Response::Ran {
                outputs: vec![OutputPayload {
                    name: "y".into(),
                    dims: vec![2],
                    values: vec![1.5, -0.25],
                }],
                counters: CounterPayload {
                    flops: 10,
                    writes: 2,
                    iterations: 5,
                    reads: vec![("A".into(), 4), ("x".into(), 4)],
                },
            },
            Response::Stats {
                cache: numbered(1),
                requests: numbered(10),
                pool: numbered(20),
                serve: numbered(30),
                kernels: vec![
                    KernelStatPayload {
                        kernel: 0,
                        spec: "systec::for i: y[i] = x[i]".into(),
                        runs: 30,
                        median_us: Some(12.5),
                        p90_us: Some(15.75),
                        p99_us: Some(31.0),
                        max_us: Some(40.25),
                        slow: 1,
                    },
                    KernelStatPayload {
                        kernel: 1,
                        spec: "naive::for i: y[i] = x[i]".into(),
                        runs: 0,
                        median_us: None,
                        p90_us: None,
                        p99_us: None,
                        max_us: None,
                        slow: 0,
                    },
                ],
                slow: vec![SlowRunPayload { kernel: 0, us: 40 }],
            },
            Response::ClusterStats {
                router: numbered(50),
                shards: vec![
                    ShardStatPayload {
                        shard: 0,
                        addr: "127.0.0.1:4101".into(),
                        healthy: true,
                        vnodes: 64,
                        keys: 3,
                        forwarded: 25,
                        errors: 0,
                    },
                    ShardStatPayload {
                        shard: 1,
                        addr: "127.0.0.1:4102".into(),
                        healthy: false,
                        vnodes: 64,
                        keys: 1,
                        forwarded: 21,
                        errors: 1,
                    },
                ],
            },
            Response::Metrics {
                text: "# HELP systec_runs_total Completed runs.\n\
                       # TYPE systec_runs_total counter\n\
                       systec_runs_total 30\n"
                    .into(),
            },
            Response::Pong,
            Response::ShuttingDown,
            Response::error(ErrorCode::Parse, "broken"),
        ];
        for resp in resps {
            let line = resp.encode();
            assert!(!line.contains('\n'), "one response per line: {line}");
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn non_finite_output_values_roundtrip() {
        // min= kernels legitimately report the identity `inf` for rows
        // the data never touches.
        let resp = Response::Ran {
            outputs: vec![OutputPayload {
                name: "y".into(),
                dims: vec![3],
                values: vec![f64::INFINITY, -1.5, f64::NEG_INFINITY],
            }],
            counters: CounterPayload::default(),
        };
        let line = resp.encode();
        assert!(line.contains(r#""inf""#), "{line}");
        assert_eq!(Response::decode(&line).unwrap(), resp);
        // NaN decodes to the canonical NaN (NaN != NaN, so compare bits).
        let resp = Response::Ran {
            outputs: vec![OutputPayload {
                name: "y".into(),
                dims: vec![1],
                values: vec![f64::NAN],
            }],
            counters: CounterPayload::default(),
        };
        let Response::Ran { outputs, .. } = Response::decode(&resp.encode()).unwrap() else {
            panic!("run reply expected")
        };
        assert_eq!(outputs[0].values[0].to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn malformed_requests_error_without_panicking() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"run"}"#,
            r#"{"op":"run","kernel":-1}"#,
            r#"{"op":"run","kernel":1.5}"#,
            r#"{"op":"register_tensor","name":"A","dims":[2]}"#,
            r#"{"op":"register_tensor","name":"A","dims":[2],"dense":[1],"coo":[]}"#,
            r#"{"op":"register_tensor","name":"A","dims":[2,2],"coo":[[0,1]]}"#,
            r#"{"op":"register_tensor","name":"A","dims":[2],"dense":["x"]}"#,
            r#"{"op":"unregister"}"#,
            r#"{"op":"unregister","name":7}"#,
            r#"{"op":"prepare"}"#,
            r#"{"op":"prepare","einsum":"e","sym":"A"}"#,
            r#"{"op":"prepare","einsum":"e","variant":"fast"}"#,
            r#"{"op":"prepare","einsum":"e","threads":-2}"#,
            r#"{"op":"prepare","einsum":"e","sharded":"yes"}"#,
            r#"{"op":"register_tensor","name":"A","dims":[2],"dense":[1,2],"placement":"mirror"}"#,
            r#"{"op":"run","kernel":1,"shard":[0]}"#,
            r#"{"op":"run","kernel":1,"shard":[0,1,2]}"#,
            r#"{"op":"run","kernel":1,"shard":[2,2]}"#,
            r#"{"op":"run","kernel":1,"shard":[0,0]}"#,
            r#"{"op":"run","kernel":1,"shard":[-1,2]}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "`{bad}` must not decode");
        }
    }

    #[test]
    fn wire_enums_roundtrip_every_variant_and_reject_strangers() {
        macro_rules! check {
            ($($e:ident),+) => {$(
                for &v in $e::ALL {
                    // A variant with no spelling (the omitted default)
                    // parses from nothing, not from "".
                    let want = (!v.as_str().is_empty()).then_some(v);
                    assert_eq!($e::parse(v.as_str()), want, "{v:?}");
                }
                assert_eq!($e::parse("nope"), None);
            )+};
        }
        check!(ErrorCode, MergeRule, WarningKind, Variant, StorageFormat, Placement);
        assert_eq!(ErrorCode::ALL.len(), 12);
        assert_eq!(ErrorCode::parse("internal"), None, "renamed wire code");
        assert_eq!(MergeRule::parse("overwrite"), None, "not a mergeable reduction");
        assert_eq!(StorageFormat::parse("auto"), None, "auto is spelled by omission");
    }

    #[test]
    fn merge_rules_map_onto_the_compiler_classification_and_back() {
        assert_eq!(MergeRule::of(MergeKind::Rows), Some(MergeRule::Rows));
        assert_eq!(MergeRule::Rows.kind(), MergeKind::Rows);
        for (rule, op) in [
            (MergeRule::Add, AssignOp::Add),
            (MergeRule::Min, AssignOp::Min),
            (MergeRule::Max, AssignOp::Max),
        ] {
            assert_eq!(MergeRule::of(MergeKind::Reduce(op)), Some(rule));
            assert_eq!(rule.kind(), MergeKind::Reduce(op));
        }
        assert_eq!(MergeRule::of(MergeKind::Reduce(AssignOp::Overwrite)), None);
    }

    #[test]
    fn records_list_their_fields_in_wire_order() {
        let names = |fields: &[FieldSpec]| -> Vec<&str> { fields.iter().map(|f| f.name).collect() };
        assert_eq!(
            names(CachePayload::FIELDS),
            ["hits", "misses", "builds", "evictions", "waits", "entries"]
        );
        assert_eq!(ServePayload::FIELDS.len(), 18);
        assert_eq!(RouterCountsPayload::FIELDS.len(), 7);
        // The wire object and the declaration agree key for key.
        let Json::Obj(pairs) = Record::to_json(&ServePayload::default()) else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, names(ServePayload::FIELDS));
        // `metrics` is the one request count kept out of the exposition.
        let silent: Vec<FieldSpec> =
            RequestCountsPayload::FIELDS.iter().filter(|f| f.metric.is_none()).copied().collect();
        assert_eq!(names(&silent), ["metrics"]);
    }

    #[test]
    fn retryable_codes_match_the_documented_policy() {
        for (code, retry) in [
            (ErrorCode::DeadlineExceeded, true),
            (ErrorCode::AdmissionRejected, true),
            (ErrorCode::Internal, true),
            (ErrorCode::ShardUnavailable, true),
            (ErrorCode::KernelQuarantined, false),
            (ErrorCode::Parse, false),
            (ErrorCode::StaleTensor, false),
            (ErrorCode::UnknownKernel, false),
        ] {
            assert_eq!(code.retryable(), retry, "{code}");
        }
    }
}
