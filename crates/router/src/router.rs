//! The cluster front process: one TCP endpoint speaking the exact
//! line protocol of a single `systec-serve` worker, fanning work out
//! across N workers ("shards"). Exact down to the transport: the front
//! *is* the worker's event loop with the router behind its `Service`
//! seam — one framing, line cap, admission and shutdown drain — and
//! the shard legs are plain `Client`s.
//!
//! ## Placement
//!
//! * `register_tensor` with the default `"placement":"hash"` is
//!   forwarded verbatim to the shard owning the name on the
//!   [`HashRing`] (hash tags `{tag}` co-locate related names);
//!   `"placement":"replicate"` broadcasts the registration to every
//!   shard so row-range sharded kernels can read it anywhere.
//! * `prepare` routes to the shard owning its referenced tensors, and
//!   the kernel handle in the reply is rewritten into the router's own
//!   arrival-ordered handle space — shards mint handles independently,
//!   so shard-local handles would collide at the front.
//!   `"sharded":true` broadcasts the prepare to every shard and
//!   records the advertised merge schedule.
//! * `run` on a shard-prepared kernel fans out one row-range
//!   sub-request per shard (`"shard":[k,n]`), pipelined — all requests
//!   written before any response is read — then merges the partials in
//!   fixed shard order, as text (`protocol::merge_run`): a row-owned
//!   cell is copied from the leg owning its row window; a reduced cell
//!   that every leg but one left at the fold identity's text (`0`,
//!   `"inf"`, `"-inf"`) is copied from that one, unless it reads `-0`
//!   or `"nan"`; any other cell is parsed from every leg, folded with
//!   the advertised rule's operator (`MergeRule::kind`, the compiler's
//!   own fold) and printed again. A copy is exact: folding with the
//!   identity returns the other operand bit for bit except for `0 + -0`
//!   and `min`/`max` against NaN, which fold, and every leg is printed
//!   by the one shortest printer, whose output reads back and prints to
//!   the same bytes. Because every worker initializes reduced outputs
//!   to the fold identity and counters are integers, the merged
//!   response is **byte-identical** to one process executing the same
//!   n chunk windows in shard order.
//!   Against the *unsharded* run that is also byte-identical for
//!   counters and row-owned outputs, and for `min` / `max` folds
//!   (associative, so order-free up to the sign of a zero); an `add`
//!   output agrees to 1e-9, not bitwise — the fold associates the same
//!   terms differently (the cluster differential tier passes bitwise
//!   only because its script is dyadic).
//!
//! ## Fault surface
//!
//! A shard that drops its connection is marked down; requests owned by
//! it answer a retryable `shard_unavailable` error while every other
//! shard keeps serving byte-identical responses. The next request
//! owned by the shard attempts one reconnect; success bumps the
//! shard's *epoch*, which invalidates kernel handles minted before the
//! restart (workers keep prepared kernels in memory, so they did not
//! survive) — stale handles answer `unknown_kernel` and clients
//! re-prepare against the recovered durable registry.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use systec_serve::protocol::{
    merge_run, ErrorCode, MergeRule, Placement, Request, Response, RouterCountsPayload,
    ShardStatPayload,
};
use systec_serve::wire::Record as _;
use systec_serve::{
    record, serve_service, Client, RetryPolicy, RunningServer, ServerConfig, Service,
};
use systec_telemetry::prom::{counter, gauge, histogram, Metric, PromWriter};
use systec_telemetry::Histogram;

use crate::relock;
use crate::ring::HashRing;

/// Router tunables.
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Backoff schedule for the *initial* shard connects (workers may
    /// still be printing their banners when the router starts).
    /// Mid-flight reconnects after a shard failure are single-shot:
    /// the retry loop belongs to the client, which sees a retryable
    /// `shard_unavailable` in the meantime.
    pub connect_retry: RetryPolicy,
}

/// Router-side view of one worker.
struct Shard {
    addr: String,
    /// The leg: send and receive are split so fan-outs can pipeline
    /// (write all, then read all).
    conn: Option<Client>,
    /// Bumped on every reconnect: kernel handles minted under an older
    /// epoch are stale (the worker's prepare cache died with it).
    epoch: u64,
    /// Requests forwarded to this shard (relays, broadcast legs, and
    /// fan-out legs alike).
    forwarded: u64,
    /// Error responses relayed from, or transport failures talking
    /// to, this shard.
    errors: u64,
}

/// A router-space kernel handle's routing record.
enum HandleEntry {
    /// Prepared on one shard; runs forward there whole.
    Single { shard: usize, epoch: u64, handle: u64 },
    /// Prepared on every shard; runs fan out row ranges and merge.
    /// `handles[k]` is shard `k`'s `(epoch, handle)` pair.
    Sharded { handles: Vec<(u64, u64)>, merge: Vec<(String, MergeRule)> },
}

/// Reverse map key: which upstream handle(s) a router handle stands
/// for. Epochs are part of the key so a restarted shard's recycled
/// handle numbers never collide with pre-restart entries.
#[derive(PartialEq, Eq, Hash)]
enum HandleKey {
    Single(usize, u64, u64),
    Sharded(Vec<(u64, u64)>),
}

struct State {
    shards: Vec<Shard>,
    handles: Vec<HandleEntry>,
    dedup: HashMap<HandleKey, u64>,
    placements: HashMap<String, Placement>,
    /// The `router` section of `cluster_stats`, counted in place.
    counts: RouterCountsPayload,
}

record! {
    /// One scrape's worth of [`RouterMetrics`]: the values behind the
    /// router's own Prometheus families.
    #[derive(Clone, Copy, Debug)]
    pub struct RouterScrape {
        /// Requests forwarded to a single owning shard.
        pub forwarded: u64 => counter(
            "systec_router_forwarded_total",
            "Requests forwarded to a single owning shard.",
        ),
        /// Sharded runs fanned out to every shard.
        pub fanouts: u64 => counter(
            "systec_router_fanouts_total",
            "Sharded runs fanned out as row-range sub-requests.",
        ),
        /// Requests broadcast to all shards (replicated registers,
        /// sharded prepares, shutdown).
        pub broadcasts: u64
            => counter("systec_router_broadcasts_total", "Requests broadcast to every shard."),
        /// Sharded-run merges performed (one per fan-out every shard
        /// answered; a leg's error reply is relayed by the merge).
        pub merges: u64
            => counter("systec_router_merges_total", "Sharded-run merges performed."),
        /// Merged cells copied as text from the one leg that wrote them
        /// (or the leg owning their row window).
        pub merge_cells_copied: u64 => MERGE_CELLS.with("path", "copied"),
        /// Merged cells parsed from every leg, folded and printed again.
        pub merge_cells_folded: u64 => MERGE_CELLS.with("path", "folded"),
        /// Transport failures talking to shards (dropped connections,
        /// refused connects).
        pub shard_errors: u64 => counter(
            "systec_router_shard_errors_total",
            "Transport failures talking to shards.",
        ),
        /// Requests answered `shard_unavailable` because the owning shard
        /// was down.
        pub shard_unavailable: u64 => counter(
            "systec_router_shard_unavailable_total",
            "Requests refused because the owning shard was down.",
        ),
        /// Successful shard reconnects (each bumps the shard's handle
        /// epoch, invalidating handles minted before the restart).
        pub reconnects: u64 => counter(
            "systec_router_reconnects_total",
            "Successful shard reconnects (each invalidates the shard's handles).",
        ),
        /// Shards currently connected.
        pub shards_healthy: u64
            => gauge("systec_router_shards_healthy", "Shards currently connected."),
    }
    /// Cluster-router metrics, owned by one router instance (the same
    /// ownership model as a worker's `ServeMetrics`) and rendered
    /// through its `metrics` verb.
    live pub struct RouterMetrics;
}

/// The cells of sharded-run merges, by how the merge wrote them.
const MERGE_CELLS: Metric = counter(
    "systec_router_merge_cells_total",
    "Sharded-run merge cells, copied as one leg's text or parsed, folded and printed again.",
);

/// Merge latency in microseconds (reading the legs' text, the copies
/// and folds, and writing the merged line).
const MERGE_US: Metric =
    histogram("systec_router_merge_us", "Sharded-run merge latency in microseconds.");

/// The shared router core: ring, upstream state, metrics.
///
/// All upstream traffic serializes behind one state lock — cross-shard
/// fan-out and the handle tables stay trivially consistent, and the
/// differential tier's byte-identity claim does not depend on request
/// interleavings. Per-shard concurrency is a throughput optimization
/// this crate deliberately leaves out.
pub struct Router {
    ring: HashRing,
    state: Mutex<State>,
    /// `cluster_stats`' `errors`. Not under the state lock: the event
    /// loop counts what it refuses by itself and must not wait on it.
    errors: AtomicU64,
    metrics: RouterMetrics,
    merge_us: Histogram,
}

impl Router {
    /// Connects to every shard and builds the routing core.
    ///
    /// # Errors
    ///
    /// The first shard that stays unreachable through the configured
    /// connect retries.
    pub fn connect(shard_addrs: &[String], config: &RouterConfig) -> std::io::Result<Router> {
        assert!(!shard_addrs.is_empty(), "a router needs at least one shard");
        let mut shards = Vec::with_capacity(shard_addrs.len());
        for addr in shard_addrs {
            let conn = Client::connect_with_retry(addr.as_str(), &config.connect_retry)?;
            shards.push(Shard {
                addr: addr.clone(),
                conn: Some(conn),
                epoch: 0,
                forwarded: 0,
                errors: 0,
            });
        }
        Ok(Router {
            ring: HashRing::new(shard_addrs.len()),
            state: Mutex::new(State {
                shards,
                handles: Vec::new(),
                dedup: HashMap::new(),
                placements: HashMap::new(),
                counts: RouterCountsPayload::default(),
            }),
            errors: AtomicU64::new(0),
            metrics: RouterMetrics::default(),
            merge_us: Histogram::new(),
        })
    }

    /// Answers one request line with one response line: the whole
    /// router, and the event loop's parse answer, with no socket.
    pub fn respond(&self, line: &str) -> String {
        match Request::decode(line) {
            Ok(request) => self.answer(&request, line),
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Response::error(ErrorCode::Parse, e.message).encode()
            }
        }
    }

    /// Answers `request`, which came as `line`. A panic answers it and
    /// no other: behind the loop one thread is every connection's way in.
    fn answer(&self, request: &Request, line: &str) -> String {
        let response = catch_unwind(AssertUnwindSafe(|| self.dispatch(request, line)))
            .unwrap_or_else(|_panic| {
                let message = "router panicked while serving this request; it was not completed";
                Response::error(ErrorCode::Internal, message).encode()
            });
        if response.starts_with("{\"ok\":false") {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    fn dispatch(&self, request: &Request, line: &str) -> String {
        let st = &mut *relock(&self.state);
        match request {
            Request::RegisterTensor { name, placement, .. } => {
                st.counts.register_tensor += 1;
                st.placements.insert(name.clone(), *placement);
                match placement {
                    Placement::Hash => {
                        let owner = self.ring.shard_for(name);
                        self.forward(st, owner, line)
                    }
                    Placement::Replicate => {
                        st.counts.replicated += 1;
                        self.broadcast(st, line)
                    }
                }
            }
            Request::Unregister { name } => {
                match st.placements.get(name) {
                    Some(Placement::Replicate) => self.broadcast(st, line),
                    // Hash-placed and never-registered names both route
                    // by the ring, so the owner's idempotent
                    // `existed:false` reply matches a single process.
                    _ => {
                        let owner = self.ring.shard_for(name);
                        self.forward(st, owner, line)
                    }
                }
            }
            Request::Prepare { einsum, inputs, sharded, .. } => {
                st.counts.prepare += 1;
                if *sharded {
                    self.prepare_sharded(st, einsum, inputs, line)
                } else {
                    self.prepare_single(st, einsum, inputs, line)
                }
            }
            Request::Run { kernel, full, shard } => {
                st.counts.run += 1;
                if shard.is_some() {
                    return Response::error(
                        ErrorCode::InvalidKernel,
                        "`shard` is router-internal: clients address the cluster and the \
                         router fans the row ranges out itself",
                    )
                    .encode();
                }
                self.run(st, *kernel, *full)
            }
            Request::Stats => self.cluster_stats(st),
            Request::Metrics => self.metrics_text(st),
            Request::Ping => Response::Pong.encode(),
            Request::Shutdown => {
                // Best-effort broadcast; a dead shard is already down.
                self.metrics.broadcasts.inc();
                for k in 0..st.shards.len() {
                    if self.shard_send(st, k, line).is_ok() {
                        let _ = self.shard_recv(st, k);
                    }
                }
                Response::ShuttingDown.encode()
            }
        }
    }

    // -- upstream transport ------------------------------------------

    /// Ensures shard `k` has a live connection, attempting one
    /// reconnect if not. A successful reconnect bumps the epoch.
    fn shard_ensure(&self, st: &mut State, k: usize) -> std::io::Result<()> {
        if st.shards[k].conn.is_none() {
            let conn = Client::connect(st.shards[k].addr.as_str()).inspect_err(|_| {
                self.metrics.shard_errors.inc();
            })?;
            st.shards[k].conn = Some(conn);
            st.shards[k].epoch += 1;
            self.metrics.reconnects.inc();
        }
        Ok(())
    }

    fn shard_send(&self, st: &mut State, k: usize, line: &str) -> std::io::Result<()> {
        self.shard_ensure(st, k)?;
        let shard = &mut st.shards[k];
        match shard.conn.as_mut().expect("ensured above").send_line(line) {
            Ok(()) => {
                shard.forwarded += 1;
                Ok(())
            }
            Err(e) => {
                shard.conn = None;
                self.metrics.shard_errors.inc();
                Err(e)
            }
        }
    }

    fn shard_recv(&self, st: &mut State, k: usize) -> std::io::Result<String> {
        let shard = &mut st.shards[k];
        let Some(conn) = shard.conn.as_mut() else {
            return Err(std::io::ErrorKind::NotConnected.into());
        };
        match conn.recv_line() {
            Ok(line) => {
                if line.starts_with("{\"ok\":false") {
                    shard.errors += 1;
                }
                Ok(line)
            }
            Err(e) => {
                shard.conn = None;
                self.metrics.shard_errors.inc();
                Err(e)
            }
        }
    }

    /// One request/response round trip with shard `k`, relaying the
    /// response bytes verbatim; transport failure becomes a retryable
    /// `shard_unavailable`.
    fn forward(&self, st: &mut State, k: usize, line: &str) -> String {
        self.metrics.forwarded.inc();
        let reply = self.shard_send(st, k, line).and_then(|()| self.shard_recv(st, k));
        reply.unwrap_or_else(|_| self.unavailable(st, k))
    }

    /// Sends `line` to every shard (pipelined), reads every response,
    /// and relays shard 0's bytes — the legs are deterministic, so the
    /// replies agree. Any transport failure answers
    /// `shard_unavailable` after the surviving legs were drained (the
    /// per-shard streams must stay in lockstep).
    fn broadcast(&self, st: &mut State, line: &str) -> String {
        st.counts.fanouts += 1;
        self.metrics.broadcasts.inc();
        match self.fan_out_lines(st, |_| line.to_string()) {
            Ok(mut responses) => responses.swap_remove(0),
            Err(k) => self.unavailable(st, k),
        }
    }

    /// The pipelined fan-out primitive: writes `line_for(k)` to every
    /// shard, then reads one response per shard in fixed shard order.
    /// Returns the first failed shard ordinal on any transport error.
    fn fan_out_lines(
        &self,
        st: &mut State,
        line_for: impl Fn(usize) -> String,
    ) -> Result<Vec<String>, usize> {
        let n = st.shards.len();
        let mut failed: Option<usize> = None;
        let sent: Vec<bool> = (0..n)
            .map(|k| match self.shard_send(st, k, &line_for(k)) {
                Ok(()) => true,
                Err(_) => {
                    failed = failed.or(Some(k));
                    false
                }
            })
            .collect();
        let mut responses = Vec::with_capacity(n);
        for (k, sent) in sent.iter().enumerate() {
            if !sent {
                continue;
            }
            match self.shard_recv(st, k) {
                Ok(line) => responses.push(line),
                Err(_) => failed = failed.or(Some(k)),
            }
        }
        match failed {
            Some(k) => Err(k),
            None => Ok(responses),
        }
    }

    fn unavailable(&self, st: &mut State, k: usize) -> String {
        self.metrics.shard_unavailable.inc();
        st.shards[k].errors += 1;
        let addr = &st.shards[k].addr;
        Response::error(
            ErrorCode::ShardUnavailable,
            format!("shard {k} ({addr}) is unavailable; retry once it rejoins"),
        )
        .encode()
    }

    // -- prepare routing ---------------------------------------------

    /// Routes a plain prepare to the single shard owning its inputs
    /// and rewrites the handle into router space.
    fn prepare_single(
        &self,
        st: &mut State,
        einsum: &str,
        inputs: &[(String, String)],
        line: &str,
    ) -> String {
        let owner = match self.prepare_owner(st, einsum, inputs) {
            Ok(owner) => owner,
            Err(response) => return response,
        };
        let response = self.forward(st, owner, line);
        match Response::decode(&response) {
            Ok(Response::Prepared { kernel, splittable, split, warning }) => {
                let epoch = st.shards[owner].epoch;
                let router_handle =
                    self.intern(st, HandleKey::Single(owner, epoch, kernel), || {
                        HandleEntry::Single { shard: owner, epoch, handle: kernel }
                    });
                Response::Prepared { kernel: router_handle, splittable, split, warning }.encode()
            }
            // Errors (and anything unexpected) relay verbatim — the
            // worker's bytes are the canonical bytes.
            _ => response,
        }
    }

    /// Broadcasts a `"sharded":true` prepare to every shard, records
    /// the merge schedule, and rewrites the handle.
    fn prepare_sharded(
        &self,
        st: &mut State,
        einsum: &str,
        inputs: &[(String, String)],
        line: &str,
    ) -> String {
        let names = match referenced_inputs(einsum, inputs) {
            Some(names) => names,
            // Unparseable einsums take the single-shard path so the
            // worker's canonical compile error comes back.
            None => return self.prepare_single(st, einsum, inputs, line),
        };
        if let Some(name) =
            names.iter().find(|name| st.placements.get(*name) != Some(&Placement::Replicate))
        {
            return Response::error(
                ErrorCode::InvalidKernel,
                format!(
                    "sharded kernels read their inputs on every shard: register `{name}` \
                     with \"placement\":\"replicate\" before preparing with \"sharded\":true"
                ),
            )
            .encode();
        }
        st.counts.fanouts += 1;
        self.metrics.broadcasts.inc();
        let responses = match self.fan_out_lines(st, |_| line.to_string()) {
            Ok(responses) => responses,
            Err(k) => return self.unavailable(st, k),
        };
        let decoded = Response::decode(&responses[0]);
        let Ok(Response::Prepared { splittable, split, warning, .. }) = decoded else {
            // A compile error is identical on every shard; relay leg 0.
            return responses.into_iter().next().expect("at least one shard");
        };
        let mut handles = Vec::with_capacity(responses.len());
        for (k, response) in responses.iter().enumerate() {
            match Response::decode(response) {
                Ok(Response::Prepared { kernel, .. }) => handles.push((st.shards[k].epoch, kernel)),
                _ => {
                    return Response::error(
                        ErrorCode::Internal,
                        format!("shard {k} disagreed with shard 0 about a broadcast prepare"),
                    )
                    .encode()
                }
            }
        }
        let router_handle =
            match split.clone() {
                // Splittable with a merge schedule: runs fan out.
                Some(merge) => {
                    // Alias the entry under the shard that a *plain*
                    // prepare of this spec would route to, so sharded and
                    // plain prepares of one spec dedup to one handle —
                    // exactly like a single process, whose dedup key
                    // ignores `sharded`.
                    let owner = self.replicated_owner(einsum);
                    let single = HandleKey::Single(owner, handles[owner].0, handles[owner].1);
                    if let Some(&existing) = st.dedup.get(&HandleKey::Sharded(handles.clone())) {
                        existing
                    } else if let Some(&existing) = st.dedup.get(&single) {
                        st.handles[usize::try_from(existing).expect("router handles fit usize")] =
                            HandleEntry::Sharded { handles: handles.clone(), merge };
                        st.dedup.insert(HandleKey::Sharded(handles), existing);
                        existing
                    } else {
                        let minted = st.handles.len() as u64;
                        st.handles.push(HandleEntry::Sharded { handles: handles.clone(), merge });
                        st.dedup.insert(HandleKey::Sharded(handles), minted);
                        st.dedup.insert(single, minted);
                        minted
                    }
                }
                // Not splittable: every shard compiled it, but runs
                // forward whole to the plain-prepare owner.
                None => {
                    let owner = self.replicated_owner(einsum);
                    let (epoch, handle) = handles[owner];
                    self.intern(st, HandleKey::Single(owner, epoch, handle), || {
                        HandleEntry::Single { shard: owner, epoch, handle }
                    })
                }
            };
        Response::Prepared { kernel: router_handle, splittable, split, warning }.encode()
    }

    /// The shard a plain prepare routes to: the owner of its
    /// hash-placed inputs, which must agree. Specs reading only
    /// replicated tensors run anywhere; the ring picks a deterministic
    /// home from the spec text itself.
    fn prepare_owner(
        &self,
        st: &State,
        einsum: &str,
        inputs: &[(String, String)],
    ) -> Result<usize, String> {
        let Some(names) = referenced_inputs(einsum, inputs) else {
            // Unparseable: any worker reproduces the canonical error.
            return Ok(self.replicated_owner(einsum));
        };
        let mut owners: Vec<(usize, &str)> = Vec::new();
        for name in &names {
            if st.placements.get(name) == Some(&Placement::Replicate) {
                continue;
            }
            let owner = self.ring.shard_for(name);
            if !owners.iter().any(|&(o, _)| o == owner) {
                owners.push((owner, name));
            }
        }
        match owners.as_slice() {
            [] => Ok(self.replicated_owner(einsum)),
            [(owner, _)] => Ok(*owner),
            [(_, a), (_, b), ..] => Err(Response::error(
                ErrorCode::InvalidKernel,
                format!(
                    "tensors `{a}` and `{b}` live on different shards: co-locate them with a \
                     shared {{tag}} hash tag, register them with \"placement\":\"replicate\", \
                     or prepare with \"sharded\":true"
                ),
            )
            .encode()),
        }
    }

    fn replicated_owner(&self, einsum: &str) -> usize {
        self.ring.shard_for(einsum)
    }

    fn intern(&self, st: &mut State, key: HandleKey, entry: impl FnOnce() -> HandleEntry) -> u64 {
        if let Some(&existing) = st.dedup.get(&key) {
            return existing;
        }
        let minted = st.handles.len() as u64;
        st.handles.push(entry());
        st.dedup.insert(key, minted);
        minted
    }

    // -- run routing --------------------------------------------------

    fn run(&self, st: &mut State, kernel: u64, full: bool) -> String {
        let Some(entry) = usize::try_from(kernel).ok().filter(|&k| k < st.handles.len()) else {
            // The router's handle space advances in lockstep with a
            // single process fed the same stream, so even this error
            // is byte-identical to the engine's.
            return Response::error(
                ErrorCode::UnknownKernel,
                format!("no kernel with handle {kernel} (have {})", st.handles.len()),
            )
            .encode();
        };
        match &st.handles[entry] {
            HandleEntry::Single { shard, epoch, handle } => {
                let (shard, epoch, handle) = (*shard, *epoch, *handle);
                if st.shards[shard].epoch != epoch {
                    return self.stale_handle(kernel, shard);
                }
                let line = Request::Run { kernel: handle, full, shard: None }.encode();
                self.forward(st, shard, &line)
            }
            HandleEntry::Sharded { handles, merge } => {
                let (handles, merge) = (handles.clone(), merge.clone());
                if let Some(k) = (0..handles.len()).find(|&k| st.shards[k].epoch != handles[k].0) {
                    return self.stale_handle(kernel, k);
                }
                if full {
                    // Output replication wants the whole result; the
                    // inputs are replicated, so one shard can run the
                    // entire kernel. Spread by handle, deterministically.
                    let shard = entry % handles.len();
                    let line =
                        Request::Run { kernel: handles[shard].1, full, shard: None }.encode();
                    return self.forward(st, shard, &line);
                }
                self.run_sharded(st, &handles, &merge)
            }
        }
    }

    fn stale_handle(&self, kernel: u64, shard: usize) -> String {
        Response::error(
            ErrorCode::UnknownKernel,
            format!(
                "kernel {kernel} was prepared on shard {shard} before it restarted; \
                 prepare the spec again to mint a live handle"
            ),
        )
        .encode()
    }

    /// The sharded hot path: pipelined row-range fan-out, then the
    /// deterministic merge.
    fn run_sharded(
        &self,
        st: &mut State,
        handles: &[(u64, u64)],
        merge: &[(String, MergeRule)],
    ) -> String {
        st.counts.sharded_runs += 1;
        self.metrics.fanouts.inc();
        let n = handles.len() as u64;
        let responses = match self.fan_out_lines(st, |k| {
            Request::Run { kernel: handles[k].1, full: false, shard: Some((k as u64, n)) }.encode()
        }) {
            Ok(responses) => responses,
            Err(k) => return self.unavailable(st, k),
        };
        let started = Instant::now();
        let (merged, cells) = merge_run(&responses, merge);
        self.metrics.merges.inc();
        self.metrics.merge_cells_copied.add(cells.copied);
        self.metrics.merge_cells_folded.add(cells.folded);
        let us = started.elapsed().as_micros();
        self.merge_us.record(u64::try_from(us).unwrap_or(u64::MAX));
        merged
    }

    // -- introspection ------------------------------------------------

    fn cluster_stats(&self, st: &mut State) -> String {
        let occupancy = self.ring.occupancy();
        let shards = st
            .shards
            .iter()
            .enumerate()
            .map(|(k, shard)| ShardStatPayload {
                shard: k as u64,
                addr: shard.addr.clone(),
                healthy: shard.conn.is_some(),
                vnodes: occupancy[k],
                keys: st
                    .placements
                    .iter()
                    .filter(|(name, placement)| {
                        **placement == Placement::Hash && self.ring.shard_for(name) == k
                    })
                    .count() as u64,
                forwarded: shard.forwarded,
                errors: shard.errors,
            })
            .collect();
        let router =
            RouterCountsPayload { errors: self.errors.load(Ordering::Relaxed), ..st.counts };
        Response::ClusterStats { router, shards }.encode()
    }

    /// The router's own Prometheus exposition — families in sorted
    /// name order, integer values, byte-identical across idle scrapes,
    /// like the worker's.
    fn metrics_text(&self, st: &mut State) -> String {
        let healthy = st.shards.iter().filter(|s| s.conn.is_some()).count() as u64;
        self.metrics.shards_healthy.set(healthy);
        let mut w = PromWriter::new();
        self.metrics.snapshot().expose(&mut w);
        w.histogram(&MERGE_US, &[], &self.merge_us.snapshot());
        Response::Metrics { text: w.finish() }.encode()
    }
}

/// The registered tensor names a prepare reads: every access on the
/// einsum's right-hand side, remapped through the request's input
/// bindings. `None` when the einsum does not parse.
fn referenced_inputs(einsum: &str, bindings: &[(String, String)]) -> Option<Vec<String>> {
    let parsed = systec_ir::parse_einsum(einsum).ok()?;
    let mut names: Vec<String> = parsed
        .rhs
        .accesses()
        .iter()
        .map(|access| {
            let name = access.tensor.name.as_str();
            bindings
                .iter()
                .find(|(einsum_name, _)| einsum_name == name)
                .map_or_else(|| name.to_string(), |(_, registered)| registered.clone())
        })
        .collect();
    names.sort();
    names.dedup();
    Some(names)
}

// ---------------------------------------------------------------------
// The listening front
// ---------------------------------------------------------------------

/// `(connection, request, its line)`; no connection awaits a `shutdown`.
type Job = (Option<u64>, Request, String);

/// The router behind `systec_serve`'s event loop: one thread answers
/// the loop's requests in arrival order ([`Router`] serializes shard
/// traffic behind one lock anyway). Dropping it, once the loop stopped,
/// joins the thread after what is queued — a `shutdown` broadcast too.
struct Front {
    router: Arc<Router>,
    jobs: Option<mpsc::Sender<Job>>,
    worker: Option<JoinHandle<()>>,
}

impl Front {
    fn queue(&self, job: Job) {
        let jobs = self.jobs.as_ref().expect("the queue closes only in drop");
        jobs.send(job).expect("the worker outlives the queue");
    }
}

impl Service for Front {
    fn submit(&self, conn: u64, request: Request, line: String) {
        self.queue((Some(conn), request, line));
    }

    fn refused(&self, _code: ErrorCode) {
        self.router.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The shards hear the verb after everything queued before it.
    fn shutdown(&self, line: String) {
        self.queue((None, Request::Shutdown, line));
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        self.jobs = None;
        let _ = self.worker.take().map(JoinHandle::join);
    }
}

/// Connects to every shard and serves the cluster on `addr` through
/// the worker's own event loop at its default [`ServerConfig`]. A
/// client's `shutdown` reaches the shards too, before `wait` returns.
///
/// # Errors
///
/// Bind failures and unreachable shards.
pub fn route(
    addr: &str,
    shard_addrs: &[String],
    config: RouterConfig,
) -> std::io::Result<RunningServer> {
    let router = Arc::new(Router::connect(shard_addrs, &config)?);
    serve_service(addr, ServerConfig::default(), |complete| {
        let (jobs, queue) = mpsc::channel::<Job>();
        let answering = Arc::clone(&router);
        let worker = std::thread::Builder::new()
            .name("systec-router-worker".into())
            .spawn(move || {
                for (conn, request, line) in queue {
                    let reply = answering.answer(&request, &line);
                    if let Some(conn) = conn {
                        complete(conn, Arc::new(reply));
                    }
                }
            })
            .expect("spawn router worker thread");
        Front { router, jobs: Some(jobs), worker: Some(worker) }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use systec_serve::protocol::{CounterPayload, MergedCells, OutputPayload};

    /// Each leg encoded as its worker prints it, then merged as text.
    fn merged(
        legs: Vec<(Vec<OutputPayload>, CounterPayload)>,
        merge: &[(String, MergeRule)],
    ) -> (String, MergedCells) {
        let lines: Vec<String> = legs
            .into_iter()
            .map(|(outputs, counters)| Response::Ran { outputs, counters }.encode())
            .collect();
        merge_run(&lines, merge)
    }

    #[test]
    fn merge_folds_reduced_outputs_and_windows_row_outputs() {
        let out = |values: Vec<f64>| OutputPayload { name: "y".into(), dims: vec![4], values };
        let rows = |values: Vec<f64>| OutputPayload { name: "z".into(), dims: vec![4, 2], values };
        let counters = |flops| CounterPayload {
            flops,
            writes: 1,
            iterations: 2,
            reads: vec![("A".into(), 3)],
        };
        let legs = vec![
            (vec![out(vec![1.0, 2.0, 0.0, 0.0]), rows(vec![9.0; 8])], counters(10)),
            (
                vec![
                    out(vec![0.0, 1.0, 3.0, 4.0]),
                    rows(vec![0.0, 0.0, 0.0, 0.0, 5.0, 6.0, 7.0, 8.0]),
                ],
                counters(5),
            ),
        ];
        let merge = vec![("y".to_string(), MergeRule::Add), ("z".to_string(), MergeRule::Rows)];
        let (line, cells) = merged(legs, &merge);
        let expected = Response::Ran {
            // Shard 1 owns rows 2..4 of the 4×2 output: its last four
            // values replace shard 0's window.
            outputs: vec![
                out(vec![1.0, 3.0, 3.0, 4.0]),
                rows(vec![9.0, 9.0, 9.0, 9.0, 5.0, 6.0, 7.0, 8.0]),
            ],
            counters: CounterPayload {
                flops: 15,
                writes: 2,
                iterations: 4,
                reads: vec![("A".to_string(), 6)],
            },
        };
        assert_eq!(line, expected.encode());
        // Only `y[1]` was written on both legs; every row cell is copied.
        assert_eq!(cells, MergedCells { copied: 11, folded: 1 });
    }

    #[test]
    fn merge_min_and_max_fold_through_identities() {
        let out = |name: &str, values: Vec<f64>| OutputPayload {
            name: name.into(),
            dims: vec![2],
            values,
        };
        let counters = CounterPayload::default();
        let legs = vec![
            (
                vec![out("lo", vec![3.0, f64::INFINITY]), out("hi", vec![1.0, f64::NEG_INFINITY])],
                counters.clone(),
            ),
            (
                vec![out("lo", vec![f64::INFINITY, 2.0]), out("hi", vec![f64::NEG_INFINITY, 4.0])],
                counters.clone(),
            ),
        ];
        let merge = vec![("hi".to_string(), MergeRule::Max), ("lo".to_string(), MergeRule::Min)];
        let (line, cells) = merged(legs, &merge);
        let outputs = vec![out("lo", vec![3.0, 2.0]), out("hi", vec![1.0, 4.0])];
        assert_eq!(line, Response::Ran { outputs, counters }.encode());
        assert_eq!(cells, MergedCells { copied: 4, folded: 0 });
    }

    #[test]
    fn referenced_inputs_remap_bindings_and_dedup() {
        let names = referenced_inputs(
            "for i, j: y[i] += A[i, j] * x[j] + A[i, j]",
            &[("x".to_string(), "weights".to_string())],
        )
        .expect("parses");
        assert_eq!(names, vec!["A".to_string(), "weights".to_string()]);
        assert!(referenced_inputs("for i j nonsense", &[]).is_none());
    }
}
