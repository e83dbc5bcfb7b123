//! The tensor registry: one state machine with one mutator.
//!
//! [`Registry`] is the state — live tensors, the per-name generation
//! history, kernel pins, the byte total and the LRU clock — and
//! [`Registry::apply`] is the only code that inserts into or removes
//! from `tensors` and `generations` or moves `bytes` (a `prepare` only
//! stamps `last_used`, which is not journaled). Everything else is a
//! [`Mutation`] on its way to `apply`: a live `register_tensor` /
//! `unregister` *plans* (admit against the byte cap, pick LRU victims)
//! into a batch that [`SharedRegistry`] journals all-or-nothing before
//! applying it; crash recovery converts each recovered record back into
//! a mutation; a snapshot is [`Registry::to_records`], the mutations
//! that rebuild the current state. So replay ≡ live by construction.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockWriteGuard};

use systec_tensor::{csf, DenseTensor, Entries, SparseTensor, Tensor};

use crate::durability::{Durability, Record};
use crate::engine::EngineError;
use crate::fault::FaultPlan;
use crate::protocol::{CooEntries, ErrorCode, ServeMetrics, StorageFormat, TensorPayload};
use crate::relock;

/// One registry transition. Live requests, journal replay and snapshots
/// all speak this type; [`Registry::apply`] is its only interpreter.
#[derive(Debug)]
enum Mutation {
    /// `name` now holds `data` at `generation` (replacing any live entry).
    Register { name: String, generation: u64, data: Arc<Tensor> },
    /// `name` is no longer live (explicit `unregister` or LRU eviction);
    /// its generation history stays.
    Unregister { name: String },
    /// Generation history to honour, including names whose tensors are
    /// gone — the snapshot header (see [`Registry::generations`]).
    Generations(Vec<(String, u64)>),
}

impl Mutation {
    /// The durable form, rendered only when a journal is open. The
    /// payload kind encodes the storage (dense stays a value list,
    /// sparse enumerates every stored entry, explicit zeros included),
    /// so replay rebuilds the same representation.
    fn to_record(&self) -> Record {
        match self {
            Mutation::Register { name, generation, data } => Record::Register {
                name: name.clone(),
                dims: data.dims().to_vec(),
                generation: *generation,
                payload: match &**data {
                    Tensor::Dense(d) => TensorPayload::Dense(d.as_slice().to_vec()),
                    Tensor::Sparse(s) => {
                        let mut coo = CooEntries {
                            coords: Vec::with_capacity(s.nnz() * s.rank()),
                            vals: Vec::with_capacity(s.nnz()),
                        };
                        s.for_each_entry(|coords, v| {
                            coo.coords.extend_from_slice(coords);
                            coo.vals.push(v);
                        });
                        TensorPayload::Coo(coo)
                    }
                },
            },
            Mutation::Unregister { name } => Record::Unregister { name: name.clone() },
            Mutation::Generations(generations) => {
                Record::Generations { generations: generations.clone() }
            }
        }
    }

    /// The mutation a recovered record stands for; `None` (skipped) if
    /// it does not describe a valid tensor — it passed its CRC, so that
    /// would be a writer bug, and recovery must still never panic.
    fn from_record(record: Record) -> Option<Mutation> {
        Some(match record {
            Record::Register { name, dims, generation, payload } => {
                let (data, _) =
                    build_tensor(&dims, &payload, StorageFormat::Auto, |_| Ok(())).ok()?;
                Mutation::Register { name, generation, data: Arc::new(data) }
            }
            Record::Unregister { name } => Mutation::Unregister { name },
            Record::Generations { generations } => Mutation::Generations(generations),
        })
    }
}

/// Validates a `register_tensor` payload and packs it into the requested
/// storage; also returns the `nnz` the reply reports (every element of a
/// dense tensor, the stored entries of a sparse one).
///
/// Nothing is packed before it is known to fit: the storage the target
/// format needs is summed with checked arithmetic and reserved once
/// (then released) before any tensor buffer is allocated, so a shape no
/// allocation can hold — which would abort the process, not panic —
/// is refused as `bad_tensor`. Once the payload has validated, `admit`
/// is charged the bytes the packed tensor holds at least
/// ([`floor_bytes`]) and may refuse before anything is packed.
pub(crate) fn build_tensor(
    dims: &[usize],
    payload: &TensorPayload,
    format: StorageFormat,
    admit: impl FnOnce(u64) -> Result<(), EngineError>,
) -> Result<(Tensor, u64), EngineError> {
    let bad = |message: String| EngineError::new(ErrorCode::BadTensor, message);
    if dims.is_empty() || dims.contains(&0) {
        return Err(bad(format!("dims must be non-empty and positive, got {dims:?}")));
    }
    let (to_dense, entries) = match payload {
        TensorPayload::Dense(values) => (format != StorageFormat::Csf, values.len()),
        TensorPayload::Coo(coo) => (format == StorageFormat::Dense, coo.len()),
    };
    let overflow = || bad(format!("the storage for dims {dims:?} overflows"));
    let floor = floor_bytes(dims, to_dense).ok_or_else(overflow)?;
    // A compressed tensor adds a value and a coordinate per level for
    // each entry to its root.
    let packed = if to_dense { 0 } else { entries as u64 };
    let storage = (8 * (1 + dims.len() as u64))
        .checked_mul(packed)
        .and_then(|bytes| bytes.checked_add(floor))
        .ok_or_else(overflow)?;
    let reserved = usize::try_from(storage)
        .is_ok_and(|bytes| Vec::<u8>::new().try_reserve_exact(bytes).is_ok());
    if !reserved {
        return Err(bad(format!("dims {dims:?} need {storage} bytes, which cannot be reserved")));
    }
    let dense = |d: DenseTensor| {
        let nnz = d.as_slice().len() as u64;
        (Tensor::Dense(d), nnz)
    };
    let formats = csf(dims.len());
    let sparse = match payload {
        TensorPayload::Dense(values) => {
            let expect = elements(dims).ok_or_else(overflow)?;
            if values.len() as u64 != expect {
                return Err(bad(format!(
                    "dense payload has {} values but dims {dims:?} need {expect}",
                    values.len()
                )));
            }
            if !values.iter().all(|v| v.is_finite()) {
                return Err(bad("tensor values must be finite".into()));
            }
            admit(floor)?;
            let d = DenseTensor::from_vec(dims.to_vec(), values.clone())
                .map_err(|e| bad(e.to_string()))?;
            if to_dense {
                return Ok(dense(d));
            }
            SparseTensor::from_dense(&d, &formats)
        }
        TensorPayload::Coo(coo) => {
            // The first offender in arrival order is reported, an
            // entry's value before its coordinates.
            let bad_value = coo.vals.iter().position(|v| !v.is_finite());
            let entries = Entries::from_flat(dims.to_vec(), coo.coords.clone(), coo.vals.clone());
            let entries = match (entries, bad_value) {
                (Ok(entries), None) => entries,
                (Err((k, e)), v) if v.is_none_or(|v| k < v) => return Err(bad(e.to_string())),
                _ => return Err(bad("tensor values must be finite".into())),
            };
            admit(floor)?;
            if to_dense {
                return Ok(dense(entries.to_dense()));
            }
            entries.pack(&formats)
        }
    };
    let sparse = sparse.map_err(|e| bad(format!("packing to CSF: {e}")))?;
    let nnz = sparse.nnz() as u64;
    Ok((Tensor::Sparse(sparse), nnz))
}

/// The bytes a tensor of shape `dims` holds however few entries it
/// stores: every element when `dense`, else the `dims[0] + 1` positions
/// of a compressed tensor's dense root. `None` on overflow.
fn floor_bytes(dims: &[usize], dense: bool) -> Option<u64> {
    let words = match dense {
        true => elements(dims)?,
        false => (dims[0] as u64).checked_add(1)?,
    };
    words.checked_mul(8)
}

/// The element count of shape `dims`; `None` on overflow.
fn elements(dims: &[usize]) -> Option<u64> {
    dims.iter().try_fold(1u64, |n, &d| n.checked_mul(d as u64))
}

/// Estimated payload bytes of a registered tensor — the unit of the
/// `--max-bytes` admission cap. Dense values cost 8 bytes each; sparse
/// entries charge one value plus one coordinate per level, and never
/// less than the dense root ([`floor_bytes`]) — the part
/// [`build_tensor`] charges before packing.
fn tensor_bytes(tensor: &Tensor) -> u64 {
    match tensor {
        Tensor::Dense(d) => 8 * d.as_slice().len() as u64,
        Tensor::Sparse(s) => {
            let entries = (8 + 8 * s.dims().len() as u64) * s.nnz() as u64;
            entries.max(floor_bytes(s.dims(), false).unwrap_or(u64::MAX))
        }
    }
}

/// The refusal of a `bytes`-byte registration that no eviction makes
/// room for under `cap`.
fn over_cap(name: &str, bytes: u64, cap: u64) -> EngineError {
    let message = format!(
        "registering `{name}` ({bytes} bytes) would exceed the registered-bytes cap ({cap} \
         bytes) even after evicting every unpinned tensor"
    );
    EngineError::new(ErrorCode::AdmissionRejected, message)
}

/// One registered tensor plus its lifecycle bookkeeping.
#[derive(Debug)]
struct TensorEntry {
    /// Shared, so a `prepare` takes its copy outside the registry lock.
    data: Arc<Tensor>,
    /// 0 on first registration of the name, +1 per re-registration;
    /// survives unregister and eviction (see [`Registry::generations`]).
    generation: u64,
    /// Logical clock of the last registration or prepare binding —
    /// the LRU eviction order.
    last_used: u64,
}

/// The registry state machine: live tensors, the per-name generation
/// history, and the pin refcounts held by prepared kernels.
#[derive(Debug, Default)]
struct Registry {
    tensors: HashMap<String, TensorEntry>,
    /// Highest generation ever assigned per name. Kept after eviction
    /// and unregister, and across restarts, so a name can never be
    /// reborn at a generation a stale kernel still pins (the classic
    /// ABA).
    generations: HashMap<String, u64>,
    /// The `(name, generation)` pairs some kernel entry holds a copy
    /// of (entries are never dropped, so pins only accumulate); a tensor
    /// pinned at its current generation is never evicted.
    pins: HashSet<(String, u64)>,
    /// Total estimated bytes of live tensors.
    bytes: u64,
    /// Logical clock driving `last_used`.
    clock: u64,
}

impl Registry {
    /// The one mutator: live requests, replay and snapshots all land
    /// here, so the byte, generation and clock bookkeeping exists once.
    fn apply(&mut self, mutation: Mutation) {
        let mut honour = |name: String, generation: u64| {
            let known = self.generations.entry(name).or_insert(generation);
            *known = generation.max(*known);
        };
        match mutation {
            Mutation::Register { name, generation, data } => {
                honour(name.clone(), generation);
                self.clock += 1;
                self.bytes += tensor_bytes(&data);
                let entry = TensorEntry { data, generation, last_used: self.clock };
                if let Some(old) = self.tensors.insert(name, entry) {
                    self.bytes -= tensor_bytes(&old.data);
                }
            }
            Mutation::Unregister { name } => {
                if let Some(entry) = self.tensors.remove(&name) {
                    self.bytes -= tensor_bytes(&entry.data);
                }
            }
            Mutation::Generations(generations) => {
                generations.into_iter().for_each(|(name, generation)| honour(name, generation));
            }
        }
    }

    /// Plans registering `data` under `name` against the byte cap: the
    /// `Unregister`s of the LRU victims that make room, then the
    /// `Register` at the name's next generation. Read-only, so a refused
    /// registration evicts nothing. A replacement's old bytes are
    /// credited first, and neither the replaced name (evicting it would
    /// double-count) nor a tensor pinned at its current generation is
    /// ever a victim.
    fn plan_register(
        &self,
        name: &str,
        data: Tensor,
        cap: Option<u64>,
    ) -> Result<Vec<Mutation>, EngineError> {
        let bytes = tensor_bytes(&data);
        let freed = self.tensors.get(name).map_or(0, |e| tensor_bytes(&e.data));
        let mut projected = (self.bytes - freed).saturating_add(bytes);
        let mut batch = Vec::new();
        if let Some(cap) = cap.filter(|cap| projected > *cap) {
            let unpinned = |victim: &String, e: &TensorEntry| {
                victim != name && !self.pins.contains(&(victim.clone(), e.generation))
            };
            let mut evictable: Vec<(&String, &TensorEntry)> =
                self.tensors.iter().filter(|(victim, e)| unpinned(victim, e)).collect();
            evictable.sort_by_key(|(_, e)| e.last_used);
            for (victim, entry) in evictable {
                if projected <= cap {
                    break;
                }
                projected -= tensor_bytes(&entry.data);
                batch.push(Mutation::Unregister { name: victim.clone() });
            }
            if projected > cap {
                return Err(over_cap(name, bytes, cap));
            }
        }
        let generation = self.generations.get(name).map_or(0, |g| g + 1);
        batch.push(Mutation::Register { name: name.to_string(), generation, data: Arc::new(data) });
        Ok(batch)
    }

    /// The snapshot: the mutations that rebuild this state — the full
    /// generation history, then every live tensor — in sorted order.
    fn to_records(&self) -> Vec<Record> {
        let mut generations: Vec<(String, u64)> =
            self.generations.iter().map(|(name, g)| (name.clone(), *g)).collect();
        generations.sort();
        let mut live: Vec<(&String, &TensorEntry)> = self.tensors.iter().collect();
        live.sort_by_key(|(name, _)| *name);
        std::iter::once(Mutation::Generations(generations))
            .chain(live.into_iter().map(|(name, entry)| Mutation::Register {
                name: name.clone(),
                generation: entry.generation,
                data: Arc::clone(&entry.data),
            }))
            .map(|mutation| mutation.to_record())
            .collect()
    }

    /// Resolves one `prepare` binding: the live tensor under `name` and
    /// its generation, marked just used for the LRU order.
    fn bind(&mut self, name: &str) -> Option<(Arc<Tensor>, u64)> {
        let entry = self.tensors.get_mut(name)?;
        self.clock += 1;
        entry.last_used = self.clock;
        Some((Arc::clone(&entry.data), entry.generation))
    }
}

/// What a `prepare` takes from the registry: `(einsum name, registered
/// data)` per binding, the distinct `(registered name, generation)`
/// pairs bound, and the registry epoch read before the bindings.
pub(crate) type Bound = (Vec<(String, Arc<Tensor>)>, Vec<(String, u64)>, u64);

/// The registry as the engine holds it: the state machine behind its
/// lock, the epoch prepared kernels check their pins against, the byte
/// cap, and — with `--data-dir` — the write-ahead journal.
#[derive(Debug, Default)]
pub(crate) struct SharedRegistry {
    state: RwLock<Registry>,
    /// Bumped on every (re-)registration; see [`Self::ensure_fresh`].
    epoch: AtomicU64,
    /// Admission cap on total estimated registered bytes (`None` =
    /// unlimited).
    pub(crate) max_bytes: Option<u64>,
    journal: Option<Mutex<Durability>>,
}

impl SharedRegistry {
    fn write(&self) -> RwLockWriteGuard<'_, Registry> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens the data dir and replays what a previous process left there
    /// into the (still single-owner) registry; later mutations journal.
    pub(crate) fn open(
        &mut self,
        dir: &Path,
        snapshot_every: u64,
        metrics: &ServeMetrics,
    ) -> io::Result<()> {
        let (journal, recovery) = Durability::open(dir, snapshot_every)?;
        let reg = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        for mutation in recovery.records.into_iter().filter_map(Mutation::from_record) {
            reg.apply(mutation);
            metrics.recovery_replayed.inc();
        }
        metrics.recovery_truncated.add(recovery.truncated);
        metrics.registry_bytes.set(reg.bytes);
        metrics.registry_tensors.set(reg.tensors.len() as u64);
        self.journal = Some(Mutex::new(journal));
        Ok(())
    }

    /// Commits one mutation batch — `what`, for the refusal message:
    /// journal it whole (one write, one fsync; nothing is applied unless
    /// all of it is durable), apply it, and fold the journal into a
    /// snapshot when due. The snapshot replaces the journal, so it is
    /// taken only after the batch is visible in `reg`; its failure is
    /// non-fatal — the journal remains the source of truth.
    fn commit(
        &self,
        reg: &mut Registry,
        batch: Vec<Mutation>,
        what: &str,
        faults: Option<&FaultPlan>,
        metrics: &ServeMetrics,
    ) -> Result<(), EngineError> {
        let mut journal = self.journal.as_ref().map(relock);
        if let Some(journal) = &mut journal {
            let records: Vec<Record> = batch.iter().map(Mutation::to_record).collect();
            let bytes = journal.append(&records, faults).map_err(|e| {
                let message = format!("journal write failed, {what} not applied: {e}");
                EngineError::new(ErrorCode::Internal, message)
            })?;
            metrics.journal_bytes.add(bytes);
            metrics.journal_records.add(records.len() as u64);
            metrics.journal_fsyncs.inc();
        }
        batch.into_iter().for_each(|mutation| reg.apply(mutation));
        metrics.registry_bytes.set(reg.bytes);
        metrics.registry_tensors.set(reg.tensors.len() as u64);
        if let Some(journal) = journal.as_mut().filter(|journal| journal.wants_snapshot()) {
            if let Ok((bytes, fsyncs)) = journal.write_snapshot(&reg.to_records()) {
                metrics.journal_bytes.add(bytes);
                metrics.journal_fsyncs.add(fsyncs);
            }
        }
        Ok(())
    }

    /// Admits validated tensor data under `name` (see
    /// [`Registry::plan_register`]), returns the generation it was
    /// assigned, and publishes a new epoch so kernels pinning an older
    /// generation fail their next freshness check loudly.
    pub(crate) fn register(
        &self,
        name: &str,
        data: Tensor,
        faults: Option<&FaultPlan>,
        metrics: &ServeMetrics,
    ) -> Result<u64, EngineError> {
        let mut reg = self.write();
        let batch = reg
            .plan_register(name, data, self.max_bytes)
            .inspect_err(|_| metrics.rejected_bytes.inc())?;
        let evictions = batch.len() as u64 - 1;
        self.commit(&mut reg, batch, "registration", faults, metrics)?;
        metrics.registry_evictions.add(evictions);
        let generation = reg.generations[name];
        drop(reg);
        // Publish after the registry write: a run that observes the new
        // epoch re-verifies its pins under the registry lock and is
        // guaranteed to see the new generation there.
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(generation)
    }

    /// Refuses, before it is built, a tensor under `name` that will
    /// hold at least `bytes` when that alone exceeds the byte cap: no
    /// eviction could make room for it (see [`build_tensor`]).
    pub(crate) fn admit(
        &self,
        name: &str,
        bytes: u64,
        metrics: &ServeMetrics,
    ) -> Result<(), EngineError> {
        match self.max_bytes.filter(|cap| bytes > *cap) {
            Some(cap) => {
                metrics.rejected_bytes.inc();
                Err(over_cap(name, bytes, cap))
            }
            None => Ok(()),
        }
    }

    /// Removes `name`, returning whether it was live (a name that was
    /// not journals nothing). Its generation history is deliberately
    /// retained: a later re-register still advances the generation, and
    /// kernels pinning the removed data keep serving their own copy —
    /// removal invalidates nothing, so the epoch does not move either.
    pub(crate) fn unregister(
        &self,
        name: &str,
        faults: Option<&FaultPlan>,
        metrics: &ServeMetrics,
    ) -> Result<bool, EngineError> {
        let mut reg = self.write();
        let existed = reg.tensors.contains_key(name);
        if existed {
            let batch = vec![Mutation::Unregister { name: name.to_string() }];
            self.commit(&mut reg, batch, "unregister", faults, metrics)?;
        }
        Ok(existed)
    }

    /// Resolves a `prepare`'s `(einsum name, registered name)` bindings.
    /// Only `Arc`s are cloned under the lock; the caller copies outside
    /// it, so a large bound tensor stalls no registration, no other
    /// prepare and no freshness re-check.
    pub(crate) fn bind(&self, bindings: &[(String, String)]) -> Result<Bound, EngineError> {
        // Snapshot the epoch BEFORE reading the bindings: if a
        // re-register lands in between, the cached epoch is already
        // behind and the first run re-verifies the pins (never the
        // reverse, which would let a stale pin ride a fresh epoch).
        let epoch = self.epoch.load(Ordering::Acquire);
        let mut reg = self.write();
        let mut inputs = Vec::with_capacity(bindings.len());
        let mut pinned: Vec<(String, u64)> = Vec::new();
        for (tensor, registered) in bindings {
            let Some((data, generation)) = reg.bind(registered) else {
                let message = format!("tensor `{registered}` (for `{tensor}`) is not registered");
                return Err(EngineError::new(ErrorCode::UnknownTensor, message));
            };
            inputs.push((tensor.clone(), data));
            if !pinned.iter().any(|(n, g)| n == registered && *g == generation) {
                pinned.push((registered.clone(), generation));
            }
        }
        Ok((inputs, pinned, epoch))
    }

    /// Pins the `(name, generation)` pairs a kernel entry holds a copy
    /// of (idempotent).
    pub(crate) fn pin(&self, pinned: &[(String, u64)], metrics: &ServeMetrics) {
        let mut reg = self.write();
        reg.pins.extend(pinned.iter().cloned());
        metrics.pinned.set(reg.pins.len() as u64);
    }

    /// Verifies a kernel's pinned tensors are still the current
    /// generations. Steady state is two relaxed-ish atomic loads: the
    /// epoch only moves on (re-)registration, so a matching cached
    /// epoch proves nothing was re-registered since the last check. On
    /// an epoch change the pins re-verify under the registry lock; an
    /// *unregistered* name does not invalidate (the kernel keeps
    /// serving its copy), a *re-registered* one does.
    pub(crate) fn ensure_fresh(
        &self,
        pinned: &[(String, u64)],
        valid_epoch: &AtomicU64,
        metrics: &ServeMetrics,
    ) -> Result<(), EngineError> {
        let epoch = self.epoch.load(Ordering::Acquire);
        if valid_epoch.load(Ordering::Relaxed) == epoch {
            return Ok(());
        }
        let reg = self.state.read().unwrap_or_else(PoisonError::into_inner);
        let stale = |(name, pinned): &&(String, u64)| {
            reg.generations.get(name).is_some_and(|current| current != pinned)
        };
        if let Some((name, pinned)) = pinned.iter().find(stale) {
            metrics.stale_runs.inc();
            let message = format!(
                "tensor `{name}` was re-registered (now generation {}; this kernel pinned \
                 generation {pinned}) — re-prepare to pick up the new data",
                reg.generations[name]
            );
            return Err(EngineError::new(ErrorCode::StaleTensor, message));
        }
        drop(reg);
        valid_epoch.store(epoch, Ordering::Relaxed);
        Ok(())
    }

    /// Fsyncs the journal if one is open (graceful-drain hook; every
    /// append already syncs, so this is cheap).
    pub(crate) fn flush(&self, metrics: &ServeMetrics) {
        if let Some(journal) = &self.journal {
            if relock(journal).sync().is_ok() {
                metrics.journal_fsyncs.inc();
            }
        }
    }
}
