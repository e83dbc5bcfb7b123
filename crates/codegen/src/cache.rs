//! The LRU plan cache.
//!
//! The paper's methodology (and the ROADMAP's heavy-traffic scenario) is
//! prepare-once / run-many: the expensive work — symmetrization, the
//! §4.2 passes, hoisting, lowering, and bytecode compilation — depends
//! only on the *kernel specification* (einsum + symmetry declarations)
//! and the *operand signature* (storage formats + shapes), never on the
//! tensor values. [`PlanCache`] memoizes that work under a [`PlanKey`]
//! so a repeated kernel spec skips straight to execution.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use systec_tensor::{LevelFormat, Tensor};

/// Recovers a lock even when a panic elsewhere poisoned it: the guarded
/// state is simple bookkeeping that stays consistent across panics (the
/// user-supplied build closure never runs under a lock), so poisoning
/// must not disable the cache for the rest of the process.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The storage signature of one operand: family, per-mode formats, and
/// shape.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BindingSig {
    /// Dense strided storage of the given shape.
    Dense {
        /// The operand's shape.
        dims: Vec<usize>,
    },
    /// Compressed storage with the given per-mode level formats.
    Compressed {
        /// Per-mode level formats.
        formats: Vec<LevelFormat>,
        /// The operand's shape.
        dims: Vec<usize>,
    },
}

impl BindingSig {
    /// The signature of a concrete tensor.
    pub fn of(tensor: &Tensor) -> BindingSig {
        match tensor {
            Tensor::Dense(t) => BindingSig::Dense { dims: t.dims().to_vec() },
            Tensor::Sparse(t) => {
                BindingSig::Compressed { formats: t.formats().to_vec(), dims: t.dims().to_vec() }
            }
        }
    }
}

/// A plan identity: everything compilation depends on.
///
/// Two invocations with equal keys produce byte-identical plans, so the
/// cached plan can be shared freely (plans are immutable).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PlanKey {
    /// The kernel specification: canonical einsum text plus any variant
    /// tag the caller distinguishes (e.g. `systec` vs `naive`).
    pub spec: String,
    /// Canonical rendering of the symmetry declarations.
    pub symmetry: String,
    /// Operand signatures, sorted by operand name.
    pub bindings: Vec<(String, BindingSig)>,
}

impl PlanKey {
    /// Builds a key from a spec string, a symmetry string, and concrete
    /// input bindings (formats and dims are extracted; values ignored).
    pub fn new(
        spec: impl Into<String>,
        symmetry: impl Into<String>,
        inputs: &HashMap<String, Tensor>,
    ) -> PlanKey {
        let mut bindings: Vec<(String, BindingSig)> =
            inputs.iter().map(|(name, t)| (name.clone(), BindingSig::of(t))).collect();
        bindings.sort_by(|a, b| a.0.cmp(&b.0));
        PlanKey { spec: spec.into(), symmetry: symmetry.into(), bindings }
    }
}

/// Cache observability counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan (waiting on a concurrent
    /// builder counts as a miss).
    pub misses: u64,
    /// Plans evicted by the LRU policy.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Build closures actually executed ([`SharedPlanCache`] only):
    /// concurrent requests for one key perform exactly one build.
    pub builds: u64,
    /// Lookups that blocked on another thread's in-flight build of the
    /// same key ([`SharedPlanCache`] only): the single-flight protocol
    /// turned a would-be duplicate build into a wait.
    pub waits: u64,
}

/// An LRU cache from [`PlanKey`] to shared immutable plans.
///
/// Values are handed out as [`Arc`]s: evicting a plan never invalidates
/// kernels still holding it. Eviction scans for the least-recently-used
/// entry — O(capacity), which is fine at plan-cache sizes (tens of
/// entries, hit on every repeated invocation).
#[derive(Debug)]
pub struct PlanCache<V> {
    capacity: usize,
    map: HashMap<PlanKey, (Arc<V>, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V> PlanCache<V> {
    /// A cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be positive");
        PlanCache { capacity, map: HashMap::new(), tick: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// Looks up `key`, recording a hit (and refreshing recency) or a
    /// miss. Callers that miss should build the plan *without* holding
    /// any lock around the cache, then [`PlanCache::insert`] it.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<V>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((plan, used)) => {
                *used = self.tick;
                self.hits += 1;
                Some(Arc::clone(plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The single-flight re-check under the in-flight lock: a find is
    /// a genuine hit (counted, recency refreshed), but a second miss
    /// of the same logical lookup is not re-counted — `misses` stays
    /// one per cold lookup.
    fn recheck(&mut self, key: &PlanKey) -> Option<Arc<V>> {
        self.tick += 1;
        let (plan, used) = self.map.get_mut(key)?;
        *used = self.tick;
        self.hits += 1;
        Some(Arc::clone(plan))
    }

    /// Inserts a freshly built plan, evicting the least-recently-used
    /// entry when full. Counts nothing (the miss was recorded by
    /// [`PlanCache::get`]); if a concurrent builder won the race the
    /// newer plan simply replaces it — equal keys produce equal plans.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<V>) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (plan, self.tick));
    }

    /// Current observability counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            builds: 0,
            waits: 0,
        }
    }

    /// Drops every cached plan and resets the statistics.
    pub fn clear(&mut self) {
        self.map.clear();
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

/// Outcome slot of an in-flight build, shared between the builder and
/// its waiters.
struct BuildState<V> {
    /// `None` while building; `Some(Some(plan))` on success;
    /// `Some(None)` when the builder failed or panicked (waiters retry).
    done: Mutex<Option<Option<Arc<V>>>>,
    cv: Condvar,
}

impl<V> BuildState<V> {
    fn new() -> Self {
        BuildState { done: Mutex::new(None), cv: Condvar::new() }
    }

    fn publish(&self, outcome: Option<Arc<V>>) {
        let mut done = relock(&self.done);
        if done.is_none() {
            *done = Some(outcome);
        }
        drop(done);
        self.cv.notify_all();
    }

    fn wait(&self) -> Option<Arc<V>> {
        let mut done = relock(&self.done);
        while done.is_none() {
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
        done.clone().expect("loop exits only when set")
    }
}

/// Removes the in-flight entry and wakes waiters no matter how the
/// build ends — including by panic, so an induced build panic neither
/// wedges waiters nor poisons the cache for later preparations.
struct BuildCleanup<'a, V> {
    cache: &'a SharedPlanCache<V>,
    key: &'a PlanKey,
    state: &'a Arc<BuildState<V>>,
}

impl<V> Drop for BuildCleanup<'_, V> {
    fn drop(&mut self) {
        // Publish the failure sentinel unless a result already landed.
        self.state.publish(None);
        relock(&self.cache.building).remove(self.key);
    }
}

/// A concurrency-safe [`PlanCache`]: many threads may prepare kernels at
/// once, and concurrent requests for the *same* key perform **exactly
/// one** build — the first requester builds (with no lock held, so
/// different keys compile in parallel), everyone else blocks until the
/// plan lands and receives the same [`Arc`]. A build that fails or
/// panics wakes its waiters, which retry (one becomes the new builder);
/// all locks recover from poisoning, so a panicking build never
/// disables preparation for the rest of the process.
#[derive(Debug)]
pub struct SharedPlanCache<V> {
    lru: Mutex<PlanCache<V>>,
    building: Mutex<HashMap<PlanKey, Arc<BuildState<V>>>>,
    builds: AtomicU64,
    waits: AtomicU64,
}

impl<V> std::fmt::Debug for BuildState<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BuildState")
    }
}

impl<V> SharedPlanCache<V> {
    /// A shared cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        SharedPlanCache {
            lru: Mutex::new(PlanCache::new(capacity)),
            building: Mutex::new(HashMap::new()),
            builds: AtomicU64::new(0),
            waits: AtomicU64::new(0),
        }
    }

    /// Looks `key` up, building it with `build` on a miss. Exactly one
    /// concurrent caller builds per key; the rest wait and share the
    /// result. `build` returns the plan plus a rider of side products
    /// (`T`); the rider is returned only to the caller whose closure
    /// actually ran (`None` on hits and waits).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error to the builder. Waiters on a
    /// failed build retry — with the same key and a deterministic
    /// builder they reproduce the same error themselves.
    pub fn get_or_build<T, E>(
        &self,
        key: &PlanKey,
        build: impl FnOnce() -> Result<(V, T), E>,
    ) -> Result<(Arc<V>, Option<T>), E> {
        let mut build = Some(build);
        loop {
            if let Some(plan) = relock(&self.lru).get(key) {
                return Ok((plan, None));
            }
            let (state, is_builder) = {
                let mut building = relock(&self.building);
                match building.get(key) {
                    Some(state) => (Arc::clone(state), false),
                    None => {
                        // Re-check the LRU under the in-flight lock: a
                        // build that completed between the first lookup
                        // and here inserted its plan *before* removing
                        // its in-flight entry, so finding neither entry
                        // nor plan proves nobody built this key — the
                        // single-flight guarantee needs that proof.
                        if let Some(plan) = relock(&self.lru).recheck(key) {
                            return Ok((plan, None));
                        }
                        let state = Arc::new(BuildState::new());
                        building.insert(key.clone(), Arc::clone(&state));
                        (state, true)
                    }
                }
            };
            if !is_builder {
                self.waits.fetch_add(1, Ordering::Relaxed);
                match state.wait() {
                    Some(plan) => return Ok((plan, None)),
                    None => continue, // builder failed; retry (maybe build)
                }
            }
            self.builds.fetch_add(1, Ordering::Relaxed);
            let cleanup = BuildCleanup { cache: self, key, state: &state };
            // The build runs with no lock held; a panic here unwinds
            // through `cleanup`, which wakes waiters and clears the
            // in-flight entry.
            let built = (build.take().expect("the builder role is taken at most once"))();
            return match built {
                Ok((plan, rider)) => {
                    let plan = Arc::new(plan);
                    relock(&self.lru).insert(key.clone(), Arc::clone(&plan));
                    state.publish(Some(Arc::clone(&plan)));
                    drop(cleanup);
                    Ok((plan, Some(rider)))
                }
                Err(e) => {
                    drop(cleanup); // publishes the failure sentinel
                    Err(e)
                }
            };
        }
    }

    /// Current observability counters (LRU stats plus executed builds
    /// and single-flight waits).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            builds: self.builds.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            ..relock(&self.lru).stats()
        }
    }

    /// Drops every cached plan and resets the statistics.
    pub fn clear(&self) {
        relock(&self.lru).clear();
        self.builds.store(0, Ordering::Relaxed);
        self.waits.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(spec: &str) -> PlanKey {
        PlanKey { spec: spec.into(), symmetry: String::new(), bindings: Vec::new() }
    }

    /// The miss-then-insert protocol the production caller follows.
    fn get_or_build(
        cache: &mut PlanCache<u32>,
        k: PlanKey,
        build: impl FnOnce() -> u32,
    ) -> Arc<u32> {
        match cache.get(&k) {
            Some(plan) => plan,
            None => {
                let plan = Arc::new(build());
                cache.insert(k, Arc::clone(&plan));
                plan
            }
        }
    }

    #[test]
    fn hit_returns_same_plan() {
        let mut cache: PlanCache<u32> = PlanCache::new(4);
        let a = get_or_build(&mut cache, key("a"), || 1);
        let b = get_or_build(&mut cache, key("a"), || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache: PlanCache<u32> = PlanCache::new(2);
        get_or_build(&mut cache, key("a"), || 1);
        get_or_build(&mut cache, key("b"), || 2);
        // Touch a, then insert c: b is the LRU victim.
        get_or_build(&mut cache, key("a"), || panic!());
        get_or_build(&mut cache, key("c"), || 3);
        assert_eq!(cache.stats().evictions, 1);
        // a still cached, b rebuilt.
        get_or_build(&mut cache, key("a"), || panic!());
        let mut rebuilt = false;
        get_or_build(&mut cache, key("b"), || {
            rebuilt = true;
            2
        });
        assert!(rebuilt);
    }

    #[test]
    fn failed_builds_cache_nothing() {
        let mut cache: PlanCache<u32> = PlanCache::new(2);
        // A miss whose build fails simply never inserts.
        assert!(cache.get(&key("a")).is_none());
        assert_eq!(cache.stats().entries, 0);
        let ok = get_or_build(&mut cache, key("a"), || 7);
        assert_eq!(*ok, 7);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn shared_cache_builds_once_under_contention() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        let cache: SharedPlanCache<u32> = SharedPlanCache::new(8);
        let built = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    let (plan, _) = cache
                        .get_or_build::<(), ()>(&key("contended"), || {
                            built.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters really wait.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok((7, ()))
                        })
                        .unwrap();
                    assert_eq!(*plan, 7);
                });
            }
        });
        assert_eq!(built.load(Ordering::SeqCst), 1, "exactly one build per key");
        let stats = cache.stats();
        assert_eq!(stats.builds, 1);
        // Every thread got the plan exactly one way: by building it, by
        // waiting on the in-flight build, or by hitting the LRU after
        // the build published.
        assert_eq!(stats.builds + stats.waits + stats.hits, 8);
    }

    #[test]
    fn shared_cache_recovers_from_build_panic() {
        let cache: SharedPlanCache<u32> = SharedPlanCache::new(8);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_build::<(), ()>(&key("k"), || panic!("induced build panic"));
        }));
        assert!(panicked.is_err());
        // The cache is not poisoned: the same key builds fine now.
        let (plan, rider) = cache.get_or_build::<(), ()>(&key("k"), || Ok((3, ()))).unwrap();
        assert_eq!(*plan, 3);
        assert!(rider.is_some(), "the retry actually built");
        // And a concurrent waiter during a panicking build retries
        // rather than hanging.
        let cache2: SharedPlanCache<u32> = SharedPlanCache::new(8);
        std::thread::scope(|s| {
            let panicker = s.spawn(|| {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ =
                        cache2.get_or_build::<(), ()>(&key("k"), || -> Result<(u32, ()), ()> {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            panic!("induced");
                        });
                }));
            });
            let waiter = s.spawn(|| {
                // Give the panicker a head start at claiming the build.
                std::thread::sleep(std::time::Duration::from_millis(5));
                let (plan, _) = cache2.get_or_build::<(), ()>(&key("k"), || Ok((9, ()))).unwrap();
                assert_eq!(*plan, 9);
            });
            panicker.join().unwrap();
            waiter.join().unwrap();
        });
    }

    #[test]
    fn shared_cache_counts_evictions() {
        // Eviction observability: a full shared cache reports every LRU
        // eviction through its stats — the serving layer's `stats` verb
        // surfaces this so operators can see a thrashing plan cache.
        let cache: SharedPlanCache<u32> = SharedPlanCache::new(2);
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            let _ = cache.get_or_build::<(), ()>(&key(k), || Ok((v, ()))).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1, "inserting 3 keys into capacity 2 evicts one");
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.builds, 3);
        // Rebuilding the evicted key (LRU: `a`) evicts again.
        let (plan, rider) = cache.get_or_build::<(), ()>(&key("a"), || Ok((1, ()))).unwrap();
        assert_eq!(*plan, 1);
        assert!(rider.is_some(), "the evicted key really rebuilt");
        assert_eq!(cache.stats().evictions, 2);
        // Clearing resets the counter with the rest of the stats.
        cache.clear();
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn shared_cache_build_errors_propagate_and_cache_nothing() {
        let cache: SharedPlanCache<u32> = SharedPlanCache::new(8);
        let r = cache.get_or_build(&key("e"), || Err::<(u32, ()), &str>("nope"));
        assert_eq!(r.unwrap_err(), "nope");
        assert_eq!(cache.stats().entries, 0);
        let (plan, _) = cache.get_or_build::<(), ()>(&key("e"), || Ok((5, ()))).unwrap();
        assert_eq!(*plan, 5);
    }

    #[test]
    fn shared_cache_waiters_share_the_builders_arc() {
        let cache: SharedPlanCache<u32> = SharedPlanCache::new(8);
        let (first, rider) = cache.get_or_build::<(), ()>(&key("a"), || Ok((1, ()))).unwrap();
        assert!(rider.is_some());
        let (second, rider) =
            cache.get_or_build::<(), ()>(&key("a"), || panic!("must not rebuild")).unwrap();
        assert!(rider.is_none());
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn key_is_value_insensitive() {
        use systec_tensor::{CooTensor, SparseTensor, Tensor, CSR};
        let mut coo1 = CooTensor::new(vec![3, 3]);
        coo1.push(&[0, 1], 1.0);
        let mut coo2 = CooTensor::new(vec![3, 3]);
        coo2.push(&[2, 2], 9.0);
        let mk = |coo: &CooTensor| {
            let mut m = HashMap::new();
            m.insert("A".to_string(), Tensor::Sparse(SparseTensor::from_coo(coo, &CSR).unwrap()));
            m
        };
        let k1 = PlanKey::new("spec", "sym", &mk(&coo1));
        let k2 = PlanKey::new("spec", "sym", &mk(&coo2));
        assert_eq!(k1, k2, "same formats+dims must key identically");
        let mut coo3 = CooTensor::new(vec![4, 4]);
        coo3.push(&[0, 1], 1.0);
        let k3 = PlanKey::new("spec", "sym", &mk(&coo3));
        assert_ne!(k1, k3, "different dims must key differently");
    }
}
