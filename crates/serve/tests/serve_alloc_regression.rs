//! Extends the PR 2 counting-allocator regression harness to a warmed
//! server worker: once an engine's pooled state is warm (run slots —
//! outputs, counters and execution context — sized by the first few
//! requests), the steady-state **execution path** of a `run` request —
//! [`systec_serve::Engine::execute`]: kernel lookup, slot checkout,
//! `run_timed_into`, latency recording, lease return —
//! performs **zero** heap allocations. Response serialization is
//! deliberately outside the measured region (it builds a fresh line per
//! request by design).
//!
//! The count is per thread and armed only around the measured runs, so
//! nothing else in the test process can charge them — not the other
//! test of this file, and not libtest's main thread, whose result
//! bookkeeping for a test that just finished was what used to land two
//! allocations (56 and 48 bytes, from a thread that was neither test)
//! in the other test's window about one run in twenty-five.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use systec_serve::protocol::{Placement, Request, Response, StorageFormat, TensorPayload, Variant};
use systec_serve::Engine;

/// Counts every allocation (alloc, alloc_zeroed, realloc) the armed
/// thread forwards to the system allocator.
struct CountingAlloc;

thread_local! {
    /// This thread's allocation count while armed (`None` = disarmed).
    /// Const-initialized and destructor-free, so touching it from
    /// inside the allocator never allocates.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCS.try_with(|a| a.set(a.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The number of allocations this thread performs inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.set(Some(0));
    f();
    ALLOCS.replace(None).expect("armed above")
}

/// Registers a small symmetric SSYMV workload and returns its handle.
fn warmed_engine() -> (Engine, u64) {
    let engine = Engine::new();
    let n = 12;
    // Tridiagonal-ish symmetric matrix, deterministic without an RNG.
    let mut entries = Vec::new();
    for i in 0..n {
        entries.push((vec![i, i], 1.0 + i as f64));
        if i + 1 < n {
            entries.push((vec![i, i + 1], 0.5 + i as f64 / 10.0));
            entries.push((vec![i + 1, i], 0.5 + i as f64 / 10.0));
        }
    }
    let resp = engine.handle(&Request::RegisterTensor {
        name: "A".into(),
        dims: vec![n, n],
        payload: TensorPayload::Coo(entries),
        format: StorageFormat::Auto,
        placement: Placement::Hash,
    });
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    let resp = engine.handle(&Request::RegisterTensor {
        name: "x".into(),
        dims: vec![n],
        payload: TensorPayload::Dense((0..n).map(|k| 1.0 + k as f64 / 7.0).collect()),
        format: StorageFormat::Auto,
        placement: Placement::Hash,
    });
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    let resp = engine.handle(&Request::Prepare {
        einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
        sym: vec!["A".into()],
        inputs: vec![],
        variant: Variant::Systec,
        threads: Some(1),
        sharded: false,
    });
    let Response::Prepared { kernel, .. } = resp else { panic!("prepare failed: {resp:?}") };
    (engine, kernel)
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    // A guard that can only ever read zero guards nothing.
    let allocs = allocations_in(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert!(allocs >= 1, "an armed thread's Vec allocation must be counted");
}

#[test]
fn warmed_server_worker_executes_allocation_free() {
    // Latency-histogram recording (atomic bucket increments) and the
    // slow-threshold check live inside the measured region and must
    // not cost an allocation.
    let (engine, kernel) = warmed_engine();
    // Warm the pooled state: the first runs size the run slot — its
    // outputs, its counters map and its execution context. A second
    // slot (or context) would allocate, so the zero count below also
    // pins that the leases recycle the one slot.
    for _ in 0..3 {
        let lease = engine.execute(kernel).expect("run succeeds");
        assert!(!lease.outputs().is_empty());
    }

    let allocs = allocations_in(|| {
        for _ in 0..10 {
            let lease = engine.execute(kernel).expect("run succeeds");
            // Touch the results the way serialization would read them.
            std::hint::black_box(lease.outputs().len());
            std::hint::black_box(lease.counters().flops);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state serving must not allocate on the execution path \
         (saw {allocs} allocations over 10 runs)"
    );
}

#[test]
fn interleaving_kernels_stays_allocation_free_once_both_are_warm() {
    let (engine, ssymv) = warmed_engine();
    let resp = engine.handle(&Request::Prepare {
        einsum: "for i, j: y[] += x[i] * A[i, j] * x[j]".into(),
        sym: vec!["A".into()],
        inputs: vec![],
        variant: Variant::Systec,
        threads: Some(1),
        sharded: false,
    });
    let Response::Prepared { kernel: syprd, .. } = resp else { panic!("{resp:?}") };
    for _ in 0..3 {
        drop(engine.execute(ssymv).unwrap());
        drop(engine.execute(syprd).unwrap());
    }
    let allocs = allocations_in(|| {
        for _ in 0..10 {
            drop(engine.execute(ssymv).unwrap());
            drop(engine.execute(syprd).unwrap());
        }
    });
    assert_eq!(
        allocs, 0,
        "per-kernel slots keep interleaved serving allocation-free (saw {allocs})"
    );
}
