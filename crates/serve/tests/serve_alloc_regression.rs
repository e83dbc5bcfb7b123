//! Extends the PR 2 counting-allocator regression harness to a warmed
//! server worker: once an engine's pooled state is warm (run slots —
//! outputs, counters and execution context — sized by the first few
//! requests), the steady-state **execution path** of a `run` request —
//! [`systec_serve::Engine::execute`]: kernel lookup, slot checkout,
//! `run_timed_into`, latency recording, lease return —
//! performs **zero** heap allocations. Response serialization is kept
//! out of that region (it builds a fresh line per request by design)
//! and bounded on its own: [`Response::encode`] writes a `run` reply
//! straight into one pre-sized line, so a 40 000-value reply allocates
//! a small constant number of times — the line, not a node per value —
//! and about as often as a 10-value one.
//!
//! The same counter bounds the register decode: a `coo` payload reads
//! straight into flat buffers, so [`Request::decode`] of a 10 000-entry
//! line allocates about as often as that of a 10-entry one — buffer
//! growth, not a node or a `Vec` per entry. And a router's merge of two
//! shard legs ([`merge_run`]) reads their text in place and writes one
//! line: two 40 000-value legs cost about as many allocations as two
//! 10-value ones.
//!
//! The count is per thread and armed only around the measured runs, so
//! nothing else in the test process can charge them — not the other
//! test of this file, and not libtest's main thread, whose result
//! bookkeeping for a test that just finished was what used to land two
//! allocations (56 and 48 bytes, from a thread that was neither test)
//! in the other test's window about one run in twenty-five.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use systec_serve::protocol::{
    merge_run, CounterPayload, MergeRule, MergedCells, OutputPayload, Placement, Request, Response,
    StorageFormat, TensorPayload, Variant,
};
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
        payload: TensorPayload::Coo(entries.into_iter().collect()),
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

/// A `register_tensor` line of an `n`-entry symmetric band, as a client
/// encodes it.
fn register_line(n: usize) -> String {
    let side = n / 2 + 1;
    let entries = (0..n).map(|k| (vec![k / 2, k / 2 + k % 2], 0.25 + k as f64 / 3.0));
    Request::RegisterTensor {
        name: "A".into(),
        dims: vec![side, side],
        payload: TensorPayload::Coo(entries.collect()),
        format: StorageFormat::Auto,
        placement: Placement::Hash,
    }
    .encode()
}

#[test]
fn register_decode_allocates_per_buffer_not_per_entry() {
    let count = |n: usize| {
        let line = register_line(n);
        let mut decoded = None;
        let allocs = allocations_in(|| decoded = Some(Request::decode(&line)));
        let Some(Ok(Request::RegisterTensor { payload: TensorPayload::Coo(coo), .. })) = decoded
        else {
            panic!("the line decodes: {decoded:?}")
        };
        assert_eq!(coo.len(), n);
        allocs
    };
    let (small, large) = (count(10), count(10_000));
    assert!(large < 64, "a 10 000-entry decode allocated {large} times");
    let slack = 2.0 * (10_000f64).log2();
    assert!(
        large as f64 <= small as f64 + slack,
        "allocations grow with the entries: {small} for 10, {large} for 10 000"
    );
}

/// A `run` reply of `n` SSYMV-like values: 15–17 significant digits,
/// mixed signs.
fn run_reply(n: usize) -> Response {
    let values = (0..n).map(|k| (k as f64 * 0.37).sin() * 1e3 / 7.0).collect();
    let n = n as u64;
    Response::Ran {
        outputs: vec![OutputPayload { name: "y".into(), dims: vec![n as usize], values }],
        counters: CounterPayload {
            flops: 3 * n,
            writes: n,
            iterations: 2 * n,
            reads: vec![("A".into(), 2 * n), ("x".into(), 2 * n)],
        },
    }
}

#[test]
fn run_reply_encode_allocates_per_line_not_per_value() {
    let count = |n: usize| {
        let reply = run_reply(n);
        let mut line = String::new();
        let allocs = allocations_in(|| line = reply.encode());
        assert_eq!(Response::decode(&line).expect("the line decodes"), reply);
        allocs
    };
    let (small, large) = (count(10), count(40_000));
    assert!(large < 16, "a 40 000-value run reply allocated {large} times");
    assert!(
        large <= small + 2,
        "allocations grow with the values: {small} for 10, {large} for 40 000"
    );
}

/// The two legs of a two-shard SSYMV run over `n` rows, as their
/// workers print them: each leg writes its own half of `y` and the few
/// cells past it that a band of 12 reaches, and leaves every other cell
/// at the `add` identity.
fn ssymv_legs(n: usize) -> Vec<String> {
    let Response::Ran { outputs, counters } = run_reply(n) else { unreachable!() };
    let full = &outputs[0].values;
    (0..2)
        .map(|k| {
            let rows = k * n / 2..(k + 1) * n / 2;
            let reach = rows.start..(rows.end + 12).min(n);
            let values = (0..n).map(|i| if reach.contains(&i) { full[i] } else { 0.0 }).collect();
            let outputs = vec![OutputPayload { name: "y".into(), dims: vec![n], values }];
            Response::Ran { outputs, counters: counters.clone() }.encode()
        })
        .collect()
}

#[test]
fn leg_merge_allocates_per_line_not_per_value() {
    let merge = [("y".to_string(), MergeRule::Add)];
    let count = |n: usize| {
        let legs = ssymv_legs(n);
        let mut merged = (String::new(), MergedCells::default());
        let allocs = allocations_in(|| merged = merge_run(&legs, &merge));
        let (line, cells) = merged;
        let Ok(Response::Ran { outputs, .. }) = Response::decode(&line) else {
            panic!("the merge answered {line:.200}")
        };
        assert_eq!(outputs[0].values.len(), n);
        assert_eq!(cells.copied + cells.folded, n as u64);
        allocs
    };
    let (small, large) = (count(10), count(40_000));
    assert!(large < 48, "merging two 40 000-value legs allocated {large} times");
    assert!(
        large <= small + 2,
        "allocations grow with the values: {small} for 10, {large} for 40 000"
    );
}
