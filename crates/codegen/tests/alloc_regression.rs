//! Regression guard for the ROADMAP "reusable VM execution context"
//! item: once an [`ExecContext`] (and a reused `Counters`) is warm, the
//! serial steady-state execution path performs **zero** heap
//! allocations — register files, scratch, binding tables and counter
//! assembly all reuse caller-owned or stack storage. A counting global
//! allocator makes any regression an immediate test failure. The same
//! counter bounds `prepare_variants`: splitting a tensor allocates per
//! level, never per entry. A workspace row is sized on the first run
//! and reused after it.
//!
//! The count is per thread and armed only around the measured runs, so
//! the tests of this file (which the harness runs on parallel threads)
//! and the harness's own bookkeeping cannot charge each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use systec_codegen::{CompiledKernel, ExecContext, LaneMode, Parallelism};
use systec_core::Compiler;
use systec_exec::{alloc_outputs, hoist_conditions, lower, prepare_variants, Counters};
use systec_ir::build::*;
use systec_ir::{AssignOp, Einsum, Stmt};
use systec_kernels::defs;
use systec_tensor::{CooTensor, DenseTensor, Entries, LevelFormat, SparseTensor, Tensor, CSR};

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

fn compile(
    prog: &Stmt,
    inputs: &HashMap<String, Tensor>,
) -> (CompiledKernel, HashMap<String, DenseTensor>) {
    let hoisted = hoist_conditions(prog.clone());
    let outputs_init = alloc_outputs(&hoisted, inputs).unwrap();
    let lowered = lower(&hoisted, inputs, &outputs_init).unwrap();
    let kernel = CompiledKernel::compile(&lowered, inputs, &outputs_init).unwrap();
    (kernel, outputs_init)
}

fn csr(n: usize, entries: &[(usize, usize, f64)]) -> Tensor {
    let mut coo = CooTensor::new(vec![n, n]);
    for &(i, j, v) in entries {
        coo.set(&[i, j], v);
    }
    Tensor::Sparse(
        SparseTensor::from_coo(&coo, &[LevelFormat::Dense, LevelFormat::Sparse]).unwrap(),
    )
}

/// Warm the context, then assert the steady state allocates nothing.
fn assert_steady_state_alloc_free(
    kernel: &CompiledKernel,
    inputs: &HashMap<String, Tensor>,
    outputs: &mut HashMap<String, DenseTensor>,
    mut ctx: ExecContext,
    label: &str,
) {
    let mut counters = Counters::new();
    let mut run = |n: usize| {
        for _ in 0..n {
            kernel.run_with(inputs, outputs, &mut ctx, Parallelism::Serial, &mut counters).unwrap();
        }
    };
    run(3);
    let allocs = allocations_in(|| run(10));
    assert_eq!(
        allocs, 0,
        "{label}: steady-state serial execution must not allocate (saw {allocs} allocations over 10 runs)"
    );
}

#[test]
fn armed_counter_sees_this_threads_allocations() {
    // The guard below is only as good as the counter: one allocation
    // inside the armed region must register (and none outside it).
    assert_eq!(allocations_in(|| drop(std::hint::black_box(vec![0u8; 64]))), 1);
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(allocations_in(|| ()), 0);
}

#[test]
fn spmv_steady_state_is_allocation_free() {
    // Sparse driver walk + vectorized innermost loop + dense operand +
    // owned output: the common hot-path shapes.
    let einsum = Einsum::new(
        access("y", ["i"]),
        AssignOp::Add,
        mul([access("A", ["i", "j"]), access("x", ["j"])]),
        [idx("i"), idx("j")],
    );
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), csr(6, &[(0, 1, 2.0), (1, 0, 3.0), (2, 5, 4.0), (4, 4, 1.0)]));
    inputs.insert(
        "x".to_string(),
        Tensor::Dense(DenseTensor::from_vec(vec![6], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()),
    );
    let (kernel, outputs_init) = compile(&einsum.naive_program(), &inputs);
    let mut outputs = outputs_init;
    assert_steady_state_alloc_free(&kernel, &inputs, &mut outputs, ExecContext::new(), "spmv");
}

#[test]
fn min_plus_with_guards_steady_state_is_allocation_free() {
    // Miss bookkeeping (ClearMiss/JumpIfMiss), residual guards, scalar
    // reduction — the general (non-vectorized) dispatch path.
    let prog = Stmt::loops(
        [idx("i"), idx("j")],
        Stmt::guarded(
            ne("i", "j"),
            assign_op(
                access("y", ["i"]),
                AssignOp::Min,
                add([access("A", ["i", "j"]), access("x", ["j"])]),
            ),
        ),
    );
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), csr(5, &[(0, 1, 1.0), (2, 3, 2.0), (4, 0, 3.0)]));
    inputs.insert(
        "x".to_string(),
        Tensor::Dense(DenseTensor::from_vec(vec![5], vec![0.5, 1.5, 2.5, 3.5, 4.5]).unwrap()),
    );
    let (kernel, outputs_init) = compile(&prog, &inputs);
    let mut outputs = outputs_init;
    assert_steady_state_alloc_free(&kernel, &inputs, &mut outputs, ExecContext::new(), "min-plus");
}

#[test]
fn context_growth_settles_across_plans() {
    // Interleaving two plans of different sizes through one context
    // still reaches a steady state: buffers grow to the larger plan
    // once, then both plans run allocation-free.
    let spmv = Einsum::new(
        access("y", ["i"]),
        AssignOp::Add,
        mul([access("A", ["i", "j"]), access("x", ["j"])]),
        [idx("i"), idx("j")],
    );
    let mut inputs_small = HashMap::new();
    inputs_small.insert("A".to_string(), csr(4, &[(0, 1, 2.0), (3, 2, 1.0)]));
    inputs_small.insert(
        "x".to_string(),
        Tensor::Dense(DenseTensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap()),
    );
    let mut inputs_big = HashMap::new();
    inputs_big
        .insert("A".to_string(), csr(9, &[(0, 8, 2.0), (5, 2, 1.0), (7, 7, 3.0), (8, 0, 4.0)]));
    inputs_big.insert("x".to_string(), Tensor::Dense(DenseTensor::filled(vec![9], 1.5)));
    let (k_small, out_small) = compile(&spmv.naive_program(), &inputs_small);
    let (k_big, out_big) = compile(&spmv.naive_program(), &inputs_big);

    let mut ctx = ExecContext::new();
    let mut counters = Counters::new();
    let mut outputs_small = out_small;
    let mut outputs_big = out_big;
    let mut run = |n: usize| {
        for _ in 0..n {
            k_small
                .run_with(
                    &inputs_small,
                    &mut outputs_small,
                    &mut ctx,
                    Parallelism::Serial,
                    &mut counters,
                )
                .unwrap();
            k_big
                .run_with(
                    &inputs_big,
                    &mut outputs_big,
                    &mut ctx,
                    Parallelism::Serial,
                    &mut counters,
                )
                .unwrap();
        }
    };
    run(3);
    assert_eq!(allocations_in(|| run(6)), 0, "interleaved steady state must not allocate");
}

#[test]
fn run_length_dot_axpy_steady_state_is_allocation_free_in_both_lane_modes() {
    // The symmetric SSYMV pair over a run-length leaf: the closed-form
    // dot-axpy fold on the one drive kind the cases above do not reach,
    // in both lane modes. Plateau rows are long enough to clear the lane
    // cutover, so lane mode really runs the chunked fold.
    let n = 48;
    let mut coo = CooTensor::new(vec![n, n]);
    for i in 0..n {
        for j in 0..n {
            if (i / 6 + j / 6) % 2 == 0 {
                coo.set(&[i, j], 0.5 + ((i / 6) * (j / 6)) as f64);
            }
        }
    }
    let def = defs::ssymv();
    let a = SparseTensor::from_coo(&coo, &[LevelFormat::Dense, LevelFormat::RunLength]).unwrap();
    let mut inputs = HashMap::from([
        ("A".to_string(), Tensor::Sparse(a)),
        ("x".to_string(), Tensor::Dense(DenseTensor::filled(vec![n], 1.5))),
    ]);
    let main = Compiler::new().compile(&def.einsum, &def.symmetry).unwrap().main;
    let variants = prepare_variants(&hoist_conditions(main.clone()), &inputs).unwrap();
    inputs.extend(variants);
    let (kernel, outputs_init) = compile(&main, &inputs);
    let dis = kernel.disassemble();
    assert!(
        dis.contains("RowNest") && dis.contains("rle: true") && dis.contains("form: DotAxpy"),
        "{dis}"
    );
    for mode in [LaneMode::Lanes, LaneMode::Scalar] {
        let mut outputs = outputs_init.clone();
        let ctx = ExecContext::new().with_lane_mode(mode);
        assert_steady_state_alloc_free(
            &kernel,
            &inputs,
            &mut outputs,
            ctx,
            &format!("rle dot-axpy {mode:?}"),
        );
    }
}

#[test]
fn ssyrk_steady_state_is_allocation_free_in_both_lane_modes() {
    // SSYRK's symmetric plan: row `i` scattered into the workspace row
    // (sized on the first run, then reused), every row `j ≥ i`
    // gather-dotted against it in one row nest.
    let (n, m) = (40, 56);
    let mut coo = CooTensor::new(vec![n, m]);
    for i in 0..n {
        for k in [i, (3 * i + 5) % m, (7 * i + 2) % m, (11 * i + 9) % m] {
            coo.set(&[i, k], 0.5 + k as f64);
        }
    }
    let def = defs::ssyrk();
    let mut inputs = def.inputs([("A", coo.into())]).unwrap();
    let main = Compiler::new().compile(&def.einsum, &def.symmetry).unwrap().main;
    let variants = prepare_variants(&hoist_conditions(main.clone()), &inputs).unwrap();
    inputs.extend(variants);
    let (kernel, outputs_init) = compile(&main, &inputs);
    let dis = kernel.disassemble();
    assert!(dis.contains("Scatter {") && dis.contains("runner: WorkspaceDot {"), "{dis}");
    for mode in [LaneMode::Lanes, LaneMode::Scalar] {
        let mut outputs = outputs_init.clone();
        let ctx = ExecContext::new().with_lane_mode(mode);
        assert_steady_state_alloc_free(
            &kernel,
            &inputs,
            &mut outputs,
            ctx,
            &format!("ssyrk {mode:?}"),
        );
    }
}

#[test]
fn several_passing_items_steady_state_is_allocation_free() {
    // Two items of one vector loop whose guards both pass on the stored
    // diagonal: the coordinate-major walk resolves both bodies into
    // stack storage.
    let items = Stmt::block([
        Stmt::guarded(
            le("i", "j"),
            assign(access("C", ["i", "l"]), mul([scalar("a"), access("B", ["j", "l"]).into()])),
        ),
        Stmt::guarded(
            eq("i", "j"),
            assign(access("C", ["j", "l"]), mul([scalar("a"), access("B", ["i", "l"]).into()])),
        ),
    ]);
    let prog = Stmt::loops(
        [idx("i"), idx("j")],
        Stmt::Let {
            name: "a".into(),
            value: access("A", ["i", "j"]).into(),
            body: Box::new(Stmt::loops([idx("l")], items)),
        },
    );
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), csr(4, &[(0, 0, 2.0), (0, 3, 3.0), (2, 2, 4.0), (3, 1, 1.0)]));
    inputs.insert("B".to_string(), Tensor::Dense(DenseTensor::filled(vec![4, 3], 1.5)));
    let (kernel, outputs_init) = compile(&prog, &inputs);
    let dis = kernel.disassemble();
    assert!(dis.contains("guard: [(Le, 0, 1)]") && dis.contains("guard: [(Eq, 0, 1)]"), "{dis}");
    let mut outputs = outputs_init;
    assert_steady_state_alloc_free(&kernel, &inputs, &mut outputs, ExecContext::new(), "several");
}

#[test]
fn prepare_variants_allocates_per_level_not_per_entry() {
    // The `prepare_churn` shape: a CSR symmetric matrix with a full
    // diagonal and four off-diagonal pairs per row, 57 600 stored entries.
    let n = 6400;
    let mut entries = Entries::new(vec![n, n]);
    for i in 0..n {
        entries.try_push(&[i, i], 1.0).unwrap();
        for k in 1..=4 {
            let j = (i + 37 * k) % n;
            entries.try_push(&[i, j], 0.5).unwrap();
            entries.try_push(&[j, i], 0.5).unwrap();
        }
    }
    let a = entries.pack(&CSR).unwrap();
    assert_eq!(a.nnz(), 9 * n);
    let inputs = HashMap::from([
        ("A".to_string(), Tensor::Sparse(a)),
        ("x".to_string(), Tensor::Dense(DenseTensor::filled(vec![n], 1.0))),
    ]);
    let def = defs::ssymv();
    let main = hoist_conditions(Compiler::new().compile(&def.einsum, &def.symmetry).unwrap().main);
    let mut variants = HashMap::new();
    let allocs = allocations_in(|| variants = prepare_variants(&main, &inputs).unwrap());
    let stored = |name: &str| variants[name].as_sparse().expect("compressed like its base").nnz();
    // Only the canonical triangle: the diagonal and one entry per pair.
    assert_eq!((stored("A_diag"), stored("A_nondiag")), (n, 4 * n));
    // One walk, two packs: a handful of buffers per level and per part.
    // A `Vec` per entry, or a buffer grown by doubling, lands far above;
    // so does a keep rule evaluated through a map or an allocation.
    assert!(allocs < 64, "prepare_variants made {allocs} allocations for {} entries", 9 * n);
}
