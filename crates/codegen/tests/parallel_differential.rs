//! Differential tests of row-parallel execution: on randomized einsums
//! over randomized storage formats and thread counts (1, 2, 4, 7 — plus
//! `SYSTEC_TEST_THREADS`, which CI sets to exercise the parallel paths
//! on every push), the VM must agree with the tree-walking interpreter
//! bit for bit, except for a reduced output merged over several chunks
//! (within 1e-9), and with brute-force reference evaluation within 1e-9,
//! with **exact** merged-counter parity. A separate determinism test
//! pins bit-identical outputs and counters across repeated parallel
//! runs.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use systec_codegen::{CompiledKernel, ExecContext, MergeKind, Parallelism};
use systec_core::{Compiler, SymmetrySpec};
use systec_exec::reference::reference_einsum;
use systec_exec::{
    alloc_outputs, hoist_conditions, lower, prepare_variants, run_lowered, Counters,
};
use systec_ir::build::*;
use systec_ir::{AssignOp, Einsum, Stmt};
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

const TOL: f64 = 1e-9;

/// The thread counts every case runs under: a fixed ladder (serial,
/// even splits, an odd count that leaves ragged chunks) plus whatever
/// the CI job pins via `SYSTEC_TEST_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 7];
    if let Some(n) = std::env::var("SYSTEC_TEST_THREADS").ok().and_then(|v| v.parse().ok()) {
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// The outputs of `kernel` that a run at `threads` threads merges by
/// reduction over several chunks, which reassociates them.
fn reduced(kernel: &CompiledKernel, threads: usize) -> Vec<String> {
    let classes = if threads > 1 { kernel.split_outputs() } else { None };
    classes
        .unwrap_or_default()
        .into_iter()
        .filter_map(|(name, kind)| matches!(kind, MergeKind::Reduce(_)).then_some(name))
        .collect()
}

/// Asserts `got` is the interpreter's `want` bit for bit, except the
/// `reduced` outputs, which must be within [`TOL`] of it.
fn assert_outputs(
    got: &HashMap<String, DenseTensor>,
    want: &HashMap<String, DenseTensor>,
    reduced: &[String],
    label: &str,
) {
    for (name, t) in want {
        if reduced.contains(name) {
            let diff = got[name].max_abs_diff(t).expect(label);
            assert!(diff < TOL, "{label}: output {name} off by {diff:e}");
        } else {
            let bits =
                |t: &DenseTensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got[name]), bits(t), "{label}: output {name} differs bit for bit");
        }
    }
}

/// Compiles `prog` once and runs it on every thread count: the
/// interpreter anchors the expectation and every run must match it
/// ([`assert_outputs`]) with exactly equal counters. Returns the serial
/// outputs and counters.
fn run_matrix(
    prog: &Stmt,
    inputs: &HashMap<String, Tensor>,
    label: &str,
) -> (HashMap<String, DenseTensor>, Counters) {
    let hoisted = hoist_conditions(prog.clone());
    let outputs_init = alloc_outputs(&hoisted, inputs).expect(label);
    let lowered = lower(&hoisted, inputs, &outputs_init).expect(label);
    let kernel = CompiledKernel::compile(&lowered, inputs, &outputs_init).expect(label);

    let mut out_interp = outputs_init.clone();
    let c_interp = run_lowered(&lowered, inputs, &mut out_interp).expect(label);

    let mut out_serial = outputs_init.clone();
    let c_serial = kernel.run(inputs, &mut out_serial).expect(label);
    assert_eq!(c_serial, c_interp, "{label}: serial VM counter parity");
    assert_outputs(&out_serial, &out_interp, &[], &format!("{label}: serial"));

    let mut ctx = ExecContext::new();
    for threads in thread_counts() {
        let mut out_par = outputs_init.clone();
        let mut c_par = Counters::new();
        kernel
            .run_with(inputs, &mut out_par, &mut ctx, Parallelism::threads(threads), &mut c_par)
            .expect(label);
        assert_eq!(c_par, c_interp, "{label}: t={threads} merged-counter parity");
        let reduced = reduced(&kernel, threads);
        assert_outputs(&out_par, &out_interp, &reduced, &format!("{label}: t={threads}"));
    }
    (out_serial, c_serial)
}

/// Random sparse square matrix in the given format; values are drawn
/// from a small set so run-length levels actually form runs.
fn random_matrix(n: usize, nnz: usize, formats: &[LevelFormat], r: &mut StdRng) -> Tensor {
    let rank = formats.len();
    let mut coo = CooTensor::new(vec![n; rank]);
    for _ in 0..nnz {
        let coords: Vec<usize> = (0..rank).map(|_| r.gen_range(0..n)).collect();
        let v = [0.5, 1.0, 2.0][r.gen_range(0usize..3)];
        coo.set(&coords, v);
        if r.gen_bool(0.5) {
            let mut next = coords.clone();
            if next[rank - 1] + 1 < n {
                next[rank - 1] += 1;
                coo.set(&next, v);
            }
        }
    }
    Tensor::Sparse(SparseTensor::from_coo(&coo, formats).unwrap())
}

fn random_dense_vec(n: usize, r: &mut StdRng) -> Tensor {
    Tensor::Dense(
        DenseTensor::from_vec(vec![n], (0..n).map(|_| r.gen_range(0.1..2.0)).collect()).unwrap(),
    )
}

const MATRIX_FORMATS: &[&[LevelFormat]] = &[
    &[LevelFormat::Dense, LevelFormat::Sparse],
    &[LevelFormat::Sparse, LevelFormat::Sparse],
    &[LevelFormat::Dense, LevelFormat::RunLength],
    &[LevelFormat::Sparse, LevelFormat::RunLength],
    &[LevelFormat::Dense, LevelFormat::Dense],
];

#[test]
fn spmv_parallel_matches_reference_across_formats() {
    for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
        for seed in 0..4u64 {
            let mut r = StdRng::seed_from_u64(9000 + 100 * k as u64 + seed);
            let n = r.gen_range(3usize..16);
            let einsum = Einsum::new(
                access("y", ["i"]),
                AssignOp::Add,
                mul([access("A", ["i", "j"]), access("x", ["j"])]),
                [idx("i"), idx("j")],
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, 2 * n, formats, &mut r));
            inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
            let label = format!("spmv formats={formats:?} seed={seed}");
            let (out, _) = run_matrix(&einsum.naive_program(), &inputs, &label);
            let expected = reference_einsum(&einsum, &inputs).unwrap();
            assert!(out["y"].max_abs_diff(&expected).unwrap() < TOL, "{label}");
        }
    }
}

#[test]
fn scalar_reduction_and_min_plus_parallel_match() {
    // Rank-0 outputs (reduced through a length-1 private buffer) and
    // the tropical semiring (Min-merged buffers).
    for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
        let mut r = StdRng::seed_from_u64(9500 + k as u64);
        let n = 9;
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), random_matrix(n, 14, formats, &mut r));
        inputs.insert("d".to_string(), random_dense_vec(n, &mut r));

        let total = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
        );
        run_matrix(&total, &inputs, &format!("scalar-sum formats={formats:?}"));

        let bf = Einsum::new(
            access("y", ["i"]),
            AssignOp::Min,
            add([access("A", ["i", "j"]), access("d", ["j"])]),
            [idx("i"), idx("j")],
        );
        let label = format!("min-plus formats={formats:?}");
        let (out, _) = run_matrix(&bf.naive_program(), &inputs, &label);
        let expected = reference_einsum(&bf, &inputs).unwrap();
        assert!(out["y"].max_abs_diff(&expected).unwrap() < TOL, "{label}");
    }
}

#[test]
fn triangular_guards_parallel_match() {
    // Bounds and residual guards interact with the chunk windows at the
    // clamped heads; ragged thread counts (7) leave uneven chunks.
    let guards: Vec<(&str, Stmt)> = vec![
        (
            "le-bound",
            Stmt::loops(
                [idx("i"), idx("j")],
                Stmt::guarded(
                    le("j", "i"),
                    assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
                ),
            ),
        ),
        (
            "ne-residual",
            Stmt::loops(
                [idx("i"), idx("j")],
                Stmt::guarded(
                    ne("i", "j"),
                    assign(access("y", ["i"]), access("A", ["i", "j"]).into()),
                ),
            ),
        ),
        (
            "or-guard",
            Stmt::loops(
                [idx("i"), idx("j")],
                Stmt::guarded(
                    or([eq("i", "j"), gt("i", "j")]),
                    assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
                ),
            ),
        ),
    ];
    for (name, prog) in &guards {
        for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
            let mut r = StdRng::seed_from_u64(9700 + k as u64);
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(11, 20, formats, &mut r));
            run_matrix(prog, &inputs, &format!("guard {name} formats={formats:?}"));
        }
    }
}

#[test]
fn symmetric_pipeline_kernels_parallel_match() {
    // Full SySTeC pipeline output (diagonal splits — multiple top-level
    // loops — lets, workspaces) across owned and reduced output
    // classes, against the reference.
    let cases: Vec<(&str, Einsum, SymmetrySpec)> = vec![
        (
            "ssymv",
            Einsum::new(
                access("y", ["i"]),
                AssignOp::Add,
                mul([access("A", ["i", "j"]), access("x", ["j"])]),
                [idx("i"), idx("j")],
            ),
            SymmetrySpec::new().with_full("A", 2),
        ),
        (
            "syprd",
            Einsum::new(
                access("s", [] as [&str; 0]),
                AssignOp::Add,
                mul([access("x", ["i"]), access("A", ["i", "j"]), access("x", ["j"])]),
                [idx("i"), idx("j")],
            ),
            SymmetrySpec::new().with_full("A", 2),
        ),
        (
            "ssyrk",
            Einsum::new(
                access("C", ["i", "j"]),
                AssignOp::Add,
                mul([access("A", ["i", "k"]), access("A", ["j", "k"])]),
                [idx("i"), idx("j"), idx("k")],
            ),
            SymmetrySpec::new(),
        ),
    ];
    for (name, einsum, spec) in &cases {
        for seed in 0..3u64 {
            let mut r = StdRng::seed_from_u64(9800 + seed);
            let n = 10 + 3 * seed as usize;
            let mut coo = CooTensor::new(vec![n, n]);
            for _ in 0..(3 * n) {
                let (i, j) = (r.gen_range(0..n), r.gen_range(0..n));
                let v = r.gen_range(0.1..1.0);
                coo.set(&[i, j], v);
                if !spec.is_empty() {
                    coo.set(&[j, i], v);
                }
            }
            let mut inputs = HashMap::new();
            inputs.insert(
                "A".to_string(),
                Tensor::Sparse(
                    SparseTensor::from_coo(&coo, &[LevelFormat::Dense, LevelFormat::Sparse])
                        .unwrap(),
                ),
            );
            if einsum.rhs.accesses().iter().any(|a| a.tensor.name == "x") {
                inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
            }
            let kernel = Compiler::new().compile(einsum, spec).expect("compiles");
            let main = hoist_conditions(kernel.main.clone());
            let mut all_inputs = inputs.clone();
            all_inputs.extend(prepare_variants(&main, &inputs).unwrap());
            let label = format!("systec {name} seed={seed}");
            run_matrix(&main, &all_inputs, &label);
        }
    }
}

#[test]
fn randomized_sweep_counter_parity() {
    for seed in 0..30u64 {
        let mut r = StdRng::seed_from_u64(10_000 + seed);
        let n = r.gen_range(2usize..13);
        let formats = MATRIX_FORMATS[r.gen_range(0..MATRIX_FORMATS.len())];
        let concordant = r.gen_bool(0.5);
        let order = if concordant { [idx("i"), idx("j")] } else { [idx("j"), idx("i")] };
        let op = if r.gen_bool(0.5) { AssignOp::Add } else { AssignOp::Min };
        let rhs = if op == AssignOp::Add {
            mul([access("A", ["i", "j"]), access("x", ["j"])])
        } else {
            add([access("A", ["i", "j"]), access("x", ["j"])])
        };
        let einsum = Einsum::new(access("y", ["i"]), op, rhs, order);
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), random_matrix(n, n + 4, formats, &mut r));
        inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
        run_matrix(
            &einsum.naive_program(),
            &inputs,
            &format!("sweep seed={seed} formats={formats:?} op={op:?} concordant={concordant}"),
        );
    }
}

#[test]
fn new_vector_paths_parallel_match() {
    // Every loop shape this backend vectorizes beyond conforming
    // driver-only bodies — two-way sparse–sparse intersections (both
    // the fused dot form and the general item form), windowed
    // run-length drivers, and random-access gathers — must agree with
    // the interpreter with exact merged counters at every thread count.
    for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
        for seed in 0..2u64 {
            let mut r = StdRng::seed_from_u64(11_000 + 100 * k as u64 + seed);
            let n = r.gen_range(4usize..14);
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, 2 * n, formats, &mut r));
            inputs.insert("B".to_string(), random_matrix(n, 2 * n, MATRIX_FORMATS[1], &mut r));
            inputs.insert("x".to_string(), random_dense_vec(n, &mut r));

            // Two-way intersection over two tensors (row-owned output):
            // workspace rows, or the general path's per-coordinate probe
            // where the format leaves nothing to scatter.
            let isect = Einsum::new(
                access("C", ["i", "j"]),
                AssignOp::Add,
                mul([access("A", ["i", "k"]), access("B", ["j", "k"])]),
                [idx("i"), idx("j"), idx("k")],
            );
            let label = format!("par-isect formats={formats:?} seed={seed}");
            let (out, _) = run_matrix(&isect.naive_program(), &inputs, &label);
            let expected = reference_einsum(&isect, &inputs).unwrap();
            assert!(out["C"].max_abs_diff(&expected).unwrap() < TOL, "{label}");

            // The fused dot form: a workspace accumulation under a
            // triangular bound, the literal SSYRK shape.
            let dot = Stmt::loops(
                [idx("i"), idx("j")],
                Stmt::guarded(
                    le("i", "j"),
                    Stmt::Workspace {
                        name: "w".into(),
                        init: 0.0,
                        body: Box::new(Stmt::block([
                            Stmt::loops(
                                [idx("k")],
                                Stmt::Assign {
                                    lhs: systec_ir::Lhs::Scalar("w".into()),
                                    op: AssignOp::Add,
                                    rhs: mul([access("A", ["i", "k"]), access("B", ["j", "k"])]),
                                },
                            ),
                            assign(access("C", ["i", "j"]), scalar("w")),
                        ])),
                    },
                ),
            );
            run_matrix(&dot, &inputs, &format!("par-dot formats={formats:?} seed={seed}"));

            // Windowed run-length driver at the innermost level.
            let rle = Stmt::loops(
                [idx("i"), idx("j")],
                Stmt::guarded(
                    le("j", "i"),
                    assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
                ),
            );
            run_matrix(&rle, &inputs, &format!("par-rle formats={formats:?} seed={seed}"));

            // Random-access gather riding the compressed driver.
            let gather = Einsum::new(
                access("y", ["i"]),
                AssignOp::Add,
                mul([access("A", ["i", "j"]), access("B", ["j", "i"])]),
                [idx("i"), idx("j")],
            );
            let label = format!("par-gather formats={formats:?} seed={seed}");
            let (out, _) = run_matrix(&gather.naive_program(), &inputs, &label);
            let expected = reference_einsum(&gather, &inputs).unwrap();
            assert!(out["y"].max_abs_diff(&expected).unwrap() < TOL, "{label}");
        }
    }
}

#[test]
fn top_level_vector_heads_accept_chunk_windows() {
    // When the vectorized loop IS the split head — rank-1 co-iteration
    // at the root — workers clamp its coordinate window directly on the
    // vector instruction. Scalar outputs merge through per-worker
    // reduction buffers, so the chunk boundaries land inside the merge
    // and any windowing slip shows up as a value or counter mismatch.
    let pack1 = |coords: &[usize], n: usize, fmt: LevelFormat, r: &mut StdRng| {
        let mut coo = CooTensor::new(vec![n]);
        for &c in coords {
            coo.set(&[c], [0.5, 1.0, 2.0][r.gen_range(0usize..3)]);
        }
        Tensor::Sparse(SparseTensor::from_coo(&coo, &[fmt]).unwrap())
    };
    for seed in 0..6u64 {
        let mut r = StdRng::seed_from_u64(12_000 + seed);
        let n = r.gen_range(5usize..40);
        let coords_a: Vec<usize> = (0..r.gen_range(0..n)).map(|_| r.gen_range(0..n)).collect();
        let coords_b: Vec<usize> = (0..r.gen_range(0..n)).map(|_| r.gen_range(0..n)).collect();

        // Intersection dot at the root.
        let dot = Stmt::loops(
            [idx("k")],
            assign(access("s", [] as [&str; 0]), mul([access("a", ["k"]), access("b", ["k"])])),
        );
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), pack1(&coords_a, n, LevelFormat::Sparse, &mut r));
        inputs.insert("b".to_string(), pack1(&coords_b, n, LevelFormat::Sparse, &mut r));
        run_matrix(&dot, &inputs, &format!("top-isect seed={seed}"));

        // Run-length expansion at the root.
        let rle = Stmt::loops(
            [idx("k")],
            assign(access("s", [] as [&str; 0]), mul([access("a", ["k"]), access("x", ["k"])])),
        );
        inputs.insert("a".to_string(), pack1(&coords_a, n, LevelFormat::RunLength, &mut r));
        inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
        run_matrix(&rle, &inputs, &format!("top-rle seed={seed}"));
    }
}

#[test]
fn plain_row_kernels_are_splittable() {
    // Guard against the analysis silently rejecting everything (which
    // would make every parallel assertion above vacuously serial).
    let einsum = Einsum::new(
        access("y", ["i"]),
        AssignOp::Add,
        mul([access("A", ["i", "j"]), access("x", ["j"])]),
        [idx("i"), idx("j")],
    );
    let mut r = StdRng::seed_from_u64(1);
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), random_matrix(8, 12, MATRIX_FORMATS[0], &mut r));
    inputs.insert("x".to_string(), random_dense_vec(8, &mut r));
    let prog = hoist_conditions(einsum.naive_program());
    let outputs_init = alloc_outputs(&prog, &inputs).unwrap();
    let lowered = lower(&prog, &inputs, &outputs_init).unwrap();
    let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
    assert!(kernel.splittable(), "row-addressed spmv must split");

    // An overwrite scattered across rows is order-dependent: not
    // splittable, and Threads must silently run serial (same bits).
    let transpose = Stmt::loops(
        [idx("i"), idx("j")],
        store(access("C", ["j", "i"]), access("A", ["i", "j"]).into()),
    );
    let hoisted = hoist_conditions(transpose);
    let outputs_init = alloc_outputs(&hoisted, &inputs).unwrap();
    let lowered = lower(&hoisted, &inputs, &outputs_init).unwrap();
    let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
    assert!(!kernel.splittable(), "scattered overwrites must stay serial");
    run_matrix(
        &Stmt::loops(
            [idx("i"), idx("j")],
            store(access("C", ["j", "i"]), access("A", ["i", "j"]).into()),
        ),
        &inputs,
        "transpose stays serial",
    );
}

#[test]
fn chunked_gathers_survive_hostile_window_splits() {
    // The gather bank's monotone gallop cursors are re-derived at every
    // vector-loop entry, including entries whose drive window was
    // clamped by a parallel chunk split, and worker contexts are reused
    // across consecutive chunks. This ladder makes those boundaries
    // hostile — thread counts that leave single-row and empty chunks on
    // tiny and prime-sized iteration spaces — across every gather
    // shape: root-varying with a gallop cursor, leaf-varying under an
    // invariant prefix, middle-varying with both an invariant prefix
    // and a per-hit suffix descent, and the diagonal self-gather whose
    // two varying positions force the stateless full-path search.
    let hostile = |prog: &Stmt, inputs: &HashMap<String, Tensor>, label: &str| {
        let hoisted = hoist_conditions(prog.clone());
        let outputs_init = alloc_outputs(&hoisted, inputs).expect(label);
        let lowered = lower(&hoisted, inputs, &outputs_init).expect(label);
        let kernel = CompiledKernel::compile(&lowered, inputs, &outputs_init).expect(label);
        let mut out_interp = outputs_init.clone();
        let c_interp = run_lowered(&lowered, inputs, &mut out_interp).expect(label);
        let mut ctx = ExecContext::new();
        for threads in [1usize, 2, 3, 4, 5, 7, 9] {
            let mut out = outputs_init.clone();
            let mut counters = Counters::new();
            kernel
                .run_with(inputs, &mut out, &mut ctx, Parallelism::threads(threads), &mut counters)
                .expect(label);
            assert_eq!(counters, c_interp, "{label}: t={threads} counter parity");
            let reduced = reduced(&kernel, threads);
            assert_outputs(&out, &out_interp, &reduced, &format!("{label}: t={threads}"));
        }
    };

    for n in [3usize, 7, 13] {
        for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
            let mut r = StdRng::seed_from_u64(13_000 + 100 * n as u64 + k as u64);
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, 2 * n, formats, &mut r));
            inputs.insert("B".to_string(), random_matrix(n, 2 * n, MATRIX_FORMATS[1], &mut r));
            inputs.insert("x".to_string(), random_dense_vec(n, &mut r));

            // Root-varying gather: B's cursor gallops along j per row.
            let driven = Einsum::new(
                access("y", ["i"]),
                AssignOp::Add,
                mul([access("A", ["i", "j"]), access("B", ["j", "i"])]),
                [idx("i"), idx("j")],
            );
            hostile(
                &driven.naive_program(),
                &inputs,
                &format!("hostile-driven n={n} formats={formats:?}"),
            );

            // Diagonal self-gather: j occurs at both of B's positions,
            // so there is no cursor — every coordinate is a full search.
            let diag = Einsum::new(
                access("y", ["i"]),
                AssignOp::Add,
                mul([access("A", ["i", "j"]), access("B", ["j", "j"])]),
                [idx("i"), idx("j")],
            );
            hostile(
                &diag.naive_program(),
                &inputs,
                &format!("hostile-diag n={n} formats={formats:?}"),
            );
        }

        // Leaf-varying (empty suffix) and middle-varying (prefix and
        // suffix both non-empty) gathers into 3-d CSF storage.
        let csf: &[LevelFormat] = &[LevelFormat::Dense, LevelFormat::Sparse, LevelFormat::Sparse];
        let mut r = StdRng::seed_from_u64(13_500 + n as u64);
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), random_matrix(n, 2 * n, csf, &mut r));
        inputs.insert("T".to_string(), random_matrix(n, 2 * n, csf, &mut r));
        inputs.insert("M".to_string(), random_matrix(n, 2 * n, MATRIX_FORMATS[0], &mut r));
        inputs.insert("x".to_string(), random_dense_vec(n, &mut r));

        let leaf = Einsum::new(
            access("s", [] as [&str; 0]),
            AssignOp::Add,
            mul([access("A", ["k", "i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("k"), idx("j")],
        );
        hostile(&leaf.naive_program(), &inputs, &format!("hostile-leaf n={n}"));

        let middle = Einsum::new(
            access("y", ["i"]),
            AssignOp::Add,
            mul([access("M", ["i", "j"]), access("T", ["i", "j", "i"])]),
            [idx("i"), idx("j")],
        );
        hostile(&middle.naive_program(), &inputs, &format!("hostile-middle n={n}"));
    }
}

#[test]
fn parallel_runs_are_bit_deterministic() {
    // 20 repeated runs of each parallel kernel with identical inputs
    // must produce bit-identical outputs and identical counters: chunk
    // boundaries and merge order are fixed, never first-come.
    let einsum = Einsum::new(
        access("y", ["i"]),
        AssignOp::Add,
        mul([access("A", ["i", "j"]), access("x", ["j"])]),
        [idx("i"), idx("j")],
    );
    let spec = SymmetrySpec::new().with_full("A", 2);
    let mut r = StdRng::seed_from_u64(77);
    let n = 64;
    let mut coo = CooTensor::new(vec![n, n]);
    for _ in 0..(6 * n) {
        let (i, j) = (r.gen_range(0..n), r.gen_range(0..n));
        let v = r.gen_range(0.1..1.0);
        coo.set(&[i, j], v);
        coo.set(&[j, i], v);
    }
    let mut inputs = HashMap::new();
    inputs.insert(
        "A".to_string(),
        Tensor::Sparse(
            SparseTensor::from_coo(&coo, &[LevelFormat::Dense, LevelFormat::Sparse]).unwrap(),
        ),
    );
    inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
    let kernel = Compiler::new().compile(&einsum, &spec).expect("compiles");
    let main = hoist_conditions(kernel.main.clone());
    let mut all_inputs = inputs.clone();
    all_inputs.extend(prepare_variants(&main, &inputs).unwrap());
    let outputs_init = alloc_outputs(&main, &all_inputs).unwrap();
    let lowered = lower(&main, &all_inputs, &outputs_init).unwrap();
    let compiled = CompiledKernel::compile(&lowered, &all_inputs, &outputs_init).unwrap();
    assert!(compiled.splittable());

    for threads in [3usize, 4] {
        let mut ctx = ExecContext::new();
        let mut reference_bits: Option<Vec<u64>> = None;
        let mut reference_counters: Option<Counters> = None;
        for rep in 0..20 {
            let mut outputs = outputs_init.clone();
            let mut counters = Counters::new();
            compiled
                .run_with(
                    &all_inputs,
                    &mut outputs,
                    &mut ctx,
                    Parallelism::threads(threads),
                    &mut counters,
                )
                .unwrap();
            let bits: Vec<u64> = outputs["y"].as_slice().iter().map(|v| v.to_bits()).collect();
            match (&reference_bits, &reference_counters) {
                (None, _) => {
                    reference_bits = Some(bits);
                    reference_counters = Some(counters);
                }
                (Some(expect), Some(c_expect)) => {
                    assert_eq!(&bits, expect, "t={threads} rep={rep}: output bits drifted");
                    assert_eq!(&counters, c_expect, "t={threads} rep={rep}: counters drifted");
                }
                _ => unreachable!(),
            }
        }
    }
}
