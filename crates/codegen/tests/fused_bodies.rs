//! Differential ladders for the fused-body specialization layer: one
//! ladder per recognized pattern (dot, axpy, scale-store, gather-dot,
//! RLE-strided dot, the symmetric dot-axpy pair), each asserting the
//! selection *by name* in the disassembly and then agreement between
//! the bytecode VM (which takes the fused path) and the tree-walking
//! interpreter (which has no fused path at all) — byte-identical in
//! scalar lane mode, within 1e-9 in the default lane mode, counters
//! exact in both — across storage formats and random data. A
//! several-items ladder drives the coordinate-major walk of a loop
//! whose guards overlap, and a fallback ladder proves non-conforming
//! bodies stay off the vector path with identical results.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use systec_codegen::{CompiledKernel, ExecContext, LaneMode, Parallelism};
use systec_core::{CompileOptions, Compiler};
use systec_exec::{
    alloc_outputs, hoist_conditions, lower, prepare_variants, run_lowered, Counters, LoweredProgram,
};
use systec_ir::build::*;
use systec_ir::{AssignOp, Stmt};
use systec_kernels::defs;
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

/// Compiles `prog`, asserting every `needle` appears in the
/// disassembly, then runs both backends on it ([`assert_backends_match`]).
/// Returns the lane-mode outputs.
fn select_and_match(
    prog: &Stmt,
    inputs: &HashMap<String, Tensor>,
    needles: &[&str],
    label: &str,
) -> HashMap<String, DenseTensor> {
    let hoisted = hoist_conditions(prog.clone());
    let outputs_init = alloc_outputs(&hoisted, inputs).expect(label);
    let lowered = lower(&hoisted, inputs, &outputs_init).expect(label);
    let compiled = CompiledKernel::compile(&lowered, inputs, &outputs_init).expect(label);
    let dis = compiled.disassemble();
    for needle in needles {
        assert!(dis.contains(needle), "{label}: expected {needle:?} in:\n{dis}");
    }
    assert_backends_match(&lowered, &compiled, inputs, outputs_init, label)
}

/// The scalar-mode VM must be byte-identical to the interpreter, the
/// lane-mode VM (the default) within 1e-9, and counters exact in both
/// modes. Returns the lane-mode outputs.
fn assert_backends_match(
    lowered: &LoweredProgram,
    compiled: &CompiledKernel,
    inputs: &HashMap<String, Tensor>,
    outputs_init: HashMap<String, DenseTensor>,
    label: &str,
) -> HashMap<String, DenseTensor> {
    let mut out_vm = outputs_init.clone();
    let c_vm = compiled.run(inputs, &mut out_vm).expect(label);

    let mut scalar_ctx = ExecContext::new().with_lane_mode(LaneMode::Scalar);
    let mut out_scalar = outputs_init.clone();
    let mut c_scalar = Counters::new();
    compiled
        .run_with(inputs, &mut out_scalar, &mut scalar_ctx, Parallelism::Serial, &mut c_scalar)
        .expect(label);

    let mut out_interp = outputs_init;
    let c_interp = run_lowered(lowered, inputs, &mut out_interp).expect(label);
    for (name, t) in &out_interp {
        assert_eq!(&out_scalar[name], t, "{label}: scalar-mode output {name} differs");
        let diff = out_vm[name].max_abs_diff(t).expect(label);
        assert!(diff < 1e-9, "{label}: lane-mode output {name} off by {diff:e}");
    }
    assert_eq!(c_vm, c_interp, "{label}: lane-mode counter parity violated");
    assert_eq!(c_scalar, c_interp, "{label}: scalar-mode counter parity violated");
    out_vm
}

/// Random sparse matrix with runs (so RunLength levels form runs).
fn random_matrix(n: usize, nnz: usize, formats: &[LevelFormat], r: &mut StdRng) -> Tensor {
    let mut coo = CooTensor::new(vec![n; formats.len()]);
    for _ in 0..nnz {
        let coords: Vec<usize> = (0..formats.len()).map(|_| r.gen_range(0..n)).collect();
        let v = [0.5, 1.0, 2.0][r.gen_range(0usize..3)];
        coo.set(&coords, v);
        if r.gen_bool(0.5) {
            let mut next = coords.clone();
            if next[formats.len() - 1] + 1 < n {
                next[formats.len() - 1] += 1;
                coo.set(&next, v);
            }
        }
    }
    Tensor::Sparse(SparseTensor::from_coo(&coo, formats).unwrap())
}

fn random_vec(n: usize, r: &mut StdRng) -> Tensor {
    Tensor::Dense(
        DenseTensor::from_vec(vec![n], (0..n).map(|_| r.gen_range(0.1..2.0)).collect()).unwrap(),
    )
}

const COMPRESSED: &[&[LevelFormat]] =
    &[&[LevelFormat::Dense, LevelFormat::Sparse], &[LevelFormat::Sparse, LevelFormat::Sparse]];

/// `y[i] += A[i,j] * x[j]` — a row dot into a loop-invariant output
/// cell: the closed `Dot` form with the register-held accumulator, its row
/// loop and compressed inner loop collapsed into one row nest.
#[test]
fn dot_ladder() {
    for (k, formats) in COMPRESSED.iter().enumerate() {
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(9000 + 100 * k as u64 + seed);
            let n = r.gen_range(3usize..9);
            let prog = Stmt::loops(
                [idx("i"), idx("j")],
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, n + 3, formats, &mut r));
            inputs.insert("x".to_string(), random_vec(n, &mut r));
            select_and_match(
                &prog,
                &inputs,
                &["form: Dot(", "RowNest", "rle: false"],
                &format!("dot formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// `y[j] += 2·A[i,j]` — a strided reducing store per coordinate:
/// the generic runner.
#[test]
fn axpy_ladder() {
    for (k, formats) in COMPRESSED.iter().enumerate() {
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(9100 + 100 * k as u64 + seed);
            let n = r.gen_range(3usize..9);
            let prog = Stmt::loops(
                [idx("i"), idx("j")],
                assign(access("y", ["j"]), mul([lit(2.0), access("A", ["i", "j"]).into()])),
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, n + 3, formats, &mut r));
            select_and_match(
                &prog,
                &inputs,
                &["runner: Generic"],
                &format!("axpy formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// `C[i,j] = 2·B[i,j]` over a dense operand — an overwriting store per
/// coordinate of the vectorized dense loop, through the generic runner.
/// (An overwrite can't sparsify — every coordinate must be written — so
/// the drive is the counted dense loop.)
#[test]
fn scale_store_ladder() {
    for seed in 0..8u64 {
        let mut r = StdRng::seed_from_u64(9200 + seed);
        let n = r.gen_range(3usize..9);
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            store(access("C", ["i", "j"]), mul([lit(2.0), access("B", ["i", "j"]).into()])),
        );
        let mut inputs = HashMap::new();
        let data: Vec<f64> = (0..n * n).map(|_| r.gen_range(0.1..2.0)).collect();
        inputs.insert(
            "B".to_string(),
            Tensor::Dense(DenseTensor::from_vec(vec![n, n], data).unwrap()),
        );
        select_and_match(
            &prog,
            &inputs,
            &["runner: Generic", "VecDenseLoop"],
            &format!("scale-store seed={seed}"),
        );
    }
}

/// `y[i] += A[i,j] * B[j,i]` — the second operand binds discordantly
/// and gathers per coordinate, through the generic runner (with annihilator
/// miss semantics on the store).
#[test]
fn gather_dot_ladder() {
    for (k, formats) in COMPRESSED.iter().enumerate() {
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(9300 + 100 * k as u64 + seed);
            let n = r.gen_range(3usize..9);
            let prog = Stmt::loops(
                [idx("i"), idx("j")],
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("B", ["j", "i"])])),
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, n + 3, formats, &mut r));
            inputs.insert("B".to_string(), random_matrix(n, n + 3, formats, &mut r));
            select_and_match(
                &prog,
                &inputs,
                &["runner: Generic", "Gather {"],
                &format!("gather-dot formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// The dot ladder over a run-length driver: the closed `Dot` form executed
/// by the run-expanding strided drive of a run-length row nest.
#[test]
fn rle_strided_dot_ladder() {
    for (k, formats) in [
        &[LevelFormat::Dense, LevelFormat::RunLength][..],
        &[LevelFormat::Sparse, LevelFormat::RunLength][..],
    ]
    .iter()
    .enumerate()
    {
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(9400 + 100 * k as u64 + seed);
            let n = r.gen_range(4usize..10);
            let prog = Stmt::loops(
                [idx("i"), idx("j")],
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, 2 * n, formats, &mut r));
            inputs.insert("x".to_string(), random_vec(n, &mut r));
            select_and_match(
                &prog,
                &inputs,
                &["form: Dot(", "RowNest", "rle: true"],
                &format!("rle-dot formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// The naive symmetric pair — `let a = A[i,j]: y[i] += a·x[j];
/// y[j] += a·x[i]` — two strided stores per coordinate and no
/// register-held accumulator: it vectorizes through the generic runner.
#[test]
fn dot_axpy_ladder() {
    for (k, formats) in COMPRESSED.iter().enumerate() {
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(9500 + 100 * k as u64 + seed);
            let n = r.gen_range(3usize..9);
            let body = Stmt::Let {
                name: "a".into(),
                value: access("A", ["i", "j"]).into(),
                body: Box::new(Stmt::block([
                    assign(access("y", ["i"]), mul([scalar("a"), access("x", ["j"]).into()])),
                    assign(access("y", ["j"]), mul([scalar("a"), access("x", ["i"]).into()])),
                ])),
            };
            let prog = Stmt::loops([idx("i"), idx("j")], body);
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, n + 3, formats, &mut r));
            inputs.insert("x".to_string(), random_vec(n, &mut r));
            select_and_match(
                &prog,
                &inputs,
                &["runner: Generic"],
                &format!("dot-axpy formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// SSYMV's symmetric body — `let a = A[i,j]: w += a·x[j]; y[j] += a·xi`
/// with the workspace `w` and `xi = x[i]` bound per row — selects the
/// combined closed `DotAxpy` form over dense-rooted rows (a compressed root
/// is probed per row, so its inner loop stays on the general path).
#[test]
fn workspace_dot_axpy_ladder() {
    let dense_rooted: &[&[LevelFormat]] = &[
        &[LevelFormat::Dense, LevelFormat::Sparse],
        &[LevelFormat::Dense, LevelFormat::RunLength],
    ];
    for (k, formats) in dense_rooted.iter().enumerate() {
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(9550 + 100 * k as u64 + seed);
            let n = r.gen_range(3usize..9);
            let pair = Stmt::Let {
                name: "a".into(),
                value: access("A", ["i", "j"]).into(),
                body: Box::new(Stmt::block([
                    Stmt::Assign {
                        lhs: systec_ir::Lhs::Scalar("w".into()),
                        op: AssignOp::Add,
                        rhs: mul([scalar("a"), access("x", ["j"]).into()]),
                    },
                    assign(access("y", ["j"]), mul([scalar("a"), scalar("xi")])),
                ])),
            };
            let row = Stmt::Let {
                name: "xi".into(),
                value: access("x", ["i"]).into(),
                body: Box::new(Stmt::Workspace {
                    name: "w".into(),
                    init: 0.0,
                    body: Box::new(Stmt::block([
                        Stmt::loops([idx("j")], pair),
                        assign(access("y", ["i"]), scalar("w")),
                    ])),
                }),
            };
            let prog = Stmt::loops([idx("i")], row);
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, n + 3, formats, &mut r));
            inputs.insert("x".to_string(), random_vec(n, &mut r));
            select_and_match(
                &prog,
                &inputs,
                &["form: DotAxpy"],
                &format!("workspace dot-axpy formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// The formats of the several-items ladder: compressed, hypersparse
/// and run-length rows.
const ROW_FORMATS: &[&[LevelFormat]] = &[
    &[LevelFormat::Dense, LevelFormat::Sparse],
    &[LevelFormat::Sparse, LevelFormat::Sparse],
    &[LevelFormat::Dense, LevelFormat::RunLength],
];

/// `n × n` matrix with a stored diagonal (so `i == j` guards pass) and a
/// dense `n × m` factor.
fn diagonal_matrix_and_factor(
    n: usize,
    m: usize,
    formats: &[LevelFormat],
    r: &mut StdRng,
) -> HashMap<String, Tensor> {
    let mut coo = CooTensor::new(vec![n, n]);
    for i in 0..n {
        coo.set(&[i, i], r.gen_range(0.1..2.0));
        coo.set(&[r.gen_range(0..n), r.gen_range(0..n)], r.gen_range(0.1..2.0));
    }
    let b: Vec<f64> = (0..n * m).map(|_| r.gen_range(0.1..2.0)).collect();
    HashMap::from([
        ("A".to_string(), Tensor::Sparse(SparseTensor::from_coo(&coo, formats).unwrap())),
        ("B".to_string(), Tensor::Dense(DenseTensor::from_vec(vec![n, m], b).unwrap())),
    ])
}

/// `let a = A[i,j]` around `for l: if i <= j: C[i,l] += a·B[j,l];
/// if i == j: C[j,l] += a·B[i,l]` — the innermost `l` loop carries two items whose guards both pass on
/// the diagonal, where they even store into the same cells: the bodies
/// run coordinate-major, side by side, in interpreter order.
#[test]
fn several_items_ladder() {
    for (k, formats) in ROW_FORMATS.iter().enumerate() {
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(9700 + 100 * k as u64 + seed);
            let n = r.gen_range(3usize..9);
            // Factor widths on both sides of the lane cutover.
            let m = [3, 20][seed as usize % 2];
            let items = Stmt::block([
                Stmt::guarded(
                    le("i", "j"),
                    assign(
                        access("C", ["i", "l"]),
                        mul([scalar("a"), access("B", ["j", "l"]).into()]),
                    ),
                ),
                Stmt::guarded(
                    eq("i", "j"),
                    assign(
                        access("C", ["j", "l"]),
                        mul([scalar("a"), access("B", ["i", "l"]).into()]),
                    ),
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
            let inputs = diagonal_matrix_and_factor(n, m, formats, &mut r);
            select_and_match(
                &prog,
                &inputs,
                &["VecDenseLoop", "guard: [(Le, 0, 1)]", "guard: [(Eq, 0, 1)]"],
                &format!("several formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// The same two guards, but the second item reads the scalar the first
/// accumulates (`w += a·B[j,l]` / `C[j,l] += B[i,l]·w`): no
/// entry-time snapshot of `w` serves the second item, so the loop is not
/// vectorized at all — and still matches on the general path.
#[test]
fn dependent_items_are_not_vectorized() {
    for (k, formats) in ROW_FORMATS.iter().enumerate() {
        for seed in 0..4u64 {
            let mut r = StdRng::seed_from_u64(9800 + 100 * k as u64 + seed);
            let n = r.gen_range(3usize..9);
            let items = Stmt::block([
                Stmt::guarded(
                    le("i", "j"),
                    Stmt::Assign {
                        lhs: systec_ir::Lhs::Scalar("w".into()),
                        op: AssignOp::Add,
                        rhs: mul([scalar("a"), access("B", ["j", "l"]).into()]),
                    },
                ),
                Stmt::guarded(
                    eq("i", "j"),
                    assign(
                        access("C", ["j", "l"]),
                        mul([access("B", ["i", "l"]).into(), scalar("w")]),
                    ),
                ),
            ]);
            let prog = Stmt::loops(
                [idx("i"), idx("j")],
                Stmt::Let {
                    name: "a".into(),
                    value: access("A", ["i", "j"]).into(),
                    body: Box::new(Stmt::Workspace {
                        name: "w".into(),
                        init: 0.0,
                        body: Box::new(Stmt::loops([idx("l")], items)),
                    }),
                },
            );
            let inputs = diagonal_matrix_and_factor(n, 5, formats, &mut r);
            let label = format!("dependent formats={formats:?} seed={seed}");
            assert_not_vectorized(&prog, &inputs, &label);
        }
    }
}

/// Compiles `prog`, asserts no vector loop or row nest appears in its
/// disassembly, and runs both backends on it.
fn assert_not_vectorized(prog: &Stmt, inputs: &HashMap<String, Tensor>, label: &str) {
    let hoisted = hoist_conditions(prog.clone());
    let outputs_init = alloc_outputs(&hoisted, inputs).expect(label);
    let lowered = lower(&hoisted, inputs, &outputs_init).expect(label);
    let compiled = CompiledKernel::compile(&lowered, inputs, &outputs_init).expect(label);
    let dis = compiled.disassemble();
    assert!(
        !dis.contains("Vec") && !dis.contains("RowNest"),
        "{label}: the loop must stay on the general path:\n{dis}"
    );
    assert_backends_match(&lowered, &compiled, inputs, outputs_init, label);
}

/// Bodies the vectorizer must refuse: a fold that reads the scalar slot
/// it accumulates into (`w += A[i,j]·w`), which a register-held
/// accumulator could not serve, and MTTKRP-4 without common-access
/// elimination, whose canonical body re-reads every factor row per
/// store and so exceeds the load cap. Neither `j` loop may become a
/// vector loop or a row nest, and the general path still produces
/// byte-identical results and exact counters.
#[test]
fn nonconforming_body_is_not_vectorized() {
    for (k, formats) in COMPRESSED.iter().enumerate() {
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(9600 + 100 * k as u64 + seed);
            let n = r.gen_range(3usize..9);
            let prog = Stmt::loops(
                [idx("i")],
                Stmt::Workspace {
                    name: "w".into(),
                    init: 1.0,
                    body: Box::new(Stmt::block([
                        Stmt::loops(
                            [idx("j")],
                            Stmt::Assign {
                                lhs: systec_ir::Lhs::Scalar("w".into()),
                                op: AssignOp::Add,
                                rhs: mul([access("A", ["i", "j"]).into(), scalar("w")]),
                            },
                        ),
                        assign(access("y", ["i"]), scalar("w")),
                    ])),
                },
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, n + 3, formats, &mut r));
            let label = format!("fallback formats={formats:?} seed={seed}");
            assert_not_vectorized(&prog, &inputs, &label);
        }
    }

    let def = defs::mttkrp(4);
    let options = CompileOptions { cse: false, ..CompileOptions::default() };
    let kernel = Compiler::with_options(options).compile(&def.einsum, &def.symmetry).unwrap();
    let mut r = StdRng::seed_from_u64(9699);
    let (n, m) = (5, 3);
    let mut coo = CooTensor::new(vec![n; 4]);
    for _ in 0..12 {
        let mut coords: Vec<usize> = (0..4).map(|_| r.gen_range(0..n)).collect();
        let v = r.gen_range(0.1..2.0);
        // Every permutation of a sorted coordinate: a symmetric tensor.
        coords.sort_unstable();
        for p in def.symmetry.partition("A").expect("A is symmetric").permutations() {
            coo.set(&p.iter().map(|&k| coords[k]).collect::<Vec<_>>(), v);
        }
    }
    let b: Vec<f64> = (0..n * m).map(|_| r.gen_range(0.1..2.0)).collect();
    let factor = DenseTensor::from_vec(vec![n, m], b).unwrap();
    let mut inputs = def.inputs([("A", coo.into()), ("B", factor.into())]).unwrap();
    let main = hoist_conditions(kernel.main);
    inputs.extend(prepare_variants(&main, &inputs).unwrap());
    assert_not_vectorized(&main, &inputs, "mttkrp4 without cse");
}
