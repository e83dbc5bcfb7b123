//! Differential tests of the compiled backend: on randomized einsums
//! over randomized storage formats (CSR, CSF, run-length, all-sparse,
//! all-dense), the bytecode VM must agree with the tree-walking
//! interpreter bit for bit and with brute-force reference evaluation to
//! 1e-9, and the work counters must match the interpreter exactly.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use systec_codegen::CompiledKernel;
use systec_core::{Compiler, SymmetrySpec};
use systec_exec::reference::reference_einsum;
use systec_exec::{
    alloc_outputs, hoist_conditions, lower, prepare_variants, run_lowered, Counters,
};
use systec_ir::build::*;
use systec_ir::{AssignOp, Einsum, Stmt};
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

const TOL: f64 = 1e-9;

/// The bits of every value of `t`, so `-0.0` and `0.0` differ.
fn bits(t: &DenseTensor) -> Vec<u64> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs a (hoisted) program on both backends: the serial VM must give
/// the interpreter's output bits and counters exactly. Returns the VM's
/// outputs and counters.
fn run_both(
    prog: &Stmt,
    inputs: &HashMap<String, Tensor>,
    label: &str,
) -> (HashMap<String, DenseTensor>, Counters) {
    let hoisted = hoist_conditions(prog.clone());
    let outputs_init = alloc_outputs(&hoisted, inputs).expect(label);
    let lowered = lower(&hoisted, inputs, &outputs_init).expect(label);
    let compiled = CompiledKernel::compile(&lowered, inputs, &outputs_init).expect(label);

    let mut out_vm = outputs_init.clone();
    let c_vm = compiled.run(inputs, &mut out_vm).expect(label);

    let mut out_interp = outputs_init;
    let c_interp = run_lowered(&lowered, inputs, &mut out_interp).expect(label);

    assert_eq!(out_vm.len(), out_interp.len(), "{label}: output sets differ");
    for (name, t) in &out_interp {
        assert_eq!(bits(&out_vm[name]), bits(t), "{label}: output {name} differs bit for bit");
    }
    assert_eq!(c_vm, c_interp, "{label}: counter parity violated");
    (out_vm, c_vm)
}

/// Random sparse square matrix in the given format; values are drawn
/// from a small set so run-length levels actually form runs.
fn random_matrix(n: usize, nnz: usize, formats: &[LevelFormat], r: &mut StdRng) -> Tensor {
    let rank = formats.len();
    let mut coo = CooTensor::new(vec![n; rank]);
    for _ in 0..nnz {
        let coords: Vec<usize> = (0..rank).map(|_| r.gen_range(0..n)).collect();
        // Quantized values create mergeable runs for RunLength levels.
        let v = [0.5, 1.0, 2.0][r.gen_range(0usize..3)];
        coo.set(&coords, v);
        // Half the time, extend a run along the last mode.
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
    // CSR
    &[LevelFormat::Dense, LevelFormat::Sparse],
    // fully compressed (hypersparse)
    &[LevelFormat::Sparse, LevelFormat::Sparse],
    // run-length leaf under a dense root
    &[LevelFormat::Dense, LevelFormat::RunLength],
    // run-length leaf under a compressed root
    &[LevelFormat::Sparse, LevelFormat::RunLength],
    // fully dense storage of a sparse pattern
    &[LevelFormat::Dense, LevelFormat::Dense],
];

const CSF_FORMATS: &[&[LevelFormat]] = &[
    // 3-d CSF
    &[LevelFormat::Dense, LevelFormat::Sparse, LevelFormat::Sparse],
    // all-sparse
    &[LevelFormat::Sparse, LevelFormat::Sparse, LevelFormat::Sparse],
    // run-length leaf
    &[LevelFormat::Dense, LevelFormat::Sparse, LevelFormat::RunLength],
];

#[test]
fn spmv_matches_reference_across_formats() {
    for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
        for seed in 0..8u64 {
            let mut r = StdRng::seed_from_u64(1000 + 100 * k as u64 + seed);
            let n = r.gen_range(2usize..8);
            let einsum = Einsum::new(
                access("y", ["i"]),
                AssignOp::Add,
                mul([access("A", ["i", "j"]), access("x", ["j"])]),
                [idx("i"), idx("j")],
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, n + 2, formats, &mut r));
            inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
            let label = format!("spmv formats={formats:?} seed={seed}");
            let (out, _) = run_both(&einsum.naive_program(), &inputs, &label);
            let expected = reference_einsum(&einsum, &inputs).unwrap();
            assert!(out["y"].max_abs_diff(&expected).unwrap() < TOL, "{label}");
        }
    }
}

#[test]
fn discordant_loop_order_matches_reference() {
    // Loop order (j, i) over row-major formats forces random access.
    for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
        let mut r = StdRng::seed_from_u64(2000 + k as u64);
        let n = 6;
        let einsum = Einsum::new(
            access("y", ["i"]),
            AssignOp::Add,
            mul([access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("j"), idx("i")],
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), random_matrix(n, 9, formats, &mut r));
        inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
        let label = format!("discordant formats={formats:?}");
        let (out, _) = run_both(&einsum.naive_program(), &inputs, &label);
        let expected = reference_einsum(&einsum, &inputs).unwrap();
        assert!(out["y"].max_abs_diff(&expected).unwrap() < TOL, "{label}");
    }
}

#[test]
fn min_plus_semiring_matches_reference() {
    for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
        let mut r = StdRng::seed_from_u64(3000 + k as u64);
        let n = 7;
        let einsum = Einsum::new(
            access("y", ["i"]),
            AssignOp::Min,
            add([access("A", ["i", "j"]), access("d", ["j"])]),
            [idx("i"), idx("j")],
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), random_matrix(n, 10, formats, &mut r));
        inputs.insert("d".to_string(), random_dense_vec(n, &mut r));
        let label = format!("min-plus formats={formats:?}");
        let (out, _) = run_both(&einsum.naive_program(), &inputs, &label);
        let expected = reference_einsum(&einsum, &inputs).unwrap();
        assert!(out["y"].max_abs_diff(&expected).unwrap() < TOL, "{label}");
    }
}

#[test]
fn csf3_contraction_matches_reference() {
    for (k, formats) in CSF_FORMATS.iter().enumerate() {
        for seed in 0..4u64 {
            let mut r = StdRng::seed_from_u64(4000 + 10 * k as u64 + seed);
            let n = r.gen_range(3usize..6);
            let einsum = Einsum::new(
                access("C", ["i", "j"]),
                AssignOp::Add,
                mul([
                    access("A", ["i", "k", "l"]),
                    access("B", ["k", "j"]),
                    access("B", ["l", "j"]),
                ]),
                [idx("i"), idx("k"), idx("l"), idx("j")],
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, 2 * n, formats, &mut r));
            let b = DenseTensor::from_vec(
                vec![n, 3],
                (0..n * 3).map(|_| r.gen_range(0.1..1.5)).collect(),
            )
            .unwrap();
            inputs.insert("B".to_string(), Tensor::Dense(b));
            let label = format!("csf3 formats={formats:?} seed={seed}");
            let (out, _) = run_both(&einsum.naive_program(), &inputs, &label);
            let expected = reference_einsum(&einsum, &inputs).unwrap();
            assert!(out["C"].max_abs_diff(&expected).unwrap() < TOL, "{label}");
        }
    }
}

#[test]
fn guarded_programs_agree_between_backends() {
    // Triangle bounds, inequality residuals, and disjunctive guards —
    // the shapes the symmetrizer emits.
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
                [idx("j"), idx("i")],
                Stmt::guarded(
                    ne("i", "j"),
                    assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
                ),
            ),
        ),
        (
            "or-guard",
            Stmt::loops(
                [idx("j"), idx("i")],
                Stmt::guarded(
                    or([eq("i", "j"), gt("i", "j")]),
                    assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
                ),
            ),
        ),
        (
            "and-pair",
            Stmt::loops(
                [idx("i"), idx("j")],
                Stmt::guarded(
                    and([le("i", "j"), ne("i", "j")]),
                    assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
                ),
            ),
        ),
    ];
    for (name, prog) in &guards {
        for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
            let mut r = StdRng::seed_from_u64(5000 + k as u64);
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(6, 10, formats, &mut r));
            run_both(prog, &inputs, &format!("guard {name} formats={formats:?}"));
        }
    }
}

#[test]
fn symmetric_compiled_kernels_agree_on_both_backends() {
    // Full SySTeC pipeline output (lets, workspaces, diagonal splits,
    // replication) through both backends, against the reference.
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
        for (fk, formats) in MATRIX_FORMATS.iter().enumerate() {
            let seed = fk as u64 % 3;
            let mut r = StdRng::seed_from_u64(6000 + seed);
            let n = 8 + 2 * seed as usize;
            // Symmetrize data for declared symmetries; quantized values
            // plus run extension so RunLength leaves form real runs.
            let mut coo = CooTensor::new(vec![n, n]);
            for _ in 0..(2 * n) {
                let (i, j) = (r.gen_range(0..n), r.gen_range(0..n));
                let v = [0.25, 0.5, 0.75][r.gen_range(0usize..3)];
                let mut set_sym = |i: usize, j: usize| {
                    if spec.is_empty() {
                        coo.set(&[i, j], v);
                    } else {
                        coo.set(&[i, j], v);
                        coo.set(&[j, i], v);
                    }
                };
                set_sym(i, j);
                if r.gen_bool(0.5) && j + 1 < n {
                    set_sym(i, j + 1);
                }
            }
            let mut inputs = HashMap::new();
            inputs.insert(
                "A".to_string(),
                Tensor::Sparse(SparseTensor::from_coo(&coo, formats).unwrap()),
            );
            if einsum.rhs.accesses().iter().any(|a| a.tensor.name == "x") {
                inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
            }
            let kernel = Compiler::new().compile(einsum, spec).expect("compiles");
            let label = format!("systec {name} formats={formats:?} seed={seed}");

            // Main + replication, both backends, against the reference.
            let main = hoist_conditions(kernel.main.clone());
            let mut all_inputs = inputs.clone();
            all_inputs.extend(prepare_variants(&main, &inputs).unwrap());
            let (mut out_vm, _) = run_both(&main, &all_inputs, &label);
            if let Some(rep) = &kernel.replication {
                let rep = hoist_conditions(rep.clone());
                let lowered = lower(&rep, &all_inputs, &out_vm).unwrap();
                let compiled = CompiledKernel::compile(&lowered, &all_inputs, &out_vm).unwrap();
                let mut out_interp = out_vm.clone();
                let c_vm = compiled.run(&all_inputs, &mut out_vm).unwrap();
                let c_interp = run_lowered(&lowered, &all_inputs, &mut out_interp).unwrap();
                assert_eq!(c_vm, c_interp, "{label}: replication counters");
                let out_name = einsum.output.tensor.display_name();
                assert_eq!(out_vm[&out_name], out_interp[&out_name], "{label}: replication");
            }
            let expected = reference_einsum(einsum, &inputs).unwrap();
            let out_name = einsum.output.tensor.display_name();
            assert!(
                out_vm[&out_name].max_abs_diff(&expected).unwrap() < TOL,
                "{label}: differs from reference"
            );
        }
    }
}

#[test]
fn sparse_sparse_intersection_matches_reference() {
    // `C[i, j] += A[i, k] * B[j, k]` — the SSYRK probe shape over two
    // distinct tensors. Compressed×compressed leaf pairs compile to the
    // two-way intersection vector loop; every other ladder pair keeps
    // the general probed walk. Both must match the interpreter with
    // exact counters.
    for (ka, fa) in MATRIX_FORMATS.iter().enumerate() {
        for (kb, fb) in MATRIX_FORMATS.iter().enumerate() {
            for seed in 0..2u64 {
                let mut r = StdRng::seed_from_u64(8000 + 100 * ka as u64 + 10 * kb as u64 + seed);
                let n = r.gen_range(3usize..9);
                let einsum = Einsum::new(
                    access("C", ["i", "j"]),
                    AssignOp::Add,
                    mul([access("A", ["i", "k"]), access("B", ["j", "k"])]),
                    [idx("i"), idx("j"), idx("k")],
                );
                let mut inputs = HashMap::new();
                inputs.insert("A".to_string(), random_matrix(n, n + 3, fa, &mut r));
                inputs.insert("B".to_string(), random_matrix(n, n + 3, fb, &mut r));
                let label = format!("isect a={fa:?} b={fb:?} seed={seed}");
                let (out, _) = run_both(&einsum.naive_program(), &inputs, &label);
                let expected = reference_einsum(&einsum, &inputs).unwrap();
                assert!(out["C"].max_abs_diff(&expected).unwrap() < TOL, "{label}");
            }
        }
    }
}

#[test]
fn self_intersection_with_bounds_matches_reference() {
    // The literal SSYRK shape — both sides of the intersection walk the
    // same tensor, under a triangular bound on the middle loop.
    for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
        for seed in 0..3u64 {
            let mut r = StdRng::seed_from_u64(8300 + 10 * k as u64 + seed);
            let n = r.gen_range(4usize..10);
            let prog = Stmt::loops(
                [idx("i"), idx("j"), idx("k")],
                Stmt::guarded(
                    le("i", "j"),
                    assign(
                        access("C", ["i", "j"]),
                        mul([access("A", ["i", "k"]), access("A", ["j", "k"])]),
                    ),
                ),
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, 2 * n, formats, &mut r));
            run_both(&prog, &inputs, &format!("ssyrk-tri formats={formats:?} seed={seed}"));
        }
    }
}

#[test]
fn random_access_gathers_match_reference() {
    // `ReadSparseRandom` operands in the innermost loop, which stays on
    // the general path (a full search per coordinate): (a) a
    // leaf-varying read in a dense innermost loop, (b) a root-varying
    // read beside a compressed driver (miss-checked store).
    for (k, formats) in CSF_FORMATS.iter().enumerate() {
        for seed in 0..3u64 {
            let mut r = StdRng::seed_from_u64(8600 + 10 * k as u64 + seed);
            let n = r.gen_range(3usize..7);
            // (a) s[] += A[k, i, j] * x[j], loops i, k, j: mode 0 binds
            // after mode 1 (discordant), the innermost j is A's leaf.
            let leaf_gather = Einsum::new(
                access("s", [] as [&str; 0]),
                AssignOp::Add,
                mul([access("A", ["k", "i", "j"]), access("x", ["j"])]),
                [idx("i"), idx("k"), idx("j")],
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, 2 * n, formats, &mut r));
            inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
            let label = format!("leaf-gather formats={formats:?} seed={seed}");
            let (out, _) = run_both(&leaf_gather.naive_program(), &inputs, &label);
            let expected = reference_einsum(&leaf_gather, &inputs).unwrap();
            assert!(out["s"].max_abs_diff(&expected).unwrap() < TOL, "{label}");
        }
    }
    for (k, formats) in MATRIX_FORMATS.iter().enumerate() {
        for seed in 0..3u64 {
            let mut r = StdRng::seed_from_u64(8700 + 10 * k as u64 + seed);
            let n = r.gen_range(3usize..8);
            // (b) y[i] += A[i, j] * B[j, i]: A drives the inner loop, B
            // is a discordant random read whose misses annihilate.
            let driven_gather = Einsum::new(
                access("y", ["i"]),
                AssignOp::Add,
                mul([access("A", ["i", "j"]), access("B", ["j", "i"])]),
                [idx("i"), idx("j")],
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, n + 3, formats, &mut r));
            inputs.insert("B".to_string(), random_matrix(n, n + 3, MATRIX_FORMATS[0], &mut r));
            let label = format!("driven-gather formats={formats:?} seed={seed}");
            let (out, _) = run_both(&driven_gather.naive_program(), &inputs, &label);
            let expected = reference_einsum(&driven_gather, &inputs).unwrap();
            assert!(out["y"].max_abs_diff(&expected).unwrap() < TOL, "{label}");
        }
    }
}

#[test]
fn windowed_rle_drivers_match_reference() {
    // Run-length drivers at the innermost level under triangular
    // bounds: runs must clamp to the loop window coordinate-exactly.
    let rle_formats: &[&[LevelFormat]] = &[
        &[LevelFormat::Dense, LevelFormat::RunLength],
        &[LevelFormat::Sparse, LevelFormat::RunLength],
    ];
    for (k, formats) in rle_formats.iter().enumerate() {
        for seed in 0..4u64 {
            let mut r = StdRng::seed_from_u64(8900 + 10 * k as u64 + seed);
            let n = r.gen_range(4usize..10);
            let prog = Stmt::loops(
                [idx("i"), idx("j")],
                Stmt::guarded(
                    le("j", "i"),
                    assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
                ),
            );
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), random_matrix(n, 2 * n, formats, &mut r));
            inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
            run_both(&prog, &inputs, &format!("rle-window formats={formats:?} seed={seed}"));
        }
    }
}

#[test]
fn counters_match_across_many_random_cases() {
    // A broad, purely randomized sweep focused on counter parity.
    for seed in 0..40u64 {
        let mut r = StdRng::seed_from_u64(7000 + seed);
        let n = r.gen_range(2usize..7);
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
        inputs.insert("A".to_string(), random_matrix(n, n + 3, formats, &mut r));
        inputs.insert("x".to_string(), random_dense_vec(n, &mut r));
        run_both(
            &einsum.naive_program(),
            &inputs,
            &format!("sweep seed={seed} formats={formats:?} op={op:?} concordant={concordant}"),
        );
    }
}
