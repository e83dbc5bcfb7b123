//! Differential tier for workspace rows: an intersection whose driver
//! fiber (row `i`) is fixed across an enclosing loop (over rows `j`) is
//! compiled as one scatter of row `i` per outer iteration plus a loop
//! over row `j` that folds only where the scatter left a member. Every
//! plan here must select that form (asserted by name), and in every cell
//! of {serial, 2 threads, `SYSTEC_TEST_THREADS`} × chunked execution `k`
//! of `n ∈ {2, 3, 7}` it must reproduce the tree-walking interpreter with
//! output *bits* and every counter equal: the fold visits `row i ∩ row j`
//! in ascending `k`, exactly as the merge it replaces, and every output
//! here is owned by its row `i`.
//!
//! The inputs are built so that folding non-members — a workspace that
//! is zero-filled instead of recording membership — shows: stored zeros,
//! sums that are exactly `−0.0`, `±inf` outside the scattered row, a
//! min-plus semiring (where a phantom `0 + b` lowers the minimum), and
//! counters (a phantom term is a read and a flop).

use std::collections::HashMap;

use systec_codegen::{CompiledKernel, ExecContext, Parallelism};
use systec_core::Compiler;
use systec_exec::{alloc_outputs, hoist_conditions, lower, prepare_variants, Counters};
use systec_ir::build::*;
use systec_ir::{AssignOp, Stmt};
use systec_kernels::defs;
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

use LevelFormat::{Dense, Sparse};

const CSR: [LevelFormat; 2] = [Dense, Sparse];
const DCSR: [LevelFormat; 2] = [Sparse, Sparse];

/// `m` columns, rows from `(i, [(k, v)…])`; a `0.0` is a stored zero.
fn matrix(
    n: usize,
    m: usize,
    rows: &[(usize, &[(usize, f64)])],
    formats: [LevelFormat; 2],
) -> Tensor {
    let mut coo = CooTensor::new(vec![n, m]);
    for &(i, entries) in rows {
        for &(k, v) in entries {
            coo.set(&[i, k], v);
        }
    }
    Tensor::Sparse(SparseTensor::from_coo(&coo, &formats).expect("packs"))
}

/// Rows that hit every edge of the gather: empty rows, a row whose
/// columns no other row holds (empty intersections), stored zeros,
/// `±inf`, and rows of twenty entries with members and non-members
/// interleaved.
fn edges(formats: [LevelFormat; 2]) -> Tensor {
    let long_a: Vec<(usize, f64)> =
        (0..40).step_by(2).map(|k| (k, 0.3 + k as f64 * 0.17)).collect();
    let long_b: Vec<(usize, f64)> =
        (0..40).step_by(3).map(|k| (k, 1.1 - k as f64 * 0.05)).collect();
    matrix(
        9,
        41,
        &[
            (0, &[(1, 2.0), (3, 0.0), (5, -1.5)]),
            (2, &[(1, 0.0), (4, f64::INFINITY), (5, 3.0), (40, 0.5)]),
            (3, &[(7, 1.25), (8, f64::NEG_INFINITY)]),
            (4, &long_a),
            (5, &[(2, 0.75), (6, -0.0)]),
            (6, &long_b),
            (8, &[(1, -2.0), (3, 1.0), (4, 0.0), (8, 4.0), (40, -0.25)]),
        ],
        formats,
    )
}

/// Every member product is `−0.0` (a `−1` against a stored `0`), so a sum
/// seeded with `−0.0` stays `−0.0`; each row also holds columns the other
/// rows lack, where a phantom `0·b` would add `+0.0` (or `0·inf` = NaN).
fn signed_zeros(formats: [LevelFormat; 2]) -> Tensor {
    matrix(
        6,
        12,
        &[
            (0, &[(0, -1.0), (2, 0.0), (5, f64::INFINITY)]),
            (1, &[(0, 0.0), (2, -1.0), (7, 2.0)]),
            (3, &[(2, 0.0), (9, f64::NEG_INFINITY), (11, 1.5)]),
            (4, &[(0, -1.0), (5, 0.0), (10, 3.0)]),
        ],
        formats,
    )
}

/// `C[i,j] op= A[i,k] ∘ B[j,k]` — row `i` of `A` fixed across the `j`
/// loop.
fn isect(op: AssignOp, mul_not_add: bool) -> Stmt {
    let operands = [access("A", ["i", "k"]), access("B", ["j", "k"])];
    let rhs = if mul_not_add { mul(operands) } else { add(operands) };
    Stmt::loops([idx("i"), idx("j"), idx("k")], assign_op(access("C", ["i", "j"]), op, rhs))
}

/// `y[j] op= x[k] ∘ B[j,k]` — a sparse vector fixed across the whole
/// run, scattered in front of the top-level (chunked) loop.
fn sparse_mv(op: AssignOp, mul_not_add: bool) -> Stmt {
    let operands = [access("x", ["k"]), access("B", ["j", "k"])];
    let rhs = if mul_not_add { mul(operands) } else { add(operands) };
    Stmt::loops([idx("j"), idx("k")], assign_op(access("y", ["j"]), op, rhs))
}

fn thread_modes() -> Vec<Parallelism> {
    let mut modes = vec![Parallelism::Serial, Parallelism::Threads(2)];
    if let Some(n) = std::env::var("SYSTEC_TEST_THREADS").ok().and_then(|v| v.parse().ok()) {
        if !modes.contains(&Parallelism::threads(n)) {
            modes.push(Parallelism::threads(n));
        }
    }
    modes
}

fn bits(outputs: &HashMap<String, DenseTensor>) -> Vec<(String, Vec<u64>)> {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    names
        .into_iter()
        .map(|n| (n.clone(), outputs[n].as_slice().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// Runs one plan (its programs in order over shared outputs, every
/// output first filled with `fill`) through the whole cell grid against
/// the interpreter.
fn check_plan(programs: &[Stmt], inputs: &HashMap<String, Tensor>, fill: f64, label: &str) {
    let mut all_inputs = inputs.clone();
    all_inputs.extend(prepare_variants(&programs[0], inputs).expect(label));
    let mut outputs_init = alloc_outputs(&programs[0], &all_inputs).expect(label);
    for t in outputs_init.values_mut() {
        t.as_mut_slice().fill(fill);
    }
    let mut want = outputs_init.clone();
    let mut want_counters = Counters::new();
    let mut kernels = Vec::new();
    for stmt in programs {
        let c = systec_exec::run(stmt, &all_inputs, &mut want).expect(label);
        want_counters.merge(&c);
        let lowered =
            lower(&hoist_conditions(stmt.clone()), &all_inputs, &outputs_init).expect(label);
        kernels.push(CompiledKernel::compile(&lowered, &all_inputs, &outputs_init).expect(label));
    }
    let dis = kernels[0].disassemble();
    assert!(
        dis.contains(": Scatter {") && dis.contains("runner: WorkspaceDot {"),
        "{label}: the intersection must run from the workspace row:\n{dis}"
    );
    let want = bits(&want);

    // One context for every cell: a stale workspace would show here too.
    let mut ctx = ExecContext::new();
    for par in thread_modes() {
        let label = format!("{label} {par:?}");
        let mut got = outputs_init.clone();
        let mut counters = Counters::new();
        for kernel in &kernels {
            let mut c = Counters::new();
            kernel.run_with(&all_inputs, &mut got, &mut ctx, par, &mut c).expect(&label);
            counters.merge(&c);
        }
        assert_eq!(counters, want_counters, "{label}: counters differ");
        assert_eq!(bits(&got), want, "{label}: outputs are not bit-identical");
    }

    // The first program in chunks, as a shard would run it, merged per
    // its split classification; any later program (SSYRK's replication)
    // then runs whole over the merged outputs.
    let classes = kernels[0].split_outputs().expect("row-owned plans are splittable");
    for n in [2usize, 3, 7] {
        let label = format!("{label} chunks-of-{n}");
        let mut merged = outputs_init.clone();
        let mut counters = Counters::new();
        for k in 0..n {
            let mut part = outputs_init.clone();
            let mut c = Counters::new();
            kernels[0]
                .run_chunk_with(&all_inputs, &mut part, &mut ctx, &mut c, k, n)
                .expect(&label);
            counters.merge(&c);
            for (name, kind) in &classes {
                let (acc, src) = (merged.get_mut(name).unwrap(), &part[name]);
                kind.merge_into(acc.as_mut_slice(), src.as_slice(), src.dims(), k, n);
            }
        }
        for kernel in &kernels[1..] {
            let mut c = Counters::new();
            kernel
                .run_with(&all_inputs, &mut merged, &mut ctx, Parallelism::Serial, &mut c)
                .expect(&label);
            counters.merge(&c);
        }
        assert_eq!(counters, want_counters, "{label}: merged counters differ");
        assert_eq!(bits(&merged), want, "{label}: merged outputs are not bit-identical");
    }
}

#[test]
fn symmetric_ssyrk_matches_the_interpreter_in_every_cell() {
    let def = defs::ssyrk();
    let kernel = Compiler::new().compile(&def.einsum, &def.symmetry).expect("compiles");
    let programs: Vec<Stmt> =
        std::iter::once(kernel.main).chain(kernel.replication).map(hoist_conditions).collect();
    for (shape, a) in [("edges", edges(CSR)), ("signed-zeros", signed_zeros(CSR))] {
        let inputs = HashMap::from([("A".to_string(), a)]);
        check_plan(&programs, &inputs, 0.0, &format!("ssyrk {shape}"));
    }
}

#[test]
fn naive_intersections_match_the_interpreter_in_every_cell() {
    let sum = isect(AssignOp::Add, true);
    let min_plus = isect(AssignOp::Min, false);
    for (fa, a_formats) in [("csr", CSR), ("dcsr", DCSR)] {
        for (fb, b_formats) in [("csr", CSR), ("dcsr", DCSR)] {
            // `B`'s rows against every row of `A`, unstored ones included.
            for (shape, a, b) in [
                ("edges", edges(a_formats), edges(b_formats)),
                ("signed-zeros", signed_zeros(a_formats), signed_zeros(b_formats)),
            ] {
                let inputs = HashMap::from([("A".to_string(), a), ("B".to_string(), b)]);
                let label = format!("{fa}*{fb} {shape}");
                // Seeded with `−0.0`: an all-`−0.0` sum stays `−0.0`.
                check_plan(std::slice::from_ref(&sum), &inputs, -0.0, &format!("sum {label}"));
                check_plan(
                    std::slice::from_ref(&min_plus),
                    &inputs,
                    f64::INFINITY,
                    &format!("min-plus {label}"),
                );
            }
        }
    }
}

#[test]
fn a_sparse_vector_against_every_row_matches_the_interpreter_in_every_cell() {
    let vector = |m: usize, entries: &[(usize, f64)]| {
        let mut coo = CooTensor::new(vec![m]);
        for &(k, v) in entries {
            coo.set(&[k], v);
        }
        Tensor::Sparse(SparseTensor::from_coo(&coo, &[Sparse]).expect("packs"))
    };
    let sum = sparse_mv(AssignOp::Add, true);
    let min_plus = sparse_mv(AssignOp::Min, false);
    for (fb, b_formats) in [("csr", CSR), ("dcsr", DCSR)] {
        for (shape, x, b) in [
            (
                "edges",
                vector(41, &[(1, -2.0), (3, 0.0), (4, 0.5), (8, 4.0), (40, -0.25)]),
                edges(b_formats),
            ),
            ("signed-zeros", vector(12, &[(0, -1.0), (2, 0.0)]), signed_zeros(b_formats)),
        ] {
            let inputs = HashMap::from([("x".to_string(), x), ("B".to_string(), b)]);
            let label = format!("x*{fb} {shape}");
            check_plan(std::slice::from_ref(&sum), &inputs, -0.0, &format!("sum {label}"));
            check_plan(
                std::slice::from_ref(&min_plus),
                &inputs,
                f64::INFINITY,
                &format!("min-plus {label}"),
            );
        }
    }
}
