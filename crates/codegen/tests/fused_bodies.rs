//! Differential ladders for the fused-body specialization layer: one
//! ladder per recognized pattern (dot, axpy, scale-store, gather-dot,
//! RLE-strided dot, the symmetric dot-axpy pair), each asserting the
//! selection *by name* in the disassembly and then agreement between
//! the bytecode VM (which takes the fused path) and the tree-walking
//! interpreter (which has no fused path at all) — byte-identical in
//! scalar lane mode, within 1e-9 in the default lane mode, counters
//! exact in both — across storage formats and random data. A
//! fallback ladder proves bodies the selector rejects still execute the
//! general step list with identical results.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use systec_codegen::{CompiledKernel, CounterMode, ExecContext, LaneMode, Parallelism};
use systec_exec::{alloc_outputs, hoist_conditions, lower, run_lowered, Counters};
use systec_ir::build::*;
use systec_ir::{AssignOp, Stmt};
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

/// Compiles `prog`, asserting every `needle` appears in the
/// disassembly, then runs both backends on it: the scalar-mode VM must
/// be byte-identical to the interpreter, the lane-mode VM (the
/// default) within 1e-9, and counters exact in both modes. Returns the
/// lane-mode outputs.
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

    let mut out_vm = outputs_init.clone();
    let c_vm = compiled.run(inputs, &mut out_vm).expect(label);

    let mut scalar_ctx = ExecContext::new().with_lane_mode(LaneMode::Scalar);
    let mut out_scalar = outputs_init.clone();
    let mut c_scalar = Counters::new();
    compiled
        .run_with(inputs, &mut out_scalar, &mut scalar_ctx, Parallelism::Serial, &mut c_scalar)
        .expect(label);

    let mut out_interp = outputs_init;
    let c_interp = run_lowered(&lowered, inputs, &mut out_interp).expect(label);
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
/// cell: `FusedBody::Dot` with the register-held accumulator, its row
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
                &["kind: Dot", "RowNest", "rle: false"],
                &format!("dot formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// `y[j] += 2·A[i,j]` — a strided reducing store per coordinate:
/// `FusedBody::Axpy`.
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
                &["kind: Axpy"],
                &format!("axpy formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// `C[i,j] = 2·B[i,j]` over a dense operand — an overwriting store per
/// coordinate of the vectorized dense loop: `FusedBody::ScaleStore`.
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
            &["kind: ScaleStore", "VecDenseLoop"],
            &format!("scale-store seed={seed}"),
        );
    }
}

/// `y[i] += A[i,j] * B[j,i]` — the second operand binds discordantly
/// and gathers per coordinate: `FusedBody::GatherDot` (with annihilator
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
                &["kind: GatherDot", "LoadGather"],
                &format!("gather-dot formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// The dot ladder over a run-length driver: `FusedBody::Dot` executed
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
                &["kind: Dot", "RowNest", "rle: true"],
                &format!("rle-dot formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// SSYMV's symmetric body — `let a = A[i,j]: w += a·x[j]; y[j] += a·x[i]`
/// — selects the combined `FusedBody::DotAxpy`.
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
                &["kind: DotAxpy"],
                &format!("dot-axpy formats={formats:?} seed={seed}"),
            );
        }
    }
}

/// A body the selector must reject: the fold reads the scalar slot it
/// accumulates into (`w += A[i,j]·w`), which a register-held
/// accumulator could not serve. The item carries `fused: None` and the
/// step list still produces byte-identical results.
#[test]
fn unmatched_body_falls_back_to_steps() {
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
            let hoisted = hoist_conditions(prog.clone());
            let outputs_init = alloc_outputs(&hoisted, &inputs).expect(&label);
            let lowered = lower(&hoisted, &inputs, &outputs_init).expect(&label);
            let compiled = CompiledKernel::compile(&lowered, &inputs, &outputs_init).expect(&label);
            let dis = compiled.disassemble();
            assert!(
                !dis.contains("fused: Some"),
                "{label}: the self-referential fold must not fuse:\n{dis}"
            );
            let mut out_vm = outputs_init.clone();
            let c_vm = compiled.run(&inputs, &mut out_vm).expect(&label);
            let mut out_interp = outputs_init;
            let c_interp = run_lowered(&lowered, &inputs, &mut out_interp).expect(&label);
            for (name, t) in &out_interp {
                assert_eq!(&out_vm[name], t, "{label}: output {name} differs");
            }
            assert_eq!(c_vm, c_interp, "{label}: counter parity violated");
        }
    }
}

/// `CounterMode::Off` skips counter maintenance on the fused paths but
/// leaves the outputs byte-identical to an exact-mode run.
#[test]
fn counter_off_mode_keeps_outputs_identical() {
    let mut r = StdRng::seed_from_u64(9700);
    let n = 8;
    let prog = Stmt::loops(
        [idx("i"), idx("j")],
        assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
    );
    let mut inputs = HashMap::new();
    inputs.insert(
        "A".to_string(),
        random_matrix(n, 12, &[LevelFormat::Dense, LevelFormat::Sparse], &mut r),
    );
    inputs.insert("x".to_string(), random_vec(n, &mut r));
    let hoisted = hoist_conditions(prog);
    let outputs_init = alloc_outputs(&hoisted, &inputs).unwrap();
    let lowered = lower(&hoisted, &inputs, &outputs_init).unwrap();
    let compiled = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();

    let mut exact_ctx = ExecContext::new();
    let mut exact_out = outputs_init.clone();
    let mut exact_counters = Counters::new();
    compiled
        .run_with(&inputs, &mut exact_out, &mut exact_ctx, Parallelism::Serial, &mut exact_counters)
        .unwrap();

    let mut off_ctx = ExecContext::new().with_counter_mode(CounterMode::Off);
    let mut off_out = outputs_init;
    let mut off_counters = Counters::new();
    compiled
        .run_with(&inputs, &mut off_out, &mut off_ctx, Parallelism::Serial, &mut off_counters)
        .unwrap();

    assert_eq!(exact_out["y"], off_out["y"], "counter mode must not affect outputs");
    assert!(exact_counters.flops > 0, "exact mode counts work");
}
