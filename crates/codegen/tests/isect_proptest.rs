//! Property tests for co-iteration (vendored proptest shim): adversarial
//! coordinate patterns — empty fibers, disjoint sets, single-run RLE,
//! duplicate-free scatter vs. dense-ish overlap — drive a two-way
//! intersection (on the general path: a compressed head over one fiber,
//! a probe of the other per coordinate) and the run-length vector loop,
//! checked
//! against a plain scalar oracle computed from the raw coordinates and
//! against the tree-walking interpreter (bit-equal values, exact
//! counters).

use std::collections::HashMap;

use proptest::prelude::*;
use systec_codegen::{CompiledKernel, ExecContext, Parallelism};
use systec_exec::{alloc_outputs, hoist_conditions, lower, run_lowered, Counters};
use systec_ir::build::*;
use systec_ir::Stmt;
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

/// Materializes one generated fiber pattern as sorted (coord, value)
/// pairs within `0..n`.
fn fiber(pattern: usize, raw: &[(usize, f64)], n: usize, parity: usize) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64)> = match pattern {
        // Empty level: the loop must run (or skip) without touching it.
        0 => Vec::new(),
        // Disjoint sets: one side even coordinates, the other odd.
        1 => raw
            .iter()
            .map(|&(c, v)| {
                let c = (c % n) & !1;
                ((c + parity).min(n - 1), v)
            })
            .collect(),
        // Single run / dense-ish overlap: a contiguous block from 0.
        2 => (0..(raw.len() % n).max(1)).map(|c| (c, 0.5 + c as f64)).collect(),
        // Duplicate-free random scatter.
        _ => raw.iter().map(|&(c, v)| (c % n, v)).collect(),
    };
    out.sort_by_key(|&(c, _)| c);
    out.dedup_by_key(|&mut (c, _)| c);
    out
}

fn pack_1d(entries: &[(usize, f64)], n: usize, format: LevelFormat) -> Tensor {
    let mut coo = CooTensor::new(vec![n]);
    for &(c, v) in entries {
        coo.set(&[c], v);
    }
    Tensor::Sparse(SparseTensor::from_coo(&coo, &[format]).unwrap())
}

/// Runs `prog` on both backends: the VM must agree with the interpreter
/// bit for bit (the value is returned for the oracle comparison), and
/// on counters exactly.
fn run_both(prog: &Stmt, inputs: &HashMap<String, Tensor>, out: &str) -> f64 {
    let hoisted = hoist_conditions(prog.clone());
    let outputs_init = alloc_outputs(&hoisted, inputs).unwrap();
    let lowered = lower(&hoisted, inputs, &outputs_init).unwrap();
    let compiled = CompiledKernel::compile(&lowered, inputs, &outputs_init).unwrap();

    let mut out_vm = outputs_init.clone();
    let c_vm = compiled.run(inputs, &mut out_vm).unwrap();

    let mut out_interp = outputs_init;
    let c_interp = run_lowered(&lowered, inputs, &mut out_interp).unwrap();
    let (got, want) = (out_vm[out].get(&[]), out_interp[out].get(&[]));
    assert_eq!(got.to_bits(), want.to_bits(), "the VM disagrees on values");
    assert_eq!(c_vm, c_interp, "the VM disagrees on counters");
    got
}

/// The property cases must drive the paths they are written for: the
/// rank-1 dot, an intersection with no enclosing loop to scatter a
/// workspace row in front of, merges on the general path; the run-length
/// oracle expands through the run-length vector loop.
#[test]
fn oracle_programs_take_the_vector_paths() {
    let dot = Stmt::loops(
        [idx("k")],
        assign(access("s", [] as [&str; 0]), mul([access("a", ["k"]), access("b", ["k"])])),
    );
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), pack_1d(&[(0, 1.0), (2, 2.0)], 4, LevelFormat::Sparse));
    inputs.insert("b".to_string(), pack_1d(&[(2, 3.0)], 4, LevelFormat::Sparse));
    let hoisted = hoist_conditions(dot.clone());
    let outputs_init = alloc_outputs(&hoisted, &inputs).unwrap();
    let lowered = lower(&hoisted, &inputs, &outputs_init).unwrap();
    let compiled = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
    let dis = compiled.disassemble();
    assert!(
        dis.contains("SparseLoopHead") && dis.contains("Probe {") && !dis.contains("Vec"),
        "rank-1 dot must co-iterate on the general path:\n{dis}"
    );

    let rle = Stmt::loops(
        [idx("k")],
        assign(access("s", [] as [&str; 0]), mul([access("a", ["k"]), access("x", ["k"])])),
    );
    inputs.insert("a".to_string(), pack_1d(&[(0, 1.0), (1, 1.0)], 4, LevelFormat::RunLength));
    inputs.insert("x".to_string(), Tensor::Dense(DenseTensor::filled(vec![4], 1.0)));
    inputs.remove("b");
    let hoisted = hoist_conditions(rle.clone());
    let outputs_init = alloc_outputs(&hoisted, &inputs).unwrap();
    let lowered = lower(&hoisted, &inputs, &outputs_init).unwrap();
    let compiled = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
    assert!(
        compiled.disassemble().contains("VecRleLoop"),
        "run-length oracle must expand through the rle vector loop:\n{}",
        compiled.disassemble()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn intersection_matches_scalar_oracle(
        n in 2usize..40,
        pattern_a in 0usize..4,
        pattern_b in 0usize..4,
        raw_a in prop::collection::vec((0usize..64, 0.25f64..4.0), 0..32),
        raw_b in prop::collection::vec((0usize..64, 0.25f64..4.0), 0..32),
    ) {
        let a = fiber(pattern_a, &raw_a, n, 0);
        let b = fiber(pattern_b, &raw_b, n, 1);
        // s[] += a[k] * b[k]: both rank-1 compressed fibers co-iterate
        // at the root loop — a compressed head probing the other fiber,
        // chunkable (the scalar output merges through per-worker
        // buffers).
        let prog = Stmt::loops(
            [idx("k")],
            assign(
                access("s", [] as [&str; 0]),
                mul([access("a", ["k"]), access("b", ["k"])]),
            ),
        );
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), pack_1d(&a, n, LevelFormat::Sparse));
        inputs.insert("b".to_string(), pack_1d(&b, n, LevelFormat::Sparse));
        let got = run_both(&prog, &inputs, "s");

        // Scalar oracle: the dot product over the coordinate
        // intersection, accumulated in coordinate order (the same fold
        // order both backends use, so equality is exact).
        let bmap: HashMap<usize, f64> = b.iter().copied().collect();
        let mut expected = 0.0f64;
        for &(c, va) in &a {
            if let Some(vb) = bmap.get(&c) {
                expected += va * vb;
            }
        }
        prop_assert_eq!(got.to_bits(), expected.to_bits());
    }

    #[test]
    fn rle_window_clamps_match_oracle(
        n in 2usize..24,
        runs in prop::collection::vec((0usize..24, 0usize..24, 1usize..25, 0usize..3), 0..12),
        full_row in 0usize..24,
        single in (0usize..24, 0usize..24),
    ) {
        // Adversarial run structures for the run-length vector loop's
        // width clamping: random runs, a run spanning an entire row
        // (so triangular windows and chunk windows always cut it), and
        // a single-element run (width-1 clamps at both edges). Every
        // case checks outputs AND the bulk counter recipes against the
        // interpreter, serial and under parallel chunk splits.
        let vals = [0.5, 1.0, 2.0];
        let mut coo = CooTensor::new(vec![n, n]);
        for &(row, start, len, vi) in &runs {
            let (row, start) = (row % n, start % n);
            for j in start..(start + len).min(n) {
                coo.set(&[row, j], vals[vi]);
            }
        }
        let fr = full_row % n;
        for j in 0..n {
            coo.set(&[fr, j], 1.0);
        }
        coo.set(&[single.0 % n, single.1 % n], 2.0);
        let a = Tensor::Sparse(
            SparseTensor::from_coo(
                &coo,
                &[LevelFormat::Dense, LevelFormat::RunLength],
            )
            .unwrap(),
        );
        let xs: Vec<f64> = (0..n).map(|j| 0.25 + j as f64 * 0.5).collect();
        let x = Tensor::Dense(DenseTensor::from_vec(vec![n], xs.clone()).unwrap());
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), a);
        inputs.insert("x".to_string(), x);

        // y[i] = sum_{j <= i} A[i,j]·x[j]: the triangular guard clamps
        // the inner run-length drive window coordinate-exactly.
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::guarded(
                le("j", "i"),
                assign(
                    access("y", ["i"]),
                    mul([access("A", ["i", "j"]), access("x", ["j"])]),
                ),
            ),
        );
        let hoisted = hoist_conditions(prog.clone());
        let outputs_init = alloc_outputs(&hoisted, &inputs).unwrap();
        let lowered = lower(&hoisted, &inputs, &outputs_init).unwrap();
        let compiled = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
        prop_assert!(
            compiled.disassemble().contains("rle: true"),
            "windowed rle case must take the run-length row nest"
        );

        let mut out_interp = outputs_init.clone();
        let c_interp = run_lowered(&lowered, &inputs, &mut out_interp).unwrap();

        // Coordinate-order oracle computed from the raw coordinates:
        // matches the scalar fold order, so equality is bit-exact.
        let amap: HashMap<(usize, usize), f64> = {
            let mut m = HashMap::new();
            for i in 0..n {
                for j in 0..n {
                    let v = coo.get(&[i, j]);
                    if v != 0.0 {
                        m.insert((i, j), v);
                    }
                }
            }
            m
        };
        for i in 0..n {
            let mut expected = 0.0f64;
            for (j, &xj) in xs.iter().enumerate().take(i + 1) {
                if let Some(&v) = amap.get(&(i, j)) {
                    expected += v * xj;
                }
            }
            prop_assert_eq!(out_interp["y"].get(&[i]).to_bits(), expected.to_bits());
        }

        // `y` is split by rows, so no run reassociates it: every thread
        // count must clamp bit-exactly.
        let mut ctx = ExecContext::new();
        let bits = |t: &DenseTensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1usize, 2, 3, 5] {
            let mut out = outputs_init.clone();
            let mut counters = Counters::new();
            compiled
                .run_with(&inputs, &mut out, &mut ctx, Parallelism::threads(threads), &mut counters)
                .unwrap();
            assert_eq!(counters, c_interp, "t={threads}: clamped bulk counters must match exactly");
            prop_assert!(bits(&out["y"]) == bits(&out_interp["y"]), "t={threads}: output bits");
        }
    }

    #[test]
    fn rle_expansion_matches_scalar_oracle(
        n in 2usize..40,
        pattern in 0usize..4,
        raw in prop::collection::vec((0usize..64, 0.25f64..4.0), 0..32),
        xs in prop::collection::vec(0.25f64..2.0, 40),
    ) {
        let a = fiber(pattern, &raw, n, 0);
        // s[] += a[k] * x[k] over a run-length fiber: runs (including a
        // single run spanning the fiber, pattern 2) expand into strided
        // body applications.
        let prog = Stmt::loops(
            [idx("k")],
            assign(
                access("s", [] as [&str; 0]),
                mul([access("a", ["k"]), access("x", ["k"])]),
            ),
        );
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), pack_1d(&a, n, LevelFormat::RunLength));
        inputs.insert(
            "x".to_string(),
            Tensor::Dense(DenseTensor::from_vec(vec![n], xs[..n].to_vec()).unwrap()),
        );
        let got = run_both(&prog, &inputs, "s");

        let mut expected = 0.0f64;
        for &(c, v) in &a {
            expected += v * xs[c];
        }
        prop_assert_eq!(got.to_bits(), expected.to_bits());
    }
}
