//! Differential tier for the row-nest instruction: the three rank-2
//! paper kernels (SSYMV, SYPRD, Bellman-Ford), symmetric *and* naive
//! plans, over CSR, DCSR and `[Dense, RunLength]` storage, on matrices
//! built to hit the nest's edges — no entries at all, empty rows,
//! diagonal-only rows, a single row, and rows whose windows straddle
//! the lane cutover (`LANE_MIN` = 16) and are not multiples of the lane
//! count (8).
//!
//! Every plan must disassemble to `RowNest`s and nothing else (asserted
//! by name), with two exceptions that ride along on the instruction
//! sequence: DCSR's symmetric plans, whose counted row loop probes a
//! compressed root and therefore never vectorized its inner loop, and
//! naive SYPRD, whose three-load body (`x[i]` re-read per coordinate)
//! has no closed form. In every cell of lane mode × {serial, 2 threads,
//! `SYSTEC_TEST_THREADS`} × chunked execution `k` of `n ∈ {1, 2, 3, 7}`
//! the VM must then reproduce the tree-walking interpreter: counters exact
//! everywhere, outputs byte-identical for the serial scalar-mode run
//! and within 1e-9 otherwise (lane folds and cross-chunk merges
//! reassociate).

use std::collections::HashMap;

use systec_codegen::{CompiledKernel, ExecContext, LaneMode, Parallelism};
use systec_core::Compiler;
use systec_exec::{
    alloc_outputs, hoist_conditions, lower, prepare_variants, run_lowered, Counters,
};
use systec_ir::Stmt;
use systec_kernels::defs::{self, InputFormat, KernelDef};
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, Tensor};

const TOL: f64 = 1e-9;

const FORMATS: &[(&str, [LevelFormat; 2])] = &[
    ("csr", [LevelFormat::Dense, LevelFormat::Sparse]),
    ("dcsr", [LevelFormat::Sparse, LevelFormat::Sparse]),
    ("dense-rle", [LevelFormat::Dense, LevelFormat::RunLength]),
];

/// A symmetric matrix from its upper-triangle entries `(i, j ≥ i, v)`.
fn symmetric(n: usize, upper: impl IntoIterator<Item = (usize, usize, f64)>) -> CooTensor {
    let mut coo = CooTensor::new(vec![n, n]);
    for (i, j, v) in upper {
        coo.set(&[i, j], v);
        coo.set(&[j, i], v);
    }
    coo
}

/// The shapes the nest must survive. Values are full-mantissa and
/// constant along a row's upper part, so run-length leaves form real
/// runs that the triangle window then cuts.
fn shapes() -> Vec<(&'static str, CooTensor)> {
    let v = |i: usize| 0.37 + i as f64 * 0.173;
    // Upper-part lengths on both sides of LANE_MIN = 16 and off the
    // LANES = 8 grid; the transposed entries make the full rows longer
    // and ragged in turn.
    let lens = [0usize, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 33];
    let n = 64;
    let straddle = symmetric(
        n,
        lens.iter().enumerate().flat_map(|(k, &len)| {
            let i = 2 * k;
            (i..(i + len).min(n)).map(move |j| (i, j, v(i)))
        }),
    );
    vec![
        ("empty", CooTensor::new(vec![6, 6])),
        ("empty-rows", symmetric(9, [(1, 1, v(1)), (1, 4, v(2)), (4, 7, v(3)), (7, 7, v(4))])),
        ("diagonal-only", symmetric(7, (0..7).filter(|i| i % 3 != 1).map(|i| (i, i, v(i))))),
        ("one-row", symmetric(1, [(0, 0, v(5))])),
        ("straddle", straddle),
    ]
}

/// The kernel's inputs with `A` packed in `formats` and its dense
/// vector operand filled with full-mantissa values.
fn inputs_for(
    def: &KernelDef,
    a: &CooTensor,
    formats: [LevelFormat; 2],
) -> HashMap<String, Tensor> {
    let mut def = def.clone();
    def.formats.insert("A".to_string(), InputFormat::Compressed(formats.to_vec()));
    let n = a.dims()[0];
    let vec_name = if def.formats.contains_key("x") { "x" } else { "d" };
    let x = DenseTensor::from_vec(vec![n], (0..n).map(|i| 0.11 + (i % 13) as f64 * 0.29).collect())
        .expect("dense dims");
    def.inputs([("A", a.clone().into()), (vec_name, x.into())]).expect("inputs pack")
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

fn assert_close(
    got: &HashMap<String, DenseTensor>,
    want: &HashMap<String, DenseTensor>,
    exact: bool,
    label: &str,
) {
    for (name, t) in want {
        if exact {
            let bits =
                |t: &DenseTensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got[name]), bits(t), "{label}: output {name} is not byte-identical");
        } else {
            let diff = got[name].max_abs_diff(t).expect(label);
            assert!(diff <= TOL, "{label}: output {name} off by {diff:e}");
        }
    }
}

/// Runs one plan (its programs in order over shared outputs) through
/// the whole cell grid against the interpreter; `nests` says the plan
/// must have compiled to row nests.
fn check_plan(programs: &[Stmt], inputs: &HashMap<String, Tensor>, nests: bool, label: &str) {
    let mut all_inputs = inputs.clone();
    all_inputs.extend(prepare_variants(&programs[0], inputs).expect(label));
    let outputs_init = alloc_outputs(&programs[0], &all_inputs).expect(label);
    let mut want = outputs_init.clone();
    let mut want_counters = Counters::new();
    let mut kernels = Vec::new();
    for stmt in programs {
        let lowered = lower(stmt, &all_inputs, &outputs_init).expect(label);
        let c = run_lowered(&lowered, &all_inputs, &mut want).expect(label);
        want_counters.merge(&c);
        kernels.push(CompiledKernel::compile(&lowered, &all_inputs, &outputs_init).expect(label));
    }
    let dis = kernels[0].disassemble();
    assert_eq!(dis.contains("RowNest"), nests, "{label}: row-nest selection:\n{dis}");
    assert_eq!(
        dis.contains("LoopHead"),
        !nests,
        "{label}: a matched nest replaces its per-row instruction sequence:\n{dis}"
    );

    for mode in [LaneMode::Scalar, LaneMode::Lanes] {
        let mut ctx = ExecContext::new().with_lane_mode(mode);
        for par in thread_modes() {
            let label = format!("{label} {mode:?} {par:?}");
            let mut got = outputs_init.clone();
            let mut counters = Counters::new();
            for kernel in &kernels {
                let mut c = Counters::new();
                kernel.run_with(&all_inputs, &mut got, &mut ctx, par, &mut c).expect(&label);
                counters.merge(&c);
            }
            assert_eq!(counters, want_counters, "{label}: counters differ");
            let exact = mode == LaneMode::Scalar && par == Parallelism::Serial;
            assert_close(&got, &want, exact, &label);
        }

        // Chunked execution, as a shard or a remote worker would drive
        // it: every chunk of the (single-program) plan over fresh
        // outputs, merged per the plan's split classification.
        let [kernel] = kernels.as_slice() else { continue };
        let classes = kernel.split_outputs().expect("rank-2 plans are splittable");
        for n in [1usize, 2, 3, 7] {
            let label = format!("{label} {mode:?} chunks-of-{n}");
            let mut merged = HashMap::new();
            let mut counters = Counters::new();
            for k in 0..n {
                let mut part = outputs_init.clone();
                let mut c = Counters::new();
                kernel
                    .run_chunk_with(&all_inputs, &mut part, &mut ctx, &mut c, k, n)
                    .expect(&label);
                counters.merge(&c);
                if k == 0 {
                    merged = part;
                    continue;
                }
                for (name, kind) in &classes {
                    let (acc, src) = (merged.get_mut(name).unwrap(), &part[name]);
                    kind.merge_into(acc.as_mut_slice(), src.as_slice(), src.dims(), k, n);
                }
            }
            assert_eq!(counters, want_counters, "{label}: merged counters differ");
            assert_close(&merged, &want, mode == LaneMode::Scalar && n == 1, &label);
        }
    }
}

#[test]
fn rank2_nests_match_the_interpreter_in_every_cell() {
    for def in [defs::ssymv(), defs::syprd(), defs::bellman_ford()] {
        let kernel = Compiler::new().compile(&def.einsum, &def.symmetry).expect("compiles");
        let symmetric: Vec<Stmt> =
            std::iter::once(kernel.main).chain(kernel.replication).map(hoist_conditions).collect();
        let naive = vec![hoist_conditions(def.einsum.naive_program())];
        for (shape, a) in shapes() {
            for &(fname, formats) in FORMATS {
                let inputs = inputs_for(&def, &a, formats);
                for (plan, programs) in [("sym", &symmetric), ("naive", &naive)] {
                    let nests =
                        (plan, fname) != ("sym", "dcsr") && (plan, def.name) != ("naive", "syprd");
                    let label = format!("{} {plan} {fname} {shape}", def.name);
                    check_plan(programs, &inputs, nests, &label);
                }
            }
        }
    }
}
