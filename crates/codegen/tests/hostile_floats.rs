//! The VM against the interpreter under hostile floating point: inputs
//! seeded with NaN, signed zeros, and infinities run 20 times under
//! serial and parallel execution. Every run must produce the first run's
//! output bits, and the interpreter's bits and counters exactly — up to
//! the sign and payload of a NaN, which Rust leaves unspecified for an
//! arithmetic result (the optimizer may commute `a + b`, and x86 returns
//! the first operand's NaN), so there a NaN compares as NaN. Outputs here
//! are row-owned, so this holds at every thread count: each row's fold
//! runs start to finish inside one chunk regardless of how many workers
//! there are.

use std::collections::HashMap;

use systec_codegen::{CompiledKernel, ExecContext, Parallelism};
use systec_exec::{alloc_outputs, hoist_conditions, lower, run_lowered, Counters};
use systec_ir::build::*;
use systec_ir::{AssignOp, Einsum};
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

/// A deterministic value ladder that cycles hostile specials through
/// ordinary magnitudes: NaN, ±inf, -0.0, and values spread far enough
/// apart that fold order visibly changes the rounding.
fn hostile_value(k: usize) -> f64 {
    match k % 11 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 1e-300,
        5 => -1e16,
        6 => 1e16,
        7 => 0.1,
        8 => -3.0,
        9 => 1e-16,
        _ => 7.5,
    }
}

fn hostile_matrix(n: usize, formats: &[LevelFormat]) -> Tensor {
    let mut coo = CooTensor::new(vec![n, n]);
    let mut k = 0;
    for i in 0..n {
        for j in 0..n {
            // ~40% occupancy with short runs, deterministic pattern.
            if (i * 7 + j * 3) % 5 < 2 {
                coo.set(&[i, j], hostile_value(k));
                k += 1;
            }
        }
    }
    Tensor::Sparse(SparseTensor::from_coo(&coo, formats).unwrap())
}

fn hostile_vec(n: usize, offset: usize) -> Tensor {
    Tensor::Dense(
        DenseTensor::from_vec(vec![n], (0..n).map(|j| hostile_value(j + offset)).collect())
            .unwrap(),
    )
}

/// Runs `einsum` 20 times under each parallelism setting, asserting the
/// first run's bits, and the interpreter's bits (NaN as NaN) and
/// counters, on every run.
fn assert_matches_interpreter(einsum: &Einsum, inputs: &HashMap<String, Tensor>, label: &str) {
    let hoisted = hoist_conditions(einsum.naive_program());
    let outputs_init = alloc_outputs(&hoisted, inputs).expect(label);
    let lowered = lower(&hoisted, inputs, &outputs_init).expect(label);
    let compiled = CompiledKernel::compile(&lowered, inputs, &outputs_init).expect(label);
    let out_name = einsum.output.tensor.display_name();
    let bits = |t: &DenseTensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let nan_as_nan = |bits: &[u64]| -> Vec<u64> {
        let canonical = |b: u64| if f64::from_bits(b).is_nan() { f64::NAN.to_bits() } else { b };
        bits.iter().map(|&b| canonical(b)).collect()
    };

    let mut want = outputs_init.clone();
    let want_counters = run_lowered(&lowered, inputs, &mut want).expect(label);
    let want = nan_as_nan(&bits(&want[&out_name]));

    let mut ctx = ExecContext::new();
    let mut first: Option<Vec<u64>> = None;
    for par in [Parallelism::Serial, Parallelism::threads(2), Parallelism::threads(4)] {
        for rep in 0..20 {
            let mut outputs = outputs_init.clone();
            let mut counters = Counters::new();
            compiled.run_with(inputs, &mut outputs, &mut ctx, par, &mut counters).expect(label);
            let got = bits(&outputs[&out_name]);
            let label = format!("{label}: {par:?} rep={rep}");
            assert_eq!(&got, first.get_or_insert_with(|| got.clone()), "{label}: bits drifted");
            assert_eq!(nan_as_nan(&got), want, "{label}: not the interpreter's bits");
            assert_eq!(counters, want_counters, "{label}: counters");
        }
    }
}

#[test]
fn runners_match_the_interpreter_on_hostile_floats() {
    // Rows average ~40% of n nonzeros, long enough that a reassociated
    // fold would round differently.
    let n = 64;
    let formats: &[&[LevelFormat]] = &[
        &[LevelFormat::Dense, LevelFormat::Sparse],
        &[LevelFormat::Sparse, LevelFormat::Sparse],
        &[LevelFormat::Dense, LevelFormat::RunLength],
        &[LevelFormat::Dense, LevelFormat::Dense],
    ];
    for fmt in formats {
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), hostile_matrix(n, fmt));
        inputs.insert("x".to_string(), hostile_vec(n, 5));

        // Row dot: the closed Dot form (VecSparseLoop / VecRleLoop) or the
        // generic runner (VecDenseLoop), depending on the format.
        let spmv = Einsum::new(
            access("y", ["i"]),
            AssignOp::Add,
            mul([access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("j")],
        );
        assert_matches_interpreter(&spmv, &inputs, &format!("spmv {fmt:?}"));

        // Tropical fold: Min meets actual infinities and NaN in the data.
        let minplus = Einsum::new(
            access("y", ["i"]),
            AssignOp::Min,
            add([access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("j")],
        );
        assert_matches_interpreter(&minplus, &inputs, &format!("min-plus {fmt:?}"));
    }

    // Gather dot: a random-access read on the general path, its misses
    // annihilating the store.
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), hostile_matrix(n, &[LevelFormat::Dense, LevelFormat::Sparse]));
    inputs.insert("B".to_string(), hostile_matrix(n, &[LevelFormat::Sparse, LevelFormat::Sparse]));
    let gather = Einsum::new(
        access("y", ["i"]),
        AssignOp::Add,
        mul([access("A", ["i", "j"]), access("B", ["j", "i"])]),
        [idx("i"), idx("j")],
    );
    assert_matches_interpreter(&gather, &inputs, "gather-dot");
}
