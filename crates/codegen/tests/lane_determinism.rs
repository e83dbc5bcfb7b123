//! Bit-determinism of the laned closed forms under hostile floating
//! point: inputs seeded with NaN, signed zeros, and infinities run 20
//! times under serial and parallel execution, and every run must
//! produce bit-identical outputs. Outputs here are row-owned, so the
//! bits must also agree **across** thread counts (each row's fold runs
//! start-to-finish inside one chunk regardless of how many workers
//! there are); work counters are value-independent and must match the
//! scalar-mode runners exactly.

use std::collections::HashMap;

use systec_codegen::{CompiledKernel, ExecContext, LaneMode, Parallelism};
use systec_exec::{alloc_outputs, hoist_conditions, lower, Counters};
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

/// Runs `einsum` 20 times under each parallelism setting, asserting
/// bit-identical outputs within and across settings, and exact counter
/// parity between the lane-mode and scalar-mode runners.
fn assert_lane_determinism(einsum: &Einsum, inputs: &HashMap<String, Tensor>, label: &str) {
    let hoisted = hoist_conditions(einsum.naive_program());
    let outputs_init = alloc_outputs(&hoisted, inputs).expect(label);
    let lowered = lower(&hoisted, inputs, &outputs_init).expect(label);
    let compiled = CompiledKernel::compile(&lowered, inputs, &outputs_init).expect(label);
    let out_name = einsum.output.tensor.display_name();

    let mut ctx = ExecContext::new();
    let mut reference: Option<(Vec<u64>, Counters)> = None;
    for par in [Parallelism::Serial, Parallelism::threads(2), Parallelism::threads(4)] {
        for rep in 0..20 {
            let mut outputs = outputs_init.clone();
            let mut counters = Counters::new();
            compiled.run_with(inputs, &mut outputs, &mut ctx, par, &mut counters).expect(label);
            let bits: Vec<u64> =
                outputs[&out_name].as_slice().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some((bits, counters)),
                Some((b, c)) => {
                    assert_eq!(&bits, b, "{label}: {par:?} rep={rep} output bits drifted");
                    assert_eq!(&counters, c, "{label}: {par:?} rep={rep} counters drifted");
                }
            }
        }
    }

    // Scalar-mode runners do the same structural work: exact counter
    // parity (values legitimately differ in the last bit — lane merges
    // reassociate the folds).
    let mut scalar_ctx = ExecContext::new().with_lane_mode(LaneMode::Scalar);
    let mut outputs = outputs_init.clone();
    let mut c_scalar = Counters::new();
    compiled
        .run_with(inputs, &mut outputs, &mut scalar_ctx, Parallelism::Serial, &mut c_scalar)
        .expect(label);
    assert_eq!(c_scalar, reference.unwrap().1, "{label}: lane/scalar counter parity");
}

#[test]
fn lane_runners_are_bit_deterministic_on_hostile_floats() {
    // Rows average ~40% of n nonzeros; n is sized so they clear the
    // short-fiber cutover (LANE_MIN) and actually run the lane kernels.
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

        // Row dot: the laned Dot fused body (VecSparseLoop / VecRleLoop
        // / VecDenseLoop depending on the format).
        let spmv = Einsum::new(
            access("y", ["i"]),
            AssignOp::Add,
            mul([access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("j")],
        );
        assert_lane_determinism(&spmv, &inputs, &format!("spmv {fmt:?}"));

        // Tropical fold: Min's +inf lane identity meets actual
        // infinities and NaN in the data.
        let minplus = Einsum::new(
            access("y", ["i"]),
            AssignOp::Min,
            add([access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("j")],
        );
        assert_lane_determinism(&minplus, &inputs, &format!("min-plus {fmt:?}"));
    }

    // Gather dot: the generic runner (one lane) with miss-annihilating
    // loads.
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), hostile_matrix(n, &[LevelFormat::Dense, LevelFormat::Sparse]));
    inputs.insert("B".to_string(), hostile_matrix(n, &[LevelFormat::Sparse, LevelFormat::Sparse]));
    let gather = Einsum::new(
        access("y", ["i"]),
        AssignOp::Add,
        mul([access("A", ["i", "j"]), access("B", ["j", "i"])]),
        [idx("i"), idx("j")],
    );
    assert_lane_determinism(&gather, &inputs, "gather-dot");
}
