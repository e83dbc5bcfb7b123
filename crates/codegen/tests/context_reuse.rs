//! Property test: a caller-owned [`ExecContext`] carries no observable
//! state between runs. Interleaving kernels of different shapes,
//! register-file sizes and parallelism modes through **one** context
//! must produce bit-identical outputs and identical counters to running
//! each kernel with a fresh context.

use std::collections::HashMap;

use proptest::prelude::*;
use systec_codegen::{CompiledKernel, ExecContext, Parallelism};
use systec_exec::{alloc_outputs, hoist_conditions, lower, Counters};
use systec_ir::build::*;
use systec_ir::{AssignOp, Einsum};
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

/// One prepared kernel: compiled plan plus its bindings.
struct Case {
    kernel: CompiledKernel,
    inputs: HashMap<String, Tensor>,
    outputs_init: HashMap<String, DenseTensor>,
    out_name: &'static str,
}

impl Case {
    /// Runs through `ctx` and returns the output bits and counters.
    fn run(&self, ctx: &mut ExecContext, par: Parallelism) -> (Vec<u64>, Counters) {
        let mut outputs = self.outputs_init.clone();
        let mut counters = Counters::new();
        self.kernel.run_with(&self.inputs, &mut outputs, ctx, par, &mut counters).unwrap();
        (outputs[self.out_name].as_slice().iter().map(|v| v.to_bits()).collect(), counters)
    }
}

/// SpMV over CSR — sparse driver loop, vectorizable body, one owned
/// output row per outer coordinate.
fn spmv_case(n: usize, entries: &[(usize, usize, f64)], xs: &[f64]) -> Case {
    let einsum = Einsum::new(
        access("y", ["i"]),
        AssignOp::Add,
        mul([access("A", ["i", "j"]), access("x", ["j"])]),
        [idx("i"), idx("j")],
    );
    let mut coo = CooTensor::new(vec![n, n]);
    for &(i, j, v) in entries {
        if i < n && j < n {
            coo.set(&[i, j], v);
        }
    }
    let mut inputs = HashMap::new();
    inputs.insert(
        "A".to_string(),
        Tensor::Sparse(
            SparseTensor::from_coo(&coo, &[LevelFormat::Dense, LevelFormat::Sparse]).unwrap(),
        ),
    );
    inputs.insert(
        "x".to_string(),
        Tensor::Dense(DenseTensor::from_vec(vec![n], xs[..n].to_vec()).unwrap()),
    );
    build_case(&einsum, inputs, "y")
}

/// A 3-d CSF contraction — deeper register files, probes, a reduced
/// (non-row) output — deliberately shaped nothing like SpMV so
/// interleaving would expose any leaked sizing or state.
fn mttkrp_case(n: usize, entries: &[(usize, usize, f64)], xs: &[f64]) -> Case {
    let einsum = Einsum::new(
        access("C", ["k", "j"]),
        AssignOp::Add,
        mul([access("A", ["i", "k", "l"]), access("B", ["l", "j"]), access("B", ["i", "j"])]),
        [idx("i"), idx("k"), idx("l"), idx("j")],
    );
    let mut coo = CooTensor::new(vec![n, n, n]);
    for &(i, j, v) in entries {
        if i < n && j < n {
            coo.set(&[i, j, (i + j) % n], v);
        }
    }
    let mut inputs = HashMap::new();
    inputs.insert(
        "A".to_string(),
        Tensor::Sparse(
            SparseTensor::from_coo(
                &coo,
                &[LevelFormat::Dense, LevelFormat::Sparse, LevelFormat::Sparse],
            )
            .unwrap(),
        ),
    );
    let cols = 3;
    let b: Vec<f64> = (0..n * cols).map(|k| xs[k % xs.len()] + k as f64 * 0.01).collect();
    inputs.insert("B".to_string(), Tensor::Dense(DenseTensor::from_vec(vec![n, cols], b).unwrap()));
    build_case(&einsum, inputs, "C")
}

/// SSYRK's symmetric plan over an `n × m` CSR `A` with `nnz` uniformly
/// placed entries: its workspace row holds `m` slots, so plans of
/// different column extents share (and resize) one context's workspace.
fn ssyrk_case(n: usize, m: usize, nnz: usize, seed: u64) -> Case {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut coo = CooTensor::new(vec![n, m]);
    for _ in 0..nnz {
        let (i, k) = (next() as usize % n, next() as usize % m);
        coo.set(&[i, k], 0.1 + (next() >> 11) as f64 / (1u64 << 53) as f64);
    }
    let def = systec_kernels::defs::ssyrk();
    let mut inputs = def.inputs([("A", coo.into())]).unwrap();
    let main = systec_core::Compiler::new().compile(&def.einsum, &def.symmetry).unwrap().main;
    let main = hoist_conditions(main);
    inputs.extend(systec_exec::prepare_variants(&main, &inputs).unwrap());
    let outputs_init = alloc_outputs(&main, &inputs).unwrap();
    let lowered = lower(&main, &inputs, &outputs_init).unwrap();
    let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
    assert!(kernel.disassemble().contains("runner: WorkspaceDot {"), "{}", kernel.disassemble());
    Case { kernel, inputs, outputs_init, out_name: "C" }
}

/// SSYRK at the benchmark's 160² / 2 400 entries, interleaved with a
/// wider (more workspace slots) and a narrower plan on one context, in
/// both parallelism modes: a workspace that is stale (trusted without
/// checking its row) or undersized (not grown for the wider plan) shows
/// as a divergence from a fresh context.
#[test]
fn ssyrk_workspace_rows_never_leak_across_column_extents() {
    let cases = [
        ssyrk_case(160, 160, 2400, 1),
        ssyrk_case(160, 640, 2400, 2),
        ssyrk_case(160, 24, 1200, 3),
    ];
    let pars = [Parallelism::Serial, Parallelism::threads(2)];
    let expected: Vec<Vec<(Vec<u64>, Counters)>> = cases
        .iter()
        .map(|c| pars.iter().map(|p| c.run(&mut ExecContext::new(), *p)).collect())
        .collect();
    let mut shared = ExecContext::new();
    for (step, &which) in [0, 1, 0, 2, 1, 2, 0, 0, 2, 1].iter().enumerate() {
        let par = step % pars.len();
        let got = cases[which].run(&mut shared, pars[par]);
        assert!(got == expected[which][par], "step {step}: case {which} under {:?}", pars[par]);
    }
}

fn build_case(einsum: &Einsum, inputs: HashMap<String, Tensor>, out_name: &'static str) -> Case {
    let prog = hoist_conditions(einsum.naive_program());
    let outputs_init = alloc_outputs(&prog, &inputs).unwrap();
    let lowered = lower(&prog, &inputs, &outputs_init).unwrap();
    let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
    Case { kernel, inputs, outputs_init, out_name }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn context_reuse_never_leaks_state(
        n1 in 3usize..9,
        n2 in 3usize..7,
        entries1 in prop::collection::vec((0usize..9, 0usize..9, 0.25f64..4.0), 1..20),
        entries2 in prop::collection::vec((0usize..7, 0usize..7, 0.25f64..4.0), 1..16),
        xs in prop::collection::vec(0.1f64..3.0, 9),
        schedule in prop::collection::vec((0usize..2, 0usize..3), 4..10),
    ) {
        let cases = [spmv_case(n1, &entries1, &xs), mttkrp_case(n2, &entries2, &xs)];
        let pars = [Parallelism::Serial, Parallelism::threads(2), Parallelism::threads(5)];

        // Expected results from fresh contexts, one per (case, par) cell.
        let expected: Vec<Vec<(Vec<u64>, Counters)>> = cases
            .iter()
            .map(|c| pars.iter().map(|p| c.run(&mut ExecContext::new(), *p)).collect())
            .collect();

        // One shared context, driven through an arbitrary interleaving
        // of kernels and parallelism modes.
        let mut shared = ExecContext::new();
        for &(which, par) in &schedule {
            // A divergence here means the shared context leaked state
            // between kernels/modes.
            let got = cases[which].run(&mut shared, pars[par]);
            prop_assert_eq!(&got, &expected[which][par]);
        }
    }
}
