//! `systec_fused_dispatch_total{kind}` means "vector-loop entries per
//! body kind". A row nest never enters a vector-loop instruction — it
//! adds its non-empty rows in bulk at nest exit — so this test pins the
//! meaning: one symmetric SSYMV run reports exactly the entries the
//! replaced per-row sequence would have made, however the run is cut
//! into threads or chunks.
//!
//! The registry is process-global, which is why this is the only test
//! in its binary.

use std::collections::{HashMap, HashSet};

use systec_codegen::{CompiledKernel, ExecContext, Parallelism};
use systec_core::Compiler;
use systec_exec::{alloc_outputs, hoist_conditions, lower, prepare_variants, Counters};
use systec_kernels::defs;
use systec_telemetry::{global, BodyKind, BODY_KINDS};
use systec_tensor::{CooTensor, DenseTensor};

fn dispatch_counts() -> Vec<u64> {
    BODY_KINDS.iter().map(|k| global().fused(*k).get()).collect()
}

#[test]
fn one_ssymv_run_reports_its_loop_entries_per_kind() {
    // A band above the diagonal, skipped on every fifth row, and a
    // diagonal with every third entry missing: both nests see empty
    // inner windows, which must not count as entries.
    let n = 40;
    let mut coo = CooTensor::new(vec![n, n]);
    let mut upper: HashSet<(usize, usize)> = HashSet::new();
    for i in 0..n {
        let band = if i % 5 == 0 { i..i } else { i + 1..(i + 4).min(n) };
        for j in band.chain((i % 3 != 0).then_some(i)) {
            coo.set(&[i, j], 0.5 + j as f64);
            coo.set(&[j, i], 0.5 + j as f64);
            upper.insert((i, j));
        }
    }
    // What the replaced sequence would enter: the triangle loop on rows
    // with a stored entry right of the diagonal, the diagonal loop on
    // rows with one on it.
    let rows = |on_diagonal: bool| {
        let rows: HashSet<usize> =
            upper.iter().filter(|(i, j)| (i == j) == on_diagonal).map(|&(i, _)| i).collect();
        rows.len() as u64
    };
    let (upper_rows, diag_rows) = (rows(false), rows(true));
    assert!(0 < upper_rows && upper_rows < n as u64 && 0 < diag_rows && diag_rows < n as u64);

    let def = defs::ssymv();
    let x = DenseTensor::filled(vec![n], 1.5);
    let inputs = def.inputs([("A", coo.into()), ("x", x.into())]).expect("inputs pack");
    let main = Compiler::new().compile(&def.einsum, &def.symmetry).expect("compiles").main;
    let main = hoist_conditions(main);
    let mut all_inputs: HashMap<_, _> = inputs.clone();
    all_inputs.extend(prepare_variants(&main, &inputs).expect("variants"));
    let outputs_init = alloc_outputs(&main, &all_inputs).expect("outputs");
    let lowered = lower(&main, &all_inputs, &outputs_init).expect("lowers");
    let kernel = CompiledKernel::compile(&lowered, &all_inputs, &outputs_init).expect("compiles");
    assert!(kernel.disassemble().contains("RowNest"), "{}", kernel.disassemble());

    let mut want = vec![0u64; BODY_KINDS.len()];
    want[BodyKind::DotAxpy.index()] = upper_rows;
    want[BodyKind::Dot.index()] = diag_rows;

    let mut ctx = ExecContext::new();
    let mut run = |label: &str, go: &mut dyn FnMut(&mut ExecContext)| {
        let before = dispatch_counts();
        go(&mut ctx);
        let got: Vec<u64> = dispatch_counts().iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(got, want, "{label}: per-kind loop entries (order: {BODY_KINDS:?})");
    };
    for par in [Parallelism::Serial, Parallelism::Threads(2)] {
        run(&format!("{par:?}"), &mut |ctx| {
            let mut outputs = outputs_init.clone();
            kernel
                .run_with(&all_inputs, &mut outputs, ctx, par, &mut Counters::new())
                .expect("runs");
        });
    }
    run("chunks of 3", &mut |ctx| {
        for k in 0..3 {
            let mut outputs = outputs_init.clone();
            kernel
                .run_chunk_with(&all_inputs, &mut outputs, ctx, &mut Counters::new(), k, 3)
                .expect("runs");
        }
    });
}
