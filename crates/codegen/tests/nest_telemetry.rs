//! `systec_fused_dispatch_total{kind}` means "vector-loop entries per
//! runner" — the runner that actually ran, as the compiler recorded it
//! on the body. A row nest never enters a vector-loop instruction — it
//! adds its non-empty rows in bulk at nest exit — so one symmetric
//! SSYMV run must report exactly the entries the replaced per-row
//! sequence would have made, however the run is cut into threads or
//! chunks. The other tests pin the labels where a body's *shape* and
//! its runner used to disagree: a dense mat-vec is a dot-shaped body the
//! generic runner executes, SSYRK's rows run the workspace dot, and loop
//! entries where several guarded items pass run (and count) generic.
//!
//! The registry is process-global, so the tests of this binary take
//! one lock and nothing else runs in it.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use systec_codegen::{CompiledKernel, ExecContext, Parallelism};
use systec_core::Compiler;
use systec_exec::{alloc_outputs, hoist_conditions, lower, prepare_variants, Counters};
use systec_ir::build::*;
use systec_ir::Stmt;
use systec_kernels::defs;
use systec_telemetry::{global, RunnerKind, RUNNER_KINDS};
use systec_tensor::{CooTensor, DenseTensor, SparseTensor, Tensor, CSR};

/// Serializes the tests: each reads deltas of the global registry.
static REGISTRY: Mutex<()> = Mutex::new(());

fn dispatch_counts() -> Vec<u64> {
    RUNNER_KINDS.iter().map(|k| global().fused(*k).get()).collect()
}

/// The per-runner counts `want` lists, zero elsewhere.
fn counts(want: &[(RunnerKind, u64)]) -> Vec<u64> {
    let mut counts = vec![0u64; RUNNER_KINDS.len()];
    for &(runner, n) in want {
        counts[runner.index()] = n;
    }
    counts
}

/// `main` compiled over `inputs` (variants prepared), with its
/// initial outputs.
struct Plan {
    kernel: CompiledKernel,
    inputs: HashMap<String, Tensor>,
    outputs: HashMap<String, DenseTensor>,
}

impl Plan {
    fn new(main: Stmt, inputs: HashMap<String, Tensor>) -> Plan {
        let main = hoist_conditions(main);
        let mut all_inputs = inputs.clone();
        all_inputs.extend(prepare_variants(&main, &inputs).expect("variants"));
        let outputs = alloc_outputs(&main, &all_inputs).expect("outputs");
        let lowered = lower(&main, &all_inputs, &outputs).expect("lowers");
        let kernel = CompiledKernel::compile(&lowered, &all_inputs, &outputs).expect("compiles");
        Plan { kernel, inputs: all_inputs, outputs }
    }

    /// Asserts the disassembly holds `needle`, then that one serial run
    /// adds exactly `want` to the registry.
    fn assert_dispatches(&self, needle: &str, want: &[(RunnerKind, u64)], label: &str) {
        let dis = self.kernel.disassemble();
        assert!(dis.contains(needle), "{label}: expected {needle:?} in:\n{dis}");
        let before = dispatch_counts();
        let mut outputs = self.outputs.clone();
        self.kernel.run(&self.inputs, &mut outputs).expect("runs");
        let got: Vec<u64> = dispatch_counts().iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(got, counts(want), "{label}: per-runner loop entries ({RUNNER_KINDS:?})");
    }
}

#[test]
fn one_ssymv_run_reports_its_loop_entries_per_runner() {
    let _serial = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
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
    let plan = Plan::new(main, inputs);
    assert!(plan.kernel.disassemble().contains("RowNest"), "{}", plan.kernel.disassemble());

    let want = counts(&[(RunnerKind::DotAxpy, upper_rows), (RunnerKind::Dot, diag_rows)]);
    let mut ctx = ExecContext::new();
    let mut run = |label: &str, go: &mut dyn FnMut(&mut ExecContext)| {
        let before = dispatch_counts();
        go(&mut ctx);
        let got: Vec<u64> = dispatch_counts().iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(got, want, "{label}: per-runner loop entries (order: {RUNNER_KINDS:?})");
    };
    for par in [Parallelism::Serial, Parallelism::Threads(2)] {
        run(&format!("{par:?}"), &mut |ctx| {
            let mut outputs = plan.outputs.clone();
            plan.kernel
                .run_with(&plan.inputs, &mut outputs, ctx, par, &mut Counters::new())
                .expect("runs");
        });
    }
    run("chunks of 3", &mut |ctx| {
        for k in 0..3 {
            let mut outputs = plan.outputs.clone();
            plan.kernel
                .run_chunk_with(&plan.inputs, &mut outputs, ctx, &mut Counters::new(), k, 3)
                .expect("runs");
        }
    });
}

/// `y[i] += D[i,j] * x[j]` over a dense `D`: a dot-shaped body, but both
/// operands are strided loads and there is no driver value, so the
/// generic runner executes it — one counted-loop entry per row.
#[test]
fn a_dense_matvec_counts_under_generic() {
    let _serial = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let n = 12;
    let main = Stmt::loops(
        [idx("i"), idx("j")],
        assign(access("y", ["i"]), mul([access("D", ["i", "j"]), access("x", ["j"])])),
    );
    let d = DenseTensor::from_vec(vec![n, n], (0..n * n).map(|v| v as f64).collect()).unwrap();
    let inputs = HashMap::from([
        ("D".to_string(), Tensor::Dense(d)),
        ("x".to_string(), Tensor::Dense(DenseTensor::filled(vec![n], 0.5))),
    ]);
    let plan = Plan::new(main, inputs);
    plan.assert_dispatches("runner: Generic", &[(RunnerKind::Generic, n as u64)], "dense mv");
}

/// SSYRK's row `i` against row `j`, scattered once and gather-dotted in
/// a row nest: one workspace-dot entry per `j ≥ i` of every row `i` with
/// a stored entry (the merge's driver window), as the merge it replaced
/// counted.
#[test]
fn ssyrk_counts_under_workspace_dot() {
    let _serial = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let n = 16;
    let mut coo = CooTensor::new(vec![n, n]);
    for i in (0..n).filter(|i| i % 4 != 1) {
        for k in [i, (3 * i + 5) % n, (7 * i + 2) % n] {
            coo.set(&[i, k], 1.0 + k as f64);
        }
    }
    let nonempty: Vec<usize> = (0..n).filter(|i| i % 4 != 1).collect();
    let entries: u64 = nonempty.iter().map(|i| (n - i) as u64).sum();
    let def = defs::ssyrk();
    let inputs = def.inputs([("A", coo.into())]).expect("inputs pack");
    let main = Compiler::new().compile(&def.einsum, &def.symmetry).expect("compiles").main;
    let plan = Plan::new(main, inputs);
    assert!(plan.kernel.disassemble().contains("RowNest"), "{}", plan.kernel.disassemble());
    let want = [(RunnerKind::WorkspaceDot, entries)];
    plan.assert_dispatches("runner: WorkspaceDot {", &want, "ssyrk");
}

/// The several-items program of `tests/fused_bodies.rs`: `for l: if
/// i <= j: C[i,l] += a·B[j,l]; if i == j: C[j,l] += a·B[i,l]`. Above the
/// diagonal one item passes, on it both do and run coordinate-major —
/// through the generic runner, which is what both count under.
#[test]
fn several_passing_items_count_under_generic() {
    let _serial = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let (n, m) = (9, 20);
    let mut coo = CooTensor::new(vec![n, n]);
    for i in 0..n {
        coo.set(&[i, i], 1.0);
        coo.set(&[i, (i * 5 + 2) % n], 2.0);
    }
    let (mut above, mut diagonal) = (0u64, 0u64);
    for (coords, _) in coo.entries() {
        above += u64::from(coords[0] < coords[1]);
        diagonal += u64::from(coords[0] == coords[1]);
    }
    let items = Stmt::block([
        Stmt::guarded(
            le("i", "j"),
            assign(access("C", ["i", "l"]), mul([scalar("a"), access("B", ["j", "l"]).into()])),
        ),
        Stmt::guarded(
            eq("i", "j"),
            assign(access("C", ["j", "l"]), mul([scalar("a"), access("B", ["i", "l"]).into()])),
        ),
    ]);
    let main = Stmt::loops(
        [idx("i"), idx("j")],
        Stmt::Let {
            name: "a".into(),
            value: access("A", ["i", "j"]).into(),
            body: Box::new(Stmt::loops([idx("l")], items)),
        },
    );
    let a = SparseTensor::from_coo(&coo, &CSR).unwrap();
    let b = DenseTensor::filled(vec![n, m], 0.25);
    let inputs =
        HashMap::from([("A".to_string(), Tensor::Sparse(a)), ("B".to_string(), Tensor::Dense(b))]);
    let plan = Plan::new(main, inputs);
    let want = [(RunnerKind::Generic, above + 2 * diagonal)];
    plan.assert_dispatches("VecDenseLoop", &want, "several items");
}
