//! Golden-bytecode snapshot tests: the compiled plans of every paper
//! kernel (plus the naive ssymv baseline) disassemble to a stable text
//! form that is diffed against checked-in `.golden` files. Any
//! instruction-selection change — a new vector-loop kind firing, a
//! fusion rule widening, a register-allocation tweak — shows up as a
//! reviewable diff instead of an invisible behavior change.
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! SYSTEC_BLESS=1 cargo test -p systec-codegen --test bytecode_golden
//! ```
//!
//! Plans depend only on the einsum, symmetry declarations, and input
//! formats/dims — never on values — so the fixed shapes below pin the
//! snapshots completely.

use std::collections::HashMap;
use std::path::PathBuf;

use systec_codegen::CompiledKernel;
use systec_core::Compiler;
use systec_exec::{alloc_outputs, hoist_conditions, lower, prepare_variants};
use systec_ir::Stmt;
use systec_kernels::defs::{self, InputData, KernelDef};
use systec_tensor::{CooTensor, DenseTensor, Tensor};

/// Extent of every sparse-chain index in the snapshot inputs.
const N: usize = 8;
/// Extent of dense-only indices (MTTKRP's `j`, TTM's `i`).
const RANK: usize = 4;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Deterministic COO data covering every symmetry orbit the packers
/// care about: a diagonal entry, an off-diagonal orbit, and a run of
/// consecutive leaf coordinates (values are irrelevant to the plan).
fn fixed_coo(rank: usize) -> CooTensor {
    let mut coo = CooTensor::new(vec![N; rank]);
    coo.set(&vec![1; rank], 1.0);
    let mut coords: Vec<usize> = (0..rank).collect();
    coo.set(&coords, 2.0);
    coords.reverse();
    coo.set(&coords, 2.0);
    let mut run = vec![2; rank];
    for j in 3..6 {
        run[rank - 1] = j;
        coo.set(&run, 3.0);
    }
    coo
}

/// Builds the kernel's fixed-shape inputs (symmetric data for declared
/// symmetries, so packing succeeds; dense factor matrices span
/// (chain index, dense index)).
fn fixed_inputs(def: &KernelDef) -> HashMap<String, Tensor> {
    let mut inputs: HashMap<String, Tensor> = HashMap::new();
    for access in def.einsum.rhs.accesses() {
        let name = access.tensor.name.clone();
        if inputs.contains_key(&name) {
            continue;
        }
        let rank = access.rank();
        let value: InputData = if let Some(partition) = def.symmetry.partition(&name) {
            let base = fixed_coo(rank);
            let mut sym = CooTensor::new(vec![N; rank]);
            for (coords, v) in base.entries() {
                for perm in partition.permutations() {
                    let permuted: Vec<usize> = perm.iter().map(|&p| coords[p]).collect();
                    sym.set(&permuted, v);
                }
            }
            sym.into()
        } else if def.formats[&name] != defs::InputFormat::Dense {
            // SSYRK's non-symmetric sparse A.
            fixed_coo(rank).into()
        } else if rank == 1 {
            DenseTensor::filled(vec![N], 1.0).into()
        } else {
            DenseTensor::filled(vec![N, RANK], 1.0).into()
        };
        inputs.extend(def.inputs([(name.as_str(), value)]).expect("fixed data packs"));
    }
    inputs
}

/// Compiles `main` (+ optional replication) against the inputs and
/// renders the full snapshot text.
fn snapshot(main: Stmt, replication: Option<Stmt>, inputs: &HashMap<String, Tensor>) -> String {
    let main = hoist_conditions(main);
    let mut all_inputs = inputs.clone();
    all_inputs.extend(prepare_variants(&main, inputs).expect("variants"));
    let outputs_init = alloc_outputs(&main, &all_inputs).expect("outputs");
    let compiled = |stmt: &Stmt| -> String {
        let lowered = lower(stmt, &all_inputs, &outputs_init).expect("lowers");
        CompiledKernel::compile(&lowered, &all_inputs, &outputs_init)
            .expect("compiles")
            .disassemble()
    };
    let mut text = String::from("== main ==\n");
    text.push_str(&compiled(&main));
    if let Some(rep) = replication {
        let rep = hoist_conditions(rep);
        text.push_str("== replication ==\n");
        text.push_str(&compiled(&rep));
    }
    text
}

/// Diffs (or, under `SYSTEC_BLESS=1`, rewrites) one snapshot.
fn check(name: &str, text: &str) -> Result<(), String> {
    let path = golden_dir().join(format!("{name}.golden"));
    if std::env::var_os("SYSTEC_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, text).expect("write golden");
        return Ok(());
    }
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!("{name}: missing golden file {path:?} ({e}); bless with SYSTEC_BLESS=1")
    })?;
    if expected == text {
        return Ok(());
    }
    let diff: Vec<String> = expected
        .lines()
        .zip(text.lines())
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .take(8)
        .map(|(k, (a, b))| format!("  line {}:\n  - {a}\n  + {b}", k + 1))
        .collect();
    Err(format!(
        "{name}: compiled bytecode diverged from {path:?} \
         ({} vs {} lines). If the change is intentional, regenerate with \
         SYSTEC_BLESS=1 and review the diff.\n{}",
        expected.lines().count(),
        text.lines().count(),
        diff.join("\n")
    ))
}

#[test]
fn paper_kernel_bytecode_matches_goldens() {
    let mut failures = Vec::new();
    for def in defs::all() {
        let inputs = fixed_inputs(&def);
        let kernel = Compiler::new()
            .compile(&def.einsum, &def.symmetry)
            .unwrap_or_else(|e| panic!("{} compiles: {e}", def.name));
        let text = snapshot(kernel.main, kernel.replication, &inputs);
        if let Err(e) = check(def.name, &text) {
            failures.push(e);
        }
    }
    // The naive (symmetry-oblivious) ssymv baseline rides along: it pins
    // the plain concordant-driver selection with no symmetry passes.
    let def = defs::ssymv();
    let inputs = fixed_inputs(&def);
    let naive = Compiler::new().naive(&def.einsum);
    if let Err(e) = check("ssymv_naive", &snapshot(naive, None, &inputs)) {
        failures.push(e);
    }
    assert!(failures.is_empty(), "stale golden files:\n{}", failures.join("\n"));
}

/// The snapshots themselves assert the headline selection facts, so a
/// regression that *also* blesses new goldens still has to get past
/// review with these names in the diff.
#[test]
fn ssyrk_scatters_row_i_and_nests_rows_j() {
    let def = defs::ssyrk();
    let inputs = fixed_inputs(&def);
    let kernel = Compiler::new().compile(&def.einsum, &def.symmetry).unwrap();
    let text = snapshot(kernel.main, None, &inputs);
    let lines: Vec<&str> = text.lines().collect();
    // The `i` loop's body: row `i` scattered once, then the whole `j ≥ i`
    // sweep as one row nest gather-dotting each row `j` against it.
    let at = |needle: &str| lines.iter().position(|l| l.contains(needle));
    let (Some(scatter), Some(nest)) = (at(": Scatter {"), at(": RowNest(")) else {
        panic!("ssyrk must scatter row i and nest the rows j:\n{text}");
    };
    assert_eq!(scatter + 1, nest, "the scatter sits right before the j head:\n{text}");
    let i_reg =
        |l: &str| l.split("idx: ").nth(1).and_then(|s| s.split(',').next()).map(str::to_owned);
    let i = i_reg(lines[1]).expect("the i loop heads the program");
    assert!(
        i_reg(lines[nest]).is_some_and(|j| j != i)
            && lines[nest].contains(&format!("lo: [Bound {{ reg: {i}, delta: 0 }}]"))
            && lines[nest].contains("runner: WorkspaceDot {"),
        "the nest walks rows j ≥ i through the workspace dot:\n{text}"
    );
    assert!(
        !text.contains("SparseLoopHead"),
        "no general compressed walk should survive in ssyrk's main program:\n{text}"
    );
}

/// Fused-body selection fires on the hot loops of the paper suite: the
/// goldens carry the full `Fused` forms — a vector loop's item body or a
/// row nest's inner body — and this pins the headline facts by name so a
/// regression can't hide behind a bless.
#[test]
fn fused_bodies_selected_across_paper_kernels() {
    let mut fused_kernels = 0usize;
    for def in defs::all() {
        let inputs = fixed_inputs(&def);
        let kernel = Compiler::new().compile(&def.einsum, &def.symmetry).unwrap();
        let text = snapshot(kernel.main, kernel.replication, &inputs);
        if text.contains("body: Fused") || text.contains("fused: Fused") {
            fused_kernels += 1;
        }
    }
    assert!(
        fused_kernels >= 5,
        "fused bodies must be selected on at least 5 of the paper kernels, got {fused_kernels}"
    );
}
