//! Ablation benches: each optimization pass of §4.2 toggled off
//! individually on the 3-d MTTKRP and SSYMV kernels, quantifying its
//! contribution to the end-to-end speedup. Each variant prints its
//! minimum run time and its ratio to `full`.
//!
//! ```sh
//! cargo bench -p systec-bench --bench ablation
//! ```

use std::collections::HashMap;
use std::time::Duration;

use systec_bench::time_min;
use systec_core::CompileOptions;
use systec_kernels::{defs, KernelDef, Prepared};
use systec_tensor::generate::{random_dense, rng, symmetric_erdos_renyi};
use systec_tensor::Tensor;

const BUDGET: Duration = Duration::from_secs(2);

fn variants() -> Vec<(&'static str, CompileOptions)> {
    let all = CompileOptions::default();
    vec![
        ("full", all),
        ("no_cse", CompileOptions { cse: false, ..all }),
        ("no_distribute", CompileOptions { distribute: false, ..all }),
        ("no_diag_split", CompileOptions { diagonal_split: false, ..all }),
        ("no_workspace", CompileOptions { workspace: false, ..all }),
        ("no_consolidate", CompileOptions { consolidate: false, ..all }),
        ("no_visible_output", CompileOptions { visible_output: false, ..all }),
        ("with_lookup_tables", CompileOptions { lookup_tables: true, ..all }),
        ("symmetrize_only", CompileOptions::none()),
    ]
}

/// Times every variant of `def` on `inputs` and prints one line each.
fn group(name: &str, def: &KernelDef, inputs: &HashMap<String, Tensor>) {
    println!("{name} (min of runs, us; ratio to full)");
    let mut full = None;
    for (variant, options) in variants() {
        let prepared = Prepared::compile_with(def, inputs, options).expect("prepare");
        let t = time_min(BUDGET, 10, || {
            prepared.run_timed().expect("run");
        });
        let full = *full.get_or_insert(t);
        println!(
            "  {variant:<20}{:>12.1}{:>8.2}x",
            t.as_secs_f64() * 1e6,
            t.as_secs_f64() / full.as_secs_f64()
        );
    }
}

fn main() {
    let mut r = rng(9);

    let def = defs::ssymv();
    let a = symmetric_erdos_renyi(2500, 2, 3e-3, &mut r);
    let x = random_dense(vec![2500], &mut r);
    let inputs = def.inputs([("A", a.into()), ("x", x.into())]).unwrap();
    group("ablation_ssymv", &def, &inputs);

    let def = defs::mttkrp(3);
    let a = symmetric_erdos_renyi(40, 3, 1e-2, &mut r);
    let b_mat = random_dense(vec![40, 16], &mut r);
    let inputs = def.inputs([("A", a.into()), ("B", b_mat.into())]).unwrap();
    group("ablation_mttkrp3", &def, &inputs);
}
