//! The bytecode VM's runner contract, driven from the root package so
//! the tier-1 command (`cargo test -q`) fails when the runner breaks:
//! through the public `systec_kernels` API only, five paper kernels over
//! CSR, DCSR and run-length storage must agree with the tree-walking
//! interpreter (`Prepared::run_interpreted`, replication included) —
//! outputs **byte for byte**, work counters exactly.
//!
//! (The codegen crate's own differential, golden and proptest tiers run
//! only under `cargo test --workspace`; this is their tier-1 slice.)

use std::collections::HashMap;

use systec::ir::parse_einsum;
use systec::kernels::defs::{self, InputData, InputFormat};
use systec::kernels::{Counters, ExecContext, KernelDef, Parallelism, Prepared};
use systec::tensor::generate::{
    random_dense, rng, sprand, symmetric_block_plateau, symmetric_erdos_renyi,
};
use systec::tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

/// (root, leaf) level formats; middle levels of a rank-3 tensor stay
/// compressed.
const FORMATS: &[(&str, LevelFormat, LevelFormat)] = &[
    ("csr", LevelFormat::Dense, LevelFormat::Sparse),
    ("dcsr", LevelFormat::Sparse, LevelFormat::Sparse),
    ("dense-rle", LevelFormat::Dense, LevelFormat::RunLength),
];

/// Packs the kernel's inputs with its sparse operand `A` stored as
/// `[root, Sparse…, leaf]`.
fn pack(
    def: &KernelDef,
    root: LevelFormat,
    leaf: LevelFormat,
    a: InputData,
    dense: Option<(&str, DenseTensor)>,
) -> HashMap<String, Tensor> {
    let mut def = def.clone();
    let rank = def.einsum.rhs.accesses().iter().map(|acc| acc.rank()).max().unwrap();
    let mut levels = vec![LevelFormat::Sparse; rank];
    levels[0] = root;
    levels[rank - 1] = leaf;
    def.formats.insert("A".to_string(), InputFormat::Compressed(levels));
    let mut inputs = def.inputs([("A", a)]).expect("A packs");
    if let Some((name, t)) = dense {
        inputs.extend(def.inputs([(name, t.into())]).expect("dense operand packs"));
    }
    inputs
}

fn bits(outputs: &HashMap<String, DenseTensor>) -> Vec<(&String, Vec<u64>)> {
    let mut all: Vec<_> = outputs
        .iter()
        .map(|(name, t)| (name, t.as_slice().iter().map(|v| v.to_bits()).collect()))
        .collect();
    all.sort();
    all
}

/// One prepared plan: the VM against the interpreter, bit for bit.
fn assert_plan(vm: &Prepared, label: &str) {
    let (want, want_counters) = vm.run_interpreted().expect(label);
    let (mut got, mut counters) = (HashMap::new(), Counters::new());
    vm.run_full_into(&mut got, &mut ExecContext::new(), &mut counters).expect(label);
    assert_eq!(counters, want_counters, "{label}: counters differ");
    assert_eq!(bits(&got), bits(&want), "{label}: not bit-identical");
}

/// The kernel's symmetric and naive plans.
fn assert_contract(def: &KernelDef, inputs: &HashMap<String, Tensor>, label: &str) {
    let plans = [
        ("sym", Prepared::compile(def, inputs).expect(label)),
        ("naive", Prepared::naive(def, inputs).expect(label)),
    ];
    for (plan, vm) in plans {
        assert_plan(&vm, &format!("{label} {plan}"));
    }
}

#[test]
fn rank2_symmetric_kernels_match_the_interpreter() {
    // Block plateaus: real runs for the run-length leaf, and rows both
    // shorter and longer than eight entries.
    let n = 48;
    let mut r = rng(11);
    let a = symmetric_block_plateau(n, 6, 0.45, &mut r);
    let x = random_dense(vec![n], &mut r);
    for &(fname, root, leaf) in FORMATS {
        for (def, vec_name) in
            [(defs::ssymv(), "x"), (defs::syprd(), "x"), (defs::bellman_ford(), "d")]
        {
            let inputs = pack(&def, root, leaf, a.clone().into(), Some((vec_name, x.clone())));
            let label = format!("{} {fname}", def.name);
            assert_contract(&def, &inputs, &label);
        }
    }
}

#[test]
fn generic_dots_fold_at_one_lane() {
    // Two dots that run no closed form, each into `y[i]` over 48-wide
    // rows: a dense mat-vec on the generic runner (no driver value, so no
    // closed form) and a merge against a probe into a dense level (an
    // intersection the workspace rewrite cannot re-drive, so it runs on
    // the general path). Both fold in the interpreter's order.
    let n = 48;
    let mut r = rng(15);
    let d = Tensor::Dense(random_dense(vec![n, n], &mut r));
    let x = Tensor::Dense(random_dense(vec![n], &mut r));
    let mv = parse_einsum("for i, j: y[i] += D[i, j] * x[j]").expect("parses");
    let inputs = HashMap::from([("D".to_string(), d), ("x".to_string(), x)]);
    let vm = Prepared::naive_einsum(&mv, &inputs).expect("prepares");
    assert_plan(&vm, "dense mat-vec");

    let random = |formats: &[LevelFormat], r: &mut _| {
        let coo = sprand(n, n, 1400, r);
        Tensor::Sparse(SparseTensor::from_coo(&coo, formats).expect("packs"))
    };
    let a = random(&[LevelFormat::Dense, LevelFormat::Sparse], &mut r);
    let b = random(&[LevelFormat::Dense, LevelFormat::Dense], &mut r);
    let isect = parse_einsum("for i, k: y[i] += A[i, k] * B[i, k]").expect("parses");
    let inputs = HashMap::from([("A".to_string(), a), ("B".to_string(), b)]);
    let vm = Prepared::naive_einsum(&isect, &inputs).expect("prepares");
    assert_plan(&vm, "csr * dense-probe intersection");
}

#[test]
fn many_short_rows_match_the_interpreter() {
    // 6 000 rows of about four stored entries each, some with no
    // diagonal and some with nothing right of it: a run that is all row
    // overhead, which is what the VM's row nest executes — every row's
    // window, prologue and epilogue must still land where the
    // interpreter puts them.
    let n = 6_000;
    let mut a = CooTensor::new(vec![n, n]);
    for i in 0..n {
        let right = [i + 1, i + 5].into_iter().take(1 + i % 2).filter(|&j| i % 7 != 0 && j < n);
        for j in right.chain((i % 3 != 0).then_some(i)) {
            a.set(&[i, j], 0.25 + (i % 11) as f64);
            a.set(&[j, i], 0.25 + (i % 11) as f64);
        }
    }
    let x = random_dense(vec![n], &mut rng(14));
    for &(fname, root, leaf) in FORMATS {
        for (def, vec_name) in
            [(defs::ssymv(), "x"), (defs::syprd(), "x"), (defs::bellman_ford(), "d")]
        {
            let inputs = pack(&def, root, leaf, a.clone().into(), Some((vec_name, x.clone())));
            let label = format!("{} {fname} short rows", def.name);
            assert_contract(&def, &inputs, &label);
        }
    }
}

#[test]
fn ssyrk_intersection_matches_the_interpreter() {
    let mut r = rng(12);
    let a = sprand(36, 36, 420, &mut r);
    let def = defs::ssyrk();
    for &(fname, root, leaf) in FORMATS {
        let inputs = pack(&def, root, leaf, a.clone().into(), None);
        assert_contract(&def, &inputs, &format!("ssyrk {fname}"));
    }
}

#[test]
fn mttkrp3_matches_the_interpreter() {
    let n = 14;
    let mut r = rng(13);
    let a = symmetric_erdos_renyi(n, 3, 0.04, &mut r);
    let b = random_dense(vec![n, 20], &mut r);
    let def = defs::mttkrp(3);
    for &(fname, root, leaf) in FORMATS {
        let inputs = pack(&def, root, leaf, a.clone().into(), Some(("B", b.clone())));
        assert_contract(&def, &inputs, &format!("mttkrp3 {fname}"));
    }
}

/// TTM and MTTKRP-3/4/5: their factor-row updates (dense loads into
/// strided output stores) run the jam runner, fold by fold over each
/// row. On all five storage formats, for the symmetric and the naive
/// plan, the serial VM must give the interpreter's output bits and
/// counters. At two threads a reduced output merges per-worker buffers,
/// which reassociates whatever runner ran, so there the counters must
/// still be the interpreter's exactly, the outputs within 1e-9 of it,
/// and the bits the same on every run (the bits themselves are pinned
/// by `crates/codegen/tests/golden/output_bits.golden`).
#[test]
fn rank3plus_jam_bodies_match_the_interpreter() {
    use LevelFormat::{Dense, RunLength, Sparse};
    let more = [("sparse-rle", Sparse, RunLength), ("dense", Dense, Dense)];
    let kernels = [
        (defs::ttm(), 10, 0.08),
        (defs::mttkrp(3), 12, 0.06),
        (defs::mttkrp(4), 8, 0.05),
        (defs::mttkrp(5), 6, 0.05),
    ];
    let mut r = rng(16);
    for (def, n, p) in kernels {
        let order = def.einsum.rhs.accesses().iter().map(|acc| acc.rank()).max().unwrap();
        let a = symmetric_erdos_renyi(n, order, p, &mut r);
        let b = random_dense(vec![n, 20], &mut r);
        for &(fname, root, leaf) in FORMATS.iter().chain(&more) {
            let inputs = pack(&def, root, leaf, a.clone().into(), Some(("B", b.clone())));
            for plan in ["sym", "naive"] {
                let label = format!("{} {fname} {plan}", def.name);
                let prepare = |threads| {
                    let vm = match plan {
                        "sym" => Prepared::compile(&def, &inputs),
                        _ => Prepared::naive(&def, &inputs),
                    };
                    vm.expect(&label).with_parallelism(Parallelism::threads(threads))
                };
                let (want, want_counters) = prepare(1).run_interpreted().expect(&label);
                for threads in [1, 2] {
                    let vm = prepare(threads);
                    let runs: Vec<_> = (0..2)
                        .map(|_| {
                            let (mut got, mut counters) = (HashMap::new(), Counters::new());
                            let mut ctx = ExecContext::new();
                            vm.run_full_into(&mut got, &mut ctx, &mut counters).expect(&label);
                            assert_eq!(counters, want_counters, "{label} t{threads}: counters");
                            got
                        })
                        .collect();
                    assert_eq!(bits(&runs[0]), bits(&runs[1]), "{label} t{threads}: rerun");
                    if threads == 1 {
                        assert_eq!(bits(&runs[0]), bits(&want), "{label}: not bit-identical");
                    }
                    for (name, t) in &want {
                        let diff = runs[0][name].max_abs_diff(t).expect(&label);
                        assert!(diff <= 1e-9, "{label} t{threads}: {name} off by {diff:e}");
                    }
                }
            }
        }
    }
}
