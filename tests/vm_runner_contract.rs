//! The bytecode VM's runner contract, driven from the root package so
//! the tier-1 command (`cargo test -q`) fails when the runner breaks:
//! through the public `systec_kernels` API only, five paper kernels over
//! CSR, DCSR and run-length storage must agree with the tree-walking
//! interpreter — **byte for byte** in scalar lane mode, within 1e-9 in
//! the default lane mode, work counters exact in both.
//!
//! (The codegen crate's own differential, golden and proptest tiers run
//! only under `cargo test --workspace`; this is their tier-1 slice.)

use std::collections::HashMap;

use systec::kernels::defs::{self, InputData, InputFormat};
use systec::kernels::{Backend, Counters, ExecContext, KernelDef, LaneMode, Prepared};
use systec::tensor::generate::{
    random_dense, rng, sprand, symmetric_block_plateau, symmetric_erdos_renyi,
};
use systec::tensor::{CooTensor, DenseTensor, LevelFormat, Tensor};

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

/// Symmetric and naive plans: interpreter vs scalar-mode VM vs lane-mode
/// VM.
fn assert_contract(def: &KernelDef, inputs: &HashMap<String, Tensor>, label: &str) {
    let plans = [
        ("sym", Prepared::compile(def, inputs).expect(label)),
        ("naive", Prepared::naive(def, inputs).expect(label)),
    ];
    for (plan, prepared) in plans {
        let label = format!("{label} {plan}");
        let (want, want_counters) =
            prepared.clone().with_backend(Backend::Interpreter).run_timed().expect(&label);
        let vm = prepared.with_backend(Backend::Compiled);
        for mode in [LaneMode::Scalar, LaneMode::Lanes] {
            let mut ctx = ExecContext::new().with_lane_mode(mode);
            let mut got = HashMap::new();
            let mut counters = Counters::new();
            vm.run_timed_into(&mut got, &mut ctx, &mut counters).expect(&label);
            assert_eq!(counters, want_counters, "{label} {mode:?}: counters differ");
            if mode == LaneMode::Scalar {
                assert_eq!(bits(&got), bits(&want), "{label}: scalar mode is not bit-identical");
            }
            for (name, t) in &want {
                let diff = got[name].max_abs_diff(t).expect(&label);
                assert!(diff <= 1e-9, "{label} {mode:?}: output {name} off by {diff:e}");
            }
        }
    }
}

#[test]
fn rank2_symmetric_kernels_match_the_interpreter() {
    // Block plateaus: real runs for the run-length leaf, and rows on
    // both sides of the lane cutover.
    let n = 48;
    let mut r = rng(11);
    let a = symmetric_block_plateau(n, 6, 0.45, &mut r);
    let x = random_dense(vec![n], &mut r);
    for &(fname, root, leaf) in FORMATS {
        for (def, vec_name) in
            [(defs::ssymv(), "x"), (defs::syprd(), "x"), (defs::bellman_ford(), "d")]
        {
            let inputs = pack(&def, root, leaf, a.clone().into(), Some((vec_name, x.clone())));
            assert_contract(&def, &inputs, &format!("{} {fname}", def.name));
        }
    }
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
            assert_contract(&def, &inputs, &format!("{} {fname} short rows", def.name));
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
