//! Explicitly stored zeros are entries: a symmetric plan must read and
//! compute with them exactly as the naive plan does. Over `+`/`*` a
//! dropped zero is invisible, but over min-plus a stored `0.0` is a
//! zero-weight edge, and dropping it from `A_diag` / `A_nondiag` while
//! the base `A` keeps it makes symmetric ≠ naive. The two parts hold the
//! canonical triangle only — what the symmetric plan's guards can reach —
//! and every stored entry in it, zeros included.

use std::collections::HashMap;

use systec::exec::Counters;
use systec::kernels::{defs, KernelDef, Prepared};
use systec::tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

use LevelFormat::{Dense, RunLength, Sparse};

/// CSR, DCSR and a run-length leaf.
const FORMATS: [[LevelFormat; 2]; 3] = [[Dense, Sparse], [Sparse, Sparse], [Dense, RunLength]];

/// A symmetric matrix from its canonical entries (zeros kept as stored
/// entries).
fn symmetric(n: usize, upper: &[(usize, usize, f64)]) -> CooTensor {
    let mut coo = CooTensor::new(vec![n, n]);
    for &(i, j, v) in upper {
        coo.set(&[i, j], v);
        coo.set(&[j, i], v);
    }
    coo
}

/// Stored zeros off the diagonal (0–1, 2–4) and on it (0–0, 3–3), next
/// to ordinary entries; row 0 starts with two equal neighbours, so the
/// run-length leaf really holds a zero run.
fn matrix_with_stored_zeros() -> CooTensor {
    symmetric(
        5,
        &[
            (0, 0, 0.0),
            (0, 1, 0.0),
            (0, 3, 2.0),
            (1, 2, 5.0),
            (2, 2, 3.0),
            (2, 4, 0.0),
            (3, 3, 0.0),
            (3, 4, 1.5),
        ],
    )
}

fn vector(values: &[f64]) -> Tensor {
    Tensor::Dense(DenseTensor::from_vec(vec![values.len()], values.to_vec()).unwrap())
}

type Ran = (HashMap<String, DenseTensor>, Counters);

/// Packs `a` in `formats`, binds `vec_name` and runs both plans in full.
fn run_both(
    def: &KernelDef,
    a: &CooTensor,
    formats: &[LevelFormat],
    (vec_name, values): (&str, &[f64]),
) -> (Ran, Ran) {
    let packed = SparseTensor::from_coo(a, formats).unwrap();
    let mut stored = 0;
    packed.for_each_entry(|_, _| stored += 1);
    assert_eq!(stored, a.nnz(), "{formats:?}: the zeros must be stored to begin with");
    let inputs = HashMap::from([
        ("A".to_string(), Tensor::Sparse(packed)),
        (vec_name.to_string(), vector(values)),
    ]);
    let sym = Prepared::compile(def, &inputs).unwrap().run_full().unwrap();
    let naive = Prepared::naive(def, &inputs).unwrap().run_full().unwrap();
    (sym, naive)
}

/// Entries with nondecreasing coordinates: what a symmetric plan reads.
fn canonical_count(coo: &CooTensor) -> u64 {
    coo.entries().filter(|(c, _)| c[0] <= c[1]).count() as u64
}

#[test]
fn bellman_ford_keeps_a_zero_weight_edge() {
    // 0 –0– 1 –5– 2, distances [0, 100, 100]: the zero-weight edge is the
    // only way node 1 gets to 0 and node 0 hears of node 1.
    let a = symmetric(3, &[(0, 1, 0.0), (1, 2, 5.0)]);
    for formats in FORMATS {
        let ((sym, _), (naive, _)) =
            run_both(&defs::bellman_ford(), &a, &formats, ("d", &[0.0, 100.0, 100.0]));
        assert_eq!(naive["y"].as_slice(), [100.0, 0.0, 105.0], "{formats:?}: naive");
        assert_eq!(sym["y"].as_slice(), [100.0, 0.0, 105.0], "{formats:?}: symmetric");
    }
}

#[test]
fn symmetric_plans_agree_with_naive_and_read_the_stored_zeros() {
    let a = matrix_with_stored_zeros();
    let x = [1.0, -2.0, 0.5, 4.0, 3.0];
    let cases = [(defs::bellman_ford(), "d"), (defs::ssymv(), "x"), (defs::syprd(), "x")];
    for (def, vec_name) in cases {
        for formats in FORMATS {
            let what = format!("{} {formats:?}", def.name);
            let ((sym, cs), (naive, cn)) = run_both(&def, &a, &formats, (vec_name, &x));
            for (got, want) in sym["y"].as_slice().iter().zip(naive["y"].as_slice()) {
                if def.name == "bellman_ford" {
                    // min is order-independent: bit for bit.
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {sym:?} vs {naive:?}");
                } else {
                    assert!((got - want).abs() <= 1e-12, "{what}: {sym:?} vs {naive:?}");
                }
            }
            // The naive plan reads every stored entry once, the symmetric
            // one exactly the canonical triangle — zeros counted in both.
            assert_eq!(cn.reads_of_family("A"), a.nnz() as u64, "{what}: naive reads");
            assert_eq!(cs.reads_of_family("A"), canonical_count(&a), "{what}: symmetric reads");
        }
    }
}

#[test]
fn the_parts_hold_exactly_the_canonical_stored_entries() {
    let a = matrix_with_stored_zeros();
    let canonical = |keep: fn(&[usize]) -> bool| -> Vec<(Vec<usize>, u64)> {
        a.entries().filter(|(c, _)| keep(c)).map(|(c, v)| (c.to_vec(), v.to_bits())).collect()
    };
    for formats in FORMATS {
        let inputs = HashMap::from([
            ("A".to_string(), Tensor::Sparse(SparseTensor::from_coo(&a, &formats).unwrap())),
            ("x".to_string(), vector(&[1.0; 5])),
        ]);
        let prepared = Prepared::compile(&defs::ssymv(), &inputs).unwrap();
        let held = |name: &str| {
            let mut out = Vec::new();
            let part = prepared.inputs()[name].as_sparse().expect("compressed like its base");
            part.for_each_entry(|c, v| out.push((c.to_vec(), v.to_bits())));
            out
        };
        assert_eq!(held("A_nondiag"), canonical(|c| c[0] < c[1]), "{formats:?}: A_nondiag");
        assert_eq!(held("A_diag"), canonical(|c| c[0] == c[1]), "{formats:?}: A_diag");
    }
}
