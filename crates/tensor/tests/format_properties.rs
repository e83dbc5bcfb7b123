//! Property-based tests of the fibertree format invariants — and of the
//! level-to-level builder against its `CooTensor` oracle: a split, a
//! transpose and a registration built through `SparseTensor::partition`,
//! `SparseTensor::permuted` and `Entries` must equal (derived
//! `PartialEq`: `pos`, `crd`, runs and values) what the public COO API
//! spells, `from_coo(&t.to_coo().split_diagonal(..))`,
//! `from_coo(&t.to_coo().permuted(..))` and `try_push` + `from_coo` —
//! plus, where the source stores zeros, exactly those entries.

use proptest::prelude::*;
use proptest::strategy::Union;
use systec_tensor::{CooTensor, DenseTensor, Entries, LevelFormat, SparseTensor, Tensor};

/// Strategy: a random COO tensor with rank in 1..=3 and small dims.
fn coo_strategy() -> impl Strategy<Value = CooTensor> {
    (1usize..=3)
        .prop_flat_map(|rank| {
            let dims = prop::collection::vec(1usize..=6, rank..=rank);
            dims.prop_flat_map(move |dims| {
                let max_nnz = dims.iter().product::<usize>().min(12);
                let coords = prop::collection::vec(
                    dims.iter().map(|&d| 0..d).collect::<Vec<_>>(),
                    0..=max_nnz,
                );
                let dims2 = dims.clone();
                (Just(dims2), coords, prop::collection::vec(0.1f64..10.0, max_nnz))
            })
        })
        .prop_map(|(dims, coords, vals)| {
            let mut coo = CooTensor::new(dims);
            for (c, v) in coords.iter().zip(vals.iter().cycle()) {
                coo.set(c, *v);
            }
            coo
        })
}

/// Strategy: a format vector for a given rank.
fn formats(rank: usize) -> impl Strategy<Value = Vec<LevelFormat>> {
    prop::collection::vec(
        prop_oneof![Just(LevelFormat::Dense), Just(LevelFormat::Sparse)],
        rank..=rank,
    )
}

proptest! {
    #[test]
    fn pack_roundtrips_through_any_format(coo in coo_strategy()) {
        let rank = coo.rank();
        proptest!(|(fmts in formats(rank))| {
            let packed = SparseTensor::from_coo(&coo, &fmts).unwrap();
            prop_assert_eq!(packed.to_coo(), coo.clone());
        });
    }

    #[test]
    fn random_access_matches_dense(coo in coo_strategy()) {
        let dense = coo.to_dense();
        let all_sparse = vec![LevelFormat::Sparse; coo.rank()];
        let packed = SparseTensor::from_coo(&coo, &all_sparse).unwrap();
        // Probe every coordinate.
        for (coords, v) in dense.iter() {
            prop_assert_eq!(packed.get(&coords), v);
        }
    }

    #[test]
    fn permutation_roundtrip_is_identity(coo in coo_strategy()) {
        let rank = coo.rank();
        // Rotate modes left, then right: the composition is the identity.
        let left: Vec<usize> = (0..rank).map(|k| (k + 1) % rank).collect();
        let right: Vec<usize> = (0..rank).map(|k| (k + rank - 1) % rank).collect();
        let rotated = coo.permuted(&left).unwrap().permuted(&right).unwrap();
        prop_assert_eq!(rotated, coo);
    }

    #[test]
    fn symmetrization_is_symmetric(n in 1usize..6, pairs in prop::collection::vec((0usize..6, 0usize..6, 0.1f64..5.0), 0..10)) {
        let mut coo = CooTensor::new(vec![n, n]);
        for (r, c, v) in pairs {
            if r < n && c < n {
                coo.set(&[r, c], v);
            }
        }
        let s = coo.symmetrized().unwrap();
        prop_assert!(s.is_fully_symmetric());
        // Diagonal entries double, off-diagonal sum with their mirror.
        for i in 0..n {
            let expected = 2.0 * coo.get(&[i, i]);
            prop_assert!((s.get(&[i, i]) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_permute_matches_coo_permute(coo in coo_strategy()) {
        let rank = coo.rank();
        let rev: Vec<usize> = (0..rank).rev().collect();
        let via_dense: DenseTensor = coo.to_dense().permuted(&rev).unwrap();
        let via_coo = coo.permuted(&rev).unwrap().to_dense();
        prop_assert_eq!(via_dense, via_coo);
    }

    #[test]
    fn split_diagonal_is_a_partition(coo in coo_strategy()) {
        let rank = coo.rank();
        let modes: Vec<usize> = (0..rank).collect();
        let (off, diag) = coo.split_diagonal(&modes);
        prop_assert_eq!(off.nnz() + diag.nnz(), coo.nnz());
        // Recombining restores the original.
        let mut merged = off.clone();
        for (c, v) in diag.entries() {
            merged.push(c, v);
        }
        prop_assert_eq!(merged, coo);
    }
}

/// One builder-vs-oracle case: a shape of rank 1–4, a format vector of
/// the kinds `output_bits_golden.rs` uses (root dense or compressed,
/// middle levels compressed, leaf compressed, run-length or dense: CSR,
/// DCSR, `[Dense, RunLength]`, `[Sparse, RunLength]`, all-dense, CSF3/4),
/// entries in arrival order (unsorted, with duplicates) and a mode
/// permutation.
#[derive(Clone, Debug)]
struct Case {
    dims: Vec<usize>,
    formats: Vec<LevelFormat>,
    entries: Vec<(Vec<usize>, f64)>,
    perm: Vec<usize>,
}

fn case_strategy(values: fn() -> Union<f64>) -> impl Strategy<Value = Case> {
    use LevelFormat::{Dense, RunLength, Sparse};
    let root = prop_oneof![Just(Dense), Just(Sparse)];
    let leaf = prop_oneof![Just(Sparse), Just(RunLength), Just(Dense)];
    (1usize..=4, root, leaf).prop_flat_map(move |(rank, root, leaf)| {
        let mut formats = vec![Sparse; rank];
        formats[0] = root;
        formats[rank - 1] = leaf;
        prop::collection::vec(1usize..=4, rank..=rank).prop_flat_map(move |dims| {
            let coords = dims.iter().map(|&d| 0..d).collect::<Vec<_>>();
            let entries = prop::collection::vec((coords, values()), 0..=14);
            let keys = prop::collection::vec(0u64..1000, rank..=rank);
            (Just(dims), Just(formats.clone()), entries, keys).prop_map(
                |(dims, formats, entries, keys)| {
                    let mut perm: Vec<usize> = (0..keys.len()).collect();
                    perm.sort_by_key(|&k| keys[k]);
                    Case { dims, formats, entries, perm }
                },
            )
        })
    })
}

/// Tensor values: mostly nonzero, some explicitly stored zeros.
fn stored_values() -> Union<f64> {
    prop_oneof![0.1f64..10.0, 0.1f64..10.0, -10.0f64..-0.1, Just(0.0)]
}

/// Registration values: signed zeros and sums whose order matters.
fn pushed_values() -> Union<f64> {
    prop_oneof![-10.0f64..10.0, Just(0.0), Just(-0.0), Just(1e16), Just(-1e16), Just(1.0)]
}

/// The packed source tensor of a case (a later duplicate overwrites).
fn source(case: &Case) -> SparseTensor {
    let mut coo = CooTensor::new(case.dims.clone());
    for (c, v) in &case.entries {
        coo.set(c, *v);
    }
    SparseTensor::from_coo(&coo, &case.formats).unwrap()
}

/// Every stored entry of `t`, zeros included, found by random access
/// over the whole coordinate space — independent of the walk under test.
fn stored(t: &SparseTensor) -> CooTensor {
    let mut out = CooTensor::new(t.dims().to_vec());
    for (coords, _) in DenseTensor::zeros(t.dims().to_vec()).iter() {
        let leaf = coords.iter().enumerate().try_fold(0, |pos, (k, &c)| t.level_find(k, pos, c));
        if let Some(leaf) = leaf {
            out.set(&coords, t.value(leaf));
        }
    }
    out
}

fn on_diagonal(coords: &[usize]) -> bool {
    coords.iter().enumerate().any(|(mode, c)| coords[mode + 1..].contains(c))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_walk_visits_every_stored_entry_in_order(case in case_strategy(stored_values)) {
        let t = source(&case);
        let mut walked = Vec::new();
        t.for_each_entry(|c, v| walked.push((c.to_vec(), v)));
        let want: Vec<(Vec<usize>, f64)> = stored(&t).entries().map(|(c, v)| (c.to_vec(), v)).collect();
        prop_assert_eq!(&walked, &want);
        prop_assert_eq!(Tensor::Sparse(t.clone()).to_dense(), stored(&t).to_dense());
        // Dropping the zeros is the documented `to_coo`.
        let mut nonzero = stored(&t);
        nonzero.prune_zeros();
        prop_assert_eq!(t.to_coo(), nonzero);
    }

    #[test]
    fn partition_is_the_coo_diagonal_split(case in case_strategy(stored_values)) {
        let t = source(&case);
        let pack = |coo: &CooTensor| SparseTensor::from_coo(coo, &case.formats).unwrap();
        let modes: Vec<usize> = (0..case.dims.len()).collect();
        let (diag, off) = t.partition(|c| Some(on_diagonal(c)));
        // The parent's path: zeros dropped on the way.
        let (off_plain, diag_plain) = t.to_coo().split_diagonal(&modes);
        if !t.values().contains(&0.0) {
            prop_assert_eq!(&diag, &pack(&diag_plain));
            prop_assert_eq!(&off, &pack(&off_plain));
        }
        // With stored zeros: the same split over every stored entry …
        let (off_full, diag_full) = stored(&t).split_diagonal(&modes);
        prop_assert_eq!(&diag, &pack(&diag_full));
        prop_assert_eq!(&off, &pack(&off_full));
        // … which is the parent's result plus zero entries only.
        prop_assert_eq!(diag.to_coo(), diag_plain);
        prop_assert_eq!(off.to_coo(), off_plain);
    }

    #[test]
    fn partition_drops_what_the_classifier_rejects(case in case_strategy(stored_values)) {
        // A keep rule in front of the diagonal split (the canonical
        // variants' shape): the rejected entries are in neither part.
        let t = source(&case);
        let pack = |coo: &CooTensor| SparseTensor::from_coo(coo, &case.formats).unwrap();
        let last = case.dims.len() - 1;
        let keep = |c: &[usize]| c[0] <= c[last];
        let (diag, off) = t.partition(|c| keep(c).then(|| on_diagonal(c)));
        let mut kept = CooTensor::new(case.dims.clone());
        for (c, v) in stored(&t).entries().filter(|(c, _)| keep(c)) {
            kept.set(c, v);
        }
        let modes: Vec<usize> = (0..case.dims.len()).collect();
        let (off_kept, diag_kept) = kept.split_diagonal(&modes);
        prop_assert_eq!(&diag, &pack(&diag_kept));
        prop_assert_eq!(&off, &pack(&off_kept));
    }

    #[test]
    fn permuted_is_the_coo_transpose(case in case_strategy(stored_values)) {
        let t = source(&case);
        let pack = |coo: &CooTensor| SparseTensor::from_coo(coo, &case.formats).unwrap();
        let got = t.permuted(&case.perm).unwrap();
        let plain = t.to_coo().permuted(&case.perm).unwrap();
        if !t.values().contains(&0.0) {
            prop_assert_eq!(&got, &pack(&plain));
        }
        prop_assert_eq!(&got, &pack(&stored(&t).permuted(&case.perm).unwrap()));
        prop_assert_eq!(got.to_coo(), plain);
    }

    #[test]
    fn dense_partition_is_the_coo_diagonal_split(case in case_strategy(stored_values)) {
        let dense = source(&case).to_coo().to_dense();
        let modes: Vec<usize> = (0..case.dims.len()).collect();
        let (off, diag) = CooTensor::from_dense(&dense).split_diagonal(&modes);
        prop_assert_eq!(dense.partition(|c| Some(on_diagonal(c))), (diag.to_dense(), off.to_dense()));
        let packed = SparseTensor::from_dense(&dense, &case.formats).unwrap();
        let oracle = SparseTensor::from_coo(&CooTensor::from_dense(&dense), &case.formats).unwrap();
        prop_assert_eq!(packed, oracle);
    }

    #[test]
    fn entries_pack_is_try_push_then_from_coo(
        case in case_strategy(pushed_values)
    ) {
        let mut coo = CooTensor::new(case.dims.clone());
        let mut entries = Entries::new(case.dims.clone());
        for (c, v) in &case.entries {
            coo.try_push(c, *v).unwrap();
            entries.try_push(c, *v).unwrap();
        }
        prop_assert_eq!(entries.len(), case.entries.len());
        let got = entries.pack(&case.formats).unwrap();
        let want = SparseTensor::from_coo(&coo, &case.formats).unwrap();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(bits(got.values()), bits(want.values()));
        let (got, want) = (entries.to_dense(), coo.to_dense());
        prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
    }
}

#[test]
fn entries_fold_duplicates_in_arrival_order_from_zero() {
    use systec_tensor::{TensorError, CSR};
    let pack = |pushes: &[([usize; 2], f64)]| {
        let mut coo = CooTensor::new(vec![3, 3]);
        let mut entries = Entries::new(vec![3, 3]);
        for (c, v) in pushes {
            coo.try_push(c, *v).unwrap();
            entries.try_push(c, *v).unwrap();
        }
        let got = entries.pack(&CSR).unwrap();
        assert_eq!(got, SparseTensor::from_coo(&coo, &CSR).unwrap());
        got
    };
    // (1e16 + 1.0) - 1e16 is 0.0; any other order of the three gives 1.0
    // or 2.0. Arrival order is kept across an interleaved, unsorted list.
    let t = pack(&[([2, 1], 1e16), ([0, 2], 4.0), ([2, 1], 1.0), ([0, 0], -1.0), ([2, 1], -1e16)]);
    assert_eq!(t.get(&[2, 1]).to_bits(), 0.0f64.to_bits());
    assert_eq!((t.get(&[0, 0]), t.get(&[0, 2]), t.nnz()), (-1.0, 4.0, 3));
    // A lone -0.0 is stored, as 0.0 + -0.0 = +0.0.
    let t = pack(&[([1, 1], -0.0)]);
    assert_eq!((t.nnz(), t.values()[0].to_bits()), (1, 0.0f64.to_bits()));

    // Rejections: the same error as `CooTensor::try_push`, nothing pushed.
    let mut coo = CooTensor::new(vec![3, 3]);
    let mut entries = Entries::new(vec![3, 3]);
    for bad in [&[0usize][..], &[0, 1, 2], &[3, 0], &[0, 3], &[7, 9]] {
        let want = coo.try_push(bad, 1.0).unwrap_err();
        assert_eq!(entries.try_push(bad, 1.0).unwrap_err(), want, "{bad:?}");
    }
    // First offending mode first.
    assert_eq!(
        entries.try_push(&[7, 9], 1.0),
        Err(TensorError::CoordOutOfBounds { mode: 0, coord: 7, dim: 3 })
    );
    assert!(entries.is_empty());
    // The packer rejects what `from_coo` rejects.
    let formats = [LevelFormat::RunLength, LevelFormat::Sparse];
    assert_eq!(entries.pack(&formats), SparseTensor::from_coo(&coo, &formats));
    assert_eq!(
        entries.pack(&[LevelFormat::Sparse]),
        SparseTensor::from_coo(&coo, &[LevelFormat::Sparse])
    );
}
