//! Hand-written native kernels: the library comparators of §5.2.
//!
//! These are direct Rust implementations over raw CSR/CSF arrays, filling
//! the roles of the paper's external baselines:
//!
//! * [`csr_spmv`] — what TACO emits for SpMV (simple loop bounds, no
//!   conditionals): the "TACO" series.
//! * [`symmetric_csr_spmv`] — a symmetric CSR SpMV over the upper
//!   triangle: the "MKL `mkl_dcsrsymv`" series.
//! * [`csf_mttkrp3`] — a CSF-based 3-d MTTKRP with a row workspace: the
//!   "SPLATT" series.
//! * [`csr_syprd`], [`csr_bellman_ford`], [`csr_ssyrk`] — native
//!   references for the remaining kernels.
//!
//! They also serve as independent correctness oracles for the compiled
//! kernels (different code path, same mathematics). Being compiled
//! native loops, their absolute times are not comparable to the
//! interpreter's; the harness reports them in a separate column.

use systec_tensor::{DenseTensor, SparseTensor};

/// Plain CSR sparse matrix-vector multiply `y = A x` (the TACO-like
/// baseline).
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn csr_spmv(a: &SparseTensor, x: &DenseTensor) -> DenseTensor {
    assert_eq!(a.rank(), 2, "csr_spmv needs a matrix");
    assert_eq!(a.dims()[1], x.dims()[0], "dimension mismatch");
    let n = a.dims()[0];
    let mut y = DenseTensor::zeros(vec![n]);
    for i in 0..n {
        let Some(row) = a.level_find(0, 0, i) else { continue };
        let mut acc = 0.0;
        for (j, pos) in a.level_iter(1, row, 0, usize::MAX) {
            acc += a.value(pos) * x.get(&[j]);
        }
        *y.get_mut(&[i]) += acc;
    }
    y
}

/// Symmetric CSR SpMV reading only the stored upper triangle and
/// applying each off-diagonal entry twice (the MKL-`mkl_dcsrsymv`-like
/// baseline). `A` must be symmetric; entries below the diagonal are
/// skipped rather than assumed absent.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn symmetric_csr_spmv(a: &SparseTensor, x: &DenseTensor) -> DenseTensor {
    assert_eq!(a.rank(), 2, "symmetric_csr_spmv needs a matrix");
    assert_eq!(a.dims()[1], x.dims()[0], "dimension mismatch");
    let n = a.dims()[0];
    let mut y = DenseTensor::zeros(vec![n]);
    for i in 0..n {
        let Some(row) = a.level_find(0, 0, i) else { continue };
        let mut acc = 0.0;
        for (j, pos) in a.level_iter(1, row, i, usize::MAX) {
            let v = a.value(pos);
            if j == i {
                acc += v * x.get(&[j]);
            } else {
                acc += v * x.get(&[j]);
                *y.get_mut(&[j]) += v * x.get(&[i]);
            }
        }
        *y.get_mut(&[i]) += acc;
    }
    y
}

/// Native symmetric triple product `x' A x` over the upper triangle.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn csr_syprd(a: &SparseTensor, x: &DenseTensor) -> f64 {
    assert_eq!(a.rank(), 2, "csr_syprd needs a matrix");
    assert_eq!(a.dims()[1], x.dims()[0], "dimension mismatch");
    let n = a.dims()[0];
    let mut acc = 0.0;
    for i in 0..n {
        let Some(row) = a.level_find(0, 0, i) else { continue };
        for (j, pos) in a.level_iter(1, row, i, usize::MAX) {
            let v = a.value(pos) * x.get(&[i]) * x.get(&[j]);
            acc += if j == i { v } else { 2.0 * v };
        }
    }
    acc
}

/// Native Bellman-Ford relaxation step `y[i] = min(y0[i], min_j A[i,j] +
/// d[j])` over all stored edges.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn csr_bellman_ford(a: &SparseTensor, d: &DenseTensor, y0: &DenseTensor) -> DenseTensor {
    assert_eq!(a.rank(), 2, "csr_bellman_ford needs a matrix");
    assert_eq!(a.dims()[1], d.dims()[0], "dimension mismatch");
    let n = a.dims()[0];
    let mut y = y0.clone();
    for i in 0..n {
        let Some(row) = a.level_find(0, 0, i) else { continue };
        let mut best = y.get(&[i]);
        for (j, pos) in a.level_iter(1, row, 0, usize::MAX) {
            best = best.min(a.value(pos) + d.get(&[j]));
        }
        y.set(&[i], best);
    }
    y
}

/// Native SSYRK `C = A Aᵀ` computing only the upper triangle and
/// mirroring it: row `i` scattered into a dense row once, then
/// gather-dotted against each row `j ≥ i`. The compiled symmetric plan
/// runs the same algorithm (its workspace-row lowering), so
/// `vm.ssyrk.vs_native` measures interpretation cost, not a missing
/// transformation. (This zero-filled row is only exact over `+`/`·`
/// with finite values; the plan's workspace records membership.)
///
/// # Panics
///
/// Panics unless `A` is a matrix.
pub fn csr_ssyrk(a: &SparseTensor) -> DenseTensor {
    assert_eq!(a.rank(), 2, "csr_ssyrk needs a matrix");
    let n = a.dims()[0];
    let mut c = DenseTensor::zeros(vec![n, n]);
    // Gather each row densely once, then dot against later rows' stored
    // entries.
    for i in 0..n {
        let Some(row_i) = a.level_find(0, 0, i) else { continue };
        let entries_i: Vec<(usize, f64)> =
            a.level_iter(1, row_i, 0, usize::MAX).map(|(k, p)| (k, a.value(p))).collect();
        let mut dense_i = vec![0.0; a.dims()[1]];
        for &(k, v) in &entries_i {
            dense_i[k] = v;
        }
        for j in i..n {
            let Some(row_j) = a.level_find(0, 0, j) else { continue };
            let mut dot = 0.0;
            for (k, pos) in a.level_iter(1, row_j, 0, usize::MAX) {
                dot += dense_i[k] * a.value(pos);
            }
            if dot != 0.0 {
                c.set(&[i, j], dot);
                c.set(&[j, i], dot);
            }
        }
    }
    c
}

/// Native 3-d MTTKRP over CSF with a per-`i` row workspace — the core of
/// SPLATT's algorithm (§5.2.6 comparator): `C[i, :] += A[i, k, l] *
/// (B[k, :] ∘ B[l, :])`.
///
/// # Panics
///
/// Panics unless `A` is 3-dimensional and shapes agree.
pub fn csf_mttkrp3(a: &SparseTensor, b: &DenseTensor) -> DenseTensor {
    assert_eq!(a.rank(), 3, "csf_mttkrp3 needs a 3-d tensor");
    assert_eq!(a.dims()[1], b.dims()[0], "dimension mismatch");
    let (n, rank) = (a.dims()[0], b.dims()[1]);
    let mut c = DenseTensor::zeros(vec![n, rank]);
    let mut row = vec![0.0; rank];
    for i in 0..n {
        let Some(pos_i) = a.level_find(0, 0, i) else { continue };
        row.fill(0.0);
        for (k, pos_k) in a.level_iter(1, pos_i, 0, usize::MAX) {
            // Accumulate Σ_l A[i,k,l] · B[l,:] then scale by B[k,:]
            // (SPLATT's factored two-level scheme).
            let mut inner = vec![0.0; rank];
            for (l, pos_l) in a.level_iter(2, pos_k, 0, usize::MAX) {
                let v = a.value(pos_l);
                for (r, cell) in inner.iter_mut().enumerate() {
                    *cell += v * b.get(&[l, r]);
                }
            }
            for (r, cell) in row.iter_mut().enumerate() {
                *cell += inner[r] * b.get(&[k, r]);
            }
        }
        for (r, v) in row.iter().enumerate() {
            *c.get_mut(&[i, r]) += v;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_tensor::generate::{random_dense, rng, sprand, symmetric_erdos_renyi};
    use systec_tensor::{csf, CooTensor, CSR};

    fn pack(coo: &CooTensor, rank: usize) -> SparseTensor {
        let fmts = if rank == 2 { CSR.to_vec() } else { csf(rank) };
        SparseTensor::from_coo(coo, &fmts).unwrap()
    }

    #[test]
    fn spmv_matches_dense_math() {
        let mut r = rng(1);
        let coo = sprand(12, 12, 40, &mut r);
        let a = pack(&coo, 2);
        let x = random_dense(vec![12], &mut r);
        let y = csr_spmv(&a, &x);
        for i in 0..12 {
            let expected: f64 = (0..12).map(|j| coo.get(&[i, j]) * x.get(&[j])).sum();
            assert!((y.get(&[i]) - expected).abs() < 1e-10);
        }
    }

    #[test]
    fn symmetric_spmv_matches_plain_spmv() {
        let mut r = rng(2);
        let coo = symmetric_erdos_renyi(15, 2, 0.2, &mut r);
        let a = pack(&coo, 2);
        let x = random_dense(vec![15], &mut r);
        let plain = csr_spmv(&a, &x);
        let sym = symmetric_csr_spmv(&a, &x);
        assert!(sym.max_abs_diff(&plain).unwrap() < 1e-10);
    }

    #[test]
    fn syprd_matches_quadratic_form() {
        let mut r = rng(3);
        let coo = symmetric_erdos_renyi(10, 2, 0.3, &mut r);
        let a = pack(&coo, 2);
        let x = random_dense(vec![10], &mut r);
        let got = csr_syprd(&a, &x);
        let mut expected = 0.0;
        for i in 0..10 {
            for j in 0..10 {
                expected += x.get(&[i]) * coo.get(&[i, j]) * x.get(&[j]);
            }
        }
        assert!((got - expected).abs() < 1e-10);
    }

    #[test]
    fn bellman_ford_relaxes() {
        let mut r = rng(4);
        let coo = symmetric_erdos_renyi(10, 2, 0.3, &mut r);
        let a = pack(&coo, 2);
        let d = random_dense(vec![10], &mut r);
        let y = csr_bellman_ford(&a, &d, &d);
        for i in 0..10 {
            let mut expected = d.get(&[i]);
            for j in 0..10 {
                let w = coo.get(&[i, j]);
                if w != 0.0 {
                    expected = expected.min(w + d.get(&[j]));
                }
            }
            assert!((y.get(&[i]) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn ssyrk_matches_dense_product() {
        let mut r = rng(5);
        let coo = sprand(8, 8, 20, &mut r);
        let a = pack(&coo, 2);
        let c = csr_ssyrk(&a);
        for i in 0..8 {
            for j in 0..8 {
                let expected: f64 = (0..8).map(|k| coo.get(&[i, k]) * coo.get(&[j, k])).sum();
                assert!((c.get(&[i, j]) - expected).abs() < 1e-10, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn mttkrp3_matches_brute_force() {
        let mut r = rng(6);
        let coo = symmetric_erdos_renyi(8, 3, 0.05, &mut r);
        let a = pack(&coo, 3);
        let b = random_dense(vec![8, 4], &mut r);
        let c = csf_mttkrp3(&a, &b);
        for i in 0..8 {
            for jr in 0..4 {
                let mut expected = 0.0;
                for k in 0..8 {
                    for l in 0..8 {
                        expected += coo.get(&[i, k, l]) * b.get(&[k, jr]) * b.get(&[l, jr]);
                    }
                }
                assert!((c.get(&[i, jr]) - expected).abs() < 1e-10, "at ({i},{jr})");
            }
        }
    }
}
