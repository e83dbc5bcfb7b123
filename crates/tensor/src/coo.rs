//! Coordinate-list (COO) tensors: the generator, interchange and
//! test-oracle type.
//!
//! A [`CooTensor`] is a sorted map with one heap coordinate vector per
//! entry — convenient to build, compare and transform in generators and
//! tests, and costly per entry (~150 ns). It is *not* the conversion
//! path: splits, transposes, registrations and journal records are built
//! level to level in `sparse.rs` ([`crate::Entries`],
//! [`crate::SparseTensor::for_each_entry`]), and the `CooTensor`
//! spelling of each (`to_coo().split_diagonal(..)`, `to_coo().permuted(..)`,
//! `try_push` + `from_coo`) is the oracle those are tested against.

use std::collections::BTreeMap;

use crate::dense::validate_perm;
use crate::{DenseTensor, TensorError};

/// A coordinate-list tensor: a set of `(coords, value)` pairs plus a shape.
///
/// `CooTensor` is the generator and interchange format: generators
/// produce COO and [`crate::SparseTensor::from_coo`] packs it. Duplicate
/// pushes accumulate with `+`.
///
/// # Examples
///
/// ```
/// use systec_tensor::CooTensor;
///
/// let mut t = CooTensor::new(vec![4, 4]);
/// t.push(&[0, 1], 1.0);
/// t.push(&[0, 1], 2.0); // accumulates
/// assert_eq!(t.nnz(), 1);
/// assert_eq!(t.entries().next().unwrap(), (&[0usize, 1][..], 3.0));
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CooTensor {
    dims: Vec<usize>,
    entries: BTreeMap<Vec<usize>, f64>,
}

impl CooTensor {
    /// Creates an empty COO tensor of the given shape.
    pub fn new(dims: Vec<usize>) -> Self {
        CooTensor { dims, entries: BTreeMap::new() }
    }

    /// The shape, one extent per mode.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The number of modes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The number of stored entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Accumulates `value` into the entry at `coords` (zero entries are
    /// kept if explicitly pushed; use [`CooTensor::prune_zeros`] to drop
    /// them).
    ///
    /// # Panics
    ///
    /// Panics if the arity or a coordinate is out of range — generator
    /// code is expected to produce valid coordinates. For fallible
    /// insertion use [`CooTensor::try_push`].
    pub fn push(&mut self, coords: &[usize], value: f64) {
        self.try_push(coords, value).expect("invalid coordinate");
    }

    /// Accumulates `value` into the entry at `coords`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::CoordOutOfBounds`] for invalid coordinates.
    pub fn try_push(&mut self, coords: &[usize], value: f64) -> Result<(), TensorError> {
        check_coords(&self.dims, coords)?;
        *self.entries.entry(coords.to_vec()).or_insert(0.0) += value;
        Ok(())
    }

    /// Overwrites the entry at `coords` instead of accumulating.
    pub fn set(&mut self, coords: &[usize], value: f64) {
        self.entries.insert(coords.to_vec(), value);
    }

    /// Reads the entry at `coords` (zero if absent).
    pub fn get(&self, coords: &[usize]) -> f64 {
        self.entries.get(coords).copied().unwrap_or(0.0)
    }

    /// Removes stored entries equal to `0.0`.
    pub fn prune_zeros(&mut self) {
        self.entries.retain(|_, v| *v != 0.0);
    }

    /// Iterates over `(coords, value)` in lexicographic coordinate order.
    pub fn entries(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        self.entries.iter().map(|(c, &v)| (c.as_slice(), v))
    }

    /// Returns a permuted copy: mode `k` of the result is mode `perm[k]`
    /// of `self` (so `out[c] == self[c ∘ perm⁻¹ …]`; concretely the entry
    /// at `coords` moves to `perm⁻¹` applied positionwise:
    /// `out_coords[k] = coords[perm[k]]`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPermutation`] if `perm` is invalid.
    pub fn permuted(&self, perm: &[usize]) -> Result<CooTensor, TensorError> {
        validate_perm(perm, self.rank())?;
        let dims: Vec<usize> = perm.iter().map(|&p| self.dims[p]).collect();
        let mut out = CooTensor::new(dims);
        for (coords, v) in self.entries() {
            let new_coords: Vec<usize> = perm.iter().map(|&p| coords[p]).collect();
            out.push(&new_coords, v);
        }
        Ok(out)
    }

    /// Returns `self + selfᵀ` (matrices only), the symmetrization the
    /// paper applies to the asymmetric matrices of the Vuduc suite (§5.2).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the tensor is not a
    /// square matrix.
    pub fn symmetrized(&self) -> Result<CooTensor, TensorError> {
        if self.rank() != 2 || self.dims[0] != self.dims[1] {
            return Err(TensorError::ShapeMismatch { a: self.dims.clone(), b: self.dims.clone() });
        }
        let mut out = self.clone();
        for (coords, v) in self.entries() {
            out.push(&[coords[1], coords[0]], v);
        }
        Ok(out)
    }

    /// Returns `true` if the tensor equals all of its mode permutations
    /// (full symmetry, Definition 2.1).
    pub fn is_fully_symmetric(&self) -> bool {
        if self.rank() < 2 {
            return true;
        }
        if self.dims.iter().any(|&d| d != self.dims[0]) {
            return false;
        }
        self.entries().all(|(coords, v)| {
            permutations(coords.len()).into_iter().all(|perm| {
                let permuted: Vec<usize> = perm.iter().map(|&p| coords[p]).collect();
                (self.get(&permuted) - v).abs() < 1e-12
            })
        })
    }

    /// Splits the tensor by the *diagonal* structure of the given modes
    /// (Definition 2.4): returns `(off_diagonal, diagonal)` where an entry
    /// is diagonal if at least two of the listed modes have equal
    /// coordinates. Used by the diagonal-splitting pass (§4.2.9,
    /// Listing 7's `A_nondiag` / `A_diag`).
    pub fn split_diagonal(&self, modes: &[usize]) -> (CooTensor, CooTensor) {
        let mut off = CooTensor::new(self.dims.clone());
        let mut diag = CooTensor::new(self.dims.clone());
        for (coords, v) in self.entries() {
            let mut on_diag = false;
            for (a, &ma) in modes.iter().enumerate() {
                for &mb in &modes[a + 1..] {
                    if coords[ma] == coords[mb] {
                        on_diag = true;
                    }
                }
            }
            if on_diag {
                diag.push(coords, v);
            } else {
                off.push(coords, v);
            }
        }
        (off, diag)
    }

    /// Densifies into a [`DenseTensor`] (reference representation for
    /// tests).
    pub fn to_dense(&self) -> DenseTensor {
        let mut out = DenseTensor::zeros(self.dims.clone());
        for (coords, v) in self.entries() {
            out.set(coords, v);
        }
        out
    }

    /// Builds a COO tensor from a dense tensor, storing only nonzeros.
    pub fn from_dense(dense: &DenseTensor) -> CooTensor {
        let mut out = CooTensor::new(dense.dims().to_vec());
        for (coords, v) in dense.iter() {
            if v != 0.0 {
                out.push(&coords, v);
            }
        }
        out
    }
}

/// Checks one entry's coordinates against a shape: the arity, then each
/// mode's bound, first offender first.
pub(crate) fn check_coords(dims: &[usize], coords: &[usize]) -> Result<(), TensorError> {
    if coords.len() != dims.len() {
        return Err(TensorError::RankMismatch { expected: dims.len(), got: coords.len() });
    }
    for (mode, (&c, &d)) in coords.iter().zip(dims).enumerate() {
        if c >= d {
            return Err(TensorError::CoordOutOfBounds { mode, coord: c, dim: d });
        }
    }
    Ok(())
}

/// All permutations of `0..n` in lexicographic order (n! of them).
///
/// Shared helper for symmetry checks and the symmetrizer's tests.
pub(crate) fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    loop {
        out.push(current.clone());
        // next_permutation
        let Some(i) = (0..n.saturating_sub(1)).rev().find(|&i| current[i] < current[i + 1]) else {
            break;
        };
        let j = (i + 1..n).rev().find(|&j| current[j] > current[i]).expect("exists by choice of i");
        current.swap(i, j);
        current[i + 1..].reverse();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_accumulates() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[0, 0], 1.0);
        t.push(&[0, 0], 2.5);
        assert_eq!(t.get(&[0, 0]), 3.5);
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn try_push_validates() {
        let mut t = CooTensor::new(vec![2, 2]);
        assert!(matches!(
            t.try_push(&[0], 1.0),
            Err(TensorError::RankMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            t.try_push(&[0, 5], 1.0),
            Err(TensorError::CoordOutOfBounds { mode: 1, coord: 5, dim: 2 })
        ));
    }

    #[test]
    fn prune_zeros_removes_cancelled_entries() {
        let mut t = CooTensor::new(vec![2]);
        t.push(&[0], 1.0);
        t.push(&[0], -1.0);
        assert_eq!(t.nnz(), 1);
        t.prune_zeros();
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn entries_are_sorted_lexicographically() {
        let mut t = CooTensor::new(vec![3, 3]);
        t.push(&[2, 0], 1.0);
        t.push(&[0, 2], 2.0);
        t.push(&[0, 1], 3.0);
        let coords: Vec<Vec<usize>> = t.entries().map(|(c, _)| c.to_vec()).collect();
        assert_eq!(coords, vec![vec![0, 1], vec![0, 2], vec![2, 0]]);
    }

    #[test]
    fn permuted_transposes() {
        let mut t = CooTensor::new(vec![2, 3]);
        t.push(&[1, 2], 4.0);
        let p = t.permuted(&[1, 0]).unwrap();
        assert_eq!(p.dims(), &[3, 2]);
        assert_eq!(p.get(&[2, 1]), 4.0);
    }

    #[test]
    fn symmetrized_adds_transpose() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[0, 1], 3.0);
        t.push(&[0, 0], 1.0);
        let s = t.symmetrized().unwrap();
        assert_eq!(s.get(&[0, 1]), 3.0);
        assert_eq!(s.get(&[1, 0]), 3.0);
        assert_eq!(s.get(&[0, 0]), 2.0);
        assert!(s.is_fully_symmetric());
    }

    #[test]
    fn symmetrized_rejects_nonsquare() {
        let t = CooTensor::new(vec![2, 3]);
        assert!(t.symmetrized().is_err());
    }

    #[test]
    fn is_fully_symmetric_detects_asymmetry() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[0, 1], 3.0);
        assert!(!t.is_fully_symmetric());
    }

    #[test]
    fn split_diagonal_partitions_entries() {
        let mut t = CooTensor::new(vec![3, 3, 3]);
        t.push(&[0, 1, 2], 1.0); // off-diagonal
        t.push(&[0, 0, 2], 2.0); // diagonal (modes 0 and 1 equal)
        t.push(&[1, 1, 1], 3.0); // diagonal
        let (off, diag) = t.split_diagonal(&[0, 1, 2]);
        assert_eq!(off.nnz(), 1);
        assert_eq!(diag.nnz(), 2);
        assert_eq!(off.get(&[0, 1, 2]), 1.0);
        assert_eq!(diag.get(&[1, 1, 1]), 3.0);
    }

    #[test]
    fn split_diagonal_respects_mode_subset() {
        let mut t = CooTensor::new(vec![3, 3, 3]);
        t.push(&[1, 0, 1], 1.0); // modes 0 and 2 equal, but only {0,1} considered
        let (off, diag) = t.split_diagonal(&[0, 1]);
        assert_eq!(off.nnz(), 1);
        assert_eq!(diag.nnz(), 0);
    }

    #[test]
    fn dense_roundtrip() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[0, 1], 5.0);
        let d = t.to_dense();
        assert_eq!(d.get(&[0, 1]), 5.0);
        let back = CooTensor::from_dense(&d);
        assert_eq!(back, t);
    }

    #[test]
    fn permutations_count_and_order() {
        let p3 = permutations(3);
        assert_eq!(p3.len(), 6);
        assert_eq!(p3[0], vec![0, 1, 2]);
        assert_eq!(p3[5], vec![2, 1, 0]);
        assert_eq!(permutations(0), vec![Vec::<usize>::new()]);
        assert_eq!(permutations(5).len(), 120);
    }
}
