//! Strided dense tensors.

use crate::TensorError;

/// A dense tensor of `f64` in row-major (first mode outermost) layout.
///
/// Dense tensors serve as the dense operands of the paper's kernels
/// (vectors `x`, `d`, factor matrices `B`, outputs `y`, `C`) and as the
/// reference representation in tests.
///
/// # Examples
///
/// ```
/// use systec_tensor::DenseTensor;
///
/// let mut m = DenseTensor::zeros(vec![2, 3]);
/// m.set(&[1, 2], 5.0);
/// assert_eq!(m.get(&[1, 2]), 5.0);
/// assert_eq!(m.get(&[0, 0]), 0.0);
/// assert_eq!(m.rank(), 2);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct DenseTensor {
    dims: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f64>,
}

impl DenseTensor {
    /// Creates a dense tensor of the given shape filled with `fill`.
    pub fn filled(dims: Vec<usize>, fill: f64) -> Self {
        let len = dims.iter().product();
        let strides = row_major_strides(&dims);
        DenseTensor { dims, strides, data: vec![fill; len] }
    }

    /// Creates a zero-filled dense tensor of the given shape.
    pub fn zeros(dims: Vec<usize>) -> Self {
        Self::filled(dims, 0.0)
    }

    /// Creates a dense tensor from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` is not the
    /// product of `dims`.
    pub fn from_vec(dims: Vec<usize>, data: Vec<f64>) -> Result<Self, TensorError> {
        let len: usize = dims.iter().product();
        if data.len() != len {
            return Err(TensorError::ShapeMismatch { a: dims, b: vec![data.len()] });
        }
        let strides = row_major_strides(&dims);
        Ok(DenseTensor { dims, strides, data })
    }

    /// The shape, one extent per mode.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The number of modes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Flat row-major offset of a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the arity or any coordinate is out of range.
    #[inline]
    pub fn offset(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.dims.len());
        let mut off = 0;
        for (k, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.dims[k], "coord {c} out of bounds for mode {k}");
            off += c * self.strides[k];
        }
        off
    }

    /// Reads the element at `coords`.
    #[inline]
    pub fn get(&self, coords: &[usize]) -> f64 {
        self.data[self.offset(coords)]
    }

    /// Writes the element at `coords`.
    #[inline]
    pub fn set(&mut self, coords: &[usize], value: f64) {
        let off = self.offset(coords);
        self.data[off] = value;
    }

    /// Mutable reference to the element at `coords`.
    #[inline]
    pub fn get_mut(&mut self, coords: &[usize]) -> &mut f64 {
        let off = self.offset(coords);
        &mut self.data[off]
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The row-major strides, one per mode (`offset = Σ coords[k] *
    /// strides[k]`). Exposed so executors can compute offsets without
    /// materializing coordinate vectors.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns a transposed/permuted copy: `out[c] = self[c ∘ perm]`,
    /// i.e. mode `k` of the result is mode `perm[k]` of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPermutation`] if `perm` is not a
    /// permutation of `0..rank`.
    pub fn permuted(&self, perm: &[usize]) -> Result<DenseTensor, TensorError> {
        validate_perm(perm, self.rank())?;
        let new_dims: Vec<usize> = perm.iter().map(|&p| self.dims[p]).collect();
        let mut out = DenseTensor::zeros(new_dims);
        let mut out_coords = vec![0usize; self.rank()];
        self.for_each_entry(|coords, v| {
            for (out_coord, &p) in out_coords.iter_mut().zip(perm) {
                *out_coord = coords[p];
            }
            out.set(&out_coords, v);
        });
        Ok(out)
    }

    /// Maximum absolute elementwise difference to another tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &DenseTensor) -> Result<f64, TensorError> {
        if self.dims != other.dims {
            return Err(TensorError::ShapeMismatch { a: self.dims.clone(), b: other.dims.clone() });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max))
    }

    /// Calls `f(coords, value)` for every element in row-major order
    /// (zeros included), without allocating per element.
    pub fn for_each_entry(&self, mut f: impl FnMut(&[usize], f64)) {
        let mut coords = vec![0usize; self.rank()];
        for &v in &self.data {
            f(&coords, v);
            // odometer increment
            for (c, &d) in coords.iter_mut().zip(&self.dims).rev() {
                *c += 1;
                if *c < d {
                    break;
                }
                *c = 0;
            }
        }
    }

    /// Splits the elements by a classifier on their coordinates into
    /// `(matching, rest)`: two masked copies, each zero wherever it does
    /// not hold the element (`Some(true)`: matching, `Some(false)`: rest,
    /// `None`: neither).
    pub fn partition(
        &self,
        mut classify: impl FnMut(&[usize]) -> Option<bool>,
    ) -> (DenseTensor, DenseTensor) {
        let mut matching = DenseTensor::zeros(self.dims.clone());
        let mut rest = matching.clone();
        let mut flat = 0;
        self.for_each_entry(|coords, v| {
            match classify(coords) {
                Some(true) => matching.data[flat] = v,
                Some(false) => rest.data[flat] = v,
                None => {}
            }
            flat += 1;
        });
        (matching, rest)
    }

    /// Iterates over `(coords, value)` of every element (including zeros).
    pub fn iter(&self) -> impl Iterator<Item = (Vec<usize>, f64)> + '_ {
        let dims = self.dims.clone();
        (0..self.data.len()).map(move |flat| {
            let mut rem = flat;
            let mut coords = vec![0usize; dims.len()];
            for k in (0..dims.len()).rev() {
                coords[k] = rem % dims[k];
                rem /= dims[k];
            }
            (coords, self.data[flat])
        })
    }
}

pub(crate) fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for k in (0..dims.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * dims[k + 1];
    }
    strides
}

pub(crate) fn validate_perm(perm: &[usize], rank: usize) -> Result<(), TensorError> {
    let mut seen = vec![false; rank];
    let valid = perm.len() == rank
        && perm.iter().all(|&p| {
            if p < rank && !seen[p] {
                seen[p] = true;
                true
            } else {
                false
            }
        });
    if valid {
        Ok(())
    } else {
        Err(TensorError::InvalidPermutation { perm: perm.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(row_major_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(row_major_strides(&[5]), vec![1]);
        assert_eq!(row_major_strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = DenseTensor::zeros(vec![3, 4]);
        t.set(&[2, 3], 7.5);
        assert_eq!(t.get(&[2, 3]), 7.5);
        *t.get_mut(&[0, 1]) += 2.0;
        assert_eq!(t.get(&[0, 1]), 2.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseTensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        assert!(DenseTensor::from_vec(vec![2, 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn scalar_tensor() {
        let mut t = DenseTensor::zeros(vec![]);
        assert_eq!(t.get(&[]), 0.0);
        t.set(&[], 4.0);
        assert_eq!(t.get(&[]), 4.0);
    }

    #[test]
    fn permuted_transposes_matrix() {
        let m = DenseTensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.permuted(&[1, 0]).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]), m.get(&[1, 2]));
        assert_eq!(t.get(&[0, 0]), 1.0);
    }

    #[test]
    fn permuted_is_involution_for_transpose() {
        let m = DenseTensor::from_vec(vec![2, 3], (0..6).map(|x| x as f64).collect()).unwrap();
        let back = m.permuted(&[1, 0]).unwrap().permuted(&[1, 0]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn permuted_rejects_bad_perm() {
        let m = DenseTensor::zeros(vec![2, 2]);
        assert!(m.permuted(&[0, 0]).is_err());
        assert!(m.permuted(&[0]).is_err());
        assert!(m.permuted(&[0, 2]).is_err());
    }

    #[test]
    fn three_mode_permutation() {
        let mut t = DenseTensor::zeros(vec![2, 3, 4]);
        t.set(&[1, 2, 3], 9.0);
        let p = t.permuted(&[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.get(&[3, 1, 2]), 9.0);
    }

    #[test]
    fn max_abs_diff_checks_shape() {
        let a = DenseTensor::zeros(vec![2]);
        let b = DenseTensor::zeros(vec![3]);
        assert!(a.max_abs_diff(&b).is_err());
        let c = DenseTensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let d = DenseTensor::from_vec(vec![2], vec![1.5, 2.0]).unwrap();
        assert_eq!(c.max_abs_diff(&d).unwrap(), 0.5);
    }

    #[test]
    fn iter_visits_all_elements() {
        let m = DenseTensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let items: Vec<_> = m.iter().collect();
        assert_eq!(items.len(), 4);
        assert_eq!(items[1], (vec![0, 1], 2.0));
        assert_eq!(items[3], (vec![1, 1], 4.0));
    }
}
