//! A unifying wrapper over the dense and compressed storage families.

use crate::{CooTensor, DenseTensor, SparseTensor, TensorError};

/// Either a dense or a compressed tensor — the operand type the executor
/// consumes.
///
/// # Examples
///
/// ```
/// use systec_tensor::{DenseTensor, Tensor};
///
/// let t: Tensor = DenseTensor::zeros(vec![2, 2]).into();
/// assert_eq!(t.rank(), 2);
/// assert_eq!(t.get(&[1, 1]), 0.0);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub enum Tensor {
    /// Dense strided storage.
    Dense(DenseTensor),
    /// Compressed fibertree storage.
    Sparse(SparseTensor),
}

impl Tensor {
    /// The shape, one extent per mode.
    pub fn dims(&self) -> &[usize] {
        match self {
            Tensor::Dense(t) => t.dims(),
            Tensor::Sparse(t) => t.dims(),
        }
    }

    /// The number of modes.
    pub fn rank(&self) -> usize {
        self.dims().len()
    }

    /// Random access (zero for unstored sparse coordinates).
    pub fn get(&self, coords: &[usize]) -> f64 {
        match self {
            Tensor::Dense(t) => t.get(coords),
            Tensor::Sparse(t) => t.get(coords),
        }
    }

    /// The dense tensor inside, if this is dense.
    pub fn as_dense(&self) -> Option<&DenseTensor> {
        match self {
            Tensor::Dense(t) => Some(t),
            Tensor::Sparse(_) => None,
        }
    }

    /// The compressed tensor inside, if this is compressed.
    pub fn as_sparse(&self) -> Option<&SparseTensor> {
        match self {
            Tensor::Sparse(t) => Some(t),
            Tensor::Dense(_) => None,
        }
    }

    /// Converts to COO (dropping zeros).
    pub fn to_coo(&self) -> CooTensor {
        match self {
            Tensor::Dense(t) => CooTensor::from_dense(t),
            Tensor::Sparse(t) => t.to_coo(),
        }
    }

    /// Densifies (reference representation for validation).
    pub fn to_dense(&self) -> DenseTensor {
        match self {
            Tensor::Dense(t) => t.clone(),
            Tensor::Sparse(t) => {
                let mut out = DenseTensor::zeros(t.dims().to_vec());
                t.for_each_entry(|coords, v| out.set(coords, v));
                out
            }
        }
    }

    /// Splits the stored entries by a classifier on their coordinates into
    /// `(matching, rest)`, in the same storage family (and formats):
    /// `Some(true)` is matching, `Some(false)` the rest, `None` neither.
    pub fn partition(&self, classify: impl FnMut(&[usize]) -> Option<bool>) -> (Tensor, Tensor) {
        match self {
            Tensor::Dense(t) => {
                let (matching, rest) = t.partition(classify);
                (Tensor::Dense(matching), Tensor::Dense(rest))
            }
            Tensor::Sparse(t) => {
                let (matching, rest) = t.partition(classify);
                (Tensor::Sparse(matching), Tensor::Sparse(rest))
            }
        }
    }

    /// Returns a permuted copy in the same storage family.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPermutation`] for an invalid `perm`.
    pub fn permuted(&self, perm: &[usize]) -> Result<Tensor, TensorError> {
        Ok(match self {
            Tensor::Dense(t) => Tensor::Dense(t.permuted(perm)?),
            Tensor::Sparse(t) => Tensor::Sparse(t.permuted(perm)?),
        })
    }
}

impl From<DenseTensor> for Tensor {
    fn from(t: DenseTensor) -> Self {
        Tensor::Dense(t)
    }
}

impl From<SparseTensor> for Tensor {
    fn from(t: SparseTensor) -> Self {
        Tensor::Sparse(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CSR;

    #[test]
    fn wrapper_dispatches() {
        let mut coo = CooTensor::new(vec![2, 2]);
        coo.push(&[0, 1], 3.0);
        let s: Tensor = SparseTensor::from_coo(&coo, &CSR).unwrap().into();
        let d: Tensor = coo.to_dense().into();
        assert_eq!(s.get(&[0, 1]), d.get(&[0, 1]));
        assert_eq!(s.dims(), d.dims());
        assert!(s.as_sparse().is_some());
        assert!(d.as_dense().is_some());
        assert!(s.as_dense().is_none());
        assert_eq!(s.to_dense(), d.to_dense());
        assert_eq!(s.to_coo(), coo);
    }

    #[test]
    fn permuted_preserves_family() {
        let mut coo = CooTensor::new(vec![2, 3]);
        coo.push(&[1, 2], 4.0);
        let s: Tensor = SparseTensor::from_coo(&coo, &CSR).unwrap().into();
        let p = s.permuted(&[1, 0]).unwrap();
        assert!(p.as_sparse().is_some());
        assert_eq!(p.get(&[2, 1]), 4.0);
    }
}
