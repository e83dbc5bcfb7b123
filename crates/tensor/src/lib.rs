//! # systec-tensor
//!
//! A from-scratch Finch-style sparse and structured tensor substrate.
//!
//! The paper builds on Finch's *fibertree* description of tensor formats
//! (§2.2): a tensor is conceptualized as a vector of vectors of vectors …,
//! and each level of the tree is characterized by a level format. Common
//! formats arise by composition:
//!
//! * CSR = `Dense(Sparse(Element(0.0)))`
//! * CSC = CSR of the transpose
//! * CSF (3-d) = `Dense(Sparse(Sparse(Element(0.0))))`
//!
//! This crate provides:
//!
//! * [`DenseTensor`] — a strided dense tensor of `f64`.
//! * [`SparseTensor`] — a level-composed compressed tensor
//!   ([`LevelFormat::Dense`] / [`LevelFormat::Sparse`] per mode) packed
//!   level by level from sorted coordinates.
//! * [`Entries`] — a flat coordinate list in arrival order, the builder
//!   in front of that packer.
//! * [`CooTensor`] — a sorted coordinate map: the generator, interchange
//!   and test-oracle type.
//! * [`Tensor`] — an enum over the two storage families, the type the
//!   executor consumes.
//! * [`generate`] — random symmetric Erdős–Rényi tensors, random dense
//!   matrices, and the synthetic stand-in for the paper's Table 2 matrix
//!   suite.
//!
//! ## Example
//!
//! ```
//! use systec_tensor::{CooTensor, LevelFormat, SparseTensor};
//!
//! // A 3x3 CSR matrix with two stored entries.
//! let mut coo = CooTensor::new(vec![3, 3]);
//! coo.push(&[0, 1], 2.0);
//! coo.push(&[2, 0], 3.0);
//! let csr = SparseTensor::from_coo(&coo, &[LevelFormat::Dense, LevelFormat::Sparse]).unwrap();
//! assert_eq!(csr.get(&[0, 1]), 2.0);
//! assert_eq!(csr.get(&[1, 1]), 0.0);
//! assert_eq!(csr.nnz(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod dense;
mod error;
pub mod generate;
mod sparse;
pub mod suite;
mod tensor;

pub use coo::CooTensor;
pub use dense::DenseTensor;
pub use error::TensorError;
pub use sparse::{Entries, LevelFormat, LevelView, SparseTensor};
pub use tensor::Tensor;

/// Format shorthand: CSR for matrices (`Dense(Sparse(Element))`).
pub const CSR: [LevelFormat; 2] = [LevelFormat::Dense, LevelFormat::Sparse];

/// Format shorthand: 3-dimensional CSF (`Dense(Sparse(Sparse(Element)))`).
pub const CSF3: [LevelFormat; 3] = [LevelFormat::Dense, LevelFormat::Sparse, LevelFormat::Sparse];

/// Returns the CSF format vector (one `Dense` root, `Sparse` below) for an
/// arbitrary rank.
///
/// # Examples
///
/// ```
/// use systec_tensor::{csf, LevelFormat};
/// assert_eq!(csf(4).len(), 4);
/// assert_eq!(csf(4)[0], LevelFormat::Dense);
/// assert_eq!(csf(4)[3], LevelFormat::Sparse);
/// ```
pub fn csf(rank: usize) -> Vec<LevelFormat> {
    let mut v = vec![LevelFormat::Sparse; rank];
    if rank > 0 {
        v[0] = LevelFormat::Dense;
    }
    v
}
