//! # systec
//!
//! Umbrella crate for the Rust reproduction of *SySTeC: A Symmetric
//! Sparse Tensor Compiler* (CGO 2025): re-exports every component crate
//! under one roof.
//!
//! * [`ir`] — the loop-nest tensor IR and einsum frontend
//!   ([`ir::parse_einsum`]).
//! * [`tensor`] — fibertree sparse/structured tensor formats and
//!   generators.
//! * [`compiler`] — the SySTeC compiler (symmetrization + §4.2 passes).
//! * [`exec`] — the executing backend with sparse iteration semantics
//!   and instrumentation.
//! * [`codegen`] — the compiled backend: bytecode VM and the LRU plan
//!   cache.
//! * [`kernels`] — the paper's evaluation kernels, native baselines, and
//!   the prepare/run harness.
//! * [`serve`] — the long-lived einsum server: line-delimited JSON over
//!   TCP, pooled execution state, single-flight plan builds.
//! * [`router`] — the sharded-serving front: consistent-hash routing
//!   across `systec-serve` workers, row-range fan-out, deterministic
//!   reduction merges.
//!
//! ## Example
//!
//! ```
//! use systec::compiler::{Compiler, SymmetrySpec};
//! use systec::ir::parse_einsum;
//!
//! let einsum = parse_einsum("for i, j: y[i] += A[i, j] * x[j]")?;
//! let kernel = Compiler::new()
//!     .compile(&einsum, &SymmetrySpec::new().with_full("A", 2))
//!     .expect("ssymv compiles");
//! assert!(kernel.program.to_string().contains("if i <= j"));
//! # Ok::<(), systec::ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use systec_codegen as codegen;
pub use systec_core as compiler;
pub use systec_exec as exec;
pub use systec_ir as ir;
pub use systec_kernels as kernels;
pub use systec_router as router;
pub use systec_serve as serve;
pub use systec_tensor as tensor;
