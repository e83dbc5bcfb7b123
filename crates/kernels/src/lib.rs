//! # systec-kernels
//!
//! The paper's evaluation kernels (§5.2), end to end: einsum definitions
//! with their symmetry declarations ([`defs`]), a prepare-once/run-many
//! runner ([`Prepared`]) that mirrors the paper's timing methodology, and
//! hand-written native baselines ([`native`]) standing in for the
//! library comparators (MKL's `mkl_dcsrsymv`, SPLATT, TACO).
//!
//! ## Kernels
//!
//! | Kernel | Assignment | Symmetric input | Figure |
//! |---|---|---|---|
//! | SSYMV | `y[i] += A[i,j] * x[j]` | `A` (matrix) | 6 |
//! | Bellman-Ford | `y[i] min= A[i,j] + d[j]` | `A` | 7 |
//! | SYPRD | `y[] += x[i] * A[i,j] * x[j]` | `A` | 8 |
//! | SSYRK | `C[i,j] += A[i,k] * A[j,k]` | none (output symmetric) | 9 |
//! | TTM | `C[i,j,l] += A[k,j,l] * B[k,i]` | `A` (3-d) | 10 |
//! | MTTKRP 3/4/5-d | `C[i,j] += A[i,k,…] * Πₘ B[m,j]` | `A` | 11 |
//!
//! ## Example
//!
//! ```
//! use systec_kernels::{defs, Prepared};
//! use systec_tensor::generate::{rng, random_dense, symmetric_erdos_renyi};
//!
//! let kernel = defs::ssymv();
//! let mut r = rng(1);
//! let a = symmetric_erdos_renyi(20, 2, 0.1, &mut r);
//! let x = random_dense(vec![20], &mut r);
//! let inputs = kernel.inputs([("A", a.into()), ("x", x.into())]).unwrap();
//!
//! let symmetric = Prepared::compile(&kernel, &inputs).unwrap();
//! let naive = Prepared::naive(&kernel, &inputs).unwrap();
//! let (y_sym, counters_sym) = symmetric.run_full().unwrap();
//! let (y_naive, counters_naive) = naive.run_full().unwrap();
//! assert!(y_sym["y"].max_abs_diff(&y_naive["y"]).unwrap() < 1e-9);
//! // The symmetric kernel reads roughly half of A.
//! assert!(counters_sym.reads_of_family("A") < counters_naive.reads_of_family("A"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defs;
pub mod native;
mod prepare;
pub mod spec;

pub use defs::{InputData, KernelDef};
pub use prepare::{clear_plan_cache, plan_cache_stats, serial_fallback_note, Backend, Prepared};
pub use spec::parse_symmetry;
pub use systec_codegen::{ExecContext, LaneMode, Parallelism};
pub use systec_exec::Counters;
