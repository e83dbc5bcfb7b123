//! # systec-codegen
//!
//! The compiled execution backend of the SySTeC reproduction: lowered
//! programs ([`systec_exec::LoweredProgram`]) are compiled once into a
//! flat, register-based **bytecode program** and executed by a tight VM,
//! replacing the tree-walking interpreter on the hot path.
//!
//! What compilation resolves ahead of time (the costs the interpreter
//! pays on every node visit):
//!
//! * **Slots, not names** — every tensor, index, scalar and sparse-path
//!   position is a flat register index; the run loop never hashes.
//! * **Monomorphized loops** — each loop compiles to a head/advance pair
//!   specialized for its driver's [`systec_tensor::LevelFormat`]: a
//!   counted dense loop, a compressed `pos`/`crd` walk with the lifted
//!   bounds applied by one binary search at entry, or a run-length walk.
//! * **Vectorized innermost loops** — conforming innermost loops
//!   collapse into single vector-loop instructions with bulk counter
//!   accounting. A vector loop drives one stored fiber or one dense range
//!   — counted loops, compressed and run-length drivers — and runs at
//!   most one body per entry. A random-access (`ReadSparseRandom`) read
//!   leaves its loop on the general path, one search per coordinate.
//! * **One body form** — a vector loop's body has exactly one
//!   executable form: per-coordinate loads into local slots feeding
//!   straight-line folds (`fuse`). The compiler appends that form
//!   directly as it walks the body; a body it cannot express this way —
//!   an operand that reads an accumulator of the loop, a body over the
//!   load / fold caps — leaves the loop on the general head / advance
//!   path, the reference for every non-conforming loop. Sealing a body
//!   also picks its runner, once: the canonical dot against a strided
//!   operand and SSYMV's dot-axpy pair run closed-form folds; dense
//!   multi-store jams run fold by fold; every other body (axpys,
//!   register-held folds) the generic resolved runner. Every runner folds
//!   left to right as the interpreter does, accumulators in machine
//!   registers, operands resolved to slices at loop entry, invariant counter
//!   contributions accounted in bulk. Several guarded items share a loop
//!   only when their guards are pairwise exclusive (the `==` / `!=`
//!   diagonal blocks); the VM dispatches on the runner of the first item
//!   whose guard holds, and a loop whose guards all fail only sets its
//!   index.
//! * **Workspace rows** — an intersection dot whose driver fiber is fixed
//!   across the enclosing loop while the probed fiber is not (SSYRK's
//!   row `i` against every row `j ≥ i`) scatters the driver fiber once,
//!   in front of that loop's head, and loops over the probed fiber
//!   instead, folding only where the scattered fiber holds the
//!   coordinate (`WorkspaceDot`) — the same terms in the same order,
//!   so the same bits and counters as the merge. Every other
//!   intersection stays on the general path, a probe per coordinate.
//! * **Row nests** — after a row loop is emitted, `fuse::row_nest` reads
//!   its instructions and turns a row loop around one compressed or
//!   run-length vector loop whose body runs the closed `Dot` or
//!   `DotAxpy` form (SSYMV, SYPRD, Bellman-Ford) or `WorkspaceDot`
//!   (SSYRK) into a single `RowNest` instruction, replacing the per-row
//!   head / vector loop / advance sequence: the VM resolves operands,
//!   addresses and the semiring once per run and walks rows in one
//!   native loop over the same folds, with counters tallied by
//!   multiplication.
//! * **Hoisted branches** — residual conditionals become explicit
//!   compare-and-jump chains between basic blocks; loop bounds are
//!   evaluated once at loop entry.
//! * **Three-address expressions** — right-hand sides flatten into
//!   register ops; strided addresses carry their strides inline.
//!
//! Execution preserves [`systec_exec::Counters`] **exactly** — reads,
//! flops, writes and iterations match the interpreter bit-for-bit, so
//! the paper's memory-traffic and FLOP-ratio figures can be reproduced
//! on either backend.
//!
//! ## Execution contexts & parallelism
//!
//! All per-run mutable state lives in a caller-owned [`ExecContext`]:
//! threading one context (plus a reused [`Counters`]) through
//! [`CompiledKernel::run_with`] makes the steady-state serial path
//! allocation-free. Compilation additionally proves plans
//! *row-splittable* when every output is either addressed with the
//! top-level loop index as its leading subscript (chunks write disjoint
//! row slices) or reduced through one mergeable operator (workers
//! reduce into private buffers). Splittable plans dispatch coordinate
//! chunks across scoped worker threads under
//! [`Parallelism::Threads`], each worker over its own register files
//! and counter bank, merged deterministically in fixed worker order —
//! merged counters equal the serial interpreter's exactly, and outputs
//! are bit-identical run to run for a fixed thread count.
//!
//! The [`PlanCache`] memoizes compiled plans under a [`PlanKey`] of
//! (kernel spec, symmetry declarations, input formats, dims), making
//! repeated invocations — the paper's prepare-once/run-many methodology
//! — skip hoisting, lowering and compilation entirely; the
//! [`SharedPlanCache`] wrapper adds single-flight concurrency (one
//! build per key under contention, panic-safe).
//!
//! ## Example
//!
//! ```
//! use std::collections::HashMap;
//! use systec_ir::build::*;
//! use systec_ir::Stmt;
//! use systec_tensor::{CooTensor, SparseTensor, Tensor, CSR};
//! use systec_exec::{alloc_outputs, hoist_conditions, lower, run_lowered};
//! use systec_codegen::CompiledKernel;
//!
//! // y[i] += A[i, j] * x[j] over CSR A.
//! let prog = Stmt::loops(
//!     [idx("i"), idx("j")],
//!     assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
//! );
//! let mut coo = CooTensor::new(vec![2, 2]);
//! coo.push(&[0, 1], 3.0);
//! let mut inputs = HashMap::new();
//! inputs.insert("A".to_string(), Tensor::Sparse(SparseTensor::from_coo(&coo, &CSR).unwrap()));
//! inputs.insert("x".to_string(), Tensor::Dense(systec_tensor::DenseTensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap()));
//! let outputs_init = alloc_outputs(&prog, &inputs).unwrap();
//!
//! let lowered = lower(&hoist_conditions(prog), &inputs, &outputs_init).unwrap();
//! let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
//!
//! // The compiled kernel and the interpreter agree on results and counters.
//! let mut out_vm = outputs_init.clone();
//! let c_vm = kernel.run(&inputs, &mut out_vm).unwrap();
//! let mut out_interp = outputs_init.clone();
//! let c_interp = run_lowered(&lowered, &inputs, &mut out_interp).unwrap();
//! assert_eq!(out_vm["y"].get(&[0]), 6.0);
//! assert_eq!(out_vm["y"], out_interp["y"]);
//! assert_eq!(c_vm, c_interp);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytecode;
mod cache;
mod compile;
mod context;
mod fuse;
mod vm;

use std::collections::HashMap;

pub use systec_exec::Counters;
use systec_exec::{ExecError, LoweredProgram};
use systec_tensor::{DenseTensor, Tensor};

pub use cache::{BindingSig, CacheStats, PlanCache, PlanKey, SharedPlanCache};
pub use context::{ExecContext, LaneMode};

use systec_ir::AssignOp;

/// How one output of a row-splittable plan recombines when coordinate
/// chunks of the outermost loops execute on *separate* workers — the
/// PR 2 splittability proof exposed for cross-process merges.
///
/// A shard that executes chunk `k` of `n` (see
/// [`CompiledKernel::run_chunk_with`]) produces a full-shape output
/// buffer; this classification tells the merging side how to combine
/// the `n` buffers into the single-process result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MergeKind {
    /// Row-owned: chunk `k` wrote exactly rows
    /// `[k*extent/n, (k+1)*extent/n)` of the output (the leading
    /// subscript is the split loop's index), so the merged result
    /// concatenates each shard's window rows in shard order.
    Rows,
    /// Reduction-merged: every chunk accumulated a partial through this
    /// operator over identity-initialized cells; the merged result folds
    /// the partials elementwise in fixed shard order.
    Reduce(AssignOp),
}

/// The half-open index range `[k·extent/n, (k+1)·extent/n)` that chunk
/// `k < n` owns — of a split loop's coordinates and of a row-owned
/// output's leading dimension alike. VM workers, engine shard runs and
/// router legs all cut by this one rule, so their windows line up. The
/// products are taken in `u128`, where no `usize` pair overflows, so the
/// window is exact for any ordinal a request can carry.
#[inline]
pub fn chunk_window(extent: usize, k: usize, n: usize) -> std::ops::Range<usize> {
    let cut = |k: usize| (k as u128 * extent as u128 / n as u128) as usize;
    cut(k)..cut(k + 1)
}

/// `acc[i] = op(acc[i], part[i])`: one step of a fixed-order reduction.
pub(crate) fn fold_into(op: AssignOp, acc: &mut [f64], part: &[f64]) {
    for (cell, v) in acc.iter_mut().zip(part) {
        *cell = op.apply(*cell, *v);
    }
}

impl MergeKind {
    /// Folds chunk `k` of `n`'s full-shape buffer `part` into `acc`
    /// (both row-major with shape `dims`): `Rows` copies the chunk's
    /// window of leading rows, `Reduce` folds elementwise. Seed `acc`
    /// with chunk 0's buffer and call this for `k = 1..n` in order to
    /// reproduce the single-process result; work counters merge
    /// alongside by integer sums ([`Counters::merge`]).
    ///
    /// # Panics
    ///
    /// If the buffers differ in length, or `k ≥ n`.
    pub fn merge_into(self, acc: &mut [f64], part: &[f64], dims: &[usize], k: usize, n: usize) {
        assert_eq!(acc.len(), part.len(), "chunk buffers keep the full output shape");
        assert!(k < n, "chunk ordinal {k} of {n} is out of range");
        match self {
            MergeKind::Rows => {
                let extent = dims.first().copied().unwrap_or(1).max(1);
                let stride = acc.len() / extent;
                let rows = chunk_window(extent, k, n);
                let window = rows.start * stride..rows.end * stride;
                acc[window.clone()].copy_from_slice(&part[window]);
            }
            MergeKind::Reduce(op) => fold_into(op, acc, part),
        }
    }
}

/// How many workers execute a kernel invocation.
///
/// Parallel execution requires the compiler to have proved the plan
/// row-splittable (see [`CompiledKernel::splittable`]); otherwise
/// [`Parallelism::Threads`] silently degrades to serial execution.
/// Whatever the mode, the work counters are **exactly** the serial
/// interpreter's (per-worker banks merge by integer sums), and outputs
/// are deterministic: a fixed (plan, data, thread count) triple produces
/// bit-identical results on every run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Parallelism {
    /// One worker on the calling thread — the default.
    #[default]
    Serial,
    /// Split the outermost loops' coordinate ranges across this many
    /// scoped worker threads.
    Threads(usize),
}

impl Parallelism {
    /// Normalizes a thread-count request: `0` means "all cores", `1`
    /// means [`Parallelism::Serial`].
    pub fn threads(n: usize) -> Parallelism {
        match n {
            0 => Parallelism::Threads(rayon::current_num_threads()),
            1 => Parallelism::Serial,
            n => Parallelism::Threads(n),
        }
    }
}

/// A lowered program compiled to bytecode, ready to run repeatedly.
///
/// Immutable after compilation: share it freely (e.g. through the
/// [`PlanCache`]) and run it concurrently from multiple threads.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    program: bytecode::BytecodeProgram,
}

impl CompiledKernel {
    /// Compiles a lowered program against the shapes and formats of
    /// concrete bindings (values are ignored; the result may be reused
    /// with any tensors of the same formats and dims).
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if a tensor the program references is
    /// missing from the bindings.
    pub fn compile(
        program: &LoweredProgram,
        inputs: &HashMap<String, Tensor>,
        outputs: &HashMap<String, DenseTensor>,
    ) -> Result<CompiledKernel, ExecError> {
        Ok(CompiledKernel { program: compile::compile(program, inputs, outputs)? })
    }

    /// Executes the kernel: `outputs` are updated in place, and the work
    /// counters (identical to the interpreter's) are returned.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if a binding is missing or its shape
    /// differs from the shapes the kernel was compiled against.
    pub fn run(
        &self,
        inputs: &HashMap<String, Tensor>,
        outputs: &mut HashMap<String, DenseTensor>,
    ) -> Result<Counters, ExecError> {
        let mut ctx = ExecContext::new();
        let mut counters = Counters::new();
        self.run_with(inputs, outputs, &mut ctx, Parallelism::Serial, &mut counters)?;
        Ok(counters)
    }

    /// Executes the kernel over caller-owned state: `ctx` holds every
    /// per-run buffer (register files, scratch, counter banks), so the
    /// steady-state serial path performs **zero** allocations, and
    /// `counters` is updated in place (entries are inserted only the
    /// first time a tensor name appears). With
    /// [`Parallelism::Threads`] and a [splittable](CompiledKernel::splittable)
    /// plan, chunks of the outermost loops run on scoped worker threads
    /// and merge deterministically; counters still match the serial
    /// interpreter exactly.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if a binding is missing or its shape
    /// differs from the shapes the kernel was compiled against.
    pub fn run_with(
        &self,
        inputs: &HashMap<String, Tensor>,
        outputs: &mut HashMap<String, DenseTensor>,
        ctx: &mut ExecContext,
        parallelism: Parallelism,
        counters: &mut Counters,
    ) -> Result<(), ExecError> {
        vm::execute(&self.program, inputs, outputs, ctx, parallelism, counters)
    }

    /// Executes coordinate chunk `k` of `n` serially: the split loops
    /// are clamped to `[k*extent/n, (k+1)*extent/n)` and all outputs
    /// are bound at full shape — row-owned outputs receive only their
    /// window rows, reduced outputs accumulate this chunk's partial on
    /// top of the caller's initial values. Running every chunk and
    /// merging per [`CompiledKernel::split_outputs`] (counters by
    /// integer sums) reproduces the serial run exactly; this is the
    /// cross-process analogue of [`Parallelism::Threads`].
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidKernel`] when the plan is not
    /// [splittable](CompiledKernel::splittable) or `(k, n)` is not a
    /// valid chunk ordinal; binding errors as in
    /// [`CompiledKernel::run_with`].
    pub fn run_chunk_with(
        &self,
        inputs: &HashMap<String, Tensor>,
        outputs: &mut HashMap<String, DenseTensor>,
        ctx: &mut ExecContext,
        counters: &mut Counters,
        k: usize,
        n: usize,
    ) -> Result<(), ExecError> {
        if self.program.split.is_none() {
            return Err(ExecError::InvalidKernel {
                message: "plan is not splittable; chunked execution is not legal".into(),
            });
        }
        if n == 0 || k >= n {
            return Err(ExecError::InvalidKernel {
                message: format!("chunk ordinal {k} of {n} is out of range"),
            });
        }
        vm::execute_chunk(&self.program, inputs, outputs, ctx, counters, k, n)
    }

    /// Whether the compiler proved this plan row-parallelizable (the
    /// outermost loops write disjoint output slices or reduce through a
    /// mergeable operator). Non-splittable plans execute serially
    /// regardless of the requested [`Parallelism`].
    pub fn splittable(&self) -> bool {
        self.program.split.is_some()
    }

    /// The per-output merge classification of a splittable plan —
    /// `(output name, merge kind)` for every output the split loops
    /// touch, in plan order — or `None` when the plan is not
    /// splittable. This is the contract a cross-process merger needs to
    /// recombine the buffers produced by
    /// [`CompiledKernel::run_chunk_with`].
    pub fn split_outputs(&self) -> Option<Vec<(String, MergeKind)>> {
        self.program.split.as_ref().map(|split| {
            split
                .outputs
                .iter()
                .map(|&(slot, kind)| (self.program.tensors[slot].name.clone(), kind))
                .collect()
        })
    }

    /// Number of bytecode instructions (observability / tests).
    pub fn len(&self) -> usize {
        self.program.instrs.len()
    }

    /// A humanly readable instruction listing (observability / tests).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pc, instr) in self.program.instrs.iter().enumerate() {
            let _ = writeln!(out, "{pc:4}: {instr:?}");
        }
        out
    }

    /// Whether the program is empty (it never is; present for lint
    /// symmetry with [`CompiledKernel::len`]).
    pub fn is_empty(&self) -> bool {
        self.program.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_exec::{alloc_outputs, hoist_conditions, lower, run_lowered};
    use systec_ir::build::*;
    use systec_ir::{AssignOp, Stmt};
    use systec_tensor::{CooTensor, LevelFormat, SparseTensor, CSR};

    fn csr(entries: &[(usize, usize, f64)], n: usize) -> Tensor {
        let mut coo = CooTensor::new(vec![n, n]);
        for &(i, j, v) in entries {
            coo.push(&[i, j], v);
        }
        Tensor::Sparse(SparseTensor::from_coo(&coo, &CSR).unwrap())
    }

    fn dense_vec(v: &[f64]) -> Tensor {
        Tensor::Dense(DenseTensor::from_vec(vec![v.len()], v.to_vec()).unwrap())
    }

    /// Compiles and runs `prog` on both backends, asserting identical
    /// outputs and counters; returns the VM outputs and counters.
    fn both(
        prog: &Stmt,
        inputs: &HashMap<String, Tensor>,
    ) -> (HashMap<String, DenseTensor>, Counters) {
        let hoisted = hoist_conditions(prog.clone());
        let outputs_init = alloc_outputs(&hoisted, inputs).unwrap();
        let lowered = lower(&hoisted, inputs, &outputs_init).unwrap();
        let kernel = CompiledKernel::compile(&lowered, inputs, &outputs_init).unwrap();
        let mut out_vm = outputs_init.clone();
        let c_vm = kernel.run(inputs, &mut out_vm).unwrap();
        let mut out_interp = outputs_init;
        let c_interp = run_lowered(&lowered, inputs, &mut out_interp).unwrap();
        for (name, t) in &out_interp {
            assert_eq!(out_vm[name], *t, "output {name} differs between backends");
        }
        assert_eq!(c_vm, c_interp, "counters differ between backends");
        (out_vm, c_vm)
    }

    #[test]
    fn spmv_concordant_driver() {
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 1, 2.0), (1, 0, 3.0), (2, 2, 4.0)], 3));
        inputs.insert("x".to_string(), dense_vec(&[1.0, 10.0, 100.0]));
        let (out, c) = both(&prog, &inputs);
        assert_eq!(out["y"].get(&[0]), 20.0);
        assert_eq!(out["y"].get(&[1]), 3.0);
        assert_eq!(out["y"].get(&[2]), 400.0);
        assert_eq!(c.reads_of("A"), 3);
    }

    #[test]
    fn triangular_bound_restricts_walk() {
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::guarded(
                le("j", "i"),
                assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
            ),
        );
        let mut inputs = HashMap::new();
        inputs
            .insert("A".to_string(), csr(&[(0, 0, 1.0), (0, 2, 5.0), (1, 0, 2.0), (2, 2, 3.0)], 3));
        let (out, c) = both(&prog, &inputs);
        assert_eq!(out["s"].get(&[]), 6.0);
        assert_eq!(c.reads_of("A"), 3);
    }

    #[test]
    fn min_plus_semiring_missing_edges() {
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign_op(
                access("y", ["i"]),
                AssignOp::Min,
                add([access("A", ["i", "j"]), access("d", ["j"])]),
            ),
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 1, 1.0), (1, 2, 2.0)], 3));
        inputs.insert("d".to_string(), dense_vec(&[0.0, 5.0, 50.0]));
        let hoisted = hoist_conditions(prog.clone());
        let mut outputs_init = alloc_outputs(&hoisted, &inputs).unwrap();
        outputs_init.insert("y".to_string(), DenseTensor::filled(vec![3], f64::INFINITY));
        let lowered = lower(&hoisted, &inputs, &outputs_init).unwrap();
        let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
        let mut out_vm = outputs_init.clone();
        kernel.run(&inputs, &mut out_vm).unwrap();
        let mut out_interp = outputs_init;
        run_lowered(&lowered, &inputs, &mut out_interp).unwrap();
        assert_eq!(out_vm["y"], out_interp["y"]);
        assert_eq!(out_vm["y"].get(&[0]), 6.0);
        assert_eq!(out_vm["y"].get(&[2]), f64::INFINITY);
    }

    #[test]
    fn let_skip_if_missing_and_workspace() {
        // let a = A[i, j]: w += a * x[j]; y[j] += a * x[i]
        let body = Stmt::Let {
            name: "a".into(),
            value: access("A", ["i", "j"]).into(),
            body: Box::new(Stmt::block([
                assign(access("y", ["i"]), mul([scalar("a"), access("x", ["j"]).into()])),
                assign(access("y", ["j"]), mul([scalar("a"), access("x", ["i"]).into()])),
            ])),
        };
        let prog = Stmt::loops([idx("i"), idx("j")], body);
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 1, 2.0)], 2));
        inputs.insert("x".to_string(), dense_vec(&[1.0, 10.0]));
        let (out, c) = both(&prog, &inputs);
        assert_eq!(out["y"].get(&[0]), 20.0);
        assert_eq!(out["y"].get(&[1]), 2.0);
        assert_eq!(c.reads_of("A"), 1);
    }

    #[test]
    fn rle_driver_loop() {
        let mut coo = CooTensor::new(vec![2, 6]);
        for j in 1..5 {
            coo.push(&[0, j], 2.5); // one run of four
        }
        coo.push(&[1, 0], 1.0);
        let rle =
            SparseTensor::from_coo(&coo, &[LevelFormat::Dense, LevelFormat::RunLength]).unwrap();
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), Tensor::Sparse(rle));
        let (out, c) = both(&prog, &inputs);
        assert_eq!(out["s"].get(&[]), 4.0 * 2.5 + 1.0);
        assert_eq!(c.iterations, 2 + 5);
    }

    #[test]
    fn lookup_table_and_cmpval() {
        let rhs = mul([
            systec_ir::Expr::Lookup {
                table: vec![3.0, 11.0],
                index: Box::new(systec_ir::Expr::CmpVal {
                    op: systec_ir::CmpOp::Eq,
                    lhs: idx("i"),
                    rhs: idx("j"),
                }),
            },
            access("A", ["i", "j"]).into(),
        ]);
        let prog = Stmt::loops([idx("i"), idx("j")], assign(access("s", [] as [&str; 0]), rhs));
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 0, 1.0), (0, 1, 1.0)], 2));
        let (out, _) = both(&prog, &inputs);
        assert_eq!(out["s"].get(&[]), 14.0);
    }

    #[test]
    fn residual_or_condition() {
        let prog = Stmt::loops(
            [idx("j"), idx("i")],
            Stmt::guarded(
                or([eq("i", "j"), gt("i", "j")]),
                assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
            ),
        );
        let mut inputs = HashMap::new();
        inputs.insert(
            "A".to_string(),
            csr(&[(0, 0, 1.0), (0, 1, 10.0), (1, 0, 100.0), (1, 1, 1000.0)], 2),
        );
        let (out, _) = both(&prog, &inputs);
        assert_eq!(out["s"].get(&[]), 1101.0);
    }

    /// Compiles a program and returns its disassembly (selection tests).
    fn disassembly(prog: &Stmt, inputs: &HashMap<String, Tensor>) -> String {
        let hoisted = hoist_conditions(prog.clone());
        let outputs_init = alloc_outputs(&hoisted, inputs).unwrap();
        let lowered = lower(&hoisted, inputs, &outputs_init).unwrap();
        CompiledKernel::compile(&lowered, inputs, &outputs_init).unwrap().disassemble()
    }

    fn rle_matrix(n: usize) -> Tensor {
        let mut coo = CooTensor::new(vec![n, n]);
        for i in 0..n {
            for j in 1..4 {
                coo.push(&[i, j], 2.0);
            }
        }
        Tensor::Sparse(
            SparseTensor::from_coo(&coo, &[LevelFormat::Dense, LevelFormat::RunLength]).unwrap(),
        )
    }

    /// Asserts an intersection stays on the general path: a compressed
    /// head over the driver, a probe per coordinate, no vector loop and no
    /// scatter.
    fn assert_general_intersection(dis: &str, label: &str) {
        let general = dis.contains("SparseLoopHead") && dis.contains("Probe {");
        assert!(
            general && !dis.contains("Vec") && !dis.contains("Scatter"),
            "{label} runs on the general path:\n{dis}"
        );
    }

    #[test]
    fn intersection_loops_vectorize() {
        // An intersection vectorizes only as workspace rows. A probe into
        // a dense level cannot drive a compressed loop: `SparseLoopHead`
        // over row `i` of A, then a `Probe` of B per coordinate.
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 1, 2.0), (1, 0, 3.0), (1, 1, 5.0)], 3));
        let mut dense_b = CooTensor::new(vec![3, 3]);
        for (i, k, v) in [(0, 1, 7.0), (2, 0, 1.0), (2, 1, 2.0)] {
            dense_b.push(&[i, k], v);
        }
        let dense_formats = [LevelFormat::Dense, LevelFormat::Dense];
        let dense_b = SparseTensor::from_coo(&dense_b, &dense_formats).unwrap();
        inputs.insert("B".to_string(), Tensor::Sparse(dense_b));
        let dense_probe = Stmt::loops(
            [idx("i"), idx("j"), idx("k")],
            assign(
                access("C", ["i", "j"]),
                mul([access("A", ["i", "k"]), access("B", ["j", "k"])]),
            ),
        );
        assert_general_intersection(&disassembly(&dense_probe, &inputs), "dense probe");
        let (out, c) = both(&dense_probe, &inputs);
        assert_eq!(out["C"].get(&[1, 2]), 3.0 * 1.0 + 5.0 * 2.0);
        // Every probe into the dense level hits (stored zeros included):
        // A's three entries against B's three rows.
        assert_eq!(c.reads_of("B"), 9, "probe reads count only on hits");

        // Two compressed fibers that vary together under one loop: each
        // driver fiber meets one probed fiber, so nothing is scattered.
        inputs.insert("B".to_string(), csr(&[(0, 1, 7.0), (2, 0, 1.0), (2, 1, 2.0)], 3));
        let diag = Stmt::loops(
            [idx("i"), idx("k")],
            assign(access("y", ["i"]), mul([access("A", ["i", "k"]), access("B", ["i", "k"])])),
        );
        assert_general_intersection(&disassembly(&diag, &inputs), "driver and probe together");
        let (out, c) = both(&diag, &inputs);
        assert_eq!(out["y"].get(&[0]), 2.0 * 7.0);
        assert_eq!(c.reads_of("B"), 1, "probe reads count only on hits");

        // SSYRK's self-intersection `A[i,k]·A[j,k]`: row `i` is fixed
        // across the `j` loop, so it is scattered once and row `j` drives.
        let ssyrk = Stmt::loops(
            [idx("i"), idx("j"), idx("k")],
            assign(
                access("C", ["i", "j"]),
                mul([access("A", ["i", "k"]), access("A", ["j", "k"])]),
            ),
        );
        let dis = disassembly(&ssyrk, &inputs);
        assert!(
            dis.contains("Scatter") && dis.contains("runner: WorkspaceDot {"),
            "SSYRK's intersection runs as workspace rows:\n{dis}"
        );
        let (out, _) = both(&ssyrk, &inputs);
        assert_eq!(out["C"].get(&[1, 1]), 3.0 * 3.0 + 5.0 * 5.0);

        // Row `i` fixed across the `j` loop: an output-addressed body
        // and the pre-analyzed dot of the scalar accumulation both
        // scatter it and drive row `j` (and correctness of both via
        // `both`).
        let isect = Stmt::loops(
            [idx("i"), idx("j"), idx("k")],
            assign(
                access("C", ["i", "j"]),
                mul([access("A", ["i", "k"]), access("B", ["j", "k"])]),
            ),
        );
        let dis = disassembly(&isect, &inputs);
        assert!(
            dis.contains("Scatter") && dis.contains("runner: WorkspaceDot {"),
            "output-addressed intersection:\n{dis}"
        );
        let (out, c) = both(&isect, &inputs);
        // Row 1 of A ∩ row 2 of B share columns {0, 1}.
        assert_eq!(out["C"].get(&[1, 2]), 3.0 * 1.0 + 5.0 * 2.0);
        // Hits per (i, j) pair: (0,0)→{1}, (0,2)→{1}, (1,0)→{1},
        // (1,2)→{0,1}; B's empty row 1 and A's empty row 2 contribute
        // none.
        assert_eq!(c.reads_of("B"), 5, "probe reads count only on hits");

        let dot = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::Workspace {
                name: "w".into(),
                init: 0.0,
                body: Box::new(Stmt::block([
                    Stmt::loops(
                        [idx("k")],
                        Stmt::Assign {
                            lhs: systec_ir::Lhs::Scalar("w".into()),
                            op: AssignOp::Add,
                            rhs: mul([access("A", ["i", "k"]), access("B", ["j", "k"])]),
                        },
                    ),
                    assign(access("C", ["i", "j"]), scalar("w")),
                ])),
            },
        );
        let dis = disassembly(&dot, &inputs);
        assert!(
            dis.contains("Scatter") && dis.contains("RowNest") && dis.contains("WorkspaceDot {"),
            "scalar accumulation nests the workspace dot over rows `j`:\n{dis}"
        );
        let (out, _) = both(&dot, &inputs);
        assert_eq!(out["C"].get(&[1, 2]), 3.0 * 1.0 + 5.0 * 2.0);
    }

    #[test]
    fn rle_driver_vectorizes() {
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), rle_matrix(5));
        inputs.insert("x".to_string(), dense_vec(&[1.0, 10.0, 100.0, 1000.0, 0.5]));
        let dis = disassembly(&prog, &inputs);
        // The vectorized run-length loop and its row loop collapse into
        // one row nest over the run-length leaf.
        assert!(
            dis.contains("RowNest") && dis.contains("rle: true"),
            "run-length driver loop vectorizes into a row nest:\n{dis}"
        );
        let (out, c) = both(&prog, &inputs);
        assert_eq!(out["y"].get(&[0]), 2.0 * (10.0 + 100.0 + 1000.0));
        assert_eq!(c.reads_of("A"), 15, "one driver read per covered coordinate");
    }

    #[test]
    fn random_access_reads_run_on_the_general_path() {
        // A random-access read inside the innermost loop leaves it on the
        // general head / advance path: one `ReadSparseRandom` search per
        // coordinate, with no vector loop around it.
        let general = |prog: &Stmt, inputs: &HashMap<String, Tensor>, label: &str| {
            let dis = disassembly(prog, inputs);
            assert!(
                dis.contains("ReadSparseRandom")
                    && !dis.contains("Vec")
                    && !dis.contains("RowNest"),
                "{label} runs on the general path:\n{dis}"
            );
            both(prog, inputs)
        };
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 1, 2.0), (2, 2, 4.0), (2, 0, 3.0)], 3));
        inputs.insert("B".to_string(), csr(&[(1, 0, 10.0), (2, 1, 7.0), (0, 0, 5.0)], 3));

        // Root-varying: `B[j, i]` binds the inner index `j` at mode 0.
        let root = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("B", ["j", "i"])])),
        );
        let (out, c) = general(&root, &inputs, "root-varying read");
        assert_eq!(out["y"].get(&[0]), 2.0 * 10.0);
        assert_eq!(out["y"].get(&[2]), 0.0, "B[0, 2] and B[2, 2] are unstored: stores annihilate");
        assert_eq!(c.reads_of("B"), 1, "random reads count only on hits");

        // Diagonal: `B[j, j]` carries the inner index at both modes.
        let diag = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("B", ["j", "j"])])),
        );
        let (out, c) = general(&diag, &inputs, "diagonal read");
        assert_eq!(out["y"].get(&[2]), 3.0 * 5.0);
        assert_eq!(c.reads_of("B"), 1, "only B[0, 0] is stored on the diagonal");

        // Leaf-varying: `A[k, i, j]` under loops (i, k, j) binds mode 0
        // second, so the whole read is random; only its leaf subscript
        // varies in the innermost loop.
        let leaf = Stmt::loops(
            [idx("i"), idx("k"), idx("j")],
            assign(
                access("s", [] as [&str; 0]),
                mul([access("A", ["k", "i", "j"]), access("x", ["j"])]),
            ),
        );
        let mut coo = CooTensor::new(vec![3, 3, 3]);
        coo.push(&[0, 1, 0], 2.0);
        coo.push(&[0, 1, 2], 3.0);
        coo.push(&[2, 0, 1], 5.0);
        let csf = [LevelFormat::Dense, LevelFormat::Sparse, LevelFormat::Sparse];
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), Tensor::Sparse(SparseTensor::from_coo(&coo, &csf).unwrap()));
        inputs.insert("x".to_string(), dense_vec(&[1.0, 10.0, 100.0]));
        let (out, _) = general(&leaf, &inputs, "leaf-varying read");
        assert_eq!(out["s"].get(&[]), 2.0 * 1.0 + 3.0 * 100.0 + 5.0 * 10.0);
    }

    #[test]
    fn chunk_windows_are_exact_for_any_ordinal() {
        let exact = |extent: usize, k: usize, n: usize| {
            let cut = |k: u128| (k * extent as u128 / n as u128) as usize;
            cut(k as u128)..cut(k as u128 + 1)
        };
        let big = usize::MAX;
        for extent in [0, 1, 4, 40_000, big / 3, big] {
            for (k, n) in [(0, 1), (1, 3), (1 << 62, 1 << 63), (big - 2, big - 1), (big - 1, big)] {
                assert_eq!(chunk_window(extent, k, n), exact(extent, k, n), "{extent} {k}/{n}");
            }
            // The first and last windows of `n = usize::MAX` meet the ends.
            assert_eq!(chunk_window(extent, 0, big).start, 0);
            assert_eq!(chunk_window(extent, big - 1, big).end, extent);
        }
        assert_eq!(chunk_window(40_000, 1 << 62, 1 << 63), 20_000..20_000);
    }

    #[test]
    fn chunked_execution_merges_to_the_serial_result() {
        // One program with both output classes: y[i] is row-owned by
        // the split loop, s[] reduces through +. Running every chunk
        // serially and merging per split_outputs must reproduce the
        // serial run bit-for-bit, with counters summing exactly.
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::block([
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
                assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
            ]),
        );
        let mut inputs = HashMap::new();
        inputs.insert(
            "A".to_string(),
            csr(&[(0, 1, 2.0), (1, 0, 3.0), (1, 3, 5.0), (2, 2, 4.0), (3, 0, 7.0)], 4),
        );
        inputs.insert("x".to_string(), dense_vec(&[1.0, 10.0, 100.0, 1000.0]));
        let hoisted = hoist_conditions(prog);
        let outputs_init = alloc_outputs(&hoisted, &inputs).unwrap();
        let lowered = lower(&hoisted, &inputs, &outputs_init).unwrap();
        let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
        assert!(kernel.splittable());
        let classes = kernel.split_outputs().expect("splittable plans classify outputs");
        assert!(classes.contains(&("y".to_string(), MergeKind::Rows)), "{classes:?}");
        assert!(
            classes.contains(&("s".to_string(), MergeKind::Reduce(AssignOp::Add))),
            "{classes:?}"
        );

        let mut serial = outputs_init.clone();
        let serial_c = kernel.run(&inputs, &mut serial).unwrap();

        for n in [1usize, 2, 3, 4] {
            // Chunk 0 seeds the accumulators; later chunks merge in order.
            let mut merged = HashMap::new();
            let mut merged_c = Counters::new();
            for k in 0..n {
                let mut outs = outputs_init.clone();
                let mut ctx = ExecContext::new();
                let mut c = Counters::new();
                kernel.run_chunk_with(&inputs, &mut outs, &mut ctx, &mut c, k, n).unwrap();
                merged_c.merge(&c);
                if k == 0 {
                    merged = outs;
                    continue;
                }
                for (name, kind) in &classes {
                    let (acc, part) = (merged.get_mut(name).unwrap(), &outs[name]);
                    kind.merge_into(acc.as_mut_slice(), part.as_slice(), part.dims(), k, n);
                }
            }
            for (name, t) in &serial {
                assert_eq!(merged[name], *t, "output {name} differs at n={n}");
            }
            assert_eq!(merged_c, serial_c, "counters differ at n={n}");
        }
    }

    #[test]
    fn chunked_execution_rejects_unsplittable_plans_and_bad_ordinals() {
        // A transpose's scattered overwrites are not splittable.
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::Assign {
                lhs: systec_ir::Lhs::Tensor(access("C", ["j", "i"])),
                op: AssignOp::Overwrite,
                rhs: access("A", ["i", "j"]).into(),
            },
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 1, 2.0)], 2));
        let hoisted = hoist_conditions(prog);
        let outputs_init = alloc_outputs(&hoisted, &inputs).unwrap();
        let lowered = lower(&hoisted, &inputs, &outputs_init).unwrap();
        let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
        assert!(!kernel.splittable());
        assert!(kernel.split_outputs().is_none());
        let mut outs = outputs_init.clone();
        let mut ctx = ExecContext::new();
        let mut c = Counters::new();
        assert!(matches!(
            kernel.run_chunk_with(&inputs, &mut outs, &mut ctx, &mut c, 0, 2),
            Err(ExecError::InvalidKernel { .. })
        ));

        // A splittable plan still rejects out-of-range ordinals.
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        inputs.insert("x".to_string(), dense_vec(&[1.0, 2.0]));
        let hoisted = hoist_conditions(prog);
        let outputs_init = alloc_outputs(&hoisted, &inputs).unwrap();
        let lowered = lower(&hoisted, &inputs, &outputs_init).unwrap();
        let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
        assert!(kernel.splittable());
        let mut outs = outputs_init.clone();
        assert!(matches!(
            kernel.run_chunk_with(&inputs, &mut outs, &mut ctx, &mut c, 2, 2),
            Err(ExecError::InvalidKernel { .. })
        ));
        assert!(matches!(
            kernel.run_chunk_with(&inputs, &mut outs, &mut ctx, &mut c, 0, 0),
            Err(ExecError::InvalidKernel { .. })
        ));
    }

    #[test]
    fn shape_mismatch_detected_at_run() {
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 1, 2.0)], 3));
        inputs.insert("x".to_string(), dense_vec(&[1.0, 10.0, 100.0]));
        let outputs_init = alloc_outputs(&prog, &inputs).unwrap();
        let lowered = lower(&prog, &inputs, &outputs_init).unwrap();
        let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
        // Swap in a smaller x: the plan no longer fits.
        inputs.insert("x".to_string(), dense_vec(&[1.0, 10.0]));
        let mut outs = outputs_init.clone();
        assert!(matches!(
            kernel.run(&inputs, &mut outs),
            Err(ExecError::BindingShapeMismatch { .. })
        ));
    }

    #[test]
    fn format_mismatch_detected_at_run() {
        // A CSR plan handed the same-shaped matrix packed any other way:
        // its loop heads (and never-miss elisions) are monomorphized per
        // level format, so the binding must be refused, not walked.
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        let mut coo = CooTensor::new(vec![3, 3]);
        coo.push(&[0, 1], 2.0);
        coo.push(&[2, 2], 4.0);
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), Tensor::Sparse(SparseTensor::from_coo(&coo, &CSR).unwrap()));
        inputs.insert("x".to_string(), dense_vec(&[1.0, 10.0, 100.0]));
        let outputs_init = alloc_outputs(&prog, &inputs).unwrap();
        let lowered = lower(&prog, &inputs, &outputs_init).unwrap();
        let kernel = CompiledKernel::compile(&lowered, &inputs, &outputs_init).unwrap();
        use LevelFormat::{Dense, RunLength, Sparse};
        for packing in [[Dense, RunLength], [Dense, Dense], [Sparse, Sparse]] {
            let repacked = SparseTensor::from_coo(&coo, &packing).unwrap();
            inputs.insert("A".to_string(), Tensor::Sparse(repacked));
            let mut outs = outputs_init.clone();
            assert_eq!(
                kernel.run(&inputs, &mut outs),
                Err(ExecError::BindingFormatMismatch {
                    name: "A".into(),
                    expected: CSR.to_vec(),
                    got: packing.to_vec(),
                }),
            );
        }
    }
}
