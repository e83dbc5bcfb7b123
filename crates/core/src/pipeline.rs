//! The compiler pipeline: symmetrization followed by the §4.2 passes.

use std::collections::HashMap;

use systec_ir::{AssignOp, BinOp, CmpOp, Cond, Einsum, Expr, Index, Stmt};

use crate::passes::{
    access_cse, concordize, consolidate, diagonal_split, distribute, group_branches, lookup_table,
    visible_output,
};
use crate::symmetrize::normalize_accesses;
use crate::{symmetrize, CompileError, SymmetryPartition, SymmetrySpec};

/// Per-pass toggles, used by the ablation benchmarks and by callers that
/// want to match a specific listing from the paper.
///
/// All passes default to on except the simplicial lookup table, which
/// the paper applies selectively (it trades control flow for indexed
/// loads; Listing 7's MTTKRP does not use it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompileOptions {
    /// §4.2.2 restrict output to canonical triangle (+ replication).
    pub visible_output: bool,
    /// §4.2.7 distributive assignment grouping.
    pub distribute: bool,
    /// §4.2.5 simplicial lookup tables.
    pub lookup_tables: bool,
    /// §4.2.4 consolidate conditional blocks.
    pub consolidate: bool,
    /// §4.2.1 common tensor access elimination.
    pub cse: bool,
    /// §4.2.9 diagonal splitting.
    pub diagonal_split: bool,
    /// §4.2.6 group assignments across branches.
    pub group_branches: bool,
    /// §4.2.8 workspace transformation.
    pub workspace: bool,
    /// Loop-invariant read motion (performed by Finch's lowering in the
    /// paper's stack; applied to naive baselines too, for fairness).
    pub licm: bool,
    /// §4.2.3 concordize tensors.
    pub concordize: bool,
    /// Einsum-level output-symmetry detection (SSYRK-style kernels where
    /// the output is symmetric *by construction*, Example 3.1).
    pub output_symmetry_detection: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            visible_output: true,
            distribute: true,
            lookup_tables: false,
            consolidate: true,
            cse: true,
            diagonal_split: true,
            group_branches: true,
            workspace: true,
            licm: true,
            concordize: true,
            output_symmetry_detection: true,
        }
    }
}

impl CompileOptions {
    /// Everything off: plain symmetrization only.
    pub fn none() -> Self {
        CompileOptions {
            visible_output: false,
            distribute: false,
            lookup_tables: false,
            consolidate: false,
            cse: false,
            diagonal_split: false,
            group_branches: false,
            workspace: false,
            licm: false,
            concordize: false,
            output_symmetry_detection: false,
        }
    }
}

/// A compiled kernel: the optimized main program plus its metadata.
#[derive(Clone, PartialEq, Debug)]
pub struct CompiledKernel {
    /// The complete program (main loops followed by any replication).
    pub program: Stmt,
    /// The main loop nest(s) only.
    pub main: Stmt,
    /// The output-replication nest, when visible output symmetry was
    /// exploited.
    pub replication: Option<Stmt>,
    /// The permutable indices in canonical order.
    pub chain: Vec<Index>,
    /// Detected (or declared) symmetry of the output's mode positions.
    pub output_partition: Option<SymmetryPartition>,
    /// Names of tensors declared symmetric.
    pub symmetric_tensors: Vec<String>,
}

/// The SySTeC compiler.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Compiler {
    options: CompileOptions,
}

impl Compiler {
    /// A compiler with default options.
    pub fn new() -> Self {
        Compiler { options: CompileOptions::default() }
    }

    /// A compiler with explicit per-pass toggles.
    pub fn with_options(options: CompileOptions) -> Self {
        Compiler { options }
    }

    /// The active options.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Compiles an einsum with the declared input symmetries.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the symmetry declarations do not
    /// match the einsum.
    pub fn compile(
        &self,
        einsum: &Einsum,
        spec: &SymmetrySpec,
    ) -> Result<CompiledKernel, CompileError> {
        let o = &self.options;
        let sym = symmetrize(einsum, spec)?;
        let mut program = sym.program;
        let mut replication = None;
        let mut output_partition = None;

        // §4.2.2 — visible output symmetry surfaced by symmetrization.
        if o.visible_output {
            let result = visible_output(program, &sym.chain, &einsum.loop_order);
            program = result.program;
            replication = result.replication;
            output_partition = result.partition;
        }
        // Einsum-level output symmetry (no symmetric input needed).
        if o.output_symmetry_detection && replication.is_none() {
            if let Some((partition, guard)) = einsum_visible_symmetry(&sym.einsum, spec, &sym.chain)
            {
                program = add_guard(program, &guard, &einsum.loop_order);
                replication = Some(crate::passes::replication_nest(
                    &einsum.output,
                    &partition,
                    &einsum.loop_order,
                ));
                output_partition = Some(partition);
            }
        }
        if o.output_symmetry_detection {
            if let Some(split) = einsum_invisible_symmetry(&sym.einsum, spec, &sym.chain) {
                program = apply_invisible_split(program, &split, &einsum.loop_order);
            }
        }
        if o.distribute {
            program = distribute(program);
        }
        if o.lookup_tables {
            program = lookup_table(program, &sym.chain);
        }
        if o.consolidate {
            program = consolidate(program);
        }
        if o.cse {
            program = access_cse(program);
        }
        if o.diagonal_split {
            // The runtime's diagonal/off-diagonal split partitions a
            // tensor's entries over ALL of its modes, so the pass is only
            // sound for fully symmetric tensors whose symmetric indices
            // are exactly the chain. (Partial symmetry would misroute
            // entries that are diagonal in a non-chain mode pair.)
            let chain_set: std::collections::BTreeSet<&Index> = sym.chain.iter().collect();
            let splittable: Vec<String> = sym
                .symmetric_tensors
                .iter()
                .filter(|name| {
                    spec.partition(name).is_some_and(|p| p.is_full())
                        && sym
                            .einsum
                            .rhs
                            .accesses()
                            .iter()
                            .filter(|a| a.tensor.is_base() && a.tensor.name == **name)
                            .all(|a| {
                                a.indices.iter().collect::<std::collections::BTreeSet<_>>()
                                    == chain_set
                            })
                })
                .cloned()
                .collect();
            if splittable.len() == sym.symmetric_tensors.len() {
                program = diagonal_split(program, &sym.chain, &splittable);
            }
        }
        if o.group_branches {
            program = group_branches(program);
        }
        if o.licm {
            program = crate::passes::licm(program);
        }
        if o.workspace {
            program = crate::passes::workspace(program);
        }
        if o.concordize {
            program = concordize(program, spec);
        }

        let main = program.clone();
        let full = match &replication {
            Some(rep) => Stmt::block([program, rep.clone()]),
            None => program,
        };
        Ok(CompiledKernel {
            program: full,
            main,
            replication,
            chain: sym.chain,
            output_partition,
            symmetric_tensors: sym.symmetric_tensors,
        })
    }

    /// The naive (symmetry-oblivious) kernel for the same einsum, run
    /// through concordization only — the "naive Finch" baseline of the
    /// paper's evaluation.
    pub fn naive(&self, einsum: &Einsum) -> Stmt {
        let program = concordize(einsum.naive_program(), &SymmetrySpec::new());
        if self.options.licm {
            crate::passes::licm(program)
        } else {
            program
        }
    }
}

/// Detects visible output symmetry at the einsum level: pairs of output
/// indices whose swap leaves the right-hand side invariant modulo
/// commutativity (Example 3.1: `B[i,j] = A[i,k] * A[j,k]`).
///
/// Indices already covered by input symmetry (the chain) are skipped —
/// symmetrization has already dealt with them.
fn einsum_visible_symmetry(
    einsum: &Einsum,
    spec: &SymmetrySpec,
    chain: &[Index],
) -> Option<(SymmetryPartition, Cond)> {
    let out = &einsum.output.indices;
    let mut parts: Vec<Vec<usize>> = Vec::new();
    let mut used: Vec<usize> = Vec::new();
    for a in 0..out.len() {
        for b in a + 1..out.len() {
            if used.contains(&a) || used.contains(&b) {
                continue;
            }
            if chain.contains(&out[a]) || chain.contains(&out[b]) {
                continue;
            }
            if out[a] == out[b] {
                continue;
            }
            if rhs_invariant_under_swap(einsum, spec, &out[a], &out[b]) {
                parts.push(vec![a, b]);
                used.extend([a, b]);
            }
        }
    }
    if parts.is_empty() {
        return None;
    }
    let guard =
        Cond::and(parts.iter().map(|p| Cond::Cmp(CmpOp::Le, out[p[0]].clone(), out[p[1]].clone())));
    for m in 0..out.len() {
        if !used.contains(&m) {
            parts.push(vec![m]);
        }
    }
    let partition = SymmetryPartition::from_parts(parts)?;
    Some((partition, guard))
}

/// Detects invisible output symmetry at the einsum level: pairs of
/// *reduction* indices whose swap leaves the right-hand side invariant
/// (Example 3.1: `B[i] = A[i,j] * A[i,k]` has `{{j,k}}` symmetry).
fn einsum_invisible_symmetry(
    einsum: &Einsum,
    spec: &SymmetrySpec,
    chain: &[Index],
) -> Option<(Index, Index)> {
    let reduction: Vec<Index> = einsum.reduction_indices().into_iter().collect();
    for a in 0..reduction.len() {
        for b in a + 1..reduction.len() {
            let (ia, ib) = (&reduction[a], &reduction[b]);
            if chain.contains(ia) || chain.contains(ib) {
                continue;
            }
            if rhs_invariant_under_swap(einsum, spec, ia, ib) {
                return Some((ia.clone(), ib.clone()));
            }
        }
    }
    None
}

fn rhs_invariant_under_swap(einsum: &Einsum, spec: &SymmetrySpec, a: &Index, b: &Index) -> bool {
    let map: HashMap<Index, Index> =
        [(a.clone(), b.clone()), (b.clone(), a.clone())].into_iter().collect();
    let normalize = |e: Expr| normalize_accesses(e, spec, &Index::cmp).sort_commutative();
    let swapped = einsum.rhs.substitute(&map);
    normalize(swapped) == normalize(einsum.rhs.clone())
}

/// Inserts a guard just inside the loop binding the last (innermost) of
/// the guard's indices.
fn add_guard(program: Stmt, guard: &Cond, loop_order: &[Index]) -> Stmt {
    let innermost = loop_order.iter().rev().find(|i| guard.indices().contains(*i)).cloned();
    let Some(innermost) = innermost else {
        return Stmt::guarded(guard.clone(), program);
    };
    insert_at_loop(program, &innermost, &mut |body| Stmt::guarded(guard.clone(), body))
}

fn insert_at_loop(stmt: Stmt, target: &Index, wrap: &mut impl FnMut(Stmt) -> Stmt) -> Stmt {
    match stmt {
        Stmt::Loop { index, body } if index == *target => {
            Stmt::Loop { index, body: Box::new(wrap(*body)) }
        }
        other => other.map_children(&mut |s| insert_at_loop(s, target, wrap)),
    }
}

/// Rewrites the program to exploit einsum-level invisible symmetry in a
/// reduction pair `(a, b)`: restrict to `a ≤ b`, doubling the
/// off-diagonal contribution (or merely restricting, for idempotent
/// reductions).
fn apply_invisible_split(program: Stmt, pair: &(Index, Index), loop_order: &[Index]) -> Stmt {
    let (a, b) = pair;
    let innermost = loop_order
        .iter()
        .rev()
        .find(|i| *i == a || *i == b)
        .cloned()
        .expect("pair indices are loop indices");
    insert_at_loop(program, &innermost, &mut |body| split_body(body, a, b))
}

fn split_body(body: Stmt, a: &Index, b: &Index) -> Stmt {
    // body is (possibly) a single assignment or block of assignments.
    let doubled = body.clone().map_exprs(&mut |rhs| double(rhs));
    let idempotent = all_idempotent(&body);
    let strict = Stmt::guarded(
        Cond::Cmp(CmpOp::Lt, a.clone(), b.clone()),
        if idempotent { body.clone() } else { doubled },
    );
    let diagonal = Stmt::guarded(Cond::Cmp(CmpOp::Eq, a.clone(), b.clone()), body);
    Stmt::block([strict, diagonal])
}

fn all_idempotent(stmt: &Stmt) -> bool {
    stmt.assignments().iter().all(|s| match s {
        Stmt::Assign { op, .. } => op.is_idempotent() && *op != AssignOp::Overwrite,
        _ => false,
    })
}

fn double(rhs: Expr) -> Expr {
    Expr::call(BinOp::Mul, [Expr::Literal(2.0), rhs])
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;

    fn ssymv() -> Einsum {
        Einsum::new(
            access("y", ["i"]),
            AssignOp::Add,
            mul([access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("j")],
        )
    }

    #[test]
    fn ssymv_compiles_to_figure_2_shape() {
        let spec = SymmetrySpec::new().with_full("A", 2);
        let kernel = Compiler::new().compile(&ssymv(), &spec).unwrap();
        let printed = kernel.program.to_string();
        // Reads bound to a scalar and reused for both updates; the
        // workspace transform hoists the y[i] accumulation out of the j
        // loop.
        assert!(printed.contains("let t_A"), "{printed}");
        assert!(printed.contains("w_y += t_A * x[j]"), "{printed}");
        assert!(printed.contains("y[j] += t_A * h_x"), "{printed}");
        assert!(printed.contains("y[i] += w_y"), "{printed}");
        // Diagonal split into two nests over A_nondiag / A_diag.
        assert!(printed.contains("A_nondiag"), "{printed}");
        assert!(printed.contains("A_diag"), "{printed}");
        assert!(kernel.replication.is_none());
    }

    #[test]
    fn syprd_gets_factor_two() {
        let e = Einsum::new(
            access("s", [] as [&str; 0]),
            AssignOp::Add,
            mul([access("x", ["i"]), access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("j")],
        );
        let spec = SymmetrySpec::new().with_full("A", 2);
        let kernel = Compiler::new().compile(&e, &spec).unwrap();
        let printed = kernel.program.to_string();
        assert!(printed.contains("2 *"), "{printed}");
    }

    #[test]
    fn ssyrk_restricts_output_and_replicates() {
        let e = Einsum::new(
            access("C", ["i", "j"]),
            AssignOp::Add,
            mul([access("A", ["i", "k"]), access("A", ["j", "k"])]),
            [idx("i"), idx("j"), idx("k")],
        );
        let kernel = Compiler::new().compile(&e, &SymmetrySpec::new()).unwrap();
        let printed = kernel.program.to_string();
        assert!(printed.contains("if i <= j"), "{printed}");
        assert!(printed.contains("C[i, j] = C[j, i]"), "{printed}");
        assert!(kernel.output_partition.as_ref().unwrap().is_full());
    }

    #[test]
    fn invisible_reduction_symmetry_detected() {
        // B[i] += A[i, j] * A[i, k]: {{j, k}} invisible symmetry.
        let e = Einsum::new(
            access("B", ["i"]),
            AssignOp::Add,
            mul([access("A", ["i", "j"]), access("A", ["i", "k"])]),
            [idx("i"), idx("j"), idx("k")],
        );
        let kernel = Compiler::new().compile(&e, &SymmetrySpec::new()).unwrap();
        let printed = kernel.program.to_string();
        assert!(printed.contains("if j < k"), "{printed}");
        assert!(printed.contains("2 *"), "{printed}");
        assert!(printed.contains("if j == k"), "{printed}");
    }

    #[test]
    fn partial_symmetry_skips_diagonal_split() {
        // Regression (found by proptest): Out[i0] += A[i0, i1, i2] with A
        // {{0,1}}-symmetric must not split A on all three modes - an
        // entry with i1 == i2 (but i0 != i1) is off-diagonal w.r.t. the
        // chain yet lands in A_diag, misrouting its contribution.
        let e = Einsum::new(
            access("Out", ["i0"]),
            AssignOp::Add,
            access("A", ["i0", "i1", "i2"]).into(),
            [idx("i0"), idx("i1"), idx("i2")],
        );
        let part = crate::SymmetryPartition::from_parts(vec![vec![0, 1], vec![2]]).unwrap();
        let spec = SymmetrySpec::new().with_partition("A", part);
        let kernel = Compiler::new().compile(&e, &spec).unwrap();
        let printed = kernel.program.to_string();
        assert!(!printed.contains("_diag"), "{printed}");
        assert!(!printed.contains("_nondiag"), "{printed}");
    }

    #[test]
    fn naive_baseline_is_single_assignment() {
        let naive = Compiler::new().naive(&ssymv());
        assert_eq!(naive.assignments().len(), 1);
    }

    #[test]
    fn options_none_is_pure_symmetrization() {
        let spec = SymmetrySpec::new().with_full("A", 2);
        let kernel =
            Compiler::with_options(CompileOptions::none()).compile(&ssymv(), &spec).unwrap();
        let printed = kernel.program.to_string();
        assert!(!printed.contains("let "), "{printed}");
        assert!(!printed.contains("_nondiag"), "{printed}");
        assert_eq!(kernel.program.assignments().len(), 3);
    }

    #[test]
    fn mttkrp_compiles_to_listing_7_shape() {
        let e = Einsum::new(
            access("C", ["i", "j"]),
            AssignOp::Add,
            mul([access("A", ["i", "k", "l"]), access("B", ["k", "j"]), access("B", ["l", "j"])]),
            [idx("i"), idx("k"), idx("l"), idx("j")],
        );
        let spec = SymmetrySpec::new().with_full("A", 3);
        let kernel = Compiler::new().compile(&e, &spec).unwrap();
        let printed = kernel.program.to_string();
        // Factor-2 assignments over the off-diagonal tensor.
        assert!(printed.contains("A_nondiag"), "{printed}");
        assert!(printed.contains("2 *"), "{printed}");
        assert!(printed.contains("A_diag"), "{printed}");
        // Both single-equality diagonal blocks present, with their
        // distribute-applied factors (we keep the factored form rather than
        // Listing 7's unfactored 3-assignment diagonal blocks; the two
        // are equivalent).
        assert!(printed.contains("if i == k && k != l"), "{printed}");
        assert!(printed.contains("if i != k && k == l"), "{printed}");
    }
}
