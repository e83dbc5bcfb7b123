//! Data preparation: output allocation and input-variant materialization.
//!
//! The paper's timing methodology excludes *"the time to rearrange data
//! before or after each kernel … including transposition or replicating
//! the output"* (§5.2). These helpers are that rearrangement step: the
//! benchmark harness calls them once, outside the timed region — but a
//! library or service caller pays them on every prepare, so variants are
//! built level to level: a transpose is one walk of the base's fibertree
//! and a sort of its entries, a diagonal split is one walk (already
//! sorted) packed once per part, and a dense base is split by a masked
//! copy.
//!
//! A derived variant keeps only the entries the program can read. The
//! `If` guards around its accesses say which: SSYMV reads `A_nondiag`
//! under `i <= j`, so it keeps `c0 < c1`; MTTKRP's canonical chain keeps
//! the non-decreasing coordinates, one entry per orbit. The rule is the
//! compiled program's own (see `KeepRule`), so the dropped entries are
//! exactly ones no access could reach. A kept entry is kept whatever its
//! value, explicitly stored zeros included, so a symmetric plan reads
//! what the naive plan reads in the canonical part.

use std::borrow::Cow;
use std::collections::HashMap;

use systec_ir::{Access, AssignOp, CmpOp, Cond, Index, Lhs, Stmt, TensorPart, TensorRef};
use systec_tensor::{DenseTensor, Tensor};

use crate::ExecError;

/// Allocates the output tensors a program writes: shapes are inferred
/// from the program's accesses against `inputs`, and each output is
/// initialized to its reduction's identity (`0` for `+=`, `+∞` for
/// `min=`, `-∞` for `max=`).
///
/// Callers that need a different initialization (e.g. Bellman-Ford's
/// `y = d` warm start) can overwrite the returned tensors before
/// [`crate::run`].
///
/// # Errors
///
/// Returns an [`ExecError`] if shapes conflict or an output index's
/// extent cannot be inferred from any input access.
pub fn alloc_outputs(
    stmt: &Stmt,
    inputs: &HashMap<String, Tensor>,
) -> Result<HashMap<String, DenseTensor>, ExecError> {
    let mut extents: HashMap<systec_ir::Index, usize> = HashMap::new();
    let mut targets: Vec<(Access, AssignOp)> = Vec::new();
    collect(stmt, &mut Vec::new(), &mut |access, write_op, _| {
        let name = access.tensor.display_name();
        if let Some(t) = inputs.get(&name) {
            for (mode, index) in access.indices.iter().enumerate() {
                extents.entry(index.clone()).or_insert(t.dims()[mode]);
            }
        }
        if let Some(op) = write_op {
            targets.push((access.clone(), op));
        }
    });
    // Validate input extents for conflicts.
    let mut checked: HashMap<systec_ir::Index, usize> = HashMap::new();
    let mut conflict: Option<ExecError> = None;
    collect(stmt, &mut Vec::new(), &mut |access, _, _| {
        let name = access.tensor.display_name();
        if let Some(t) = inputs.get(&name) {
            for (mode, index) in access.indices.iter().enumerate() {
                let extent = t.dims()[mode];
                match checked.get(index) {
                    Some(&prev) if prev != extent && conflict.is_none() => {
                        conflict = Some(ExecError::ExtentMismatch {
                            index: index.clone(),
                            a: prev,
                            b: extent,
                        });
                    }
                    _ => {
                        checked.insert(index.clone(), extent);
                    }
                }
            }
        }
    });
    if let Some(e) = conflict {
        return Err(e);
    }

    let mut outputs = HashMap::new();
    for (access, op) in targets {
        let name = access.tensor.display_name();
        if inputs.contains_key(&name) {
            return Err(ExecError::InputOutputClash { name });
        }
        let dims: Result<Vec<usize>, ExecError> = access
            .indices
            .iter()
            .map(|i| {
                extents.get(i).copied().ok_or_else(|| ExecError::UnknownExtent { index: i.clone() })
            })
            .collect();
        let init = op.identity().unwrap_or(0.0);
        let tensor = DenseTensor::filled(dims?, init);
        match outputs.get(&name) {
            None => {
                outputs.insert(name, tensor);
            }
            Some(existing) => {
                if existing.dims() != tensor.dims() {
                    return Err(ExecError::OutputShapeMismatch {
                        name,
                        expected: existing.dims().to_vec(),
                        got: tensor.dims().to_vec(),
                    });
                }
            }
        }
    }
    Ok(outputs)
}

/// Calls `f(access, write_op, guards)` for every access in program
/// order, `guards` being the conjuncts of the `If`s that enclose it.
fn collect<'a>(
    stmt: &'a Stmt,
    guards: &mut Vec<&'a Cond>,
    f: &mut impl FnMut(&'a Access, Option<AssignOp>, &[&'a Cond]),
) {
    match stmt {
        Stmt::Block(ss) => {
            for s in ss {
                collect(s, guards, f);
            }
        }
        Stmt::Loop { body, .. } | Stmt::Workspace { body, .. } => collect(body, guards, f),
        Stmt::If { cond, body } => {
            let depth = guards.len();
            guards.extend(match cond {
                Cond::And(conjuncts) => conjuncts.as_slice(),
                cond => std::slice::from_ref(cond),
            });
            collect(body, guards, f);
            guards.truncate(depth);
        }
        Stmt::Let { value, body, .. } => {
            for a in value.accesses() {
                f(a, None, guards);
            }
            collect(body, guards, f);
        }
        Stmt::Assign { lhs, op, rhs } => {
            if let Lhs::Tensor(a) = lhs {
                f(a, Some(*op), guards);
            }
            for a in rhs.accesses() {
                f(a, None, guards);
            }
        }
    }
}

/// The stored entries of a derived variant that some access of the
/// program can read: an entry is kept if, for *some* access, every
/// comparison in that access's list holds on its coordinates.
///
/// An access's list holds the `Cmp` conjuncts of its enclosing `If`s whose
/// two indices both subscript it, resolved once to `(op, mode_a,
/// mode_b)`. Any other conjunct — one that mentions another index, an
/// `Or` — counts as true, so an access under no such conjunct keeps every
/// entry. Reading an entry binds the access's subscripts to its
/// coordinates, and its guards must hold there, so no dropped entry is
/// ever read.
#[derive(Default)]
struct KeepRule(Vec<Vec<(CmpOp, usize, usize)>>);

impl KeepRule {
    fn add(&mut self, access: &Access, guards: &[&Cond]) {
        let mode = |index: &Index| access.indices.iter().position(|s| s == index);
        let cmps: Vec<(CmpOp, usize, usize)> = guards
            .iter()
            .filter_map(|guard| match guard {
                Cond::Cmp(op, a, b) => Some((*op, mode(a)?, mode(b)?)),
                _ => None,
            })
            .collect();
        if !self.0.contains(&cmps) {
            self.0.push(cmps);
        }
    }

    fn keeps_all(&self) -> bool {
        self.0.iter().any(Vec::is_empty)
    }

    fn keeps(&self, coords: &[usize]) -> bool {
        self.0.iter().any(|cmps| cmps.iter().all(|&(op, a, b)| op.eval(coords[a], coords[b])))
    }
}

/// Materializes every derived input variant a program mentions —
/// transposes (`B_T`, from the concordize pass) and diagonal splits
/// (`A_diag` / `A_nondiag`, from the diagonal-splitting pass) — from the
/// base tensors in `base`. A variant holds only the entries some access
/// of `stmt` can read under its `If` guards (an access under no guard
/// on its own subscripts keeps them all). Returns only the derived
/// variants; merge them with the base map before calling [`crate::run`].
///
/// # Errors
///
/// Returns [`ExecError::InvalidKernel`] carrying the tensor library's
/// message if a variant's permutation does not fit its base tensor.
pub fn prepare_variants(
    stmt: &Stmt,
    base: &HashMap<String, Tensor>,
) -> Result<HashMap<String, Tensor>, ExecError> {
    let mut variants: HashMap<String, Tensor> = HashMap::new();
    let mut refs: Vec<(TensorRef, KeepRule)> = Vec::new();
    collect(stmt, &mut Vec::new(), &mut |access, _, guards| {
        if access.tensor.is_base() {
            return;
        }
        let at = refs.iter().position(|(r, _)| *r == access.tensor).unwrap_or_else(|| {
            refs.push((access.tensor.clone(), KeepRule::default()));
            refs.len() - 1
        });
        refs[at].1.add(access, guards);
    });
    for (tref, _) in &refs {
        // Write-target variants (e.g. a transposed output C_T) are
        // allocated by `alloc_outputs`, not materialized from inputs.
        let Some(base_tensor) = base.get(&tref.name) else {
            continue;
        };
        if variants.contains_key(&tref.display_name()) {
            continue;
        }
        // One transpose and one split per (base, perm), whichever of its
        // parts the program names.
        let permuted = if tref.perm.is_empty() {
            Cow::Borrowed(base_tensor)
        } else {
            Cow::Owned(base_tensor.permuted(&tref.perm).map_err(|e| {
                let message = format!("variant `{}`: {e}", tref.display_name());
                ExecError::InvalidKernel { message }
            })?)
        };
        let wanted = |part| {
            let sibling = TensorRef { part, ..tref.clone() };
            refs.iter().find(|(r, _)| *r == sibling).map(|(r, keep)| (r.display_name(), keep))
        };
        let (diagonal, off_diagonal) =
            (wanted(TensorPart::Diagonal), wanted(TensorPart::OffDiagonal));
        if diagonal.is_some() || off_diagonal.is_some() {
            let (diag, off) = permuted.partition(|coords| {
                let on = on_diagonal(coords);
                let (_, keep) = if on { &diagonal } else { &off_diagonal }.as_ref()?;
                keep.keeps(coords).then_some(on)
            });
            variants.extend(diagonal.map(|(name, _)| (name, diag)));
            variants.extend(off_diagonal.map(|(name, _)| (name, off)));
        }
        if let Some((name, keep)) = wanted(TensorPart::All) {
            let all = if keep.keeps_all() {
                permuted.into_owned()
            } else {
                permuted.partition(|coords| keep.keeps(coords).then_some(true)).0
            };
            variants.insert(name, all);
        }
    }
    Ok(variants)
}

/// An entry is *diagonal* if at least two of its coordinates are equal
/// (Definition 2.4 over all modes).
fn on_diagonal(coords: &[usize]) -> bool {
    coords.iter().enumerate().any(|(mode, c)| coords[mode + 1..].contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;
    use systec_ir::{AssignOp, Expr};
    use systec_tensor::{Entries, LevelFormat, CSR};

    fn csr(dims: [usize; 2], entries: &[([usize; 2], f64)]) -> Tensor {
        let mut list = Entries::new(dims.to_vec());
        for (coords, v) in entries {
            list.try_push(coords, *v).unwrap();
        }
        Tensor::Sparse(list.pack(&CSR).unwrap())
    }

    fn inputs() -> HashMap<String, Tensor> {
        let mut m = HashMap::new();
        m.insert("A".to_string(), csr([3, 4], &[([0, 1], 1.0)]));
        m.insert("x".to_string(), Tensor::Dense(DenseTensor::zeros(vec![4])));
        m
    }

    #[test]
    fn alloc_infers_shape_and_identity() {
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        let outs = alloc_outputs(&prog, &inputs()).unwrap();
        assert_eq!(outs["y"].dims(), &[3]);
        assert_eq!(outs["y"].get(&[0]), 0.0);
    }

    #[test]
    fn alloc_min_identity_is_infinity() {
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign_op(
                access("y", ["i"]),
                AssignOp::Min,
                add([access("A", ["i", "j"]), access("x", ["j"])]),
            ),
        );
        let outs = alloc_outputs(&prog, &inputs()).unwrap();
        assert_eq!(outs["y"].get(&[1]), f64::INFINITY);
    }

    #[test]
    fn alloc_scalar_output() {
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
        );
        let outs = alloc_outputs(&prog, &inputs()).unwrap();
        assert_eq!(outs["s"].dims(), &[] as &[usize]);
    }

    #[test]
    fn alloc_unknown_extent_is_reported() {
        let prog = Stmt::loops([idx("k")], assign(access("z", ["k"]), lit(1.0)));
        assert!(matches!(alloc_outputs(&prog, &inputs()), Err(ExecError::UnknownExtent { .. })));
    }

    #[test]
    fn prepare_materializes_transpose() {
        let a_t = Access {
            tensor: systec_ir::TensorRef::transposed("A", vec![1, 0]),
            indices: vec![idx("j"), idx("i")],
        };
        let prog = Stmt::loops(
            [idx("j"), idx("i")],
            assign(
                access("y", ["i"]),
                mul([systec_ir::Expr::Access(a_t), access("x", ["j"]).into()]),
            ),
        );
        let variants = prepare_variants(&prog, &inputs()).unwrap();
        let at = variants.get("A_T").expect("A_T materialized");
        assert_eq!(at.dims(), &[4, 3]);
        assert_eq!(at.get(&[1, 0]), 1.0);
    }

    #[test]
    fn prepare_materializes_diag_split() {
        let mut base = HashMap::new();
        base.insert("A".to_string(), csr([3, 3], &[([0, 0], 1.0), ([0, 1], 2.0)]));
        base.insert("x".to_string(), Tensor::Dense(DenseTensor::zeros(vec![3])));

        let mut diag_ref = systec_ir::TensorRef::base("A");
        diag_ref.part = TensorPart::Diagonal;
        let a_diag = Access { tensor: diag_ref, indices: vec![idx("i"), idx("j")] };
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign(
                access("y", ["i"]),
                mul([systec_ir::Expr::Access(a_diag), access("x", ["j"]).into()]),
            ),
        );
        let variants = prepare_variants(&prog, &base).unwrap();
        let d = variants.get("A_diag").expect("A_diag materialized");
        assert_eq!(d.get(&[0, 0]), 1.0);
        assert_eq!(d.get(&[0, 1]), 0.0);
    }

    /// `A`'s `part` (optionally transposed by `perm`) at `indices`.
    fn variant(part: TensorPart, perm: &[usize], indices: &[&str]) -> Expr {
        let tensor = TensorRef { name: "A".into(), perm: perm.to_vec(), part };
        Expr::Access(Access { tensor, indices: indices.iter().map(|i| idx(i)).collect() })
    }

    /// A base `A` with every coordinate of a `dims` box stored, packed
    /// compressed at every level.
    fn every_coordinate(dims: &[usize]) -> HashMap<String, Tensor> {
        let mut list = Entries::new(dims.to_vec());
        DenseTensor::zeros(dims.to_vec()).for_each_entry(|coords, _| {
            list.try_push(coords, 1.0).unwrap();
        });
        let formats = vec![LevelFormat::Sparse; dims.len()];
        HashMap::from([("A".to_string(), Tensor::Sparse(list.pack(&formats).unwrap()))])
    }

    /// The stored coordinates of a compressed variant, in walk order.
    fn stored(t: &Tensor) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        t.as_sparse().expect("compressed").for_each_entry(|coords, _| out.push(coords.to_vec()));
        out
    }

    /// Every coordinate of a `n × n` box satisfying `keep`, in order.
    fn square(n: usize, keep: impl Fn(usize, usize) -> bool) -> Vec<Vec<usize>> {
        (0..n).flat_map(|i| (0..n).map(move |j| vec![i, j])).filter(|c| keep(c[0], c[1])).collect()
    }

    #[test]
    fn ssymv_parts_hold_exactly_the_canonical_triangle() {
        // The hoisted SSYMV program: the off-diagonal pass under `i <= j`,
        // the diagonal pass under `i <= j && i == j`.
        let prog = Stmt::block([
            Stmt::loops(
                [idx("i"), idx("j")],
                Stmt::guarded(
                    le("i", "j"),
                    assign(
                        access("y", ["i"]),
                        mul([
                            variant(TensorPart::OffDiagonal, &[], &["i", "j"]),
                            access("x", ["j"]).into(),
                        ]),
                    ),
                ),
            ),
            Stmt::loops(
                [idx("i"), idx("j")],
                Stmt::guarded(
                    and([le("i", "j"), eq("i", "j")]),
                    assign(
                        access("y", ["i"]),
                        mul([
                            variant(TensorPart::Diagonal, &[], &["i", "j"]),
                            access("x", ["j"]).into(),
                        ]),
                    ),
                ),
            ),
        ]);
        let variants = prepare_variants(&prog, &every_coordinate(&[4, 4])).unwrap();
        assert_eq!(stored(&variants["A_nondiag"]), square(4, |i, j| i < j));
        assert_eq!(stored(&variants["A_diag"]), square(4, |i, j| i == j));
    }

    #[test]
    fn one_unguarded_access_keeps_every_entry() {
        let a = || variant(TensorPart::OffDiagonal, &[], &["i", "j"]);
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::block([
                Stmt::guarded(le("i", "j"), assign(access("y", ["i"]), a())),
                assign(access("z", ["j"]), a()),
            ]),
        );
        let variants = prepare_variants(&prog, &every_coordinate(&[3, 3])).unwrap();
        assert_eq!(stored(&variants["A_nondiag"]), square(3, |i, j| i != j));
    }

    #[test]
    fn a_guard_on_two_modes_constrains_only_those_modes() {
        let mut list = Entries::new(vec![3, 3, 3]);
        list.try_push(&[0, 2, 1], 1.0).unwrap();
        list.try_push(&[2, 1, 0], 1.0).unwrap();
        let base = HashMap::from([(
            "A".to_string(),
            Tensor::Sparse(list.pack(&[LevelFormat::Sparse; 3]).unwrap()),
        )]);
        let prog = Stmt::loops(
            [idx("i"), idx("j"), idx("k")],
            Stmt::guarded(
                le("i", "j"),
                assign(access("y", ["i"]), variant(TensorPart::OffDiagonal, &[], &["i", "j", "k"])),
            ),
        );
        let variants = prepare_variants(&prog, &base).unwrap();
        assert_eq!(stored(&variants["A_nondiag"]), [[0, 2, 1]]);
    }

    #[test]
    fn a_transposed_access_is_guarded_through_its_subscripts() {
        // `A_T[j, i]` under `i <= j`: mode 0 is `j`, mode 1 is `i`.
        let prog = Stmt::loops(
            [idx("j"), idx("i")],
            Stmt::guarded(
                le("i", "j"),
                assign(
                    access("y", ["i"]),
                    mul([
                        variant(TensorPart::All, &[1, 0], &["j", "i"]),
                        access("x", ["j"]).into(),
                    ]),
                ),
            ),
        );
        let variants = prepare_variants(&prog, &every_coordinate(&[4, 4])).unwrap();
        assert_eq!(stored(&variants["A_T"]), square(4, |c0, c1| c1 <= c0));
    }

    #[test]
    fn an_invalid_permutation_is_reported_as_such() {
        let a_bad = Access {
            tensor: systec_ir::TensorRef::transposed("A", vec![0, 0]),
            indices: vec![idx("j"), idx("i")],
        };
        let prog = Stmt::loops(
            [idx("j"), idx("i")],
            assign(
                access("y", ["i"]),
                mul([systec_ir::Expr::Access(a_bad), access("x", ["j"]).into()]),
            ),
        );
        // Not "tensor `A_T` is not bound": `A` is bound, the variant is
        // ill-formed.
        let Err(ExecError::InvalidKernel { message }) = prepare_variants(&prog, &inputs()) else {
            panic!("an invalid permutation must be refused as an invalid kernel");
        };
        assert!(message.contains("invalid mode permutation [0, 0]"), "{message}");
    }
}
