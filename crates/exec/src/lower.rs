//! Lowering: names to slots, comparisons to loop bounds, concordant
//! sparse accesses to position-tracked paths, and driver selection.
//!
//! Lowering is where the IR's dense-looking loops acquire their sparse
//! execution strategy, mirroring what the Finch compiler does when it
//! turns `for i=_; if i < 7; s[] += x[i]` into an early-exiting walk of
//! `x`'s coordinate array (paper §2.2):
//!
//! * Conjuncts `i ⋈ j` between the loop index `i` and an already-bound
//!   outer index `j` become **bounds** `[lo, hi]` on the loop.
//! * A sparse access whose subscripts bind outermost-first (a
//!   *concordant* access, §4.2.3) is **path-tracked**: each loop advances
//!   a per-level position, so value reads are O(1) pointer chases.
//! * At each loop, one advanced sparse access may become the **driver**:
//!   iteration walks its compressed coordinates instead of the full
//!   dimension. Driving is sound only when skipping unstored coordinates
//!   is unobservable, i.e. every assignment in the loop *annihilates* on
//!   the access's fill (a `+=` of a product containing the access, or a
//!   `min=`/`max=` of a sum containing it — the tropical fill being the
//!   reduction identity).

use std::collections::HashMap;

use systec_ir::{Access, AssignOp, BinOp, CmpOp, Cond, Expr, Index, Lhs, Stmt, TensorRef};
use systec_tensor::{DenseTensor, LevelFormat, Tensor};

use crate::ExecError;

/// A fully lowered program, ready for [`crate::run_lowered`] or for an
/// alternative backend (see `systec-codegen`) that consumes the data
/// model re-exported from [`crate::lowered`].
#[derive(Debug)]
pub struct LoweredProgram {
    /// Every tensor the program touches, by slot index.
    pub tensors: Vec<TensorSlot>,
    /// Every path-tracked (concordant) sparse access, by slot index.
    pub accesses: Vec<AccessSlot>,
    /// Every loop index, by slot index.
    pub indices: Vec<Index>,
    /// The inferred extent of each index slot.
    pub extents: Vec<usize>,
    /// Number of scalar (`let`/workspace) slots.
    pub n_scalars: usize,
    /// The lowered statement tree.
    pub root: LStmt,
}

/// One tensor the program touches.
#[derive(Debug)]
pub struct TensorSlot {
    /// The tensor's display name (binding key in the input/output maps).
    pub name: String,
    /// How the slot is bound and accessed.
    pub kind: SlotKind,
}

/// The binding class of a [`TensorSlot`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotKind {
    /// A dense input tensor.
    DenseInput,
    /// A compressed input tensor.
    SparseInput,
    /// A dense output tensor (read and written).
    Output,
}

/// A path-tracked (concordant) sparse access.
#[derive(Debug)]
pub struct AccessSlot {
    /// The tensor slot this access reads.
    pub tensor: usize,
    /// The access's subscript count.
    pub rank: usize,
}

/// A lowered statement.
#[derive(Clone, Debug)]
pub enum LStmt {
    /// Statements executed in order.
    Seq(Vec<LStmt>),
    /// A loop over one index, possibly driven by a sparse level.
    Loop {
        /// The index slot this loop binds.
        idx: usize,
        /// The index's full extent (dense iteration space).
        extent: usize,
        /// Dynamic lower bounds; the loop starts at their maximum.
        lo: Vec<LBound>,
        /// Dynamic upper bounds; the loop stops at their minimum.
        hi: Vec<LBound>,
        /// Driver candidates, in priority order. Empty = dense loop.
        drivers: Vec<Advance>,
        /// Non-driving accesses advanced by this loop (position updates).
        probes: Vec<Advance>,
        /// The loop body.
        body: Box<LStmt>,
    },
    /// A residual conditional (not lifted into bounds).
    If {
        /// The guard over bound index slots.
        cond: LCond,
        /// The guarded body.
        body: Box<LStmt>,
    },
    /// A scalar binding.
    Let {
        /// The scalar slot written.
        slot: usize,
        /// The bound value.
        value: LExpr,
        /// Sparse access whose absence makes the whole body a no-op
        /// (common-subexpression `let`s over a driver value).
        skip_if_missing: Option<usize>,
        /// The statements the binding scopes over.
        body: Box<LStmt>,
    },
    /// A scalar accumulator initialized per iteration.
    Workspace {
        /// The scalar slot initialized.
        slot: usize,
        /// The reduction identity it starts from.
        init: f64,
        /// The statements the workspace scopes over.
        body: Box<LStmt>,
    },
    /// A reducing (or overwriting) assignment.
    Assign {
        /// The write target.
        target: LTarget,
        /// The reduction operator.
        op: AssignOp,
        /// The value expression.
        rhs: LExpr,
        /// Whether the right-hand side contains a sparse annihilator read
        /// that can miss at runtime (enables the skip bookkeeping).
        can_miss: bool,
    },
}

/// An access advanced one level by a loop.
#[derive(Clone, Copy, Debug)]
pub struct Advance {
    /// The access slot advanced.
    pub access: usize,
    /// The level (mode) the loop binds for this access.
    pub level: usize,
}

/// A runtime loop bound: `value(idx) + delta`.
#[derive(Clone, Copy, Debug)]
pub struct LBound {
    /// The (outer) index slot the bound reads.
    pub idx: usize,
    /// Signed offset applied to the index value.
    pub delta: i64,
}

/// A lowered condition over bound index slots.
#[derive(Clone, Debug)]
pub enum LCond {
    /// Always true.
    True,
    /// A comparison between two index slots.
    Cmp(CmpOp, usize, usize),
    /// All conjuncts hold.
    And(Vec<LCond>),
    /// Any disjunct holds.
    Or(Vec<LCond>),
}

/// A lowered value expression.
#[derive(Clone, Debug)]
pub enum LExpr {
    /// A literal constant.
    Lit(f64),
    /// A scalar slot read.
    Scalar(usize),
    /// A dense-input element read.
    ReadDense {
        /// The tensor slot read.
        tensor: usize,
        /// Index slots, one per mode.
        modes: Vec<usize>,
    },
    /// An output element read.
    ReadOutput {
        /// The tensor slot read.
        tensor: usize,
        /// Index slots, one per mode.
        modes: Vec<usize>,
    },
    /// Concordant read through the tracked path (O(1)).
    ReadSparsePath {
        /// The access slot whose path is read.
        access: usize,
        /// The tensor slot read.
        tensor: usize,
        /// The access's rank (`paths[access][rank]` is the leaf position).
        rank: usize,
        /// Whether a miss annihilates the enclosing assignment.
        annihilator: bool,
    },
    /// Non-concordant read: per-level binary search from the root.
    ReadSparseRandom {
        /// The tensor slot read.
        tensor: usize,
        /// Index slots, one per mode.
        modes: Vec<usize>,
        /// Whether a miss annihilates the enclosing assignment.
        annihilator: bool,
    },
    /// An n-ary application of a binary operator (left fold).
    Call {
        /// The operator.
        op: BinOp,
        /// The operands (at least one).
        args: Vec<LExpr>,
    },
    /// An index comparison as a 0/1 value.
    CmpVal {
        /// The comparison operator.
        op: CmpOp,
        /// Left index slot.
        a: usize,
        /// Right index slot.
        b: usize,
    },
    /// A table lookup indexed by a computed value.
    Lookup {
        /// The table values.
        table: Vec<f64>,
        /// The index expression (truncated to `usize`).
        index: Box<LExpr>,
    },
}

impl LStmt {
    /// Calls `f` on every statement, parents before children, in program
    /// order.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a LStmt)) {
        self.for_each_dyn(f)
    }

    /// The walk behind [`Self::for_each`], compiled once.
    fn for_each_dyn<'a>(&'a self, f: &mut dyn FnMut(&'a LStmt)) {
        f(self);
        match self {
            LStmt::Seq(ss) => ss.iter().for_each(|s| s.for_each_dyn(f)),
            LStmt::Loop { body, .. }
            | LStmt::If { body, .. }
            | LStmt::Let { body, .. }
            | LStmt::Workspace { body, .. } => body.for_each_dyn(f),
            LStmt::Assign { .. } => {}
        }
    }
}

impl LExpr {
    /// Calls `f` on every node, parents before children, left to right.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a LExpr)) {
        self.for_each_dyn(f)
    }

    /// The walk behind [`Self::for_each`], compiled once.
    fn for_each_dyn<'a>(&'a self, f: &mut dyn FnMut(&'a LExpr)) {
        f(self);
        match self {
            LExpr::Call { args, .. } => args.iter().for_each(|a| a.for_each_dyn(f)),
            LExpr::Lookup { index, .. } => index.for_each_dyn(f),
            _ => {}
        }
    }
}

/// A lowered assignment target.
#[derive(Clone, Debug)]
pub enum LTarget {
    /// An output tensor element.
    Output {
        /// The output tensor slot.
        tensor: usize,
        /// Index slots, one per mode.
        modes: Vec<usize>,
    },
    /// A scalar slot.
    Scalar(usize),
}

type AccessKey = (String, Vec<Index>);

struct Ctx<'a> {
    inputs: &'a HashMap<String, Tensor>,
    outputs: &'a HashMap<String, DenseTensor>,
    tensors: Vec<TensorSlot>,
    tensor_ids: HashMap<String, usize>,
    accesses: Vec<AccessSlot>,
    access_ids: HashMap<AccessKey, usize>,
    indices: Vec<Index>,
    index_ids: HashMap<Index, usize>,
    extents: Vec<usize>,
    /// Loop depth at which each index slot is currently bound.
    bound_at: HashMap<usize, usize>,
    depth: usize,
    /// Next level each tracked access expects to advance (scoped).
    advance_state: HashMap<AccessKey, usize>,
    /// Scalar scope stack: name → slot.
    scalar_scope: Vec<(String, usize)>,
    n_scalars: usize,
}

/// Lowers a (hoisted) program against concrete input/output bindings.
///
/// # Errors
///
/// Returns an [`ExecError`] for unbound tensors, rank or extent
/// mismatches, unbound indices/scalars, or output shape mismatches.
pub fn lower(
    stmt: &Stmt,
    inputs: &HashMap<String, Tensor>,
    outputs: &HashMap<String, DenseTensor>,
) -> Result<LoweredProgram, ExecError> {
    let mut ctx = Ctx {
        inputs,
        outputs,
        tensors: Vec::new(),
        tensor_ids: HashMap::new(),
        accesses: Vec::new(),
        access_ids: HashMap::new(),
        indices: Vec::new(),
        index_ids: HashMap::new(),
        extents: Vec::new(),
        bound_at: HashMap::new(),
        depth: 0,
        advance_state: HashMap::new(),
        scalar_scope: Vec::new(),
        n_scalars: 0,
    };
    ctx.infer_extents(stmt)?;
    let root = ctx.lower_stmt(stmt)?;
    Ok(LoweredProgram {
        tensors: ctx.tensors,
        accesses: ctx.accesses,
        indices: ctx.indices,
        extents: ctx.extents,
        n_scalars: ctx.n_scalars,
        root,
    })
}

impl LoweredProgram {
    /// The inferred extent of a loop index, if the program mentions it.
    pub fn extent_of(&self, index: &Index) -> Option<usize> {
        self.indices.iter().position(|i| i == index).map(|slot| self.extents[slot])
    }
}

impl<'a> Ctx<'a> {
    fn index_slot(&mut self, index: &Index) -> usize {
        if let Some(&s) = self.index_ids.get(index) {
            return s;
        }
        let s = self.indices.len();
        self.indices.push(index.clone());
        self.index_ids.insert(index.clone(), s);
        self.extents.push(0);
        s
    }

    fn tensor_dims(&self, name: &str) -> Result<Vec<usize>, ExecError> {
        if let Some(t) = self.inputs.get(name) {
            Ok(t.dims().to_vec())
        } else if let Some(t) = self.outputs.get(name) {
            Ok(t.dims().to_vec())
        } else {
            Err(ExecError::UnknownTensor { name: name.to_string() })
        }
    }

    fn tensor_slot(&mut self, tref: &TensorRef) -> Result<usize, ExecError> {
        let name = tref.display_name();
        if let Some(&s) = self.tensor_ids.get(&name) {
            return Ok(s);
        }
        let kind = if let Some(t) = self.inputs.get(&name) {
            if self.outputs.contains_key(&name) {
                return Err(ExecError::InputOutputClash { name });
            }
            match t {
                Tensor::Dense(_) => SlotKind::DenseInput,
                Tensor::Sparse(_) => SlotKind::SparseInput,
            }
        } else if self.outputs.contains_key(&name) {
            SlotKind::Output
        } else {
            return Err(ExecError::UnknownTensor { name });
        };
        let s = self.tensors.len();
        self.tensors.push(TensorSlot { name: name.clone(), kind });
        self.tensor_ids.insert(name, s);
        Ok(s)
    }

    /// First pass: infer every index's extent from the accesses.
    fn infer_extents(&mut self, stmt: &Stmt) -> Result<(), ExecError> {
        let mut accesses: Vec<&Access> = Vec::new();
        stmt.for_each_access(&mut |a, _| accesses.push(a));
        for access in accesses {
            let name = access.tensor.display_name();
            let dims = self.tensor_dims(&name)?;
            if dims.len() != access.indices.len() {
                return Err(ExecError::AccessRankMismatch {
                    name,
                    rank: dims.len(),
                    subscripts: access.indices.len(),
                });
            }
            for (mode, index) in access.indices.iter().enumerate() {
                let slot = self.index_slot(index);
                let extent = dims[mode];
                if self.extents[slot] == 0 {
                    self.extents[slot] = extent;
                } else if self.extents[slot] != extent {
                    return Err(ExecError::ExtentMismatch {
                        index: index.clone(),
                        a: self.extents[slot],
                        b: extent,
                    });
                }
            }
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<LStmt, ExecError> {
        match stmt {
            Stmt::Block(ss) => {
                let lowered: Result<Vec<LStmt>, ExecError> =
                    ss.iter().map(|s| self.lower_stmt(s)).collect();
                Ok(LStmt::Seq(lowered?))
            }
            Stmt::Loop { index, body } => self.lower_loop(index, body),
            Stmt::If { cond, body } => {
                let cond = self.lower_cond(cond)?;
                let body = self.lower_stmt(body)?;
                Ok(LStmt::If { cond, body: Box::new(body) })
            }
            Stmt::Let { name, value, body } => {
                let lvalue = self.lower_expr(value)?;
                let slot = self.n_scalars;
                self.n_scalars += 1;
                self.scalar_scope.push((name.clone(), slot));
                let lbody = self.lower_stmt(body)?;
                self.scalar_scope.pop();
                // A `let` binding exactly one sparse tracked access whose
                // scalar annihilates every assignment in the body lets us
                // skip the body when the access is unstored.
                let skip_if_missing = match (&lvalue, value) {
                    (LExpr::ReadSparsePath { access, .. }, Expr::Access(a))
                        if annihilates_everywhere(body, a, &mut vec![(name.clone(), true)]) =>
                    {
                        Some(*access)
                    }
                    _ => None,
                };
                Ok(LStmt::Let { slot, value: lvalue, skip_if_missing, body: Box::new(lbody) })
            }
            Stmt::Workspace { name, init, body } => {
                let slot = self.n_scalars;
                self.n_scalars += 1;
                self.scalar_scope.push((name.clone(), slot));
                let lbody = self.lower_stmt(body)?;
                self.scalar_scope.pop();
                Ok(LStmt::Workspace { slot, init: *init, body: Box::new(lbody) })
            }
            Stmt::Assign { lhs, op, rhs } => {
                let rhs_marked = mark_annihilators(rhs, *op);
                let lrhs = self.lower_expr_marked(&rhs_marked)?;
                let target = match lhs {
                    Lhs::Tensor(access) => {
                        let tensor = self.tensor_slot(&access.tensor)?;
                        if self.tensors[tensor].kind != SlotKind::Output {
                            return Err(ExecError::InputOutputClash {
                                name: access.tensor.display_name(),
                            });
                        }
                        let modes = self.bound_modes(&access.indices)?;
                        LTarget::Output { tensor, modes }
                    }
                    Lhs::Scalar(name) => LTarget::Scalar(self.scalar_lookup(name)?),
                };
                let mut can_miss = false;
                lrhs.for_each(&mut |e| {
                    can_miss |= matches!(
                        e,
                        LExpr::ReadSparsePath { annihilator: true, .. }
                            | LExpr::ReadSparseRandom { annihilator: true, .. }
                    );
                });
                Ok(LStmt::Assign { target, op: *op, rhs: lrhs, can_miss })
            }
        }
    }

    fn scalar_lookup(&self, name: &str) -> Result<usize, ExecError> {
        self.scalar_scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .ok_or_else(|| ExecError::UnboundScalar { name: name.to_string() })
    }

    fn bound_modes(&mut self, indices: &[Index]) -> Result<Vec<usize>, ExecError> {
        indices
            .iter()
            .map(|i| {
                let slot = self.index_slot(i);
                if self.bound_at.contains_key(&slot) {
                    Ok(slot)
                } else {
                    Err(ExecError::UnboundIndex { index: i.clone() })
                }
            })
            .collect()
    }

    fn lower_loop(&mut self, index: &Index, body: &Stmt) -> Result<LStmt, ExecError> {
        let idx = self.index_slot(index);
        if self.extents[idx] == 0 {
            return Err(ExecError::UnknownExtent { index: index.clone() });
        }
        let depth = self.depth;
        self.bound_at.insert(idx, depth);
        self.depth += 1;

        // Split the direct `if` child into bounds and a residual guard.
        let (lo, hi, inner) = self.extract_bounds(idx, body);

        // Find the accesses this loop advances, pick drivers.
        let saved_state = self.advance_state.clone();
        let (drivers, probes) = self.plan_advances(index, &inner)?;

        let lowered_body = self.lower_stmt(&inner)?;

        self.advance_state = saved_state;
        self.depth -= 1;
        self.bound_at.remove(&idx);

        Ok(LStmt::Loop {
            idx,
            extent: self.extents[idx],
            lo,
            hi,
            drivers,
            probes,
            body: Box::new(lowered_body),
        })
    }

    /// Splits comparisons between this loop's index and bound outer
    /// indices out of the loop's direct `if` child, returning
    /// `(lo_bounds, hi_bounds, residual_body)`.
    fn extract_bounds(&self, idx: usize, body: &Stmt) -> (Vec<LBound>, Vec<LBound>, Stmt) {
        let Stmt::If { cond, body: inner } = body else {
            return (Vec::new(), Vec::new(), body.clone());
        };
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        let mut residual = Vec::new();
        for conj in cond.conjuncts() {
            match &conj {
                Cond::Cmp(op, a, b) => {
                    let a_slot = self.index_ids.get(a).copied();
                    let b_slot = self.index_ids.get(b).copied();
                    let (op, this, other) = if a_slot == Some(idx) {
                        (*op, a_slot, b_slot)
                    } else if b_slot == Some(idx) {
                        (op.flip(), b_slot, a_slot)
                    } else {
                        residual.push(conj);
                        continue;
                    };
                    debug_assert_eq!(this, Some(idx));
                    let Some(other) = other else {
                        residual.push(conj);
                        continue;
                    };
                    if !self.bound_at.contains_key(&other) || other == idx {
                        residual.push(conj);
                        continue;
                    }
                    match op {
                        CmpOp::Le => hi.push(LBound { idx: other, delta: 0 }),
                        CmpOp::Lt => hi.push(LBound { idx: other, delta: -1 }),
                        CmpOp::Ge => lo.push(LBound { idx: other, delta: 0 }),
                        CmpOp::Gt => lo.push(LBound { idx: other, delta: 1 }),
                        CmpOp::Eq => {
                            lo.push(LBound { idx: other, delta: 0 });
                            hi.push(LBound { idx: other, delta: 0 });
                        }
                        CmpOp::Ne => residual.push(conj),
                    }
                }
                _ => residual.push(conj),
            }
        }
        (lo, hi, Stmt::guarded(Cond::and(residual), (**inner).clone()))
    }

    /// Determines which sparse accesses this loop advances and which may
    /// drive it.
    fn plan_advances(
        &mut self,
        index: &Index,
        subtree: &Stmt,
    ) -> Result<(Vec<Advance>, Vec<Advance>), ExecError> {
        let mut accesses: Vec<&Access> = Vec::new();
        subtree.for_each_access(&mut |a, op| {
            if op.is_none() {
                accesses.push(a);
            }
        });
        let mut drivers = Vec::new();
        let mut probes = Vec::new();
        let mut seen: Vec<AccessKey> = Vec::new();
        for access in accesses {
            let name = access.tensor.display_name();
            let Some(Tensor::Sparse(sparse)) = self.inputs.get(&name) else {
                continue;
            };
            let key: AccessKey = (name.clone(), access.indices.clone());
            if seen.contains(&key) {
                continue;
            }
            seen.push(key.clone());
            // Mode this loop binds for the access; a repeated index is
            // non-concordant.
            let positions: Vec<usize> = access
                .indices
                .iter()
                .enumerate()
                .filter(|(_, i)| *i == index)
                .map(|(m, _)| m)
                .collect();
            let [m] = positions.as_slice() else {
                continue;
            };
            let m = *m;
            // All earlier modes must already be bound (at outer loops),
            // all later modes must be unbound.
            let earlier_bound = access.indices[..m].iter().all(|i| {
                self.index_ids
                    .get(i)
                    .is_some_and(|s| self.bound_at.get(s).is_some_and(|&d| d < self.depth - 1))
            });
            let later_unbound = access.indices[m + 1..]
                .iter()
                .all(|i| self.index_ids.get(i).is_none_or(|s| !self.bound_at.contains_key(s)));
            if !earlier_bound || !later_unbound {
                continue;
            }
            // Tracking must proceed level by level.
            let next = self.advance_state.get(&key).copied().unwrap_or(0);
            if next != m {
                continue;
            }
            let tensor = self.tensor_slot(&access.tensor)?;
            let slot = *self.access_ids.entry(key.clone()).or_insert_with(|| {
                self.accesses.push(AccessSlot { tensor, rank: access.indices.len() });
                self.accesses.len() - 1
            });
            self.advance_state.insert(key, m + 1);
            let advance = Advance { access: slot, level: m };
            let is_compressed_level =
                matches!(sparse.formats()[m], LevelFormat::Sparse | LevelFormat::RunLength);
            if is_compressed_level && annihilates_everywhere(subtree, access, &mut Vec::new()) {
                drivers.push(advance);
            } else {
                probes.push(advance);
            }
        }
        Ok((drivers, probes))
    }

    fn lower_cond(&mut self, cond: &Cond) -> Result<LCond, ExecError> {
        Ok(match cond {
            Cond::True => LCond::True,
            Cond::Cmp(op, a, b) => {
                let sa = self.bound_modes(std::slice::from_ref(a))?[0];
                let sb = self.bound_modes(std::slice::from_ref(b))?[0];
                LCond::Cmp(*op, sa, sb)
            }
            Cond::And(cs) => {
                LCond::And(cs.iter().map(|c| self.lower_cond(c)).collect::<Result<_, _>>()?)
            }
            Cond::Or(cs) => {
                LCond::Or(cs.iter().map(|c| self.lower_cond(c)).collect::<Result<_, _>>()?)
            }
        })
    }

    fn lower_expr(&mut self, expr: &Expr) -> Result<LExpr, ExecError> {
        self.lower_expr_marked(&MarkedExpr { expr: expr.clone(), annihilators: Vec::new() })
    }

    fn lower_expr_marked(&mut self, marked: &MarkedExpr) -> Result<LExpr, ExecError> {
        self.lower_expr_inner(&marked.expr, &marked.annihilators)
    }

    fn lower_expr_inner(
        &mut self,
        expr: &Expr,
        annihilators: &[Access],
    ) -> Result<LExpr, ExecError> {
        Ok(match expr {
            Expr::Literal(v) => LExpr::Lit(*v),
            Expr::Scalar(name) => LExpr::Scalar(self.scalar_lookup(name)?),
            Expr::Access(access) => {
                let tensor = self.tensor_slot(&access.tensor)?;
                let modes = self.bound_modes(&access.indices)?;
                let annihilator = annihilators.contains(access);
                match self.tensors[tensor].kind {
                    SlotKind::DenseInput => LExpr::ReadDense { tensor, modes },
                    SlotKind::Output => LExpr::ReadOutput { tensor, modes },
                    SlotKind::SparseInput => {
                        let key: AccessKey = (access.tensor.display_name(), access.indices.clone());
                        let fully_tracked = self
                            .advance_state
                            .get(&key)
                            .is_some_and(|&next| next == access.indices.len());
                        match (fully_tracked, self.access_ids.get(&key)) {
                            (true, Some(&slot)) => LExpr::ReadSparsePath {
                                access: slot,
                                tensor,
                                rank: access.indices.len(),
                                annihilator,
                            },
                            _ => LExpr::ReadSparseRandom { tensor, modes, annihilator },
                        }
                    }
                }
            }
            Expr::Call { op, args } => LExpr::Call {
                op: *op,
                args: args
                    .iter()
                    .map(|a| self.lower_expr_inner(a, annihilators))
                    .collect::<Result<_, _>>()?,
            },
            Expr::CmpVal { op, lhs, rhs } => {
                let a = self.bound_modes(std::slice::from_ref(lhs))?[0];
                let b = self.bound_modes(std::slice::from_ref(rhs))?[0];
                LExpr::CmpVal { op: *op, a, b }
            }
            Expr::Lookup { table, index } => LExpr::Lookup {
                table: table.clone(),
                index: Box::new(self.lower_expr_inner(index, annihilators)?),
            },
        })
    }
}

struct MarkedExpr {
    expr: Expr,
    annihilators: Vec<Access>,
}

/// Collects the sparse accesses in *annihilating position* of an
/// assignment: for `+=`, factors of the top-level product; for
/// `min=`/`max=`, summands of the top-level sum (tropical product).
fn mark_annihilators(rhs: &Expr, op: AssignOp) -> MarkedExpr {
    let mut annihilators = Vec::new();
    if let Some(payload) = annihilating_op(op) {
        match rhs {
            Expr::Access(a) => annihilators.push(a.clone()),
            Expr::Call { op, args } if *op == payload => {
                for arg in args {
                    if let Expr::Access(a) = arg {
                        annihilators.push(a.clone());
                    }
                }
            }
            _ => {}
        }
    }
    MarkedExpr { expr: rhs.clone(), annihilators }
}

/// The operator whose operands annihilate an `op` assignment when one of
/// them reads its fill value: the product for `+=`, the tropical product
/// (a sum) for `min=`/`max=`; an overwrite has none.
fn annihilating_op(op: AssignOp) -> Option<BinOp> {
    match op {
        AssignOp::Add => Some(BinOp::Mul),
        AssignOp::Min | AssignOp::Max => Some(BinOp::Add),
        AssignOp::Overwrite => None,
    }
}

/// Returns `true` if every assignment in `stmt` annihilates when
/// `access` reads its fill value — the soundness condition for letting
/// `access` drive a loop (skip unstored coordinates), or for skipping a
/// `let` body when the access it binds is unstored. `bound_scalars`
/// records, per enclosing `let`, whether its scalar aliases the access.
fn annihilates_everywhere(
    stmt: &Stmt,
    access: &Access,
    bound_scalars: &mut Vec<(String, bool)>,
) -> bool {
    match stmt {
        Stmt::Let { name, value, body } => {
            // A scalar is an alias for the access either directly or
            // transitively through another alias (loop-invariant code
            // motion introduces such chains).
            let is_alias = match value {
                Expr::Access(a) => a == access,
                Expr::Scalar(n) => scalar_is_alias(n, bound_scalars),
                _ => false,
            };
            bound_scalars.push((name.clone(), is_alias));
            let ok = annihilates_everywhere(body, access, bound_scalars);
            bound_scalars.pop();
            ok
        }
        Stmt::Assign { op, rhs, .. } => {
            let refers = |e: &Expr| match e {
                Expr::Access(a) => a == access,
                Expr::Scalar(name) => scalar_is_alias(name, bound_scalars),
                _ => false,
            };
            match (annihilating_op(*op), rhs) {
                (None, _) => false,
                (_, e) if refers(e) => true,
                (Some(payload), Expr::Call { op, args }) if *op == payload => {
                    args.iter().any(refers)
                }
                _ => false,
            }
        }
        other => other.children().iter().all(|s| annihilates_everywhere(s, access, bound_scalars)),
    }
}

fn scalar_is_alias(name: &str, bound_scalars: &[(String, bool)]) -> bool {
    bound_scalars.iter().rev().find(|(n, _)| n == name).is_some_and(|(_, is_access)| *is_access)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systec_ir::build::*;
    use systec_tensor::{CooTensor, SparseTensor, CSR};

    fn bindings() -> (HashMap<String, Tensor>, HashMap<String, DenseTensor>) {
        let mut coo = CooTensor::new(vec![4, 4]);
        coo.push(&[0, 1], 1.0);
        coo.push(&[2, 3], 2.0);
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), Tensor::Sparse(SparseTensor::from_coo(&coo, &CSR).unwrap()));
        inputs.insert("x".to_string(), Tensor::Dense(DenseTensor::zeros(vec![4])));
        let mut outputs = HashMap::new();
        outputs.insert("y".to_string(), DenseTensor::zeros(vec![4]));
        (inputs, outputs)
    }

    fn spmv() -> Stmt {
        Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        )
    }

    #[test]
    fn lowers_spmv_with_inner_driver() {
        let (inputs, outputs) = bindings();
        let p = lower(&spmv(), &inputs, &outputs).unwrap();
        assert_eq!(p.extent_of(&Index::new("i")), Some(4));
        // Outer loop over i advances A at level 0 (dense -> probe);
        // inner loop over j drives from A's sparse level 1.
        let LStmt::Loop { drivers, probes, body, .. } = &p.root else {
            panic!("expected outer loop");
        };
        assert!(drivers.is_empty());
        assert_eq!(probes.len(), 1);
        let LStmt::Loop { drivers, .. } = body.as_ref() else {
            panic!("expected inner loop");
        };
        assert_eq!(drivers.len(), 1);
        assert_eq!(drivers[0].level, 1);
    }

    #[test]
    fn bounds_extracted_from_guard() {
        let (inputs, outputs) = bindings();
        // for j, i: if i <= j: y[i] += A[i, j] * x[j]  — discordant loop
        // order, so A reads are random access, but the i bound still lifts.
        let s = Stmt::loops(
            [idx("j"), idx("i")],
            Stmt::guarded(
                le("i", "j"),
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
            ),
        );
        let p = lower(&s, &inputs, &outputs).unwrap();
        let LStmt::Loop { body, .. } = &p.root else { panic!() };
        let LStmt::Loop { hi, lo, .. } = body.as_ref() else { panic!() };
        assert_eq!(hi.len(), 1);
        assert_eq!(hi[0].delta, 0);
        assert!(lo.is_empty());
    }

    #[test]
    fn ne_condition_stays_residual() {
        let (inputs, outputs) = bindings();
        let s = Stmt::loops(
            [idx("j"), idx("i")],
            Stmt::guarded(
                ne("i", "j"),
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
            ),
        );
        let p = lower(&s, &inputs, &outputs).unwrap();
        let LStmt::Loop { body, .. } = &p.root else { panic!() };
        let LStmt::Loop { hi, body, .. } = body.as_ref() else { panic!() };
        assert!(hi.is_empty());
        assert!(matches!(body.as_ref(), LStmt::If { .. }));
    }

    #[test]
    fn eq_condition_becomes_point_bounds() {
        let (inputs, outputs) = bindings();
        let s = Stmt::loops(
            [idx("j"), idx("i")],
            Stmt::guarded(
                eq("i", "j"),
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
            ),
        );
        let p = lower(&s, &inputs, &outputs).unwrap();
        let LStmt::Loop { body, .. } = &p.root else { panic!() };
        let LStmt::Loop { hi, lo, .. } = body.as_ref() else { panic!() };
        assert_eq!((lo.len(), hi.len()), (1, 1));
    }

    #[test]
    fn unknown_tensor_is_reported() {
        let (inputs, outputs) = bindings();
        let s = Stmt::loops([idx("i")], assign(access("y", ["i"]), access("zzz", ["i"]).into()));
        match lower(&s, &inputs, &outputs) {
            Err(ExecError::UnknownTensor { name }) => assert_eq!(name, "zzz"),
            other => panic!("expected UnknownTensor, got {other:?}"),
        }
    }

    #[test]
    fn rank_mismatch_is_reported() {
        let (inputs, outputs) = bindings();
        let s = Stmt::loops([idx("i")], assign(access("y", ["i"]), access("A", ["i"]).into()));
        assert!(matches!(lower(&s, &inputs, &outputs), Err(ExecError::AccessRankMismatch { .. })));
    }

    #[test]
    fn extent_conflict_is_reported() {
        let (inputs, outputs) = bindings();
        // x has extent 4; using i for both A's mode 0 (4) is fine, but a
        // 3-element output clashes.
        let mut outputs = outputs;
        outputs.insert("z".to_string(), DenseTensor::zeros(vec![3]));
        let s = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::block([
                assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
                assign(access("z", ["i"]), access("x", ["i"]).into()),
            ]),
        );
        assert!(matches!(lower(&s, &inputs, &outputs), Err(ExecError::ExtentMismatch { .. })));
    }

    #[test]
    fn writing_to_input_is_rejected() {
        let (inputs, outputs) = bindings();
        let s = Stmt::loops([idx("i"), idx("j")], assign(access("A", ["i", "j"]), lit(1.0)));
        assert!(matches!(lower(&s, &inputs, &outputs), Err(ExecError::InputOutputClash { .. })));
    }

    #[test]
    fn unbound_scalar_is_rejected() {
        let (inputs, outputs) = bindings();
        let s = Stmt::loops([idx("i")], assign(access("y", ["i"]), scalar("nope")));
        assert!(matches!(lower(&s, &inputs, &outputs), Err(ExecError::UnboundScalar { .. })));
    }

    #[test]
    fn overwrite_assignment_disables_driver() {
        let (inputs, outputs) = bindings();
        // y[i] = A[i, j] — an overwrite must not skip unstored coords.
        let s = Stmt::loops(
            [idx("i"), idx("j")],
            store(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        let p = lower(&s, &inputs, &outputs).unwrap();
        let LStmt::Loop { body, .. } = &p.root else { panic!() };
        let LStmt::Loop { drivers, probes, .. } = body.as_ref() else { panic!() };
        assert!(drivers.is_empty());
        assert_eq!(probes.len(), 1);
    }

    #[test]
    fn min_assignment_with_add_rhs_allows_driver() {
        let (inputs, outputs) = bindings();
        // Bellman-Ford: y[i] min= A[i, j] + x[j] (concordant order i, j).
        let s = Stmt::loops(
            [idx("i"), idx("j")],
            assign_op(
                access("y", ["i"]),
                systec_ir::AssignOp::Min,
                add([access("A", ["i", "j"]), access("x", ["j"])]),
            ),
        );
        let p = lower(&s, &inputs, &outputs).unwrap();
        let LStmt::Loop { body, .. } = &p.root else { panic!() };
        let LStmt::Loop { drivers, .. } = body.as_ref() else { panic!() };
        assert_eq!(drivers.len(), 1);
    }
}
