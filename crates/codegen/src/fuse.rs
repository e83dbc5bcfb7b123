//! Fused bodies: the one executable form of a vector-loop body, and the
//! runner that executes it.
//!
//! An innermost loop body that dominates a real kernel (axpy, dot,
//! scale-store, gathered variants, MTTKRP/TTM-style multi-store jams)
//! is a fixed sequence of loads feeding a fixed sequence of folds.
//! `crate::compile` appends exactly that — loads into local slots, folds
//! over locals and loop-invariant registers, a positional miss mask per
//! fold, a bulk counter recipe — through a [`BodyBuilder`] as it walks
//! the body, and `crate::vm` executes the sealed [`Fused`] form with
//! monomorphized unit-stride loops (no register-file traffic,
//! accumulators held in machine registers, invariant counter
//! contributions accounted in bulk).
//!
//! ## What conforms
//!
//! A loop vectorizes when every guarded item of its body seals
//! ([`BodyBuilder::seal`]: at least one fold, within the load / fold /
//! operand caps below) and the items are [`independent`]:
//!
//! * every fold operand is an earlier load of its own body or a register
//!   nothing in the loop writes (so its value is loop-invariant and can
//!   be snapshot once at loop entry);
//! * no operand reads, and no load rebinds, a scalar slot some fold of
//!   the loop accumulates into, and each such slot has one fold (the
//!   runners hold accumulators in machine registers, so intra-loop
//!   read-back would observe stale values);
//! * no loop-invariant output cell is accumulated by two items.
//!
//! Everything else stays on the general `*LoopHead` / `*LoopNext` path,
//! which is the semantic reference for every non-conforming loop
//! (`tests/fused_bodies.rs` pins both directions).
//!
//! ## Runners
//!
//! Sealing a body is also where its [`Runner`] is chosen — the one
//! decision site, from the body's lists and whether its loop is an
//! intersection: the canonical dot chain over the driver value runs
//! closed-form against a strided dense operand (`Dot`, and SSYMV's
//! `DotAxpy` pair) or against the probe (`ProbeDot`), and every other
//! body runs `Generic`. The one later rewrite is a `ProbeDot` re-driven
//! from its probed side as `WorkspaceDot` (below), decided by the
//! compiler from where the loop sits. The runner carries the operands it
//! reads (the dense operand, the axpy stride, the probed tensor, the
//! workspace); the VM dispatches on it, and nothing matches shapes at
//! loop entry.
//!
//! ## Workspace rows
//!
//! A `ProbeDot` intersection whose driver fiber the innermost enclosing
//! loop never rebinds while it rebinds the probed one — SSYRK's `C[i,j]
//! += A[i,k]·A[j,k]`: row `i` is fixed across the `j` loop, row `j` is
//! not — merges the same driver fiber against every probed fiber of that
//! loop. `crate::compile` then scatters the driver fiber once per outer
//! iteration, in front of the enclosing loop's head, and turns the
//! intersection into a compressed loop over the *probed* fiber whose body
//! [`workspace_form`] re-drives: `Runner::WorkspaceDot` folds only the
//! coordinates the scattered fiber holds (Chou et al.'s `locate` on a
//! dense workspace level). The workspace records membership, not a
//! zero fill: folding `0 ∘ b` for non-members would turn a `−0.0` sum
//! into `+0.0` and `0·inf` into NaN, break min-plus, and miscount.
//!
//! Two shapes keep `ProbeDot`: probes into dense or run-length levels (a
//! dense probe is already a constant-time locate, and neither can drive
//! a compressed loop — the naive `csr*dense` and `csr*dense-rle` cells of
//! `tests/golden/dispatch.golden`), and intersections whose driver and
//! probe both vary under the innermost enclosing loop (`y[i] +=
//! A[i,k]·B[i,k]`: each driver fiber meets one probed fiber, so a scatter
//! would be read once). No paper kernel reaches either.
//!
//! ## Row nests
//!
//! One level up, [`row_nest`] recognizes a whole two-deep loop nest — a
//! row loop whose body is scalar prologue / epilogue steps around one
//! innermost vector loop whose body runs `Dot`, `DotAxpy` or
//! `WorkspaceDot` — in the instruction run a loop just emitted, and
//! `crate::compile` replaces that run with a single [`RowNest`]
//! instruction the VM resolves once per run instead of once per row.
//!
//! ## Exactness
//!
//! Loads never depend on fold side effects (they read inputs, folds
//! write outputs and scalar slots), so hoisting all loads of a
//! coordinate before its folds preserves values exactly; fold order —
//! and each fold's left-to-right operand order — is the body's, so
//! floating-point results are bit-identical to the interpreter's. Miss
//! scoping is positional (a `set_miss` load arms the flag, the next
//! fold consumes and clears it): each [`FFold`] records exactly the
//! `set_miss` loads between it and the previous fold as its miss mask,
//! which reproduces that scoping without a mutable flag.

use crate::bytecode::{
    BulkCounts, ClosedForm, DenseOperand, DotShape, FAcc, FFold, FLoad, FOp, Fused, Instr,
    NestRows, RowNest, Runner, VItem, Workspace,
};
use systec_ir::{AssignOp, BinOp};

/// Load cap: bodies with more per-coordinate loads than this do not
/// vectorize (the largest paper kernel, 5-d MTTKRP, uses 5).
pub(crate) const MAX_FUSED_LOADS: usize = 6;
/// Fold cap (5-d MTTKRP's canonical body stores into 5 factor rows).
pub(crate) const MAX_FUSED_FOLDS: usize = 6;
/// Per-fold operand cap (MTTKRP-5's folds are 6-ary).
pub(crate) const MAX_FUSED_SRCS: usize = 6;

/// A fused body under construction: `crate::compile` appends loads and
/// folds in body order, then [`BodyBuilder::seal`]s it into an item.
#[derive(Default)]
pub(crate) struct BodyBuilder {
    loads: Vec<FLoad>,
    /// The register each load binds, by local (`None`: an anonymous
    /// assignment operand, only ever read through its local).
    dsts: Vec<Option<usize>>,
    folds: Vec<FFold>,
    /// Per-iteration element reads (driver and dense loads).
    reads: Vec<(usize, u64)>,
    /// `set_miss` locals since the previous fold (positional miss scope).
    pending_miss: Vec<usize>,
}

impl BodyBuilder {
    pub(crate) fn is_empty(&self) -> bool {
        self.loads.is_empty() && self.folds.is_empty()
    }

    /// Appends a load binding `dst` and returns its local. `counted` is
    /// the tensor whose element read the load counts per iteration
    /// (probe and gather reads count per hit, in the runners).
    pub(crate) fn load(&mut self, dst: Option<usize>, load: FLoad, counted: Option<usize>) -> FOp {
        let local = self.loads.len();
        if let FLoad::Probe { set_miss: true, .. } | FLoad::Gather { set_miss: true, .. } = load {
            self.pending_miss.push(local);
        }
        if let Some(tensor) = counted {
            bump_read(&mut self.reads, tensor);
        }
        self.loads.push(load);
        self.dsts.push(dst);
        FOp::Local(local)
    }

    /// The operand reading register `reg`: the latest load that bound
    /// it, else the register itself ([`independent`] then requires it
    /// loop-invariant).
    pub(crate) fn operand(&self, reg: usize) -> FOp {
        match self.dsts.iter().rposition(|&d| d == Some(reg)) {
            Some(local) => FOp::Local(local),
            None => FOp::Reg(reg),
        }
    }

    /// Appends `acc op= fold(bin, srcs)`, gated by the `set_miss` loads
    /// since the previous fold.
    pub(crate) fn fold(
        &mut self,
        acc: FAcc,
        bin: BinOp,
        op: AssignOp,
        srcs: Vec<FOp>,
        check_miss: bool,
    ) {
        let miss = std::mem::take(&mut self.pending_miss).into();
        self.folds.push(FFold { acc, bin, op, srcs: srcs.into(), check_miss, miss });
    }

    /// The registers the body's loads bind.
    pub(crate) fn bound(&self) -> impl Iterator<Item = usize> + '_ {
        self.dsts.iter().flatten().copied()
    }

    /// Seals the body and picks its [`Runner`] (`isect`: the loop is a
    /// two-way intersection); `None` when it has no fold or exceeds a
    /// cap (the loop then stays on the general path).
    pub(crate) fn seal(self, isect: bool) -> Option<Fused> {
        let BodyBuilder { loads, folds, reads, .. } = self;
        let fits = !folds.is_empty()
            && loads.len() <= MAX_FUSED_LOADS
            && folds.len() <= MAX_FUSED_FOLDS
            && folds.iter().all(|fold| fold.srcs.len() <= MAX_FUSED_SRCS);
        if !fits {
            return None;
        }
        // The loop-invariant per-iteration counter contributions: fold
        // flops always; the store side (write + reduce flop) only when
        // unguarded — miss-checked store sides count per hit.
        let mut bulk = BulkCounts { reads: reads.into(), flops: 0, writes: 0 };
        for fold in &folds {
            bulk.flops += fold.srcs.len() as u64 - 1;
            if !fold.check_miss {
                bulk.flops += u64::from(fold.op != AssignOp::Overwrite);
                bulk.writes += u64::from(matches!(fold.acc, FAcc::Out { .. }));
            }
        }
        let runner = runner(&loads, &folds, isect);
        let lanes = lane_count(&folds);
        Some(Fused { runner, loads: loads.into(), folds: folds.into(), bulk, lanes })
    }
}

/// The one runner decision: a closed form when the body is the
/// canonical dot chain over the driver value — against a strided dense
/// operand on an unprobed driver ([`ClosedForm::Dot`], and SSYMV's pair
/// [`ClosedForm::DotAxpy`]), against the probe in an intersection
/// ([`Runner::ProbeDot`]) — and [`Runner::Generic`] for everything else.
fn runner(loads: &[FLoad], folds: &[FFold], isect: bool) -> Runner {
    // Register-held: a scalar slot or a loop-invariant output cell.
    let held = |fold: &FFold| matches!(fold.acc, FAcc::Scalar { .. } | FAcc::Out { stride: 0, .. });
    let closed = |x: &FLoad, form| match x {
        FLoad::Dense { tensor, base, stride } => Some(Runner::Closed {
            x: DenseOperand { tensor: *tensor, base: base.clone(), stride: *stride },
            form,
        }),
        _ => None,
    };
    let picked = match folds {
        [fold] if held(fold) => dot_shape(loads, fold).and_then(|chain| match &loads[chain.b] {
            FLoad::Probe { tensor, set_miss: true }
                if isect && fold.check_miss && *fold.miss == [chain.b] =>
            {
                Some(Runner::ProbeDot { chain, probe: *tensor })
            }
            x if !isect && !fold.check_miss => closed(x, ClosedForm::Dot(chain)),
            _ => None,
        }),
        [dot, axpy @ FFold { acc: FAcc::Out { stride, .. }, .. }]
            if !isect && !dot.check_miss && !axpy.check_miss && *stride != 0 =>
        {
            dot_shape(loads, dot).and_then(|chain| {
                let FAcc::Scalar { slot } = dot.acc else { return None };
                let (scale, scale_first) = axpy_scale(axpy, chain.a)?;
                let form = ClosedForm::DotAxpy { slot, scale, scale_first, stride: *stride };
                let plain = chain.n_lead == 0 && chain.mid.is_none();
                closed(&loads[chain.b], form).filter(|_| plain)
            })
        }
        _ => None,
    };
    picked.unwrap_or(Runner::Generic)
}

/// The workspace form of a `ProbeDot` body of dot shape `chain`,
/// re-driven from its probed side against `ws`: the driver's load
/// becomes the [`FLoad::Scattered`] read whose miss gates the store, the
/// probe's load the driver value. Folds, operand order and the bulk
/// recipe (now per scattered coordinate) stay, and the body folds at one
/// lane, as the compressed probe it replaces did.
pub(crate) fn workspace_form(body: &Fused, chain: DotShape, ws: Workspace) -> Fused {
    let mut loads = body.loads.clone();
    loads[chain.a] = FLoad::Scattered;
    loads[chain.b] = FLoad::Val;
    let mut folds = body.folds.clone();
    folds[0].miss = Box::new([chain.a]);
    Fused {
        runner: Runner::WorkspaceDot { chain, ws },
        loads,
        folds,
        bulk: body.bulk.clone(),
        lanes: 1,
    }
}

/// Whether the items of one loop may run off entry-time snapshots and
/// register-held accumulators — alone or, when several guards pass at
/// once, coordinate-major side by side. `bound` lists every register a
/// load of the loop binds.
pub(crate) fn independent(items: &[VItem], bound: &[usize]) -> bool {
    let folds = || items.iter().flat_map(|item| item.body.folds.iter());
    // Scalar slots the loop accumulates into, one fold each.
    let mut slots: Vec<usize> = Vec::new();
    for fold in folds() {
        if let FAcc::Scalar { slot } = fold.acc {
            if slots.contains(&slot) || bound.contains(&slot) {
                return false;
            }
            slots.push(slot);
        }
    }
    // Loop-invariant output cells, one item each: a single fold's is
    // register-held, and another item's stores would go around it.
    let mut cells: Vec<usize> = Vec::new();
    for item in items {
        let others = cells.len();
        for fold in item.body.folds.iter() {
            if let FAcc::Out { tensor, stride: 0, .. } = fold.acc {
                if cells[..others].contains(&tensor) {
                    return false;
                }
                cells.push(tensor);
            }
        }
    }
    // Register operands are snapshot at entry: nothing in the loop may
    // write them (a load's register read before the load would see the
    // previous coordinate's value, which no snapshot reproduces).
    folds().flat_map(|fold| fold.srcs.iter()).all(|src| match src {
        FOp::Reg(reg) => !slots.contains(reg) && !bound.contains(reg),
        FOp::Local(_) => true,
    })
}

/// The virtual lane count the runners may use for this body under
/// [`crate::LaneMode::Lanes`].
///
/// A fold whose accumulator is **register-held** across the loop — a
/// scalar slot, or the single fold's loop-invariant output cell
/// (`stride == 0`; the same condition `vm::resolve` uses to hold a
/// cell in a register) — is laneable only when its reduction operator
/// has an identity: the lanes are seeded with the identity and merged
/// lane 0 → 7 after the loop, which changes the association but not
/// the participant set. `Overwrite` accumulations (last-write-wins)
/// and operators without an identity pin the body to one lane.
/// Elementwise (strided) folds store per coordinate in original order
/// either way, so they never constrain the lane count.
fn lane_count(folds: &[FFold]) -> u8 {
    let single_fold = folds.len() == 1;
    let lane_ok = folds.iter().all(|fold| {
        let register_held = match &fold.acc {
            FAcc::Scalar { .. } => true,
            FAcc::Out { stride, .. } => *stride == 0 && single_fold,
        };
        !register_held || fold.op.identity().is_some()
    });
    if lane_ok {
        crate::vm::LANES as u8
    } else {
        1
    }
}

/// One more element read of `tensor` in a per-tensor read recipe.
fn bump_read(reads: &mut Vec<(usize, u64)>, tensor: usize) {
    match reads.iter_mut().find(|(t, _)| *t == tensor) {
        Some((_, n)) => *n += 1,
        None => reads.push((tensor, 1)),
    }
}

// ---------------------------------------------------------------------------
// Closed forms and row nests
// ---------------------------------------------------------------------------

/// Matches `fold` against the canonical dot chain `[lead regs…,
/// Local(a), (Reg mid)?, Local(b)]` of a two-load body whose load `a`
/// is the driver value; `None` = some other shape.
fn dot_shape(loads: &[FLoad], fold: &FFold) -> Option<DotShape> {
    let n_lead = fold.srcs.iter().take_while(|op| matches!(op, FOp::Reg(_))).count();
    let (a, mid, b) = match fold.srcs[n_lead..] {
        [FOp::Local(a), FOp::Reg(mid), FOp::Local(b)] => (a, Some(mid), b),
        [FOp::Local(a), FOp::Local(b)] => (a, None, b),
        _ => return None,
    };
    let canonical = loads.len() == 2 && a != b && matches!(loads[a], FLoad::Val);
    canonical.then_some(DotShape { n_lead, a, mid, b })
}

/// The axpy side of a dot-axpy pair — the driver value (load `a`) times
/// one invariant register — as `(register, register comes first)`.
fn axpy_scale(axpy: &FFold, a: usize) -> Option<(usize, bool)> {
    match axpy.srcs.as_ref() {
        [FOp::Local(l), FOp::Reg(r)] if *l == a => Some((*r, false)),
        [FOp::Reg(r), FOp::Local(l)] if *l == a => Some((*r, true)),
        _ => None,
    }
}

/// Prologue / epilogue cap per side (the paper kernels use at most two).
pub(crate) const MAX_NEST_STEPS: usize = 4;

/// Recognizes a [`RowNest`] in the instruction run one just-compiled
/// loop emitted (head through advance). `None` keeps the sequence.
pub(crate) fn row_nest(instrs: &[Instr]) -> Option<RowNest> {
    let (head, body) = instrs.split_first()?;
    let (next, body) = body.split_last()?;
    // The row loop: a counted head whose first body instruction probes
    // the row's position, or a compressed head binding it directly.
    // Either way `child` is the position register the inner loop must
    // descend from.
    let (idx, tensor, level, parent, child, rows, lo, hi, body) = match (head, next, body) {
        (
            Instr::DenseLoopHead { idx, extent, lo, hi, .. },
            Instr::DenseLoopNext { .. },
            [Instr::Probe { tensor, level, parent, child, idx: pidx }, body @ ..],
        ) if pidx == idx => (
            *idx,
            *tensor,
            *level,
            *parent,
            *child,
            NestRows::Counted { extent: *extent },
            lo,
            hi,
            body,
        ),
        (
            Instr::SparseLoopHead { tensor, level, idx, parent, child, lo, hi, .. },
            Instr::SparseLoopNext { .. },
            body,
        ) => (*idx, *tensor, *level, *parent, *child, NestRows::Stored, lo, hi, body),
        _ => return None,
    };
    let n_pre = body
        .iter()
        .take_while(|i| matches!(i, Instr::InitScalar { .. } | Instr::ReadDense { .. }))
        .count();
    let (pre, rest) = body.split_at(n_pre);
    let (inner, post) = rest.split_first()?;
    let (rle, inner_lo, inner_hi, items) = match inner {
        Instr::VecSparseLoop { tensor: t, level: l, parent: p, lo, hi, items, .. }
            if (*t, *l, *p) == (tensor, level + 1, child) =>
        {
            (false, lo, hi, items)
        }
        Instr::VecRleLoop { tensor: t, level: l, parent: p, lo, hi, items, .. }
            if (*t, *l, *p) == (tensor, level + 1, child) =>
        {
            (true, lo, hi, items)
        }
        _ => return None,
    };
    let [VItem { guard, body: fused, .. }] = items.as_ref() else {
        return None;
    };
    // Inner bounds over the row index only: the VM keeps them as deltas.
    let fits = guard.is_empty()
        && inner_lo.iter().chain(inner_hi.iter()).all(|b| b.reg == idx)
        && matches!(fused.runner, Runner::Closed { .. } | Runner::WorkspaceDot { .. })
        && pre.len() <= MAX_NEST_STEPS
        && post.len() <= MAX_NEST_STEPS
        && post.iter().all(|i| matches!(i, Instr::WriteOutput { .. } | Instr::WriteScalar { .. }));
    // The scalar steps' counters, per row: a read per `ReadDense`, a
    // write and its reduce flop per `WriteOutput`, the reduce flop of a
    // `WriteScalar`.
    let mut per_row = BulkCounts::default();
    let mut reads: Vec<(usize, u64)> = Vec::new();
    for step in pre.iter().chain(post) {
        match step {
            Instr::ReadDense { tensor, .. } => bump_read(&mut reads, *tensor),
            Instr::WriteOutput { op, .. } | Instr::WriteScalar { op, .. } => {
                per_row.writes += u64::from(matches!(step, Instr::WriteOutput { .. }));
                per_row.flops += u64::from(*op != AssignOp::Overwrite);
            }
            _ => {}
        }
    }
    per_row.reads = reads.into();
    fits.then(|| RowNest {
        idx,
        tensor,
        level,
        parent,
        rows,
        lo: lo.clone(),
        hi: hi.clone(),
        pre: pre.into(),
        rle,
        inner_lo: inner_lo.clone(),
        inner_hi: inner_hi.clone(),
        fused: fused.clone(),
        post: post.into(),
        per_row,
    })
}
