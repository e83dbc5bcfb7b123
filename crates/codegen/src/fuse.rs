//! Fused-body selection: compile-time specialization of vector-loop
//! step lists into closed-form [`Fused`] bodies.
//!
//! A [`crate::bytecode::VItem`] step list is a tiny interpreted program
//! the VM dispatches *per coordinate* — a match per step, operand
//! traffic through the `f` register file, and per-step miss/guard
//! bookkeeping. For the bodies that dominate real kernels (axpy, dot,
//! scale-store, gathered variants, and MTTKRP/TTM-style multi-store
//! jams) that machinery is pure overhead: the body is a fixed sequence
//! of loads feeding a fixed sequence of folds. This module recognizes
//! those shapes at compile time and lowers them to the [`Fused`] form —
//! loads into local slots, folds over locals and loop-invariant
//! registers, a positional miss mask per fold, and a bulk counter
//! recipe — which `crate::vm` executes with monomorphized unit-stride
//! loops (no step dispatch, no register-file traffic, accumulators held
//! in machine registers, invariant counter contributions accounted in
//! bulk).
//!
//! ## What fuses
//!
//! A body fuses when it is a straight line of load steps
//! ([`VStep::Load`] / [`VStep::LoadVal`] / [`VStep::LoadProbe`] /
//! [`VStep::LoadGather`]) and fold steps ([`VStep::FoldOut`] /
//! [`VStep::FoldScalar`]) such that:
//!
//! * every fold operand is either a load of this body or a register no
//!   step of the body writes (so its value is loop-invariant and can be
//!   snapshot once at loop entry);
//! * no fold operand reads a scalar slot some fold of the body
//!   accumulates into (the runners hold accumulators in machine
//!   registers, so intra-loop read-back would observe stale values);
//! * the body fits the (generous) load/fold/operand caps below.
//!
//! Everything else keeps the step list — selection never changes
//! results or counters, only the execution strategy
//! (`tests/fused_bodies.rs` pins both directions).
//!
//! ## Row nests
//!
//! One level up, [`row_nest`] recognizes a whole two-deep loop nest — a
//! row loop whose body is scalar prologue / epilogue steps around one
//! innermost vector loop with a structurally [`closed`] body — in the
//! instruction run a loop just emitted, and `crate::compile` replaces
//! that run with a single [`RowNest`] instruction the VM resolves once
//! per run instead of once per row.
//!
//! ## Exactness
//!
//! Loads never depend on fold side effects (they read inputs, folds
//! write outputs and scalar slots), so hoisting all loads of a
//! coordinate before its folds preserves values exactly; fold order —
//! and each fold's left-to-right operand order — is preserved verbatim,
//! so floating-point results are bit-identical to the step list. Miss
//! scoping is positional in the step list (a `set_miss` load arms the
//! flag, the next fold consumes and clears it): each [`FFold`] records
//! exactly the `set_miss` loads between it and the previous fold as its
//! miss mask, which reproduces that scoping without a mutable flag.

use crate::bytecode::{
    BulkCounts, FAcc, FFold, FLoad, FOp, Fused, FusedBody, Instr, NestRows, RowNest, Term, VItem,
    VStep,
};
use systec_ir::{AssignOp, BinOp};

/// Load cap: bodies with more per-coordinate loads than this keep the
/// step list (the largest paper kernel, 5-d MTTKRP, uses 5).
pub(crate) const MAX_FUSED_LOADS: usize = 6;
/// Fold cap (5-d MTTKRP's canonical body stores into 5 factor rows).
pub(crate) const MAX_FUSED_FOLDS: usize = 6;
/// Per-fold operand cap (MTTKRP-5's folds are 6-ary).
pub(crate) const MAX_FUSED_SRCS: usize = 6;

/// Attempts to lower a vector-loop body to its fused form. `None` means
/// the body keeps (only) the general step list.
pub(crate) fn fuse_item(steps: &[VStep]) -> Option<Fused> {
    // Scalar slots any fold of the body accumulates into: reads of
    // these are not loop-invariant, and the runners keep them in
    // machine registers, so no operand may reference them. Registers
    // any load of the body writes: reads of these are only valid
    // *after* the load in step order (a forward reference would see the
    // previous coordinate's value, which no snapshot can reproduce).
    let mut acc_slots: Vec<usize> = Vec::new();
    let mut load_dsts: Vec<usize> = Vec::new();
    for step in steps {
        match step {
            VStep::FoldScalar { slot, .. } => acc_slots.push(*slot),
            VStep::Load { dst, .. }
            | VStep::LoadVal { dst, .. }
            | VStep::LoadProbe { dst, .. }
            | VStep::LoadGather { dst, .. } => load_dsts.push(*dst),
            VStep::FoldOut { .. } => {}
        }
    }
    // An accumulator register a load also writes cannot be held in a
    // machine register across the loop (the step list re-bases the
    // accumulation on the loaded value every coordinate).
    if acc_slots.iter().any(|slot| load_dsts.contains(slot)) {
        return None;
    }

    let mut loads: Vec<FLoad> = Vec::new();
    // Register → local slot of the load that (last) wrote it.
    let mut local_of: Vec<(usize, usize)> = Vec::new();
    // `set_miss` locals since the previous fold (positional miss scope).
    let mut pending_miss: Vec<usize> = Vec::new();
    let mut folds: Vec<FFold> = Vec::new();

    let push_load = |loads: &mut Vec<FLoad>,
                     local_of: &mut Vec<(usize, usize)>,
                     dst: usize,
                     load: FLoad|
     -> Option<usize> {
        if loads.len() >= MAX_FUSED_LOADS {
            return None;
        }
        let local = loads.len();
        loads.push(load);
        // Shadow any earlier load into the same register.
        local_of.retain(|&(reg, _)| reg != dst);
        local_of.push((dst, local));
        Some(local)
    };
    let load_dsts = load_dsts.as_slice();
    let resolve =
        move |local_of: &[(usize, usize)], acc_slots: &[usize], reg: usize| -> Option<FOp> {
            if let Some(&(_, local)) = local_of.iter().find(|&&(r, _)| r == reg) {
                return Some(FOp::Local(local));
            }
            // Not loaded *yet*: a forward reference to a later load reads
            // the previous coordinate's value in the step list — no
            // entry-time snapshot reproduces that.
            if load_dsts.contains(&reg) {
                return None;
            }
            // Not a load: must be loop-invariant to snapshot at entry.
            if acc_slots.contains(&reg) {
                return None;
            }
            Some(FOp::Reg(reg))
        };

    for step in steps {
        match step {
            VStep::Load { dst, tensor, base, stride, id: _ } => {
                push_load(
                    &mut loads,
                    &mut local_of,
                    *dst,
                    FLoad::Dense { tensor: *tensor, base: base.clone(), stride: *stride },
                )?;
            }
            VStep::LoadVal { dst, .. } => {
                push_load(&mut loads, &mut local_of, *dst, FLoad::Val)?;
            }
            VStep::LoadProbe { dst, tensor, set_miss } => {
                let local = push_load(
                    &mut loads,
                    &mut local_of,
                    *dst,
                    FLoad::Probe { tensor: *tensor, set_miss: *set_miss },
                )?;
                if *set_miss {
                    pending_miss.push(local);
                }
            }
            VStep::LoadGather { dst, tensor, id, modes, var_mode, set_miss } => {
                let local = push_load(
                    &mut loads,
                    &mut local_of,
                    *dst,
                    FLoad::Gather {
                        tensor: *tensor,
                        id: *id,
                        modes: modes.clone(),
                        var_mode: *var_mode,
                        set_miss: *set_miss,
                    },
                )?;
                if *set_miss {
                    pending_miss.push(local);
                }
            }
            VStep::FoldOut { tensor, id: _, base, stride, bin, op, srcs, check_miss } => {
                let srcs = resolve_srcs(srcs, &local_of, &acc_slots, resolve)?;
                folds.push(FFold {
                    acc: FAcc::Out { tensor: *tensor, base: base.clone(), stride: *stride },
                    bin: *bin,
                    op: *op,
                    srcs,
                    check_miss: *check_miss,
                    miss: std::mem::take(&mut pending_miss).into(),
                });
            }
            VStep::FoldScalar { slot, bin, op, srcs, check_miss } => {
                let srcs = resolve_srcs(srcs, &local_of, &acc_slots, resolve)?;
                folds.push(FFold {
                    acc: FAcc::Scalar { slot: *slot },
                    bin: *bin,
                    op: *op,
                    srcs,
                    check_miss: *check_miss,
                    miss: std::mem::take(&mut pending_miss).into(),
                });
            }
        }
        if folds.len() > MAX_FUSED_FOLDS {
            return None;
        }
    }
    if folds.is_empty() {
        return None;
    }
    // Two folds accumulating into the same scalar slot would race the
    // runners' per-fold register accumulators; keep the step list.
    {
        let mut slots: Vec<usize> = Vec::new();
        for fold in &folds {
            if let FAcc::Scalar { slot } = fold.acc {
                if slots.contains(&slot) {
                    return None;
                }
                slots.push(slot);
            }
        }
    }

    let bulk = bulk_counts(steps);
    let kind = classify(&loads, &folds);
    let isect_dot = match (loads.as_slice(), folds.as_slice()) {
        (
            [FLoad::Val, FLoad::Probe { tensor, set_miss: true }],
            [FFold { acc: FAcc::Scalar { slot }, bin, op, srcs, check_miss: true, miss }],
        ) if matches!(srcs.as_ref(), [FOp::Local(0), FOp::Local(1)]) && miss.as_ref() == [1] => {
            Some((*slot, *bin, *op, *tensor))
        }
        _ => None,
    };
    let lanes = lane_count(&folds);
    Some(Fused { kind, loads: loads.into(), folds: folds.into(), bulk, isect_dot, lanes })
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

/// Maps fold operands through the load table / invariance check,
/// enforcing the operand cap.
fn resolve_srcs(
    srcs: &[usize],
    local_of: &[(usize, usize)],
    acc_slots: &[usize],
    resolve: impl Fn(&[(usize, usize)], &[usize], usize) -> Option<FOp>,
) -> Option<Box<[FOp]>> {
    if srcs.len() > MAX_FUSED_SRCS {
        return None;
    }
    srcs.iter().map(|&reg| resolve(local_of, acc_slots, reg)).collect()
}

/// The loop-invariant per-iteration counter contributions of the step
/// list a fused body replaces — the same split `vec_prepare` applies to
/// general bodies: loads of the driver and of dense operands count per
/// iteration; probe/gather reads and miss-checked store sides count per
/// hit (in the runners).
fn bulk_counts(steps: &[VStep]) -> BulkCounts {
    let mut reads: Vec<(usize, u64)> = Vec::new();
    let mut bump = |tensor: usize| bump_read(&mut reads, tensor);
    let mut flops = 0u64;
    let mut writes = 0u64;
    for step in steps {
        match step {
            VStep::Load { tensor, .. } | VStep::LoadVal { tensor, .. } => bump(*tensor),
            VStep::LoadProbe { .. } | VStep::LoadGather { .. } => {}
            VStep::FoldOut { op, srcs, check_miss, .. } => {
                flops += srcs.len() as u64 - 1;
                if !*check_miss {
                    flops += u64::from(*op != AssignOp::Overwrite);
                    writes += 1;
                }
            }
            VStep::FoldScalar { op, srcs, check_miss, .. } => {
                flops += srcs.len() as u64 - 1;
                if !*check_miss {
                    flops += u64::from(*op != AssignOp::Overwrite);
                }
            }
        }
    }
    BulkCounts { reads: reads.into(), flops, writes }
}

/// One more element read of `tensor` in a per-tensor read recipe.
fn bump_read(reads: &mut Vec<(usize, u64)>, tensor: usize) {
    match reads.iter_mut().find(|(t, _)| *t == tensor) {
        Some((_, n)) => *n += 1,
        None => reads.push((tensor, 1)),
    }
}

/// Names the recognized pattern (for disassembly, golden snapshots, and
/// runner dispatch).
fn classify(loads: &[FLoad], folds: &[FFold]) -> FusedBody {
    let gathered = loads.iter().any(|l| matches!(l, FLoad::Gather { .. }));
    let is_dot =
        |fold: &FFold| matches!(fold.acc, FAcc::Scalar { .. } | FAcc::Out { stride: 0, .. });
    match folds {
        [fold] if is_dot(fold) => {
            if gathered {
                FusedBody::GatherDot
            } else {
                FusedBody::Dot
            }
        }
        [fold] => {
            if gathered {
                FusedBody::GatherAxpy
            } else if fold.op == AssignOp::Overwrite {
                FusedBody::ScaleStore
            } else {
                FusedBody::Axpy
            }
        }
        [dot, axpy] if is_dot(dot) && !is_dot(axpy) && !gathered => FusedBody::DotAxpy,
        _ => FusedBody::Jam,
    }
}

// ---------------------------------------------------------------------------
// Closed forms and row nests
// ---------------------------------------------------------------------------

/// The canonical dot chain `[lead regs…, Local(a), (Reg mid)?, Local(b)]`
/// of a two-load body whose load `a` is the driver value:
/// `fold.srcs[..n_lead]` are the leading invariant registers.
#[derive(Clone, Copy)]
pub(crate) struct DotShape {
    pub n_lead: usize,
    pub a: usize,
    pub mid: Option<usize>,
    pub b: usize,
}

/// Matches `fold` against the canonical dot chain; `None` = some other
/// shape.
#[inline]
pub(crate) fn dot_shape(loads: &[FLoad], fold: &FFold) -> Option<DotShape> {
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

/// A strided dense operand or store target, as the plan names it.
#[derive(Clone, Copy)]
pub(crate) struct DenseRef<'p> {
    pub tensor: usize,
    pub base: &'p [Term],
    pub stride: usize,
}

/// A fused body resolved, from its structure alone, to one of the VM's
/// closed-form folds over an unprobed driver and a strided dense
/// operand — what a [`RowNest`] requires of its inner loop, so the nest
/// resolves its body once per run with no fallback tier.
#[derive(Clone, Copy)]
pub(crate) enum Closed<'p> {
    /// `acc op= [lead ∘] a [∘ mid] ∘ x[coord]` with `acc` a scalar slot
    /// or a loop-invariant output cell.
    Dot { fold: &'p FFold, shape: DotShape, x: DenseRef<'p> },
    /// `f[slot] op= a ∘ x[coord]; out[coord] oop= a ∘ f[scale]`.
    DotAxpy {
        dot: &'p FFold,
        slot: usize,
        x: DenseRef<'p>,
        axpy: &'p FFold,
        scale: usize,
        scale_first: bool,
        out: DenseRef<'p>,
    },
}

impl<'p> Closed<'p> {
    /// The strided dense operand, the accumulator through which the body
    /// itself may write an output, and the body's semiring as
    /// `(every fold uses it, bin, op)`.
    pub(crate) fn parts(&self) -> (DenseRef<'p>, &'p FAcc, (bool, BinOp, AssignOp)) {
        match *self {
            Closed::Dot { fold, x, .. } => (x, &fold.acc, (true, fold.bin, fold.op)),
            Closed::DotAxpy { dot, x, axpy, .. } => {
                (x, &axpy.acc, (dot.bin == axpy.bin && dot.op == axpy.op, dot.bin, dot.op))
            }
        }
    }
}

/// The closed form of `fu`, if it has one.
pub(crate) fn closed(fu: &Fused) -> Option<Closed<'_>> {
    let dense = |b: usize| match &fu.loads[b] {
        FLoad::Dense { tensor, base, stride } => {
            Some(DenseRef { tensor: *tensor, base, stride: *stride })
        }
        _ => None,
    };
    match (fu.kind, fu.folds.as_ref()) {
        (FusedBody::Dot, [fold]) if !fold.check_miss => {
            let shape = dot_shape(&fu.loads, fold)?;
            let held = matches!(fold.acc, FAcc::Scalar { .. } | FAcc::Out { stride: 0, .. });
            held.then_some(Closed::Dot { fold, shape, x: dense(shape.b)? })
        }
        (FusedBody::DotAxpy, [dot, axpy]) if !dot.check_miss && !axpy.check_miss => {
            let shape = dot_shape(&fu.loads, dot)?;
            let (FAcc::Scalar { slot }, 0, None) = (&dot.acc, shape.n_lead, shape.mid) else {
                return None;
            };
            let (scale, scale_first) = axpy_scale(axpy, shape.a)?;
            let FAcc::Out { tensor, base, stride } = &axpy.acc else {
                return None;
            };
            Some(Closed::DotAxpy {
                dot,
                slot: *slot,
                x: dense(shape.b)?,
                axpy,
                scale,
                scale_first,
                out: DenseRef { tensor: *tensor, base, stride: *stride },
            })
        }
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
    let [VItem { guard, fused: Some(fused), .. }] = items.as_ref() else {
        return None;
    };
    // Inner bounds over the row index only: the VM keeps them as deltas.
    let fits = guard.is_empty()
        && inner_lo.iter().chain(inner_hi.iter()).all(|b| b.reg == idx)
        && closed(fused).is_some()
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
