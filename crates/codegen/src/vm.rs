//! The bytecode VM: executes a [`BytecodeProgram`] over concrete
//! tensors, producing exactly the same results and
//! [`systec_exec::Counters`] as the tree-walking interpreter in
//! `systec-exec`.
//!
//! ## Fold order
//!
//! Every runner — the closed forms, the jam runner, the generic fused
//! body, the row nests — folds each reduction strictly left to right,
//! in the interpreter's order, so a serial run is bit-identical to the
//! interpreter. Only a parallel run's [`MergeKind::Reduce`] outputs
//! differ: their per-worker partials merge in fixed worker order.
//!
//! ## Execution state
//!
//! All mutable per-run state (register files, vector-loop scratch,
//! counter banks, private reduction buffers) lives in the caller's
//! [`ExecContext`] and is reset — never reallocated — per run. The
//! binding tables that borrow from the operands (dense value slices,
//! sparse level views, per-loop fiber caches) are carried on the stack
//! via [`Scratch`] so the steady-state path performs no allocations at
//! all.
//!
//! ## Row-parallel execution
//!
//! When the compiler proved the program splittable
//! ([`BytecodeProgram::split`]) and the caller asked for
//! [`Parallelism::Threads`], the coordinate domain of each top-level
//! loop is cut into contiguous chunks (over-decomposed ~8× per worker
//! and dealt round-robin, which load-balances triangular kernels without
//! any synchronization). Every worker runs the whole program per chunk
//! over its own register files and [`CounterBank`], with the top-level
//! loop heads clamped to the chunk's coordinate window:
//!
//! * [`MergeKind::Rows`] outputs are split at the chunk row boundaries —
//!   workers write disjoint sub-slices of the shared buffer in place;
//! * [`MergeKind::Reduce`] outputs reduce into per-worker private buffers
//!   initialized to the reduction identity.
//!
//! Workers join, then counters and private buffers merge **in fixed
//! worker order**: counter totals are integer sums, hence exactly equal
//! to the serial execution's, and outputs are bit-identical from run to
//! run for a fixed thread count.

use std::collections::HashMap;

use systec_exec::lowered::SlotKind;
use systec_exec::{CounterBank, Counters, ExecError};
use systec_ir::AssignOp;
use systec_telemetry as telemetry;
use systec_tensor::{DenseTensor, LevelView, Tensor};

use systec_ir::BinOp;

use crate::bytecode::{
    Bound, BulkCounts, BytecodeProgram, ClosedForm, DenseOperand, DotShape, FAcc, FFold, FLoad,
    FOp, Fused, Instr, NestRows, RowNest, Runner, SplitInfo, Term, VItem, Workspace, MISS,
};
use crate::context::{Bank, ExecContext};
use crate::fuse::{MAX_FUSED_FOLDS, MAX_FUSED_LOADS, MAX_FUSED_SRCS, MAX_NEST_STEPS};
use crate::{MergeKind, Parallelism};

/// Inline capacity for per-slot binding tables.
const MAX_SLOTS: usize = 24;
/// Inline capacity for the flattened sparse level-view table.
const MAX_LEVELS: usize = 64;
/// Inline capacity for per-loop fiber caches.
const MAX_CACHES: usize = 16;
/// Inline capacity for the output binding table.
const MAX_OUTS: usize = 8;
/// Coordinate chunks dealt per worker (over-decomposition for static
/// load balance; round-robin assignment keeps the merge deterministic).
const CHUNKS_PER_WORKER: usize = 8;
/// Width of the [`Runner::Jam`] stack buffer: a jam body runs fold by
/// fold over slices of at most this many consecutive coordinates (the
/// paper kernels' factor rows are 8–32 wide, one slice).
const JAM: usize = 64;

/// A scratch table backed by inline storage for typical plan sizes,
/// falling back to the heap for outsized plans (correct either way; the
/// fallback merely allocates).
enum Scratch<T, const N: usize> {
    Inline { buf: [T; N], len: usize },
    Heap(Vec<T>),
}

impl<T: Default, const N: usize> Scratch<T, N> {
    fn new(len: usize) -> Self {
        if len <= N {
            Scratch::Inline { buf: std::array::from_fn(|_| T::default()), len }
        } else {
            Scratch::Heap((0..len).map(|_| T::default()).collect())
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Scratch::Inline { buf, len } => &mut buf[..*len],
            Scratch::Heap(v) => v,
        }
    }
}

/// One bound output: a mutable value slice plus the element offset of
/// its first cell within the full tensor (nonzero only for owned
/// row-splits under parallel execution).
struct OutBind<'a> {
    data: &'a mut [f64],
    base: usize,
}

/// The output binding table, indexed by output ordinal.
type OutTable<'a> = Scratch<Option<OutBind<'a>>, MAX_OUTS>;

/// One worker's coordinate chunk: top-level head `pc`s with their index
/// extents, plus this chunk's ordinal out of the total chunk count.
#[derive(Clone, Copy)]
struct Chunk<'a> {
    heads: &'a [(usize, usize)],
    k: usize,
    n: usize,
}

impl Chunk<'_> {
    /// The inclusive coordinate window this chunk clamps head `pc` to,
    /// or `None` when `pc` is not a split head (inner loops).
    #[inline]
    fn window(&self, pc: usize) -> Option<(i64, i64)> {
        let &(_, extent) = self.heads.iter().find(|(head_pc, _)| *head_pc == pc)?;
        let window = crate::chunk_window(extent, self.k, self.n);
        Some((window.start as i64, window.end as i64 - 1))
    }
}

/// A sparse input resolved to raw views: per-level views live in one
/// flattened table indexed through `BytecodeProgram::level_base`.
#[inline]
fn level<'a>(
    levels: &[Option<LevelView<'a>>],
    base: &[usize],
    tensor: usize,
    k: usize,
) -> LevelView<'a> {
    levels[base[tensor] + k].expect("sparse level bound")
}

#[inline]
fn offset(u: &[usize], terms: &[Term]) -> usize {
    // Nearly every access is rank 1 or 2; keep those branch-free.
    match terms {
        [t] => u[t.reg] * t.stride,
        [s, t] => u[s.reg] * s.stride + u[t.reg] * t.stride,
        _ => terms.iter().map(|t| u[t.reg] * t.stride).sum(),
    }
}

/// Descends every level of `tensor` from the root, following the
/// subscripts `u[modes[lv]]`; `None` when the path is unstored.
#[inline]
fn descend(
    levels: &[Option<LevelView<'_>>],
    lvl_base: &[usize],
    u: &[usize],
    tensor: usize,
    modes: &[usize],
) -> Option<usize> {
    let mut p = 0;
    for (lv, &m) in modes.iter().enumerate() {
        p = level(levels, lvl_base, tensor, lv).find(p, u[m])?;
    }
    Some(p)
}

// ---------------------------------------------------------------------------
// Semirings
// ---------------------------------------------------------------------------

/// Semiring monomorphization for the fused runners: the (bin, reduce)
/// pairs the paper kernels use get dedicated instantiations so the hot
/// loops carry no operator dispatch; everything else runs through
/// [`DynSemi`] (one match per application). The `op` arguments are the fold's own operators —
/// the specialized impls ignore them (the dispatch site proved every
/// fold of the body uses exactly this pair).
trait Semi: Copy {
    fn bin(self, op: BinOp, a: f64, b: f64) -> f64;
    fn red(self, op: AssignOp, acc: f64, v: f64) -> f64;
}

/// `a * b` folds reduced by `+=` (every arithmetic paper kernel).
#[derive(Clone, Copy)]
struct MulAddSemi;
impl Semi for MulAddSemi {
    #[inline(always)]
    fn bin(self, _: BinOp, a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    fn red(self, _: AssignOp, acc: f64, v: f64) -> f64 {
        acc + v
    }
}

/// `a + b` folds reduced by `min=` (tropical kernels: Bellman–Ford).
#[derive(Clone, Copy)]
struct AddMinSemi;
impl Semi for AddMinSemi {
    #[inline(always)]
    fn bin(self, _: BinOp, a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn red(self, _: AssignOp, acc: f64, v: f64) -> f64 {
        acc.min(v)
    }
}

/// Fallback: apply the fold's own operators.
#[derive(Clone, Copy)]
struct DynSemi;
impl Semi for DynSemi {
    #[inline(always)]
    fn bin(self, op: BinOp, a: f64, b: f64) -> f64 {
        op.apply(a, b)
    }
    #[inline(always)]
    fn red(self, op: AssignOp, acc: f64, v: f64) -> f64 {
        op.apply(acc, v)
    }
}

/// Evaluates `$body` with `$s` bound to the [`Semi`] instantiation for
/// the `($bin, $op)` pair — the one place a runtime operator pair turns
/// into a monomorphized loop. `$uniform` says every fold of the body
/// uses exactly this pair; otherwise [`DynSemi`] applies each fold's own
/// operators.
macro_rules! with_semi {
    ($uniform:expr, $bin:expr, $op:expr, |$s:ident| $body:expr) => {
        match ($uniform, $bin, $op) {
            (true, BinOp::Mul, AssignOp::Add) => {
                let $s = MulAddSemi;
                $body
            }
            (true, BinOp::Add, AssignOp::Min) => {
                let $s = AddMinSemi;
                $body
            }
            _ => {
                let $s = DynSemi;
                $body
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Drives: how a vector loop walks its coordinates
// ---------------------------------------------------------------------------

/// One maximal stretch of a drive window: a coordinate source (a stored
/// list or a contiguous span) paired with a value source (one value per
/// position, or one value for the whole stretch).
trait Segment {
    /// Whether coordinates are consecutive, so a jam body may run the
    /// segment fold by fold ([`LoopRun::jam`]).
    const CONTIGUOUS: bool;
    /// Number of coordinates.
    fn len(&self) -> usize;
    /// Coordinate of the first element.
    fn first(&self) -> usize;
    /// Visits `(coordinate, driver value)` of every element, in order
    /// (the value is `None` in a dense range, which has no driver).
    fn each(&self, f: impl FnMut(usize, Option<f64>));
}

/// Stored coordinates with one value per position (a compressed fiber
/// window; both slices cover exactly the window).
struct ListSeg<'a> {
    crd: &'a [usize],
    vals: &'a [f64],
}

impl Segment for ListSeg<'_> {
    const CONTIGUOUS: bool = false;

    #[inline(always)]
    fn len(&self) -> usize {
        self.crd.len()
    }

    #[inline(always)]
    fn first(&self) -> usize {
        self.crd[0]
    }

    #[inline(always)]
    fn each(&self, mut f: impl FnMut(usize, Option<f64>)) {
        for (&c, &a) in self.crd.iter().zip(self.vals) {
            f(c, Some(a));
        }
    }
}

/// Consecutive coordinates sharing one driver value (a clamped run) or
/// none (a dense range).
struct SpanSeg {
    first: usize,
    len: usize,
    val: Option<f64>,
}

impl Segment for SpanSeg {
    const CONTIGUOUS: bool = true;

    #[inline(always)]
    fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    fn first(&self) -> usize {
        self.first
    }

    #[inline(always)]
    fn each(&self, mut f: impl FnMut(usize, Option<f64>)) {
        for c in self.first..self.first + self.len {
            f(c, self.val);
        }
    }
}

/// How a vector loop iterates its coordinates — one implementation per
/// vector-loop instruction kind, each a format's `iterate` capability
/// reduced to "yield segments". Every consumer (the closed-form folds,
/// the jam runner and the generic fused body) walks a window through
/// [`Drive::segments`], so each format's walk is written exactly once.
trait Drive {
    type Seg: Segment;
    /// Visits the window's segments in coordinate order and returns the
    /// last coordinate covered (the loop index's value at exit).
    fn segments(&self, f: impl FnMut(Self::Seg)) -> usize;
    /// Number of coordinates the window executes, without walking them:
    /// O(1) for ranges and compressed windows, O(runs) for run-length.
    fn len(&self) -> usize;
}

/// Counted dense loop over `lo..=hi`.
struct RangeDrive {
    lo: usize,
    hi: usize,
}

impl Drive for RangeDrive {
    type Seg = SpanSeg;

    #[inline(always)]
    fn segments(&self, mut f: impl FnMut(SpanSeg)) -> usize {
        f(SpanSeg { first: self.lo, len: self.len(), val: None });
        self.hi
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.hi - self.lo + 1
    }
}

/// Compressed driver: a non-empty window of stored coordinates and the
/// values at the same positions.
struct CrdDrive<'a> {
    crd: &'a [usize],
    vals: &'a [f64],
}

impl<'a> Drive for CrdDrive<'a> {
    type Seg = ListSeg<'a>;

    #[inline(always)]
    fn segments(&self, mut f: impl FnMut(ListSeg<'a>)) -> usize {
        f(ListSeg { crd: self.crd, vals: self.vals });
        self.crd[self.crd.len() - 1]
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.crd.len()
    }
}

/// Run-length driver: runs `start..stop` clamped to `[lo, hi]`, value
/// constant per run.
struct RleDrive<'a> {
    vals: &'a [f64],
    run_start: &'a [usize],
    run_end: &'a [usize],
    start: usize,
    stop: usize,
    lo: usize,
    hi: usize,
}

impl<'a> Drive for RleDrive<'a> {
    type Seg = SpanSeg;

    #[inline(always)]
    fn segments(&self, mut f: impl FnMut(SpanSeg)) -> usize {
        let mut last = self.lo;
        for r in self.start..self.stop {
            let c_lo = self.run_start[r].max(self.lo);
            if c_lo > self.hi {
                break;
            }
            let c_hi = self.run_end[r].min(self.hi);
            f(SpanSeg { first: c_lo, len: c_hi - c_lo + 1, val: Some(self.vals[r]) });
            last = c_hi;
        }
        last
    }

    #[inline(always)]
    fn len(&self) -> usize {
        let mut n = 0;
        self.segments(|seg| n += seg.len);
        n
    }
}

// ---------------------------------------------------------------------------
// Closed-form folds
// ---------------------------------------------------------------------------

/// A strided dense operand: `xs[base + coord·stride]`.
struct Strided<'a> {
    xs: &'a [f64],
    base: usize,
    stride: usize,
}

/// The operators and loop-invariant operands of a dot chain
/// `acc op= [lead ∘] a [∘ mid] ∘ b` (`a` the driver value, `b` the other
/// operand).
struct DotChain {
    bin: BinOp,
    op: AssignOp,
    /// Absent invariants hold `1.0`, never stack garbage: the optimizer
    /// may evaluate `lead ∘ a` speculatively and blend it away, and an
    /// arbitrary bit pattern there can be a subnormal — a microcode
    /// assist per chunk (measured 7× on CSR row dots).
    lead: f64,
    has_lead: bool,
    mid: f64,
    has_mid: bool,
}

impl DotChain {
    /// The chain of `fold` (of shape `shape`) over the current
    /// registers: the leading invariants `fold.srcs[..n_lead]` pre-folded
    /// (exact — the chain is left-associative), the middle one snapshot.
    #[inline(always)]
    fn of(f: &[f64], fold: &FFold, shape: DotShape) -> Self {
        let mut lead: Option<f64> = None;
        for op in &fold.srcs[..shape.n_lead] {
            let FOp::Reg(r) = op else {
                unreachable!("a dot chain leads with invariant registers");
            };
            lead = Some(lead.map_or(f[*r], |l| fold.bin.apply(l, f[*r])));
        }
        let mid = shape.mid.map(|r| f[r]);
        DotChain {
            bin: fold.bin,
            op: fold.op,
            lead: lead.unwrap_or(1.0),
            has_lead: lead.is_some(),
            mid: mid.unwrap_or(1.0),
            has_mid: mid.is_some(),
        }
    }

    /// The chain up to the driver value: `[lead ∘] a [∘ mid]`.
    #[inline(always)]
    fn prefix<S: Semi>(&self, s: S, a: f64) -> f64 {
        let mut v = if self.has_lead { s.bin(self.bin, self.lead, a) } else { a };
        if self.has_mid {
            v = s.bin(self.bin, v, self.mid);
        }
        v
    }
}

/// The closed-form dot over any drive against the strided operand `x`,
/// with the accumulator in a machine register for the whole window and
/// the interpreter's strict left-to-right fold. Returns the accumulator
/// and the last coordinate.
fn fold_dot<S: Semi, D: Drive>(
    s: S,
    ch: &DotChain,
    acc0: f64,
    drive: &D,
    x: Strided<'_>,
) -> (f64, usize) {
    let (bin, op) = (ch.bin, ch.op);
    let mut acc = acc0;
    let last = drive.segments(|seg| {
        seg.each(|c, a| {
            let v = ch.prefix(s, a.unwrap_or(0.0));
            acc = s.red(op, acc, s.bin(bin, v, x.xs[x.base + c * x.stride]));
        });
    });
    (acc, last)
}

/// A scattered workspace row, resolved: the fiber's window `start..stop`
/// of its level's `crd` / `vals`, and the position slots the
/// [`Instr::Scatter`] filled.
#[derive(Clone, Copy)]
struct Scattered<'a> {
    slots: &'a [usize],
    crd: &'a [usize],
    vals: &'a [f64],
    start: usize,
    stop: usize,
}

impl<'a> Scattered<'a> {
    /// The row of workspace `ws` as the last scatter left it.
    fn of(
        ws: &Workspace,
        slots: &'a [usize],
        u: &[usize],
        fiber: LevelView<'a>,
        vals: &'a [f64],
    ) -> Self {
        let LevelView::Sparse { crd, .. } = fiber else {
            unreachable!("workspace rows scatter compressed fibers");
        };
        Scattered { slots: &slots[ws.base..], crd, vals, start: u[ws.start], stop: u[ws.stop] }
    }

    /// Scattered coordinates: the iterations of the intersection.
    #[inline(always)]
    fn len(&self) -> usize {
        self.stop - self.start
    }

    /// The value at `coord` when the fiber holds it: its slot must point
    /// into the window, at `coord` — a stale slot can do neither.
    #[inline(always)]
    fn at(&self, coord: usize) -> Option<f64> {
        let p = self.slots[coord];
        (p.wrapping_sub(self.start) < self.len() && self.crd[p] == coord).then(|| self.vals[p])
    }
}

/// [`Runner::WorkspaceDot`]'s fold: `acc op= [lead ∘] w[k] [∘ mid] ∘ b`
/// over the driven window `b`, for the coordinates `k` the scattered row
/// `w` holds — the intersection in ascending `k`, each term in the
/// intersection's operand order. Returns the accumulator and the hits.
#[inline(always)]
fn fold_gathered<S: Semi, D: Drive>(
    s: S,
    ch: &DotChain,
    acc0: f64,
    drive: &D,
    w: &Scattered<'_>,
) -> (f64, u64) {
    let (mut acc, mut hits) = (acc0, 0u64);
    drive.segments(|seg| {
        seg.each(|k, b| {
            if let Some(a) = w.at(k) {
                acc = s.red(ch.op, acc, s.bin(ch.bin, ch.prefix(s, a), b.unwrap_or(0.0)));
                hits += 1;
            }
        });
    });
    (acc, hits)
}

/// The strided reducing store of a dot-axpy pair:
/// `data[off + coord·stride − origin] op= a ∘ scale` (or `scale ∘ a`).
struct AxpyOut<'d> {
    data: &'d mut [f64],
    off: usize,
    stride: usize,
    /// Element offset of `data[0]` within the full tensor.
    origin: usize,
    bin: BinOp,
    op: AssignOp,
    scale: f64,
    scale_first: bool,
}

/// SSYMV's symmetric pair over any drive: a register-held dot plus a
/// strided reducing store sharing the driver value (`w ∘= a ∘ x[c];
/// y[c] ∘= a ∘ scale`), both in coordinate order.
fn fold_dot_axpy<S: Semi, D: Drive>(
    s: S,
    dot: (BinOp, AssignOp),
    acc0: f64,
    drive: &D,
    x: Strided<'_>,
    out: &mut AxpyOut<'_>,
) -> (f64, usize) {
    let (scale, scale_first, obin, oop) = (out.scale, out.scale_first, out.bin, out.op);
    let scaled = |a: f64| if scale_first { s.bin(obin, scale, a) } else { s.bin(obin, a, scale) };
    let mut acc = acc0;
    let last = drive.segments(|seg| {
        seg.each(|c, a| {
            let a = a.unwrap_or(0.0);
            acc = s.red(dot.1, acc, s.bin(dot.0, a, x.xs[x.base + c * x.stride]));
            let cell = &mut out.data[out.off + c * out.stride - out.origin];
            *cell = s.red(oop, *cell, scaled(a));
        });
    });
    (acc, last)
}

// ---------------------------------------------------------------------------
// Vector-loop execution
// ---------------------------------------------------------------------------

/// An entry-resolved per-coordinate load: dense operands are concrete
/// slices with their invariant base offsets folded in.
#[derive(Clone, Copy)]
enum RLoad<'a> {
    /// The driver's value at the current position.
    Val,
    /// `slice[base + coord * stride]`.
    Dense { slice: &'a [f64], base: usize, stride: usize },
}

/// An entry-resolved fold operand: loop-invariant registers become
/// constants.
#[derive(Clone, Copy)]
enum RSrc {
    Local(usize),
    Const(f64),
}

/// An entry-resolved accumulator target.
#[derive(Clone, Copy)]
enum RAcc {
    /// `f[slot]`, held in [`RFold::accv`] across the loop.
    Slot { slot: usize },
    /// A loop-invariant output cell (stride 0, single fold),
    /// register-held likewise — the write *counts* stay per-iteration
    /// (bulk) exactly as if every store happened.
    Cell { ord: usize, off: usize },
    /// A strided output store per coordinate.
    Out { ord: usize, off: usize, stride: usize },
}

/// One entry-resolved fold: leading invariant operands pre-folded into
/// `lead` (exact — the fold chain is left-associative), the rest a
/// fixed operand array over load locals and snapshot constants.
#[derive(Clone, Copy)]
struct RFold {
    lead: f64,
    has_lead: bool,
    srcs: [RSrc; MAX_FUSED_SRCS],
    n_srcs: usize,
    acc: RAcc,
    /// Register accumulator for `Slot` / `Cell` targets.
    accv: f64,
    bin: BinOp,
    op: AssignOp,
}

/// The entry-resolved executable form of a [`Fused`] body.
struct RBody<'a> {
    loads: [RLoad<'a>; MAX_FUSED_LOADS],
    n_loads: usize,
    folds: [RFold; MAX_FUSED_FOLDS],
    n_folds: usize,
    /// The loop's index register (set once, at exit).
    idx: usize,
}

#[inline(always)]
fn src_val(src: RSrc, locals: &[f64; MAX_FUSED_LOADS]) -> f64 {
    match src {
        RSrc::Local(i) => locals[i],
        RSrc::Const(v) => v,
    }
}

/// One operand of a [`Runner::Jam`] fold over `n` consecutive
/// coordinates: a unit-stride slice of its dense load, a strided walk,
/// or a snapshot constant.
enum JamOperand<'s> {
    Unit(&'s [f64]),
    Strided { xs: &'s [f64], at: usize, stride: usize },
    Const(f64),
}

impl JamOperand<'_> {
    /// Calls `f(buf[k], operand[k])` for every `k`, in order.
    #[inline(always)]
    fn zip(self, buf: &mut [f64], mut f: impl FnMut(&mut f64, f64)) {
        match self {
            JamOperand::Unit(xs) => buf.iter_mut().zip(xs).for_each(|(b, &x)| f(b, x)),
            JamOperand::Strided { xs, at, stride } => {
                buf.iter_mut().enumerate().for_each(|(k, b)| f(b, xs[at + k * stride]))
            }
            JamOperand::Const(x) => buf.iter_mut().for_each(|b| f(b, x)),
        }
    }
}

/// Operand `src` of a [`Runner::Jam`] fold at the `n` coordinates from
/// `c0` (every load of a jam body is dense).
#[inline(always)]
fn jam_operand<'s>(loads: &[RLoad<'s>], src: RSrc, c0: usize, n: usize) -> JamOperand<'s> {
    match src {
        RSrc::Const(v) => JamOperand::Const(v),
        RSrc::Local(i) => match loads[i] {
            RLoad::Dense { slice, base, stride: 1 } => {
                JamOperand::Unit(&slice[base + c0..base + c0 + n])
            }
            RLoad::Dense { slice, base, stride } => {
                JamOperand::Strided { xs: slice, at: base + c0 * stride, stride }
            }
            RLoad::Val => unreachable!("every load of a jam body is a dense read"),
        },
    }
}

/// Whether the stores of `folds` may run fold by fold over the
/// consecutive coordinates `first..first + len`: no two folds touch one
/// output cell at different coordinates ([`apart`]), so fold-major order
/// leaves each cell's updates in coordinate-major order (two folds
/// meeting at the same coordinate still update in fold order).
fn stores_apart(folds: &[RFold], first: usize, len: usize) -> bool {
    folds
        .iter()
        .enumerate()
        .all(|(n, a)| folds[n + 1..].iter().all(|b| apart(a.acc, b.acc, first, len)))
}

/// Whether two resolved stores `off + coord·stride` never meet at two
/// different coordinates of `first..first + len`: different outputs
/// never do; equal nonzero strides meet only when the offsets differ by
/// a nonzero multiple `d` of the stride with `d / stride` inside the
/// window; any other pair must cover disjoint address ranges.
fn apart(a: RAcc, b: RAcc, first: usize, len: usize) -> bool {
    let (RAcc::Out { ord: oa, off: xa, stride: sa }, RAcc::Out { ord: ob, off: xb, stride: sb }) =
        (a, b)
    else {
        return false;
    };
    if oa != ob || len <= 1 {
        return true;
    }
    if sa == sb && sa != 0 {
        let d = xa.abs_diff(xb);
        return d == 0 || d % sa != 0 || d / sa >= len;
    }
    let last = first + len - 1;
    xa + last * sa < xb + first * sb || xb + last * sb < xa + first * sa
}

/// Per-vector-loop execution state: every binding table and scratch a
/// loop body touches, plus the loop's counter contributions (folded
/// into the program totals when the loop instruction finishes). One
/// [`LoopRun::run`] serves all three vector-loop instructions; it calls
/// the passing body's [`Runner`] — a closed-form fold, the jam runner or
/// the generic fused body — and every runner walks the same [`Drive`].
/// [`LoopRun::nest`] runs a whole [`RowNest`] over the same state.
///
/// Bulk (per-iteration) counters come from the body's compile-time
/// recipe; only hit-dependent work is counted per element.
struct LoopRun<'r, 'a, 'o> {
    /// The worker's workspace-row slots (see [`Scattered`]).
    ws: &'r [usize],
    u: &'r mut [usize],
    f: &'r mut [f64],
    dense: &'r [&'a [f64]],
    vals: &'r [&'a [f64]],
    levels: &'r [Option<LevelView<'a>>],
    lvl_base: &'r [usize],
    outs: &'r mut [Option<OutBind<'o>>],
    oo: &'r [usize],
    reads: &'r mut [u64],
    flops: u64,
    writes: u64,
    iterations: u64,
    /// Per-runner dispatch tally (see `run_range`).
    dispatch: &'r mut [u64; telemetry::RUNNER_KINDS.len()],
}

impl<'r, 'a> LoopRun<'r, 'a, '_> {
    /// Executes one vector loop over `drive`: the body of the first item
    /// whose guard holds through its runner — the compiler admits several
    /// items only under pairwise exclusive guards, so it is the only one —
    /// or just the loop index's exit value when no guard holds.
    fn run<D: Drive>(&mut self, items: &[VItem], idx: usize, drive: &D) {
        let iters = drive.len() as u64;
        if iters == 0 {
            return;
        }
        self.iterations += iters;
        let u = &*self.u;
        let passing =
            items.iter().find(|item| item.guard.iter().all(|(op, a, b)| op.eval(u[*a], u[*b])));
        match passing {
            Some(item) => self.fused(&item.body, idx, iters, drive),
            None => self.u[idx] = drive.segments(|_| {}),
        }
    }

    /// The cell behind a register-held accumulator target: read at loop
    /// entry, written back at exit (`None` for strided stores, which are
    /// never held).
    #[inline]
    fn acc_cell(&mut self, acc: RAcc) -> Option<&mut f64> {
        match acc {
            RAcc::Slot { slot } => Some(&mut self.f[slot]),
            RAcc::Cell { ord, off } => {
                let ob = self.outs[ord].as_mut().expect("output bound");
                Some(&mut ob.data[off - ob.base])
            }
            RAcc::Out { .. } => None,
        }
    }

    /// Accounts `times` applications of a per-application counter
    /// recipe — identical totals to bumping per application, with no
    /// hot-loop counter traffic.
    fn tally(&mut self, recipe: &BulkCounts, times: u64) {
        for &(t, n) in recipe.reads.iter() {
            self.reads[t] += n * times;
        }
        self.flops += recipe.flops * times;
        self.writes += recipe.writes * times;
    }

    /// Executes the one passing body of a loop entry through the runner
    /// the compiler picked for it. Closed-form runners run straight off
    /// the compile-time form — entry cost is a handful of scalar
    /// resolutions, which matters for short fibers entered many times
    /// (a merge of two short rows). Jam and generic bodies share one
    /// resolution and one drive ([`Self::drive`]).
    fn fused<D: Drive>(&mut self, fu: &Fused, idx: usize, iters: u64, drive: &D) {
        self.account(fu.runner.kind(), fu, iters);
        match &fu.runner {
            Runner::Closed { x, form } => self.closed_entry(fu, x, *form, idx, drive),
            Runner::WorkspaceDot { .. } => {
                unreachable!("a workspace body is entered through `LoopRun::workspace_entry`")
            }
            Runner::Jam | Runner::Generic => {
                let mut body = self.resolve(fu, idx);
                let jam = matches!(fu.runner, Runner::Jam);
                // One semiring for the whole body → monomorphized loops.
                let (uniform, bin, op) = fu.semiring();
                with_semi!(uniform, bin, op, |s| self.drive(&mut body, s, jam, drive));
                self.flush(&body);
            }
        }
    }

    /// One dispatch of `fu` through the runner `kind` over `iters`
    /// coordinates: its invariant counter contributions in bulk, from
    /// the body's recipe.
    fn account(&mut self, kind: telemetry::RunnerKind, fu: &Fused, iters: u64) {
        self.dispatch[kind.index()] += 1;
        self.tally(&fu.bulk, iters);
    }

    /// `(ordinal, offset)` of a dot's or axpy's output accumulator at
    /// the current registers (`(0, 0)` for a scalar slot).
    fn out_at(&self, acc: &FAcc) -> (usize, usize) {
        match acc {
            FAcc::Scalar { .. } => (0, 0),
            FAcc::Out { tensor, base, .. } => (self.oo[*tensor], offset(self.u, base)),
        }
    }

    /// A dot's register-held accumulator: its scalar slot, or the output
    /// cell at `(ord, off)`.
    #[inline(always)]
    fn dot_acc(&mut self, acc: &FAcc, (ord, off): (usize, usize)) -> &mut f64 {
        match acc {
            FAcc::Scalar { slot } => &mut self.f[*slot],
            FAcc::Out { .. } => {
                let ob = self.outs[ord].as_mut().expect("output bound");
                &mut ob.data[off - ob.base]
            }
        }
    }

    /// Writes a finished body's register-held accumulators back.
    fn flush(&mut self, body: &RBody<'a>) {
        for fold in &body.folds[..body.n_folds] {
            if let Some(cell) = self.acc_cell(fold.acc) {
                *cell = fold.accv;
            }
        }
    }

    /// Resolves a fused body against the current bindings: dense bases
    /// and invariant registers are snapshot once, accumulators load their
    /// starting values, and a single fold's loop-invariant output cell
    /// lives in a register.
    fn resolve(&mut self, fu: &Fused, idx: usize) -> RBody<'a> {
        let mut body = RBody {
            loads: [RLoad::Val; MAX_FUSED_LOADS],
            n_loads: fu.loads.len(),
            folds: [RFold {
                lead: 0.0,
                has_lead: false,
                srcs: [RSrc::Const(0.0); MAX_FUSED_SRCS],
                n_srcs: 0,
                acc: RAcc::Slot { slot: 0 },
                accv: 0.0,
                bin: BinOp::Add,
                op: AssignOp::Add,
            }; MAX_FUSED_FOLDS],
            n_folds: fu.folds.len(),
            idx,
        };
        for (i, ld) in fu.loads.iter().enumerate() {
            body.loads[i] = match ld {
                FLoad::Val => RLoad::Val,
                FLoad::Probe { .. } => unreachable!("intersection bodies run as workspace rows"),
                FLoad::Scattered => unreachable!("only the workspace runner reads a workspace"),
                FLoad::Dense { tensor, base, stride } => RLoad::Dense {
                    slice: self.dense[*tensor],
                    base: offset(self.u, base),
                    stride: *stride,
                },
            };
        }
        let hold_cell = fu.folds.len() == 1;
        for (j, fold) in fu.folds.iter().enumerate() {
            debug_assert!(!fold.check_miss, "no load of a jam or generic body can miss");
            let rf = &mut body.folds[j];
            for op in fold.srcs.iter() {
                match op {
                    FOp::Reg(r) if rf.n_srcs == 0 => {
                        // Still in the leading invariant run: pre-fold.
                        let v = self.f[*r];
                        rf.lead = if rf.has_lead { fold.bin.apply(rf.lead, v) } else { v };
                        rf.has_lead = true;
                    }
                    FOp::Reg(r) => {
                        rf.srcs[rf.n_srcs] = RSrc::Const(self.f[*r]);
                        rf.n_srcs += 1;
                    }
                    FOp::Local(l) => {
                        rf.srcs[rf.n_srcs] = RSrc::Local(*l);
                        rf.n_srcs += 1;
                    }
                }
            }
            rf.acc = match &fold.acc {
                FAcc::Scalar { slot } => RAcc::Slot { slot: *slot },
                FAcc::Out { tensor, base, stride } => {
                    let ord = self.oo[*tensor];
                    let off = offset(self.u, base);
                    if *stride == 0 && hold_cell {
                        RAcc::Cell { ord, off }
                    } else {
                        RAcc::Out { ord, off, stride: *stride }
                    }
                }
            };
            rf.accv = self.acc_cell(rf.acc).map_or(0.0, |cell| *cell);
            rf.bin = fold.bin;
            rf.op = fold.op;
        }
        body
    }

    /// Drives a [`Runner::Jam`] or [`Runner::Generic`] body over the
    /// loop's coordinates, one segment at a time: a `jam` body's
    /// contiguous segment fold by fold ([`Self::jam`]) when its stores
    /// are apart there ([`stores_apart`]), every other segment coordinate
    /// by coordinate ([`Self::coord`]). Never inlined, so the
    /// per-coordinate loop does not share its registers with the rest of
    /// [`Self::fused`].
    #[inline(never)]
    fn drive<S: Semi, D: Drive>(&mut self, body: &mut RBody<'a>, s: S, jam: bool, drive: &D) {
        let jam = jam && <D::Seg as Segment>::CONTIGUOUS;
        let last = drive.segments(|seg| {
            if jam && stores_apart(&body.folds[..body.n_folds], seg.first(), seg.len()) {
                self.jam(body, s, seg.first(), seg.len());
            } else {
                seg.each(|c, val| self.coord(body, s, c, val));
            }
        });
        self.u[body.idx] = last;
    }

    /// Runs a [`Runner::Jam`] body over the consecutive coordinates
    /// `first..first + len` fold by fold: per slice of at most [`JAM`]
    /// coordinates, each fold's left-associative chain elementwise into
    /// a stack buffer, then reduced into the output slice. Every element
    /// sees exactly [`Self::coord`]'s operations in [`Self::coord`]'s
    /// order, and [`stores_apart`] has proven that no cell receives
    /// updates from two folds at different coordinates, so each cell's
    /// updates arrive in the same order as coordinate by coordinate.
    #[inline(never)]
    fn jam<S: Semi>(&mut self, body: &RBody<'a>, s: S, first: usize, len: usize) {
        let mut buf = [0f64; JAM];
        let mut start = 0;
        while start < len {
            let n = JAM.min(len - start);
            let c0 = first + start;
            let buf = &mut buf[..n];
            for fold in &body.folds[..body.n_folds] {
                let bin = fold.bin;
                let srcs = &fold.srcs[..fold.n_srcs];
                let rest = match srcs.split_first() {
                    Some((x, rest)) => {
                        let x = jam_operand(&body.loads, *x, c0, n);
                        if fold.has_lead {
                            x.zip(buf, |b, x| *b = s.bin(bin, fold.lead, x));
                        } else {
                            x.zip(buf, |b, x| *b = x);
                        }
                        rest
                    }
                    None => {
                        buf.fill(fold.lead);
                        srcs
                    }
                };
                for x in rest {
                    jam_operand(&body.loads, *x, c0, n).zip(buf, |b, x| *b = s.bin(bin, *b, x));
                }
                let RAcc::Out { ord, off, stride } = fold.acc else {
                    unreachable!("a jam fold stores through a strided output");
                };
                let ob = self.outs[ord].as_mut().expect("output bound");
                let at = off + c0 * stride - ob.base;
                let op = fold.op;
                if stride == 1 {
                    for (cell, &v) in ob.data[at..at + n].iter_mut().zip(&*buf) {
                        *cell = s.red(op, *cell, v);
                    }
                } else {
                    for (k, &v) in buf.iter().enumerate() {
                        let cell = &mut ob.data[at + k * stride];
                        *cell = s.red(op, *cell, v);
                    }
                }
            }
            start += n;
        }
    }

    /// Executes the body for one coordinate (the generic fused path:
    /// loads once into locals, then the straight-line folds).
    #[inline(always)]
    fn coord<S: Semi>(&mut self, body: &mut RBody<'a>, s: S, coord: usize, val: Option<f64>) {
        let mut locals = [0f64; MAX_FUSED_LOADS];
        for (local, ld) in locals.iter_mut().zip(&body.loads[..body.n_loads]) {
            *local = match *ld {
                RLoad::Val => val.expect("driver value in a driven fused loop"),
                RLoad::Dense { slice, base, stride } => slice[base + coord * stride],
            };
        }
        for fold in body.folds[..body.n_folds].iter_mut() {
            let mut k = 0usize;
            let mut v = if fold.has_lead {
                fold.lead
            } else {
                k = 1;
                src_val(fold.srcs[0], &locals)
            };
            while k < fold.n_srcs {
                v = s.bin(fold.bin, v, src_val(fold.srcs[k], &locals));
                k += 1;
            }
            match fold.acc {
                RAcc::Slot { .. } | RAcc::Cell { .. } => {
                    fold.accv = s.red(fold.op, fold.accv, v);
                }
                RAcc::Out { ord, off, stride } => {
                    let ob = self.outs[ord].as_mut().expect("output bound");
                    let cell = &mut ob.data[off + coord * stride - ob.base];
                    *cell = s.red(fold.op, *cell, v);
                }
            }
        }
    }

    /// A [`Runner::Closed`] form over its strided dense operand `x` — one
    /// loop entry is one [`Self::closed_window`].
    fn closed_entry<D: Drive>(
        &mut self,
        fu: &Fused,
        x: &DenseOperand,
        form: ClosedForm,
        idx: usize,
        drive: &D,
    ) {
        let x =
            Strided { xs: self.dense[x.tensor], base: offset(self.u, &x.base), stride: x.stride };
        let out = self.out_at(fu.last_acc());
        let (uniform, bin, op) = fu.semiring();
        self.u[idx] =
            with_semi!(uniform, bin, op, |s| self.closed_window(s, form, &fu.folds, x, out, drive));
    }

    /// One window of a closed-form body over its resolved operands: `x`
    /// the strided dense operand, `out = (ordinal, offset)` the output
    /// the body itself writes (a dot's invariant accumulator cell, the
    /// axpy side's target). Shared by fused-loop entries and row-nest
    /// rows, so both run the same folds on the same arguments. Returns
    /// the last coordinate.
    #[inline(always)]
    fn closed_window<S: Semi, D: Drive>(
        &mut self,
        s: S,
        form: ClosedForm,
        folds: &[FFold],
        x: Strided<'_>,
        (ord, off): (usize, usize),
        drive: &D,
    ) -> usize {
        match form {
            ClosedForm::Dot(chain) => {
                let ch = DotChain::of(self.f, &folds[0], chain);
                let acc = self.dot_acc(&folds[0].acc, (ord, off));
                let (acc1, last) = fold_dot(s, &ch, *acc, drive, x);
                *acc = acc1;
                last
            }
            ClosedForm::DotAxpy { slot, scale, scale_first, stride } => {
                let (dot, axpy) = (&folds[0], &folds[1]);
                let scale = self.f[scale];
                let ob = self.outs[ord].as_mut().expect("output bound");
                let mut out = AxpyOut {
                    data: &mut *ob.data,
                    off,
                    stride,
                    origin: ob.base,
                    bin: axpy.bin,
                    op: axpy.op,
                    scale,
                    scale_first,
                };
                let pair = (dot.bin, dot.op);
                let (acc, last) = fold_dot_axpy(s, pair, self.f[slot], drive, x, &mut out);
                self.f[slot] = acc;
                last
            }
        }
    }

    /// The per-hit side of a membership-gated dot: one read of `tensor`
    /// and the miss-checked `fold`'s store side per hit.
    fn count_hits(&mut self, fold: &FFold, tensor: usize, hits: u64) {
        self.reads[tensor] += hits;
        if fold.op != AssignOp::Overwrite {
            self.flops += hits;
        }
        if matches!(fold.acc, FAcc::Out { .. }) {
            self.writes += hits;
        }
    }

    /// Workspace `ws` as the last [`Instr::Scatter`] left it.
    fn scattered(&self, ws: &Workspace) -> Scattered<'r> {
        let fiber = level(self.levels, self.lvl_base, ws.tensor, ws.level);
        Scattered::of(ws, self.ws, self.u, fiber, self.vals[ws.tensor])
    }

    /// One entry of a [`Runner::WorkspaceDot`] loop over the driven row
    /// `row` of `driven` (`None`: unstored or empty). The intersection
    /// it replaces entered whenever its driver window — the scattered row
    /// — was non-empty, whatever the probed row held, so this one does
    /// too, and counts what that entry counted.
    #[inline(never)]
    fn workspace_entry(
        &mut self,
        fu: &Fused,
        chain: DotShape,
        ws: &Workspace,
        driven: usize,
        idx: usize,
        row: Option<&CrdDrive<'a>>,
    ) {
        let w = self.scattered(ws);
        if w.len() == 0 {
            return;
        }
        self.iterations += w.len() as u64;
        self.account(fu.runner.kind(), fu, w.len() as u64);
        if let Some(row) = row {
            let fold = &fu.folds[0];
            let out = self.out_at(&fold.acc);
            let hits = with_semi!(true, fold.bin, fold.op, |s| {
                self.gathered_window(s, chain, fold, &w, out, row)
            });
            self.count_hits(fold, driven, hits);
        }
        self.u[idx] = w.crd[w.stop - 1];
    }

    /// One window of a [`Runner::WorkspaceDot`] body against the
    /// scattered row `w`, its accumulator at `out` (as
    /// [`Self::closed_window`] takes it) — shared by loop entries and
    /// row-nest rows. Returns the hits.
    #[inline(always)]
    fn gathered_window<S: Semi, D: Drive>(
        &mut self,
        s: S,
        chain: DotShape,
        fold: &FFold,
        w: &Scattered<'_>,
        out: (usize, usize),
        row: &D,
    ) -> u64 {
        let ch = DotChain::of(self.f, fold, chain);
        let acc = self.dot_acc(&fold.acc, out);
        let (acc1, hits) = fold_gathered(s, &ch, *acc, row, w);
        *acc = acc1;
        hits
    }
}

/// A loop head's bounds: the `lo` / `hi` register bounds clamped
/// against `hi_start`, intersected with the chunk's coordinate window
/// when `pc` is a split head — the one place chunking touches loop
/// iteration, shared by every head kind.
#[inline]
fn loop_window(
    u: &[usize],
    lo: &[Bound],
    hi: &[Bound],
    hi_start: i64,
    chunk: Option<Chunk<'_>>,
    pc: usize,
) -> (i64, i64) {
    let mut lo_v = 0i64;
    for b in lo {
        lo_v = lo_v.max(u[b.reg] as i64 + b.delta);
    }
    let mut hi_v = hi_start;
    for b in hi {
        hi_v = hi_v.min(u[b.reg] as i64 + b.delta);
    }
    if let Some((clo, chi)) = chunk.and_then(|c| c.window(pc)) {
        lo_v = lo_v.max(clo);
        hi_v = hi_v.min(chi);
    }
    (lo_v, hi_v)
}

/// Positions `start..stop` of compressed fiber `p` whose coordinates
/// fall in `[lo_v, hi_v]`. Each side is searched only when it can cut:
/// a bound the fiber's first / last coordinate already satisfies (the
/// vacuous bounds of unclamped loops, a diagonal window over its own
/// one-entry fiber) costs one comparison.
#[inline(always)]
fn crd_window(pos: &[usize], crd: &[usize], p: usize, lo_v: i64, hi_v: i64) -> (usize, usize) {
    let (begin, end) = (pos[p], pos[p + 1]);
    let slice = &crd[begin..end];
    let (Some(&first), Some(&last)) = (slice.first(), slice.last()) else {
        return (begin, begin);
    };
    let start = if first as i64 >= lo_v {
        begin
    } else {
        begin + slice.partition_point(|&c| (c as i64) < lo_v)
    };
    let stop = if last as i64 <= hi_v {
        end
    } else {
        begin + slice.partition_point(|&c| (c as i64) <= hi_v)
    };
    (start, stop)
}

/// The compressed drive over fiber `p` of `fiber` clamped to
/// `[lo_v, hi_v]`; `None` when the parent path is unstored or the
/// window is empty.
#[inline(always)]
fn crd_drive<'a>(
    fiber: LevelView<'a>,
    vals: &'a [f64],
    p: usize,
    lo_v: i64,
    hi_v: i64,
) -> Option<CrdDrive<'a>> {
    if p == MISS {
        return None;
    }
    let LevelView::Sparse { pos, crd, .. } = fiber else {
        unreachable!("compressed vector loop over a non-sparse level");
    };
    let (start, stop) = crd_window(pos, crd, p, lo_v, hi_v);
    (start < stop).then(|| CrdDrive { crd: &crd[start..stop], vals: &vals[start..stop] })
}

/// The run-length drive over fiber `p` of `fiber` clamped to
/// `[lo_v, hi_v]` (possibly empty — [`Drive::len`] tells); `None` when
/// the parent path is unstored or the bounds cross.
#[inline(always)]
fn rle_drive<'a>(
    fiber: LevelView<'a>,
    vals: &'a [f64],
    p: usize,
    lo_v: i64,
    hi_v: i64,
) -> Option<RleDrive<'a>> {
    if p == MISS || lo_v > hi_v {
        return None;
    }
    let LevelView::RunLength { pos, run_start, run_end, .. } = fiber else {
        unreachable!("vector rle loop over a non-rle level");
    };
    let (begin, stop) = (pos[p], pos[p + 1]);
    // As in [`crd_window`]: search only when the bound can cut.
    let start = if begin == stop || run_end[begin] as i64 >= lo_v {
        begin
    } else {
        begin + run_end[begin..stop].partition_point(|&c| (c as i64) < lo_v)
    };
    Some(RleDrive { vals, run_start, run_end, start, stop, lo: lo_v as usize, hi: hi_v as usize })
}

// ---------------------------------------------------------------------------
// Row nests
// ---------------------------------------------------------------------------

/// A strided address with everything but the row index folded in at
/// nest entry: `base + row · stride`.
#[derive(Clone, Copy, Default)]
struct Affine {
    base: usize,
    stride: usize,
}

impl Affine {
    fn resolve(u: &[usize], terms: &[Term], idx: usize) -> Affine {
        let mut a = Affine::default();
        for t in terms {
            if t.reg == idx {
                a.stride += t.stride;
            } else {
                a.base += u[t.reg] * t.stride;
            }
        }
        a
    }

    #[inline(always)]
    fn at(self, row: usize) -> usize {
        self.base + row * self.stride
    }
}

/// The rows of a nest, already clamped to its window.
#[derive(Clone, Copy)]
enum Rows<'a> {
    /// Coordinates `lo..` of a dense level: `c` sits at `base + c`.
    Dense { lo: usize, base: usize },
    /// Coordinates `lo..`, each probed in `view` under fiber `p`
    /// ([`MISS`]: unstored — every row then skips its inner loop).
    Probed { lo: usize, view: LevelView<'a>, p: usize },
    /// Stored positions `start..`, their coordinates in `crd`.
    Stored { crd: &'a [usize], start: usize },
}

impl Rows<'_> {
    /// `(row index, position in the row level)` of the `r`-th row.
    #[inline(always)]
    fn at(&self, r: usize) -> (usize, usize) {
        match *self {
            Rows::Dense { lo, base } => (lo + r, base + lo + r),
            Rows::Probed { lo, p: MISS, .. } => (lo + r, MISS),
            Rows::Probed { lo, view, p } => (lo + r, view.find(p, lo + r).unwrap_or(MISS)),
            Rows::Stored { crd, start } => (crd[start + r], start + r),
        }
    }
}

/// A [`RowNest`] resolved against one run's bindings — operand slices,
/// address bases, the window recipe, the semiring — so a row costs its
/// position, its window, its few scalar steps and one direct fold call.
/// Everything a per-row `Vec*Loop` entry re-derives (window registers,
/// a [`LoopRun`], guards, operand resolution, bulk counters) happens
/// once per run, in [`LoopRun::nest`].
struct NestRun<'p> {
    pre: &'p [Instr],
    post: &'p [Instr],
    /// Addresses of the `pre` then `post` steps that have one.
    at: [Affine; 2 * MAX_NEST_STEPS],
    /// Inner bounds, as deltas on the row index (`None`: unbounded).
    lo: Option<i64>,
    hi: Option<i64>,
    /// The inner body's folds.
    folds: &'p [FFold],
    /// The output the body itself writes, by ordinal (as
    /// [`LoopRun::closed_window`] takes it).
    out: (usize, Affine),
}

/// A nest's closed-form body against its strided dense operand
/// `xs[x.at(row) + coord·x_stride]`.
#[derive(Clone, Copy)]
struct NestClosed<'a> {
    form: ClosedForm,
    xs: &'a [f64],
    x: Affine,
    x_stride: usize,
}

impl<'a> LoopRun<'_, 'a, '_> {
    /// Executes a whole [`RowNest`] at `pc`: resolves it once, walks its
    /// rows in one native loop, and tallies its counters as products —
    /// the scalar steps' recipe per row, the body's per inner
    /// coordinate, one dispatch per non-empty inner-loop entry — which
    /// is what the replaced instruction sequence adds up to.
    fn nest(&mut self, nest: &RowNest, chunk: Option<Chunk<'_>>, pc: usize) {
        let (u, idx) = (&*self.u, nest.idx);
        let p = u[nest.parent];
        let view = level(self.levels, self.lvl_base, nest.tensor, nest.level);
        // The row window, exactly as the replaced head computes it.
        let (rows, n) = match nest.rows {
            NestRows::Counted { extent } => {
                let (lo, hi) = loop_window(u, &nest.lo, &nest.hi, extent as i64 - 1, chunk, pc);
                let rows = match view {
                    LevelView::Dense { size } if p != MISS && hi < size as i64 => {
                        Rows::Dense { lo: lo as usize, base: p * size }
                    }
                    _ => Rows::Probed { lo: lo as usize, view, p },
                };
                (rows, (hi - lo + 1).max(0) as usize)
            }
            NestRows::Stored if p == MISS => return,
            NestRows::Stored => {
                let (lo, hi) = loop_window(u, &nest.lo, &nest.hi, i64::MAX, chunk, pc);
                let LevelView::Sparse { pos, crd, .. } = view else {
                    unreachable!("stored rows over a non-sparse level");
                };
                let (start, stop) = crd_window(pos, crd, p, lo, hi);
                (Rows::Stored { crd, start }, stop.saturating_sub(start))
            }
        };

        // One semiring for the whole nest, as at a fused loop entry.
        let (uniform, bin, op) = nest.fused.semiring();
        let mut at = [Affine::default(); 2 * MAX_NEST_STEPS];
        for (at, step) in at.iter_mut().zip(nest.pre.iter().chain(nest.post.iter())) {
            if let Instr::ReadDense { terms, .. } | Instr::WriteOutput { terms, .. } = step {
                *at = Affine::resolve(u, terms, idx);
            }
        }
        let run = NestRun {
            pre: &nest.pre,
            post: &nest.post,
            at,
            lo: nest.inner_lo.iter().map(|b| b.delta).max(),
            hi: nest.inner_hi.iter().map(|b| b.delta).min(),
            folds: &nest.fused.folds,
            out: match nest.fused.last_acc() {
                FAcc::Scalar { .. } => (0, Affine::default()),
                FAcc::Out { tensor, base, .. } => (self.oo[*tensor], Affine::resolve(u, base, idx)),
            },
        };
        let fiber = level(self.levels, self.lvl_base, nest.tensor, nest.level + 1);
        let a = self.vals[nest.tensor];
        // Each body kind walks the rows in a loop of its own.
        let (iters, entries) = match &nest.fused.runner {
            Runner::Closed { x, form } => {
                let body = NestClosed {
                    form: *form,
                    xs: self.dense[x.tensor],
                    x: Affine::resolve(u, &x.base, idx),
                    x_stride: x.stride,
                };
                with_semi!(uniform, bin, op, |s| if nest.rle {
                    self.nest_rows(s, &run, body, rows, n, |p, lo, hi| {
                        rle_drive(fiber, a, p, lo, hi)
                    })
                } else {
                    self.nest_rows(s, &run, body, rows, n, |p, lo, hi| {
                        crd_drive(fiber, a, p, lo, hi)
                    })
                })
            }
            // A workspace body drives a compressed fiber (`compile`).
            Runner::WorkspaceDot { chain, ws } => {
                let w = self.scattered(ws);
                let hits = with_semi!(uniform, bin, op, |s| {
                    self.nest_gathered(s, &run, *chain, &w, rows, n, |p, lo, hi| {
                        crd_drive(fiber, a, p, lo, hi)
                    })
                });
                // Its hits read the rows' level. `w` is the same row on
                // every row, so each row entered the merge it replaces
                // (and walked `w`'s window) exactly when `w` is non-empty.
                self.count_hits(&nest.fused.folds[0], nest.tensor, hits);
                let entries = if w.len() > 0 { n as u64 } else { 0 };
                (entries * w.len() as u64, entries)
            }
            _ => unreachable!("`fuse::row_nest` admits closed and workspace runners only"),
        };

        self.iterations += n as u64 + iters;
        self.dispatch[nest.fused.runner.kind().index()] += entries;
        self.tally(&nest.per_row, n as u64);
        self.tally(&nest.fused.bulk, iters);
    }

    /// The row walk every nest body shares: each of `n` rows' prologue,
    /// then `inner(self, row, p, lo, hi)` over its position `p` and its
    /// inner window `[lo, hi]` — what [`loop_window`] computes per
    /// inner-loop entry — then its epilogue.
    #[inline(always)]
    fn each_row(
        &mut self,
        run: &NestRun<'_>,
        rows: Rows<'a>,
        n: usize,
        mut inner: impl FnMut(&mut Self, usize, usize, i64, i64),
    ) {
        let (at_pre, at_post) = run.at.split_at(run.pre.len());
        for r in 0..n {
            let (row, p) = rows.at(r);
            self.nest_steps(run.pre, at_pre, row);
            let lo = run.lo.map_or(0, |d| (row as i64 + d).max(0));
            let hi = run.hi.map_or(i64::MAX, |d| row as i64 + d);
            inner(self, row, p, lo, hi);
            self.nest_steps(run.post, at_post, row);
        }
    }

    /// Walks `n` rows of a closed-form nest (`drive` opens row position
    /// `p`'s inner window) and returns the inner-loop coordinates
    /// executed and the number of non-empty inner-loop entries.
    fn nest_rows<S: Semi, D: Drive>(
        &mut self,
        s: S,
        run: &NestRun<'_>,
        body: NestClosed<'a>,
        rows: Rows<'a>,
        n: usize,
        drive: impl Fn(usize, i64, i64) -> Option<D>,
    ) -> (u64, u64) {
        let (mut iters, mut entries) = (0u64, 0u64);
        self.each_row(run, rows, n, |lr, row, p, lo, hi| {
            if let Some(d) = drive(p, lo, hi).filter(|d| d.len() > 0) {
                iters += d.len() as u64;
                entries += 1;
                // Exactly a fused-loop entry, minus the resolution.
                let x = Strided { xs: body.xs, base: body.x.at(row), stride: body.x_stride };
                let out = (run.out.0, run.out.1.at(row));
                lr.closed_window(s, body.form, run.folds, x, out, &d);
            }
        });
        (iters, entries)
    }

    /// Walks `n` rows of a workspace nest, each row's inner window
    /// gather-dotted against the scattered row `w`, and returns the hits.
    #[allow(clippy::too_many_arguments)]
    fn nest_gathered<S: Semi, D: Drive>(
        &mut self,
        s: S,
        run: &NestRun<'_>,
        chain: DotShape,
        w: &Scattered<'_>,
        rows: Rows<'a>,
        n: usize,
        drive: impl Fn(usize, i64, i64) -> Option<D>,
    ) -> u64 {
        let mut hits = 0u64;
        self.each_row(run, rows, n, |lr, row, p, lo, hi| {
            if w.len() == 0 {
                return;
            }
            if let Some(d) = drive(p, lo, hi) {
                let out = (run.out.0, run.out.1.at(row));
                hits += lr.gathered_window(s, chain, &run.folds[0], w, out, &d);
            }
        });
        hits
    }

    /// One row's prologue or epilogue: the instructions' own semantics
    /// (their counters are tallied per nest).
    #[inline(always)]
    fn nest_steps(&mut self, steps: &[Instr], at: &[Affine], row: usize) {
        for (step, at) in steps.iter().zip(at) {
            match step {
                Instr::InitScalar { slot, val } => self.f[*slot] = *val,
                Instr::ReadDense { dst, tensor, .. } => {
                    self.f[*dst] = self.dense[*tensor][at.at(row)];
                }
                Instr::WriteOutput { tensor, op, src, .. } => {
                    let ob = self.outs[self.oo[*tensor]].as_mut().expect("output bound");
                    let cell = &mut ob.data[at.at(row) - ob.base];
                    *cell = op.apply(*cell, self.f[*src]);
                }
                Instr::WriteScalar { slot, op, src } => {
                    self.f[*slot] = op.apply(self.f[*slot], self.f[*src]);
                }
                _ => unreachable!("row nests carry scalar prologue / epilogue steps only"),
            }
        }
    }
}

/// Per-loop fiber cache: the loop head resolves the driver's packed
/// arrays once; the advance instruction reads them straight back.
#[derive(Clone, Copy, Default)]
enum Fiber<'a> {
    #[default]
    None,
    Crd(&'a [usize]),
    Runs(&'a [usize], &'a [usize]),
}

/// [`Instr::Scatter`]: fiber `u[parent]` of `w`'s level, clamped to
/// `[lo, hi]`, into `w`'s position slots, its window published in
/// `u[w.start]..u[w.stop]`. `u[parent]` is never MISS: the intersection's
/// driver value load needs a stored parent (`compile`'s never-miss
/// facts). Out of line, as is [`LoopRun::workspace_entry`], so the
/// workspace instructions do not grow `run_range`'s dispatch loop.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn scatter(
    levels: &[Option<LevelView<'_>>],
    lvl_base: &[usize],
    u: &mut [usize],
    ws: &mut [usize],
    parent: usize,
    lo: &[Bound],
    hi: &[Bound],
    w: &Workspace,
    pc: usize,
) {
    let LevelView::Sparse { pos, crd, .. } = level(levels, lvl_base, w.tensor, w.level) else {
        unreachable!("workspace rows scatter compressed fibers");
    };
    let (lo_v, hi_v) = loop_window(u, lo, hi, i64::MAX, None, pc);
    let (start, stop) = crd_window(pos, crd, u[parent], lo_v, hi_v);
    let stop = stop.max(start);
    for (q, &k) in crd[start..stop].iter().enumerate() {
        ws[w.base + k] = start + q;
    }
    u[w.start] = start;
    u[w.stop] = stop;
}

/// Runs the whole program once over the given state, with the top-level
/// split heads (if `chunk` is set) clamped to the chunk's coordinate
/// window. Counters accumulate into `counters` (not reset here, so one
/// worker can fold multiple chunks into one bank).
#[allow(clippy::too_many_arguments)]
fn run_range<'a>(
    program: &BytecodeProgram,
    dense: &[&'a [f64]],
    vals: &[&'a [f64]],
    levels: &[Option<LevelView<'a>>],
    outs: &mut [Option<OutBind<'_>>],
    u: &mut Vec<usize>,
    f: &mut Vec<f64>,
    ws: &mut Vec<usize>,
    counters: &mut CounterBank,
    chunk: Option<Chunk<'_>>,
) {
    // Reset the register files (reusing capacity).
    u.clear();
    u.extend_from_slice(&program.u_init);
    f.clear();
    f.resize(program.n_f, 0.0);
    // Workspace slots only grow: their contents are validated per read.
    if ws.len() < program.ws_len {
        ws.resize(program.ws_len, 0);
    }
    let u = u.as_mut_slice();
    let f = f.as_mut_slice();
    let mut fibers_t: Scratch<Fiber<'a>, MAX_CACHES> = Scratch::new(program.n_caches);
    let fibers = fibers_t.as_mut_slice();
    let lvl_base = program.level_base.as_slice();
    let oo = program.out_ordinal.as_slice();

    let mut missing = false;
    let reads = &mut counters.reads;
    let mut flops = 0u64;
    let mut writes = 0u64;
    let mut iterations = 0u64;
    // Per-runner vector-loop dispatch tally, indexed by
    // `telemetry::RunnerKind::index`. Kept as plain locals on the hot
    // path and flushed to the global registry once per chunk, so
    // parallel workers never contend on a shared counter cache line.
    let mut dispatch = [0u64; telemetry::RUNNER_KINDS.len()];

    /// `out[terms] op= v`, counted as one write plus the reduction flop.
    macro_rules! store_out {
        ($tensor:expr, $terms:expr, $op:expr, $v:expr) => {{
            let off = offset(u, $terms);
            let ob = outs[oo[$tensor]].as_mut().expect("output bound");
            let cell = &mut ob.data[off - ob.base];
            *cell = $op.apply(*cell, $v);
            writes += 1;
            flops += u64::from($op != AssignOp::Overwrite);
        }};
    }

    /// `f[slot] op= v`, counted as the reduction flop.
    macro_rules! store_scalar {
        ($slot:expr, $op:expr, $v:expr) => {{
            f[$slot] = $op.apply(f[$slot], $v);
            flops += u64::from($op != AssignOp::Overwrite);
        }};
    }

    /// Runs one vector loop or row nest (`$run`) on a [`LoopRun`] built
    /// over this function's binding tables and scratch (one point of
    /// truth for the field set; the free identifiers resolve to the
    /// locals above), then folds its counters into the totals.
    macro_rules! vec_loop {
        (|$lr:ident| $run:expr) => {{
            let mut $lr = LoopRun {
                ws: &*ws,
                u: &mut *u,
                f: &mut *f,
                dense,
                vals,
                levels,
                lvl_base,
                outs: &mut *outs,
                oo,
                reads: &mut reads[..],
                flops: 0,
                writes: 0,
                iterations: 0,
                dispatch: &mut dispatch,
            };
            $run;
            flops += $lr.flops;
            writes += $lr.writes;
            iterations += $lr.iterations;
        }};
    }

    let instrs = &program.instrs;
    let mut pc = 0usize;
    loop {
        match &instrs[pc] {
            Instr::Jump { to } => {
                pc = *to;
            }
            Instr::DenseLoopHead { idx, cur, end, extent, lo, hi, exit } => {
                let (lo_v, hi_v) = loop_window(u, lo, hi, *extent as i64 - 1, chunk, pc);
                if lo_v > hi_v {
                    pc = *exit;
                } else {
                    u[*cur] = lo_v as usize;
                    u[*end] = hi_v as usize;
                    u[*idx] = lo_v as usize;
                    iterations += 1;
                    pc += 1;
                }
            }
            Instr::DenseLoopNext { idx, cur, end, back } => {
                let c = u[*cur] + 1;
                if c <= u[*end] {
                    u[*cur] = c;
                    u[*idx] = c;
                    iterations += 1;
                    pc = *back;
                } else {
                    pc += 1;
                }
            }
            Instr::SparseLoopHead {
                tensor,
                level: lv,
                cache,
                idx,
                parent,
                child,
                cur,
                end,
                lo,
                hi,
                exit,
            } => {
                let p = u[*parent];
                if p == MISS {
                    pc = *exit;
                    continue;
                }
                let (lo_v, hi_v) = loop_window(u, lo, hi, i64::MAX, chunk, pc);
                let LevelView::Sparse { pos, crd, .. } = level(levels, lvl_base, *tensor, *lv)
                else {
                    unreachable!("sparse loop over a non-sparse level");
                };
                let (start, stop) = crd_window(pos, crd, p, lo_v, hi_v);
                if start >= stop {
                    pc = *exit;
                } else {
                    fibers[*cache] = Fiber::Crd(crd);
                    u[*cur] = start;
                    u[*end] = stop;
                    u[*idx] = crd[start];
                    u[*child] = start;
                    iterations += 1;
                    pc += 1;
                }
            }
            Instr::SparseLoopNext { cache, idx, child, cur, end, back } => {
                let c = u[*cur] + 1;
                if c < u[*end] {
                    let Fiber::Crd(crd) = fibers[*cache] else {
                        unreachable!("sparse advance before its head");
                    };
                    u[*cur] = c;
                    u[*idx] = crd[c];
                    u[*child] = c;
                    iterations += 1;
                    pc = *back;
                } else {
                    pc += 1;
                }
            }
            Instr::RleLoopHead {
                tensor,
                level: lv,
                cache,
                idx,
                parent,
                child,
                run,
                run_end: run_end_reg,
                coord,
                hi_reg,
                lo,
                hi,
                exit,
            } => {
                let (lo_v, hi_v) = loop_window(u, lo, hi, i64::MAX, chunk, pc);
                let fiber = level(levels, lvl_base, *tensor, *lv);
                let drive = rle_drive(fiber, vals[*tensor], u[*parent], lo_v, hi_v);
                let Some(d) = drive.filter(|d| d.start < d.stop) else {
                    pc = *exit;
                    continue;
                };
                let c0 = d.run_start[d.start].max(d.lo);
                if c0 > d.hi {
                    pc = *exit;
                    continue;
                }
                fibers[*cache] = Fiber::Runs(d.run_start, d.run_end);
                u[*run] = d.start;
                u[*run_end_reg] = d.stop;
                u[*coord] = c0;
                u[*hi_reg] = d.hi;
                u[*idx] = c0;
                u[*child] = d.start;
                iterations += 1;
                pc += 1;
            }
            Instr::RleLoopNext {
                cache,
                idx,
                child,
                run,
                run_end: run_end_reg,
                coord,
                hi_reg,
                back,
            } => {
                let Fiber::Runs(run_start, run_end) = fibers[*cache] else {
                    unreachable!("rle advance before its head");
                };
                let mut r = u[*run];
                let mut c = u[*coord];
                if c >= run_end[r] {
                    r += 1;
                    if r >= u[*run_end_reg] {
                        pc += 1;
                        continue;
                    }
                    c = run_start[r];
                } else {
                    c += 1;
                }
                if c > u[*hi_reg] {
                    pc += 1;
                } else {
                    u[*run] = r;
                    u[*coord] = c;
                    u[*idx] = c;
                    u[*child] = r;
                    iterations += 1;
                    pc = *back;
                }
            }
            Instr::Probe { tensor, level: lv, parent, child, idx } => {
                let p = u[*parent];
                u[*child] = if p == MISS {
                    MISS
                } else {
                    level(levels, lvl_base, *tensor, *lv).find(p, u[*idx]).unwrap_or(MISS)
                };
                pc += 1;
            }
            Instr::JumpIfCmp { op, a, b, to } => {
                pc = if op.eval(u[*a], u[*b]) { *to } else { pc + 1 };
            }
            Instr::JumpIfNotCmp { op, a, b, to } => {
                pc = if op.eval(u[*a], u[*b]) { pc + 1 } else { *to };
            }
            Instr::Const { dst, val } => {
                f[*dst] = *val;
                pc += 1;
            }
            Instr::Copy { dst, src } => {
                f[*dst] = f[*src];
                pc += 1;
            }
            Instr::Bin { op, dst, a, b } => {
                f[*dst] = op.apply(f[*a], f[*b]);
                flops += 1;
                pc += 1;
            }
            Instr::ReadDense { dst, tensor, terms } => {
                f[*dst] = dense[*tensor][offset(u, terms)];
                reads[*tensor] += 1;
                pc += 1;
            }
            Instr::ReadOutput { dst, tensor, terms } => {
                let ob = outs[oo[*tensor]].as_ref().expect("output bound");
                f[*dst] = ob.data[offset(u, terms) - ob.base];
                reads[*tensor] += 1;
                pc += 1;
            }
            Instr::ReadSparsePath { dst, tensor, leaf, annihilator } => {
                let leaf_pos = u[*leaf];
                if leaf_pos == MISS {
                    if *annihilator {
                        missing = true;
                    }
                    f[*dst] = 0.0;
                } else {
                    f[*dst] = vals[*tensor][leaf_pos];
                    reads[*tensor] += 1;
                }
                pc += 1;
            }
            Instr::ReadSparseDirect { dst, tensor, leaf } => {
                f[*dst] = vals[*tensor][u[*leaf]];
                reads[*tensor] += 1;
                pc += 1;
            }
            Instr::ReadSparseRandom { dst, tensor, modes, annihilator } => {
                match descend(levels, lvl_base, u, *tensor, modes) {
                    Some(p) => {
                        f[*dst] = vals[*tensor][p];
                        reads[*tensor] += 1;
                    }
                    None => {
                        missing |= *annihilator;
                        f[*dst] = 0.0;
                    }
                }
                pc += 1;
            }
            Instr::CmpVal { dst, op, a, b } => {
                f[*dst] = if op.eval(u[*a], u[*b]) { 1.0 } else { 0.0 };
                pc += 1;
            }
            Instr::LookupTable { dst, table, src } => {
                let i = f[*src] as usize;
                f[*dst] = program.tables[*table].get(i).copied().unwrap_or(0.0);
                pc += 1;
            }
            Instr::ClearMiss => {
                missing = false;
                pc += 1;
            }
            Instr::JumpIfMiss { to } => {
                pc = if missing { *to } else { pc + 1 };
            }
            Instr::JumpIfUMiss { reg, to } => {
                pc = if u[*reg] == MISS { *to } else { pc + 1 };
            }
            Instr::WriteOutput { tensor, terms, op, src } => {
                store_out!(*tensor, terms, *op, f[*src]);
                pc += 1;
            }
            Instr::WriteScalar { slot, op, src } => {
                store_scalar!(*slot, *op, f[*src]);
                pc += 1;
            }
            Instr::InitScalar { slot, val } => {
                f[*slot] = *val;
                pc += 1;
            }
            Instr::VecDenseLoop { idx, extent, lo, hi, items } => {
                let (lo_v, hi_v) = loop_window(u, lo, hi, *extent as i64 - 1, chunk, pc);
                if lo_v <= hi_v {
                    vec_loop!(|lr| lr.run(
                        items,
                        *idx,
                        &RangeDrive { lo: lo_v as usize, hi: hi_v as usize }
                    ));
                }
                pc += 1;
            }
            Instr::VecSparseLoop { tensor, level: lv, idx, parent, lo, hi, items } => {
                let fiber = level(levels, lvl_base, *tensor, *lv);
                let (lo_v, hi_v) = loop_window(u, lo, hi, i64::MAX, chunk, pc);
                let drive = crd_drive(fiber, vals[*tensor], u[*parent], lo_v, hi_v);
                if let Runner::WorkspaceDot { chain, ws } = &items[0].body.runner {
                    // The loop's only item (`compile`); it enters on the
                    // scattered row, whatever the driven one holds.
                    let (fu, row) = (&items[0].body, drive.as_ref());
                    vec_loop!(|lr| lr.workspace_entry(fu, *chain, ws, *tensor, *idx, row));
                } else if let Some(drive) = drive {
                    vec_loop!(|lr| lr.run(items, *idx, &drive));
                }
                pc += 1;
            }
            Instr::Scatter { parent, lo, hi, ws: w } => {
                scatter(levels, lvl_base, u, ws, *parent, lo, hi, w, pc);
                pc += 1;
            }
            Instr::VecRleLoop { tensor, level: lv, idx, parent, lo, hi, items } => {
                let fiber = level(levels, lvl_base, *tensor, *lv);
                let (lo_v, hi_v) = loop_window(u, lo, hi, i64::MAX, chunk, pc);
                if let Some(drive) = rle_drive(fiber, vals[*tensor], u[*parent], lo_v, hi_v) {
                    vec_loop!(|lr| lr.run(items, *idx, &drive));
                }
                pc += 1;
            }
            Instr::RowNest(nest) => {
                vec_loop!(|lr| lr.nest(nest, chunk, pc));
                pc += 1;
            }
            Instr::Halt => break,
        }
    }

    counters.flops += flops;
    counters.writes += writes;
    counters.iterations += iterations;

    let metrics = telemetry::global();
    for (kind, n) in telemetry::RUNNER_KINDS.iter().zip(dispatch) {
        if n > 0 {
            metrics.fused(*kind).add(n);
        }
    }
}

pub(crate) fn execute(
    program: &BytecodeProgram,
    inputs: &HashMap<String, Tensor>,
    outputs: &mut HashMap<String, DenseTensor>,
    ctx: &mut ExecContext,
    parallelism: Parallelism,
    out_counters: &mut Counters,
) -> Result<(), ExecError> {
    execute_inner(program, inputs, outputs, ctx, parallelism, out_counters, None)
}

/// Serial execution of one coordinate chunk `k` of `n`: the split heads
/// are clamped to `[k*extent/n, (k+1)*extent/n)` and every output is
/// bound at its full buffer — owned outputs receive only their window
/// rows, reduced outputs accumulate the chunk's partial on top of the
/// caller-provided initial values. The caller must have verified the
/// plan is splittable (`program.split.is_some()`).
pub(crate) fn execute_chunk(
    program: &BytecodeProgram,
    inputs: &HashMap<String, Tensor>,
    outputs: &mut HashMap<String, DenseTensor>,
    ctx: &mut ExecContext,
    out_counters: &mut Counters,
    k: usize,
    n: usize,
) -> Result<(), ExecError> {
    execute_inner(program, inputs, outputs, ctx, Parallelism::Serial, out_counters, Some((k, n)))
}

#[allow(clippy::too_many_arguments)]
fn execute_inner(
    program: &BytecodeProgram,
    inputs: &HashMap<String, Tensor>,
    outputs: &mut HashMap<String, DenseTensor>,
    ctx: &mut ExecContext,
    parallelism: Parallelism,
    out_counters: &mut Counters,
    shard: Option<(usize, usize)>,
) -> Result<(), ExecError> {
    // Run-phase telemetry: one clock read on entry, one on success.
    let run_start = std::time::Instant::now();
    // Bind tensor slots, validating that shapes still match the plan.
    // The tables live on the stack (inline for typical plan sizes) so
    // the steady-state path never allocates.
    let n_slots = program.tensors.len();
    let mut dense_t: Scratch<&[f64], MAX_SLOTS> = Scratch::new(n_slots);
    let dense = dense_t.as_mut_slice();
    let mut vals_t: Scratch<&[f64], MAX_SLOTS> = Scratch::new(n_slots);
    let vals = vals_t.as_mut_slice();
    let mut levels_t: Scratch<Option<LevelView>, MAX_LEVELS> = Scratch::new(program.n_levels);
    let levels = levels_t.as_mut_slice();
    for (slot, info) in program.tensors.iter().enumerate() {
        match info.kind {
            SlotKind::DenseInput => match inputs.get(&info.name) {
                Some(Tensor::Dense(t)) => {
                    check_dims(&info.name, &info.dims, t.dims())?;
                    dense[slot] = t.as_slice();
                }
                _ => return Err(ExecError::UnknownTensor { name: info.name.clone() }),
            },
            SlotKind::SparseInput => match inputs.get(&info.name) {
                Some(Tensor::Sparse(t)) => {
                    check_dims(&info.name, &info.dims, t.dims())?;
                    for k in 0..t.rank() {
                        // Loop heads and miss elisions are monomorphized
                        // per level format.
                        if t.formats()[k] != info.formats[k] {
                            return Err(ExecError::BindingFormatMismatch {
                                name: info.name.clone(),
                                expected: info.formats.clone(),
                                got: t.formats().to_vec(),
                            });
                        }
                        levels[program.level_base[slot] + k] = Some(t.level_view(k));
                    }
                    vals[slot] = t.values();
                }
                _ => return Err(ExecError::UnknownTensor { name: info.name.clone() }),
            },
            SlotKind::Output => match outputs.get(&info.name) {
                Some(t) => check_dims(&info.name, &info.dims, t.dims())?,
                None => return Err(ExecError::UnknownTensor { name: info.name.clone() }),
            },
        }
    }
    // Borrow every output mutably in place (one pass over the map — the
    // iterator hands out disjoint `&mut`s, so no tensors move).
    let mut outs_t: OutTable<'_> = Scratch::new(program.n_outputs);
    let outs = outs_t.as_mut_slice();
    for (name, tensor) in outputs.iter_mut() {
        if let Some(slot) = program
            .tensors
            .iter()
            .position(|info| info.kind == SlotKind::Output && info.name == *name)
        {
            outs[program.out_ordinal[slot]] =
                Some(OutBind { data: tensor.as_mut_slice(), base: 0 });
        }
    }

    // Decide the execution shape: chunked workers when the plan is
    // splittable and more than one thread was requested, serial
    // otherwise (including degenerate domains). A shard-chunk run is
    // always serial — the caller is the unit of parallelism.
    let plan = match (parallelism, &program.split) {
        (Parallelism::Threads(n), Some(split)) if n >= 2 && shard.is_none() => {
            let max_extent = split.heads.iter().map(|&(_, e)| e).max().unwrap_or(0);
            let n_chunks = max_extent.min(n * CHUNKS_PER_WORKER);
            let threads = n.min(n_chunks);
            (threads >= 2).then_some((split, n_chunks, threads))
        }
        _ => None,
    };

    match plan {
        None => {
            let chunk = match (&program.split, shard) {
                (Some(split), Some((k, n))) => Some(Chunk { heads: &split.heads, k, n }),
                _ => None,
            };
            let bank = &mut ctx.banks(1)[0];
            bank.counters.reset(n_slots);
            let Bank { u, f, ws, counters, .. } = bank;
            run_range(program, dense, vals, levels, outs, u, f, ws, counters, chunk);
            bank.counters.write_to(program.tensors.iter().map(|t| t.name.as_str()), out_counters);
        }
        Some((split, n_chunks, threads)) => {
            run_parallel(
                program,
                dense,
                vals,
                levels,
                outs,
                ctx,
                split,
                n_chunks,
                threads,
                out_counters,
            );
        }
    }
    let metrics = telemetry::global();
    metrics.vm_runs.inc();
    metrics.vm_run_ns.add(u64::try_from(run_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    Ok(())
}

/// Chunked execution over a worker pool of scoped threads. Chunks are
/// dealt round-robin (`chunk k → worker k % threads`); every worker
/// processes its chunks in increasing order, so the merge order — and
/// therefore every output bit and counter — is a deterministic function
/// of (plan, data, thread count).
#[allow(clippy::too_many_arguments)]
fn run_parallel<'a>(
    program: &BytecodeProgram,
    dense: &[&'a [f64]],
    vals: &[&'a [f64]],
    levels: &[Option<LevelView<'a>>],
    outs: &mut [Option<OutBind<'_>>],
    ctx: &mut ExecContext,
    split: &SplitInfo,
    n_chunks: usize,
    threads: usize,
    out_counters: &mut Counters,
) {
    let n_slots = program.tensors.len();
    let oo = program.out_ordinal.as_slice();

    // Distribute the outputs: owned outputs split at chunk row
    // boundaries; reduced outputs keep their main slice here and hand
    // each worker a private buffer instead.
    let mut chunk_owned: Vec<Vec<(usize, OutBind<'_>)>> =
        (0..n_chunks).map(|_| Vec::new()).collect();
    let mut reduced_meta: Vec<(usize, AssignOp, usize)> = Vec::new();
    let mut reduced_mains: Vec<&mut [f64]> = Vec::new();
    for &(slot, mode) in &split.outputs {
        let bind = outs[oo[slot]].take().expect("output bound");
        match mode {
            MergeKind::Rows => {
                let extent = split.owned_extent.expect("owned outputs pin a common extent");
                let stride: usize = program.tensors[slot].dims[1..].iter().product();
                let mut rest = bind.data;
                let mut consumed = 0usize;
                for (k, owned) in chunk_owned.iter_mut().enumerate() {
                    let end = crate::chunk_window(extent, k, n_chunks).end * stride;
                    let (piece, tail) = rest.split_at_mut(end - consumed);
                    owned.push((slot, OutBind { data: piece, base: consumed }));
                    consumed = end;
                    rest = tail;
                }
            }
            MergeKind::Reduce(op) => {
                reduced_meta.push((slot, op, bind.data.len()));
                reduced_mains.push(bind.data);
            }
        }
    }

    // Deal chunks to workers round-robin.
    type WorkerChunks<'o> = Vec<(usize, Vec<(usize, OutBind<'o>)>)>;
    let mut worker_chunks: Vec<WorkerChunks<'_>> = (0..threads).map(|_| Vec::new()).collect();
    for (k, owned) in chunk_owned.into_iter().enumerate() {
        worker_chunks[k % threads].push((k, owned));
    }

    let banks = ctx.banks(threads);
    let heads = split.heads.as_slice();
    let reduced_meta_ref = &reduced_meta;
    rayon::scope(|s| {
        // One batched submission for the whole fan-out: a k-worker
        // dispatch costs one pool lock and one wakeup round instead of
        // k of each (the spawn traffic dominated sub-200µs kernels).
        s.spawn_batch(banks.iter_mut().zip(worker_chunks).map(|(bank, chunks)| {
            move |_: &rayon::Scope<'_, '_>| {
                bank.counters.reset(n_slots);
                for (r, &(_, op, len)) in reduced_meta_ref.iter().enumerate() {
                    let identity = op.identity().expect("reduced outputs use reducing ops");
                    bank.reset_reduce(r, len, identity);
                }
                let Bank { u, f, ws, counters, reduce } = bank;
                for (k, owned) in chunks {
                    let mut outs_t: OutTable<'_> = Scratch::new(program.n_outputs);
                    let w_outs = outs_t.as_mut_slice();
                    for (slot, ob) in owned {
                        w_outs[oo[slot]] = Some(ob);
                    }
                    for (buf, &(slot, _, _)) in reduce.iter_mut().zip(reduced_meta_ref) {
                        w_outs[oo[slot]] = Some(OutBind { data: buf, base: 0 });
                    }
                    let chunk = Chunk { heads, k, n: n_chunks };
                    run_range(
                        program,
                        dense,
                        vals,
                        levels,
                        w_outs,
                        u,
                        f,
                        ws,
                        counters,
                        Some(chunk),
                    );
                }
            }
        }));
    });

    // Merge in fixed worker order: integer counter sums match the
    // serial totals exactly; reduction buffers fold with their operator.
    let mut total = CounterBank::with_slots(n_slots);
    for bank in banks.iter() {
        total.merge(&bank.counters);
    }
    total.write_to(program.tensors.iter().map(|t| t.name.as_str()), out_counters);
    for (r, main) in reduced_mains.into_iter().enumerate() {
        let op = reduced_meta[r].1;
        for bank in banks.iter() {
            crate::fold_into(op, main, &bank.reduce[r]);
        }
    }
}

fn check_dims(name: &str, expected: &[usize], got: &[usize]) -> Result<(), ExecError> {
    if expected == got {
        Ok(())
    } else {
        Err(ExecError::BindingShapeMismatch {
            name: name.to_string(),
            expected: expected.to_vec(),
            got: got.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(ord: usize, off: usize, stride: usize) -> RAcc {
        RAcc::Out { ord, off, stride }
    }

    #[test]
    fn equal_offsets_meet_only_at_the_same_coordinate() {
        assert!(apart(out(0, 8, 1), out(0, 8, 1), 0, 4));
        assert!(apart(out(0, 8, 3), out(0, 8, 3), 5, 16));
    }

    #[test]
    fn equal_strides_a_multiple_apart_inside_the_window_fall_back() {
        // Cells 2 and 3 take fold a at coordinates 2, 3 and fold b at 0, 1.
        assert!(!apart(out(0, 0, 1), out(0, 2, 1), 0, 4));
        assert!(!apart(out(0, 6, 2), out(0, 0, 2), 10, 4));
    }

    #[test]
    fn equal_strides_a_multiple_apart_outside_the_window_pass() {
        // MTTKRP's factor rows: offsets `i·r` and `j·r`, unit stride,
        // an `r`-wide window.
        assert!(apart(out(0, 0, 1), out(0, 4, 1), 0, 4));
        assert!(apart(out(0, 40, 1), out(0, 8, 1), 0, 16));
        assert!(apart(out(0, 0, 2), out(0, 8, 2), 3, 4));
    }

    #[test]
    fn equal_strides_off_the_lattice_pass() {
        assert!(apart(out(0, 0, 2), out(0, 3, 2), 0, 8));
        assert!(apart(out(0, 1, 5), out(0, 13, 5), 0, 100));
    }

    #[test]
    fn mixed_strides_pass_only_on_disjoint_ranges() {
        // [0, 3] against [2, 8]: overlapping.
        assert!(!apart(out(0, 0, 1), out(0, 2, 2), 0, 4));
        // [0, 3] against [10, 16]: disjoint.
        assert!(apart(out(0, 0, 1), out(0, 10, 2), 0, 4));
        assert!(apart(out(0, 10, 2), out(0, 0, 1), 0, 4));
        // The window's start moves both ranges: [4, 7] against [16, 22].
        assert!(apart(out(0, 0, 1), out(0, 8, 2), 4, 4));
        // `C[i,l]` against `C[l,j]` of an 8×8 `C`: row 2 and column 5 cross.
        assert!(!apart(out(0, 16, 1), out(0, 5, 8), 0, 8));
    }

    #[test]
    fn other_outputs_and_single_coordinates_always_pass() {
        assert!(apart(out(0, 0, 1), out(1, 2, 1), 0, 4));
        assert!(apart(out(0, 0, 1), out(0, 0, 2), 7, 1));
        // A stride-0 pair on one cell is apart only over one coordinate.
        assert!(!apart(out(0, 3, 0), out(0, 3, 0), 0, 2));
        assert!(apart(out(0, 3, 0), out(0, 4, 0), 0, 2));
    }

    #[test]
    fn a_body_jams_only_when_every_pair_is_apart() {
        let fold = |acc| RFold {
            lead: 0.0,
            has_lead: false,
            srcs: [RSrc::Const(0.0); MAX_FUSED_SRCS],
            n_srcs: 1,
            acc,
            accv: 0.0,
            bin: BinOp::Mul,
            op: AssignOp::Add,
        };
        let rows = [fold(out(0, 0, 1)), fold(out(0, 4, 1)), fold(out(0, 8, 1))];
        assert!(stores_apart(&rows, 0, 4));
        assert!(!stores_apart(&rows, 0, 5));
        let crossed = [fold(out(0, 0, 1)), fold(out(1, 0, 1)), fold(out(0, 2, 1))];
        assert!(!stores_apart(&crossed, 0, 4));
        assert!(stores_apart(&crossed[..2], 0, 4));
    }
}
