//! The flat, register-based instruction set the VM executes.
//!
//! Three register files, all resolved to flat indices at compile time:
//!
//! * `u` — `usize` registers: loop-index values, loop counters (cursor /
//!   end / run / coordinate), and sparse-path positions. Position
//!   registers use [`MISS`] as the "unstored" sentinel.
//! * `f` — `f64` registers: lowered scalars (`let` / workspace slots)
//!   followed by expression temporaries.
//! * one `missing` flag, set by annihilator reads that miss and consumed
//!   by [`Instr::JumpIfMiss`].
//!
//! Control flow is explicit: every loop is a `*LoopHead` (evaluate
//! bounds, position the iterator, enter the first iteration or jump to
//! the exit) followed by the body and a `*LoopNext` (advance; jump back
//! or fall through). Loop heads are monomorphized per driver
//! [`systec_tensor::LevelFormat`] — a dense counted loop, a compressed
//! `pos`/`crd` walk, or a run-length walk — so the hot path never
//! dispatches on storage format.
//!
//! Vector-loop bodies are selected the same way: each [`Fused`] body
//! carries the [`Runner`] the compiler chose for it, so the VM reads
//! one field where it would otherwise match the body's shape per loop
//! entry.

use systec_exec::lowered::SlotKind;
use systec_ir::{AssignOp, BinOp, CmpOp};
use systec_telemetry::RunnerKind;
use systec_tensor::LevelFormat;

use crate::MergeKind;

/// Sentinel for "position unstored" in `u` position registers.
pub(crate) const MISS: usize = usize::MAX;

/// One `offset += u[reg] * stride` term of a strided address.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Term {
    /// Index register.
    pub reg: usize,
    /// Row-major stride (baked in at compile time; the plan key pins the
    /// operand shapes).
    pub stride: usize,
}

/// One dynamic loop bound: `u[reg] + delta`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bound {
    pub reg: usize,
    pub delta: i64,
}

/// A bytecode instruction. `to` / `exit` / `back` fields are absolute
/// program counters after label resolution.
#[derive(Clone, Debug)]
pub(crate) enum Instr {
    /// Unconditional jump.
    Jump { to: usize },
    /// Dense loop entry: clamp bounds, start at the lower bound.
    DenseLoopHead {
        idx: usize,
        cur: usize,
        end: usize,
        extent: usize,
        lo: Box<[Bound]>,
        hi: Box<[Bound]>,
        exit: usize,
    },
    /// Dense loop advance.
    DenseLoopNext { idx: usize, cur: usize, end: usize, back: usize },
    /// Compressed-driver loop entry: binary-search the bound window in
    /// the level's `crd` slice, then walk stored coordinates. The head
    /// publishes the fiber's `crd` slice under `cache` so the advance
    /// never re-resolves the tensor binding.
    SparseLoopHead {
        tensor: usize,
        level: usize,
        cache: usize,
        idx: usize,
        parent: usize,
        child: usize,
        cur: usize,
        end: usize,
        lo: Box<[Bound]>,
        hi: Box<[Bound]>,
        exit: usize,
    },
    /// Compressed-driver loop advance.
    SparseLoopNext { cache: usize, idx: usize, child: usize, cur: usize, end: usize, back: usize },
    /// Run-length-driver loop entry (publishes `run_start`/`run_end`
    /// slices under `cache`).
    RleLoopHead {
        tensor: usize,
        level: usize,
        cache: usize,
        idx: usize,
        parent: usize,
        child: usize,
        run: usize,
        run_end: usize,
        coord: usize,
        hi_reg: usize,
        lo: Box<[Bound]>,
        hi: Box<[Bound]>,
        exit: usize,
    },
    /// Run-length-driver loop advance.
    RleLoopNext {
        cache: usize,
        idx: usize,
        child: usize,
        run: usize,
        run_end: usize,
        coord: usize,
        hi_reg: usize,
        back: usize,
    },
    /// Advance a non-driving tracked access one level at the current
    /// coordinate (`u[child] = find(u[parent], u[idx])` or [`MISS`]).
    Probe { tensor: usize, level: usize, parent: usize, child: usize, idx: usize },
    /// Jump when the comparison over `u` registers holds.
    JumpIfCmp { op: CmpOp, a: usize, b: usize, to: usize },
    /// Jump when the comparison over `u` registers fails.
    JumpIfNotCmp { op: CmpOp, a: usize, b: usize, to: usize },
    /// `f[dst] = val`.
    Const { dst: usize, val: f64 },
    /// `f[dst] = f[src]`.
    Copy { dst: usize, src: usize },
    /// `f[dst] = op(f[a], f[b])` (one flop).
    Bin { op: BinOp, dst: usize, a: usize, b: usize },
    /// Strided dense-input element read (one counted read).
    ReadDense { dst: usize, tensor: usize, terms: Box<[Term]> },
    /// Strided output element read (one counted read).
    ReadOutput { dst: usize, tensor: usize, terms: Box<[Term]> },
    /// Tracked-path sparse read: `f[dst] = vals[u[leaf]]`, or fill (0)
    /// when the leaf position is [`MISS`].
    ReadSparsePath { dst: usize, tensor: usize, leaf: usize, annihilator: bool },
    /// Tracked-path sparse read proven never to miss (every level of
    /// the path is bound by a driver loop or a dense-level probe): no
    /// sentinel check.
    ReadSparseDirect { dst: usize, tensor: usize, leaf: usize },
    /// Non-concordant sparse read: per-level search from the root.
    ReadSparseRandom { dst: usize, tensor: usize, modes: Box<[usize]>, annihilator: bool },
    /// `f[dst] = op(u[a], u[b]) as 0/1`.
    CmpVal { dst: usize, op: CmpOp, a: usize, b: usize },
    /// `f[dst] = tables[table][f[src] as usize]` (0 out of range).
    LookupTable { dst: usize, table: usize, src: usize },
    /// Clear the miss flag before a fallible right-hand side.
    ClearMiss,
    /// Jump when the miss flag is set (annihilated assignment).
    JumpIfMiss { to: usize },
    /// Jump when `u[reg]` is [`MISS`] (`let` over an absent driver value).
    JumpIfUMiss { reg: usize, to: usize },
    /// Reducing (or overwriting) store to an output element.
    WriteOutput { tensor: usize, terms: Box<[Term]>, op: AssignOp, src: usize },
    /// Reducing (or overwriting) store to a scalar slot.
    WriteScalar { slot: usize, op: AssignOp, src: usize },
    /// Workspace initialization: `f[slot] = val` (uncounted).
    InitScalar { slot: usize, val: f64 },
    /// A whole innermost dense loop as one instruction: guards are
    /// loop-invariant (evaluated once at entry) and every body is a
    /// [`Fused`] load/fold list. Counter semantics are identical to
    /// executing the equivalent instruction sequence.
    VecDenseLoop {
        idx: usize,
        extent: usize,
        lo: Box<[Bound]>,
        hi: Box<[Bound]>,
        items: Box<[VItem]>,
    },
    /// A whole innermost compressed-driver loop as one instruction.
    VecSparseLoop {
        tensor: usize,
        level: usize,
        idx: usize,
        parent: usize,
        lo: Box<[Bound]>,
        hi: Box<[Bound]>,
        items: Box<[VItem]>,
    },
    /// A whole innermost run-length-driver loop as one instruction: runs
    /// expand into strided body applications, one per covered
    /// coordinate, with the run's value position held constant across
    /// the run. Counter semantics are identical to the equivalent
    /// `RleLoopHead`/`RleLoopNext` walk.
    VecRleLoop {
        tensor: usize,
        level: usize,
        idx: usize,
        parent: usize,
        lo: Box<[Bound]>,
        hi: Box<[Bound]>,
        items: Box<[VItem]>,
    },
    /// A whole two-deep loop nest — a row loop around one innermost
    /// closed-form or workspace vector loop — as one instruction (see
    /// [`RowNest`]).
    RowNest(Box<RowNest>),
    /// Scatters fiber `u[parent]` of the workspace's level, clamped to
    /// `[lo, hi]`, into its position slots and publishes the window
    /// (uncounted: the [`Runner::WorkspaceDot`] entries that read it
    /// count as the intersection they replace).
    Scatter { parent: usize, lo: Box<[Bound]>, hi: Box<[Bound]>, ws: Workspace },
    /// End of program.
    Halt,
}

/// How a [`RowNest`] enumerates its rows.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NestRows {
    /// Every coordinate `0..extent` (a [`Instr::DenseLoopHead`]); the
    /// row's position in the driven level is probed per coordinate (the
    /// head's [`Instr::Probe`]).
    Counted { extent: usize },
    /// The stored coordinates of the driven compressed level (an
    /// [`Instr::SparseLoopHead`]).
    Stored,
}

/// The row nest: `*LoopHead [Probe] pre… Vec{Sparse,Rle}Loop post…
/// *LoopNext` where the row body is straight-line scalar work around
/// exactly one innermost vector loop whose single unguarded item runs
/// through a [`Runner::Closed`] form or [`Runner::WorkspaceDot`]
/// (`crate::fuse::row_nest` is the selector). The sequence is
/// *replaced* by this instruction: the VM resolves every operand once
/// per run (or chunk) and then walks rows in one native loop, calling
/// the same closed-form folds a per-row `Vec*Loop` entry would —
/// outputs and counters are those of the instruction sequence, bit for
/// bit. Like the head it replaces, a top-level nest is a split head
/// and clamps its rows to the chunk's coordinate window.
#[derive(Clone, Debug)]
pub(crate) struct RowNest {
    /// The row loop's index register.
    pub idx: usize,
    /// The driven tensor: rows walk its `level`, the inner loop
    /// `level + 1`.
    pub tensor: usize,
    pub level: usize,
    /// Position register of the fiber the rows live in.
    pub parent: usize,
    pub rows: NestRows,
    /// Row bounds (as on the head).
    pub lo: Box<[Bound]>,
    pub hi: Box<[Bound]>,
    /// Per-row prologue: [`Instr::InitScalar`] / [`Instr::ReadDense`].
    pub pre: Box<[Instr]>,
    /// The inner driver walks a run-length level (else compressed).
    pub rle: bool,
    /// Inner-loop bounds, over the row index and outer registers.
    pub inner_lo: Box<[Bound]>,
    pub inner_hi: Box<[Bound]>,
    /// The inner loop's body (its runner is [`Runner::Closed`] or
    /// [`Runner::WorkspaceDot`]).
    pub fused: Fused,
    /// Per-row epilogue: [`Instr::WriteOutput`] / [`Instr::WriteScalar`].
    pub post: Box<[Instr]>,
    /// What `pre` and `post` count per row, as the instructions
    /// themselves would (the body's own recipe is [`Fused::bulk`]).
    pub per_row: BulkCounts,
}

/// One (possibly guarded) group of straight-line work inside a vector
/// loop. The guard is a conjunction over loop-invariant `u` registers.
/// A loop holds several items only when their guards are pairwise
/// exclusive (`crate::fuse::exclusive`), so at most one passes per entry.
#[derive(Clone, Debug)]
pub(crate) struct VItem {
    /// Conjunction of comparisons over loop-invariant registers.
    pub guard: Box<[(CmpOp, usize, usize)]>,
    /// The body, executed through its [`Fused::runner`] for each
    /// coordinate when the guard passes.
    pub body: Fused,
}

/// The canonical dot chain `acc op= [lead ∘] a [∘ mid] ∘ b` of a
/// two-load body whose load `a` is the driver value (the scattered
/// fiber's, under [`Runner::WorkspaceDot`]): `fold.srcs[..n_lead]` are
/// the leading invariant registers, `mid` the invariant register between
/// the two loads, `b` the other operand's load.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DotShape {
    pub n_lead: usize,
    pub a: usize,
    pub mid: Option<usize>,
    pub b: usize,
}

/// The runner a fused body executes through — chosen once, when the
/// body seals (`crate::fuse::BodyBuilder::seal`), from its load / fold
/// lists, and carrying every operand it needs (an intersection's body is
/// re-driven from its probed side, `crate::fuse::workspace_form`, or its
/// loop stays on the general path). The VM dispatches on it and never
/// re-derives it: only the guards, the jam runner's store check and the
/// semiring instantiation are decided per loop entry. Telemetry counts
/// dispatches under the runner's name ([`Runner::kind`]), a jam entry
/// that runs coordinate by coordinate included.
#[derive(Clone, Debug)]
pub(crate) enum Runner {
    /// A closed form over an unprobed driver against `x`, a copy of the
    /// body's strided dense load.
    Closed { x: DenseOperand, form: ClosedForm },
    /// The canonical probe-gated intersection dot (`crate::fuse::gated_dot`:
    /// one register-held fold `acc op= [lead ∘] a [∘ mid] ∘ p` whose store
    /// only the probe load `chain.b` gates) run from the probed side: the
    /// loop drives the probed fiber, `chain.b` is its value and `chain.a`
    /// reads the intersection's driver fiber back from `ws`, where an
    /// [`Instr::Scatter`] left it. Only coordinates of that fiber fold,
    /// in ascending order, so outputs are the intersection's bit for
    /// bit. An entry counts as the intersection it replaces: the body's
    /// recipe ([`Fused::bulk`]) once per scattered coordinate, the driven
    /// read and the store side once per hit.
    WorkspaceDot { chain: DotShape, ws: Workspace },
    /// A multi-store jam — MTTKRP's and TTM's factor-row updates, a
    /// dense scale-store: every load a strided dense read, every fold a
    /// strided output store (`stride != 0`) with no miss check. Over a
    /// contiguous drive the VM runs it fold by fold: each fold's chain
    /// elementwise into a stack buffer over a slice of the window, then
    /// reduced into the output slice. That reorders updates only across
    /// cells, never within one, when no two folds touch one cell at
    /// different coordinates of the window — checked per contiguous
    /// segment from the resolved stores; a segment that fails, and any
    /// stored-list drive, runs coordinate by coordinate as `Generic`
    /// does. Counters are the body's recipe ([`Fused::bulk`]), in bulk.
    Jam,
    /// Any other body (sparse-driven axpys, register-held folds):
    /// resolved per entry, driven coordinate by coordinate. No load of
    /// such a body can miss, so every fold stores at every coordinate.
    /// Counters are the body's recipe ([`Fused::bulk`]), in bulk.
    Generic,
}

/// A workspace row: one fiber of `level` of `tensor`, scattered once per
/// iteration of an enclosing loop into the worker's position slots (slot
/// `base + k` holds the position of coordinate `k`), with the scattered
/// window's positions in `u[start]..u[stop]`. A slot is trusted only
/// when it points into that window at coordinate `k`, so nothing an
/// earlier row, run or plan left in the slots reads as a member, and no
/// slot is ever cleared.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Workspace {
    pub tensor: usize,
    pub level: usize,
    pub base: usize,
    pub start: usize,
    pub stop: usize,
}

/// The strided dense operand `dense[tensor][offset(u, base) +
/// coord·stride]` of a [`Runner::Closed`] body.
#[derive(Clone, Debug)]
pub(crate) struct DenseOperand {
    pub tensor: usize,
    pub base: Box<[Term]>,
    pub stride: usize,
}

/// The two closed forms against a strided dense operand `x`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ClosedForm {
    /// One unguarded fold `acc op= [lead ∘] a [∘ mid] ∘ x[coord]`, `acc`
    /// a scalar slot or a loop-invariant output cell (register-held).
    Dot(DotShape),
    /// SSYMV's pair: fold 0 `f[slot] op= a ∘ x[coord]` and fold 1
    /// `out[coord·stride] oop= a ∘ f[scale]` (`scale ∘ a` when
    /// `scale_first`), a strided store per coordinate.
    DotAxpy { slot: usize, scale: usize, scale_first: bool, stride: usize },
}

/// One per-coordinate load of a fused body. Loads evaluate **once** per
/// coordinate, in order, into local value slots (their position in the
/// load list) — never through the `f` register file.
#[derive(Clone, Debug)]
pub(crate) enum FLoad {
    /// The driver's value at the current position (counted per
    /// iteration, in bulk, against the driving tensor).
    Val,
    /// The probed fiber's value in an intersection body, fill (0) + miss
    /// off the fiber. A compile-time form only:
    /// `crate::fuse::workspace_form` turns it into the driver value, or
    /// the loop stays on the general path.
    Probe { set_miss: bool },
    /// The scattered fiber's value at the current coordinate, a miss off
    /// the fiber (read only by [`Runner::WorkspaceDot`], which counts it
    /// per scattered coordinate).
    Scattered,
    /// Strided dense element `dense[tensor][offset(u, base) + coord·stride]`
    /// (counted per iteration, in bulk).
    Dense { tensor: usize, base: Box<[Term]>, stride: usize },
}

/// One operand of a fused fold.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FOp {
    /// A per-coordinate load, by position in the body's load list.
    Local(usize),
    /// A loop-invariant `f` register, snapshot once at loop entry (the
    /// compiler proves nothing in the loop writes it).
    Reg(usize),
}

/// Where a fused fold accumulates.
#[derive(Clone, Debug)]
pub(crate) enum FAcc {
    /// `f[slot]` — held in a machine register across the whole loop
    /// (the compiler proves no operand reads it).
    Scalar { slot: usize },
    /// `out[offset(u, base) + coord·stride]`.
    Out { tensor: usize, base: Box<[Term]>, stride: usize },
}

/// One fold of a fused body: `acc op= fold(bin, srcs)`. The fold always
/// evaluates (and counts its flops); with `check_miss` the store — its
/// write and reduce flop — is skipped while a load of `miss` missed, as
/// in the interpreter's miss-checked assignment.
#[derive(Clone, Debug)]
pub(crate) struct FFold {
    pub acc: FAcc,
    pub bin: BinOp,
    pub op: AssignOp,
    pub srcs: Box<[FOp]>,
    pub check_miss: bool,
    /// Load locals whose miss state gates this fold's store — exactly
    /// the `set_miss` loads between the previous fold and this one in
    /// body order (an assignment's operand loads directly precede its
    /// fold), mirroring the interpreter's per-assignment `ClearMiss`
    /// scoping without a mutable flag.
    pub miss: Box<[usize]>,
}

/// Per-iteration loop-invariant counter contributions of a fused body:
/// the fused runners account these in bulk (`recipe × iterations`);
/// only [`Runner::WorkspaceDot`] counts hit-dependent work (the driven
/// read and the miss-checked store side) per hit.
#[derive(Clone, Debug, Default)]
pub(crate) struct BulkCounts {
    /// Element reads per iteration, per tensor slot.
    pub reads: Box<[(usize, u64)]>,
    /// Fold flops (plus unguarded reduce flops) per iteration.
    pub flops: u64,
    /// Unguarded output stores per iteration.
    pub writes: u64,
}

impl Runner {
    /// The telemetry label this runner's dispatches count under.
    pub(crate) fn kind(&self) -> RunnerKind {
        match self {
            Runner::Closed { form: ClosedForm::Dot(_), .. } => RunnerKind::Dot,
            Runner::Closed { form: ClosedForm::DotAxpy { .. }, .. } => RunnerKind::DotAxpy,
            Runner::WorkspaceDot { .. } => RunnerKind::WorkspaceDot,
            Runner::Jam => RunnerKind::Jam,
            Runner::Generic => RunnerKind::Generic,
        }
    }
}

impl Fused {
    /// The body's semiring as `(every fold uses it, bin, op)`, from
    /// fold 0: one monomorphized instantiation when uniform.
    pub(crate) fn semiring(&self) -> (bool, BinOp, AssignOp) {
        let (bin, op) = (self.folds[0].bin, self.folds[0].op);
        (self.folds.iter().all(|fold| fold.bin == bin && fold.op == op), bin, op)
    }

    /// The accumulator of the body's last fold — for a closed form, the
    /// output the body itself writes: the dot's invariant cell, the
    /// axpy side's target.
    pub(crate) fn last_acc(&self) -> &FAcc {
        &self.folds[self.folds.len() - 1].acc
    }
}

/// A fused loop body — the one executable form of a vector-loop body:
/// per-coordinate loads into local slots feeding straight-line folds
/// (see `crate::fuse` for the conformance rules), and the runner the
/// compiler picked for them.
#[derive(Clone, Debug)]
pub(crate) struct Fused {
    /// The runner that executes this body.
    pub runner: Runner,
    /// Per-coordinate loads, evaluated in order into local slots.
    pub loads: Box<[FLoad]>,
    /// Straight-line folds, executed in order per coordinate.
    pub folds: Box<[FFold]>,
    /// Bulk counter recipe (invariant contributions per iteration).
    pub bulk: BulkCounts,
}

/// Per-tensor-slot binding metadata, validated when the program binds
/// concrete tensors.
#[derive(Clone, Debug)]
pub(crate) struct TensorInfo {
    /// Display name (binding key in the input/output maps).
    pub name: String,
    /// Binding class.
    pub kind: SlotKind,
    /// Shape the plan was compiled against.
    pub dims: Vec<usize>,
    /// Level formats the plan was compiled against (sparse inputs; the
    /// loop heads and `never_miss` elisions are monomorphized per
    /// format, so a same-shaped tensor packed differently must not bind).
    pub formats: Vec<LevelFormat>,
}

/// The compiler's proof that a program may execute row-parallel: which
/// top-level loop heads can be clamped to a coordinate chunk, and how
/// each output must be bound so chunks never conflict.
#[derive(Clone, Debug)]
pub(crate) struct SplitInfo {
    /// Top-level loop heads as `(pc, index extent)`, in program order.
    /// Workers run the whole program with each of these heads clamped to
    /// the worker's coordinate chunk `[k*extent/chunks, (k+1)*extent/chunks)`.
    pub heads: Vec<(usize, usize)>,
    /// When [`MergeKind::Rows`] outputs exist, the common extent all split
    /// loops share — chunk boundaries in this domain double as the row
    /// boundaries the owned buffers are split at.
    pub owned_extent: Option<usize>,
    /// How each output slot the split loops touch is bound and merged
    /// (`(slot, kind)` pairs): a `Rows` output's workers write disjoint
    /// row ranges of the shared buffer in place; a `Reduce` output's
    /// workers reduce into private identity-initialized buffers, merged
    /// in fixed worker order after the join.
    pub outputs: Vec<(usize, MergeKind)>,
}

/// A compiled program: flat instructions plus register-file sizes and
/// binding metadata.
#[derive(Clone, Debug)]
pub(crate) struct BytecodeProgram {
    pub instrs: Vec<Instr>,
    /// Initial contents of the `u` file (index slots 0, root positions 0,
    /// deeper positions [`MISS`]).
    pub u_init: Vec<usize>,
    /// Size of the `f` file (scalars + temporaries).
    pub n_f: usize,
    /// Lookup tables referenced by [`Instr::LookupTable`].
    pub tables: Vec<Box<[f64]>>,
    /// Number of per-loop fiber caches (one per driven loop).
    pub n_caches: usize,
    /// Position slots across all [`Workspace`]s.
    pub ws_len: usize,
    /// Per-slot binding metadata, in slot order.
    pub tensors: Vec<TensorInfo>,
    /// Start of each slot's run of entries in the flattened level-view
    /// binding table (meaningful for sparse slots only).
    pub level_base: Vec<usize>,
    /// Total level-view entries across all sparse slots.
    pub n_levels: usize,
    /// Output ordinal per slot (`usize::MAX` for inputs): outputs bind
    /// into a dense table of `n_outputs` mutable slices.
    pub out_ordinal: Vec<usize>,
    /// Number of output slots.
    pub n_outputs: usize,
    /// Present when the program proved row-parallelizable.
    pub split: Option<SplitInfo>,
}
