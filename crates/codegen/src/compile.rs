//! Compilation of a [`LoweredProgram`] into flat bytecode.
//!
//! Everything the interpreter resolves per visit — name lookups are
//! already gone after lowering, but enum-dispatch on statement and
//! expression nodes, per-step level-format dispatch, and `Option`-boxed
//! path positions remain — is resolved here once:
//!
//! * loop heads are monomorphized per driver level format,
//! * strided addresses carry their strides inline,
//! * expressions become three-address code over a flat `f64` file,
//! * path positions become plain `usize` registers with a sentinel.

use std::collections::HashMap;

use systec_exec::lowered::{LBound, LCond, LExpr, LStmt, LTarget, SlotKind};
use systec_exec::{ExecError, LoweredProgram};
use systec_tensor::{DenseTensor, LevelFormat, Tensor};

use systec_ir::{AssignOp, CmpOp};

use crate::bytecode::{
    Bound, BytecodeProgram, FAcc, FLoad, FOp, Instr, SplitInfo, TensorInfo, Term, VItem, Workspace,
    MISS,
};
use crate::fuse::{exclusive, independent, BodyBuilder};
use crate::MergeKind;

/// Per-slot compile-time binding info.
enum SlotLayout {
    Dense { strides: Vec<usize> },
    Sparse { formats: Vec<LevelFormat> },
    Output { strides: Vec<usize> },
}

pub(crate) fn compile(
    program: &LoweredProgram,
    inputs: &HashMap<String, Tensor>,
    outputs: &HashMap<String, DenseTensor>,
) -> Result<BytecodeProgram, ExecError> {
    // Resolve each tensor slot's layout from the concrete bindings (the
    // plan key pins formats and shapes, so baking them in is sound).
    let mut layouts = Vec::with_capacity(program.tensors.len());
    let mut infos = Vec::with_capacity(program.tensors.len());
    for slot in &program.tensors {
        let (layout, dims) = match slot.kind {
            SlotKind::DenseInput => match inputs.get(&slot.name) {
                Some(Tensor::Dense(t)) => {
                    (SlotLayout::Dense { strides: t.strides().to_vec() }, t.dims().to_vec())
                }
                _ => return Err(ExecError::UnknownTensor { name: slot.name.clone() }),
            },
            SlotKind::SparseInput => match inputs.get(&slot.name) {
                Some(Tensor::Sparse(t)) => {
                    (SlotLayout::Sparse { formats: t.formats().to_vec() }, t.dims().to_vec())
                }
                _ => return Err(ExecError::UnknownTensor { name: slot.name.clone() }),
            },
            SlotKind::Output => match outputs.get(&slot.name) {
                Some(t) => {
                    (SlotLayout::Output { strides: t.strides().to_vec() }, t.dims().to_vec())
                }
                None => return Err(ExecError::UnknownTensor { name: slot.name.clone() }),
            },
        };
        let formats = match &layout {
            SlotLayout::Sparse { formats } => formats.clone(),
            _ => Vec::new(),
        };
        layouts.push(layout);
        infos.push(TensorInfo { name: slot.name.clone(), kind: slot.kind, dims, formats });
    }

    // Flattened binding-table layout: one run of level views per sparse
    // slot, one output ordinal per output slot.
    let n_slots = program.tensors.len();
    let mut level_base = vec![0usize; n_slots];
    let mut n_levels = 0usize;
    let mut out_ordinal = vec![usize::MAX; n_slots];
    let mut n_outputs = 0usize;
    for (slot, layout) in layouts.iter().enumerate() {
        match layout {
            SlotLayout::Sparse { formats } => {
                level_base[slot] = n_levels;
                n_levels += formats.len();
            }
            SlotLayout::Output { .. } => {
                out_ordinal[slot] = n_outputs;
                n_outputs += 1;
            }
            SlotLayout::Dense { .. } => {}
        }
    }

    let split_pending = analyze_split(program);

    // `u` register layout: index slots, then path positions, then loop
    // counters (allocated on demand).
    let n_idx = program.indices.len();
    let mut pos_base = Vec::with_capacity(program.accesses.len());
    let mut u_init = vec![0usize; n_idx];
    for access in &program.accesses {
        pos_base.push(u_init.len());
        u_init.push(0); // root position
        u_init.extend(std::iter::repeat_n(MISS, access.rank));
    }

    // Pre-scan: which scalar slots are assignment targets (those can
    // never be alias-elided), and which literal constants appear (they
    // load once into a pooled register in the prologue).
    let mut written = vec![false; program.n_scalars];
    let mut const_pool: Vec<f64> = Vec::new();
    let mut const_ids: HashMap<u64, usize> = HashMap::new();
    let mut pool_literals = |e: &LExpr| {
        e.for_each(&mut |e| {
            if let LExpr::Lit(v) = e {
                const_ids.entry(v.to_bits()).or_insert_with(|| {
                    const_pool.push(*v);
                    const_pool.len() - 1
                });
            }
        })
    };
    program.root.for_each(&mut |s| match s {
        LStmt::Let { value, .. } => pool_literals(value),
        LStmt::Assign { target, rhs, .. } => {
            if let LTarget::Scalar(slot) = target {
                written[*slot] = true;
            }
            pool_literals(rhs);
        }
        _ => {}
    });
    let const_base = program.n_scalars;

    let never_miss = program
        .accesses
        .iter()
        .map(|a| {
            let mut levels = vec![false; a.rank + 1];
            levels[0] = true; // the root position is always stored
            levels
        })
        .collect();
    let mut c = Compiler {
        program,
        layouts: &layouts,
        pos_base,
        u_init,
        instrs: Vec::new(),
        labels: Vec::new(),
        written,
        alias: (0..program.n_scalars).collect(),
        const_ids,
        const_base,
        temp_base: const_base + const_pool.len(),
        temp_next: 0,
        temp_max: 0,
        tables: Vec::new(),
        n_caches: 0,
        never_miss,
        split_pending,
        split_heads: Vec::new(),
        frames: Vec::new(),
        ws_len: 0,
    };
    // Prologue: materialize the constant pool.
    for (k, v) in const_pool.iter().enumerate() {
        c.emit(Instr::Const { dst: const_base + k, val: *v });
    }
    c.stmt(&program.root);
    c.emit(Instr::Halt);
    c.resolve_labels();

    let split = match c.split_pending {
        Some(p) if c.split_heads.len() == p.n_heads => Some(SplitInfo {
            heads: c.split_heads,
            owned_extent: p.owned_extent,
            outputs: p.outputs,
        }),
        _ => None,
    };

    Ok(BytecodeProgram {
        instrs: c.instrs,
        u_init: c.u_init,
        n_f: c.temp_base + c.temp_max,
        tables: c.tables,
        tensors: infos,
        n_caches: c.n_caches,
        ws_len: c.ws_len,
        level_base,
        n_levels,
        out_ordinal,
        n_outputs,
        split,
    })
}

/// Accumulated access pattern of one output slot across the top-level
/// loops, relative to each loop's own index.
#[derive(Clone, Copy, Default)]
struct OutAcc {
    row_write: bool,
    nonrow_write: bool,
    row_read: bool,
    nonrow_read: bool,
    /// First write operator seen, and whether all writes used it.
    op: Option<AssignOp>,
    mixed_ops: bool,
}

impl OutAcc {
    /// Records one access; `row` when its leading subscript is the split
    /// loop's index, `write` carrying a store's operator.
    fn record(&mut self, row: bool, write: Option<AssignOp>) {
        let seen = match (write, row) {
            (None, true) => &mut self.row_read,
            (None, false) => &mut self.nonrow_read,
            (Some(_), true) => &mut self.row_write,
            (Some(_), false) => &mut self.nonrow_write,
        };
        *seen = true;
        match (self.op, write) {
            (None, _) => self.op = write,
            (Some(prev), Some(op)) if prev != op => self.mixed_ops = true,
            _ => {}
        }
    }
}

/// What the analysis proved before compilation assigns head pcs.
struct PendingSplit {
    /// Number of non-empty top-level loops (compilation must emit
    /// exactly this many heads or the split is dropped).
    n_heads: usize,
    owned_extent: Option<usize>,
    outputs: Vec<(usize, MergeKind)>,
}

/// Decides whether the program may execute row-parallel: the root must
/// be a sequence of loops, and every output the loops touch must either
/// be addressed with the enclosing loop's index as its leading
/// subscript (disjoint row slices per chunk) or be written exclusively
/// through one mergeable reduction operator and never read (private
/// per-worker buffers merged after the join). Anything else — overwrite
/// stores to shared rows, reads of reduced outputs, non-loop statements
/// at the root — keeps the program serial.
fn analyze_split(program: &LoweredProgram) -> Option<PendingSplit> {
    let mut loops = Vec::new();
    if !collect_top_loops(&program.root, &mut loops) {
        return None;
    }
    // Statically empty loops compile to nothing; they neither get a head
    // nor touch an output.
    let active: Vec<&LStmt> = loops
        .into_iter()
        .filter(|l| matches!(l, LStmt::Loop { extent, .. } if *extent > 0))
        .collect();
    if active.is_empty() {
        return None;
    }

    let mut accs: Vec<OutAcc> = vec![OutAcc::default(); program.tensors.len()];
    let mut extents = Vec::with_capacity(active.len());
    for l in &active {
        let LStmt::Loop { idx, extent, body, .. } = l else { unreachable!() };
        extents.push(*extent);
        classify_stmt(body, *idx, &mut accs);
    }

    let mut outputs = Vec::new();
    let mut owned_any = false;
    for (slot, acc) in accs.iter().enumerate() {
        let touched = acc.row_write || acc.nonrow_write || acc.row_read || acc.nonrow_read;
        if !touched {
            continue;
        }
        if acc.nonrow_read {
            // Reads of rows other chunks may be writing.
            return None;
        }
        let mode = if acc.nonrow_write {
            // Reductions scattered across rows: need one mergeable
            // operator for every store, and no reads at all (workers
            // reduce into identity-initialized private buffers, so a
            // read would not see the accumulated value).
            if acc.row_read || acc.mixed_ops {
                return None;
            }
            let op = acc.op.expect("a write was recorded");
            op.identity()?; // Overwrite has none: order-dependent, not mergeable
            MergeKind::Reduce(op)
        } else {
            owned_any = true;
            MergeKind::Rows
        };
        outputs.push((slot, mode));
    }

    let owned_extent = if owned_any {
        // Owned row boundaries must coincide across every split loop.
        let e = extents[0];
        if extents.iter().any(|&x| x != e) {
            return None;
        }
        Some(e)
    } else {
        None
    };
    Some(PendingSplit { n_heads: active.len(), owned_extent, outputs })
}

/// Collects the top-level loops of (possibly nested) sequences; `false`
/// when anything other than loops appears at the root.
fn collect_top_loops<'a>(stmt: &'a LStmt, out: &mut Vec<&'a LStmt>) -> bool {
    match stmt {
        LStmt::Seq(ss) => ss.iter().all(|s| collect_top_loops(s, out)),
        LStmt::Loop { .. } => {
            out.push(stmt);
            true
        }
        _ => false,
    }
}

/// Records how outputs are accessed under one top-level loop, keyed to
/// whether each access's leading subscript is that loop's index.
fn classify_stmt(stmt: &LStmt, idx: usize, accs: &mut [OutAcc]) {
    stmt.for_each(&mut |s| {
        let (rhs, write) = match s {
            LStmt::Let { value, .. } => (value, None),
            LStmt::Assign { target, op, rhs, .. } => (rhs, Some((target, *op))),
            _ => return,
        };
        rhs.for_each(&mut |e| {
            if let LExpr::ReadOutput { tensor, modes } = e {
                accs[*tensor].record(modes.first() == Some(&idx), None);
            }
        });
        if let Some((LTarget::Output { tensor, modes }, op)) = write {
            accs[*tensor].record(modes.first() == Some(&idx), Some(op));
        }
    });
}

#[derive(Clone, Copy)]
struct Label(usize);

/// Accumulates vector-loop items during [`Compiler::try_vectorize`]:
/// loads and folds gather into the open body under the current guard; a
/// guard change seals it into an item.
#[derive(Default)]
struct VecBuilder {
    items: Vec<VItem>,
    open_guard: Vec<(CmpOp, usize, usize)>,
    open: BodyBuilder,
    /// Every register a load of the loop binds.
    bound: Vec<usize>,
}

impl VecBuilder {
    /// Seals the open body, if any, into an item; `false` = it does not
    /// conform (see `crate::fuse`).
    fn flush(&mut self) -> bool {
        if self.open.is_empty() {
            return true;
        }
        let open = std::mem::take(&mut self.open);
        self.bound.extend(open.bound());
        let sealed = {
            let _fuse_span = systec_telemetry::span(systec_telemetry::Phase::Fuse);
            open.seal()
        };
        let Some(body) = sealed else {
            return false;
        };
        self.items.push(VItem { guard: self.open_guard.clone().into(), body });
        true
    }
}

/// One tracked access a vector loop binds per coordinate.
#[derive(Clone, Copy, PartialEq, Eq)]
struct VecAccess {
    access: usize,
    level: usize,
    tensor: usize,
}

/// The sparse accesses a candidate vector loop iterates: an optional
/// driver (compressed or run-length) and, for two-way intersections,
/// the probed access — the fiber the workspace form drives.
#[derive(Clone, Copy)]
struct VecShape {
    driver: Option<VecAccess>,
    /// The driver walks a run-length level (else compressed).
    rle: bool,
    probe: Option<VecAccess>,
}

/// Flattens a guard into a conjunction of comparisons over registers
/// other than the loop's own index. `false` = not flattenable.
fn flatten_guard(cond: &LCond, idx: usize, out: &mut Vec<(CmpOp, usize, usize)>) -> bool {
    match cond {
        LCond::True => true,
        LCond::Cmp(op, a, b) => {
            if *a == idx || *b == idx {
                return false;
            }
            out.push((*op, *a, *b));
            true
        }
        LCond::And(cs) => cs.iter().all(|c| flatten_guard(c, idx, out)),
        LCond::Or(_) => false,
    }
}

struct Compiler<'a> {
    program: &'a LoweredProgram,
    layouts: &'a [SlotLayout],
    /// `u` register of `paths[access][level]` is `pos_base[access] + level`.
    pos_base: Vec<usize>,
    u_init: Vec<usize>,
    instrs: Vec<Instr>,
    /// Label targets; jump fields hold label ids until
    /// [`Compiler::resolve_labels`] rewrites them to program counters.
    labels: Vec<Option<usize>>,
    /// Scalar slots that are assignment targets (never alias-elided).
    written: Vec<bool>,
    /// Canonical register of each scalar slot: identity, except for
    /// `let s2 = s1` bindings of never-reassigned scalars, which resolve
    /// straight to `s1` with no copy instruction.
    alias: Vec<usize>,
    /// Literal value (bits) → index into the constant pool.
    const_ids: HashMap<u64, usize>,
    const_base: usize,
    temp_base: usize,
    temp_next: usize,
    temp_max: usize,
    tables: Vec<Box<[f64]>>,
    n_caches: usize,
    /// Per (access, level): whether the position register is provably
    /// never [`MISS`] in the current scope — levels bound by a driver
    /// loop, or dense-level probes of a never-miss parent. Enables
    /// eliding the sentinel checks on the hot path.
    never_miss: Vec<Vec<bool>>,
    /// The row-parallel proof from [`analyze_split`], if any.
    split_pending: Option<PendingSplit>,
    /// Emitted top-level head `(pc, extent)` pairs (only collected when
    /// a split is pending).
    split_heads: Vec<(usize, usize)>,
    /// The general-path loops enclosing the statement being compiled,
    /// innermost last.
    frames: Vec<LoopFrame>,
    /// Workspace position slots allocated so far.
    ws_len: usize,
}

/// A general-path loop whose body is being compiled.
struct LoopFrame {
    idx: usize,
    /// The position registers the loop rebinds every iteration.
    binds: Vec<usize>,
    /// Scatters its body's workspace intersections hoisted in front of
    /// its head.
    scatters: Vec<Instr>,
}

impl Compiler<'_> {
    fn emit(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    fn bind(&mut self, l: Label) {
        debug_assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.instrs.len());
    }

    fn alloc_u(&mut self) -> usize {
        self.u_init.push(0);
        self.u_init.len() - 1
    }

    fn alloc_temp(&mut self) -> usize {
        let t = self.temp_base + self.temp_next;
        self.temp_next += 1;
        self.temp_max = self.temp_max.max(self.temp_next);
        t
    }

    fn const_reg(&self, v: f64) -> usize {
        self.const_base + self.const_ids[&v.to_bits()]
    }

    fn alloc_cache(&mut self) -> usize {
        self.n_caches += 1;
        self.n_caches - 1
    }

    fn strides_of(&self, tensor: usize) -> &[usize] {
        match &self.layouts[tensor] {
            SlotLayout::Dense { strides } | SlotLayout::Output { strides } => strides,
            SlotLayout::Sparse { .. } => unreachable!("strided access to a sparse slot"),
        }
    }

    fn terms(&self, tensor: usize, modes: &[usize]) -> Box<[Term]> {
        let strides = self.strides_of(tensor);
        modes.iter().zip(strides).map(|(&reg, &stride)| Term { reg, stride }).collect()
    }

    fn bounds(&self, bounds: &[LBound]) -> Box<[Bound]> {
        bounds.iter().map(|b| Bound { reg: b.idx, delta: b.delta }).collect()
    }

    fn stmt(&mut self, stmt: &LStmt) {
        match stmt {
            LStmt::Seq(ss) => {
                for s in ss {
                    self.stmt(s);
                }
            }
            LStmt::Loop { idx, extent, lo, hi, drivers, probes, body } => {
                if *extent == 0 {
                    return; // statically empty, as in the interpreter
                }
                // A splittable top-level loop records its head's pc —
                // every head kind (counted, compressed, run-length, or a
                // whole vectorized loop) accepts the chunk coordinate
                // window at run time.
                let top_split = self.frames.is_empty() && self.split_pending.is_some();
                let head_pc = self.instrs.len();
                // At most one extra tracked access (a second driver or a
                // probe) can vectorize, as the probed side of a two-way
                // intersection in its workspace form; more take the
                // general path.
                let vec_extra = match (drivers.as_slice(), probes.as_slice()) {
                    ([] | [_], []) => Some(None),
                    ([_, p], []) | ([_], [p]) => Some(Some(p)),
                    _ => None,
                };
                if let Some(probe) = vec_extra {
                    if self.try_vectorize(*idx, *extent, lo, hi, drivers.first(), probe, body) {
                        if top_split {
                            self.split_heads.push((head_pc, *extent));
                        }
                        return;
                    }
                }
                if top_split {
                    self.split_heads.push((head_pc, *extent));
                }
                let exit = self.new_label();
                let lo = self.bounds(lo);
                let hi = self.bounds(hi);
                // The loop's advance instruction, emitted after the body.
                enum Next {
                    Dense {
                        idx: usize,
                        cur: usize,
                        end: usize,
                    },
                    Sparse {
                        cache: usize,
                        idx: usize,
                        child: usize,
                        cur: usize,
                        end: usize,
                    },
                    Rle {
                        cache: usize,
                        idx: usize,
                        child: usize,
                        run: usize,
                        run_end: usize,
                        coord: usize,
                        hi_reg: usize,
                    },
                }
                let next = if let Some(driver) = drivers.first() {
                    let access = &self.program.accesses[driver.access];
                    let tensor = access.tensor;
                    let SlotLayout::Sparse { formats } = &self.layouts[tensor] else {
                        unreachable!("drivers are sparse inputs");
                    };
                    let parent = self.pos_base[driver.access] + driver.level;
                    let child = parent + 1;
                    let cache = self.alloc_cache();
                    match formats[driver.level] {
                        LevelFormat::Sparse => {
                            let (cur, end) = (self.alloc_u(), self.alloc_u());
                            self.emit(Instr::SparseLoopHead {
                                tensor,
                                level: driver.level,
                                cache,
                                idx: *idx,
                                parent,
                                child,
                                cur,
                                end,
                                lo,
                                hi,
                                exit: exit.0,
                            });
                            Next::Sparse { cache, idx: *idx, child, cur, end }
                        }
                        LevelFormat::RunLength => {
                            let (run, run_end, coord, hi_reg) =
                                (self.alloc_u(), self.alloc_u(), self.alloc_u(), self.alloc_u());
                            self.emit(Instr::RleLoopHead {
                                tensor,
                                level: driver.level,
                                cache,
                                idx: *idx,
                                parent,
                                child,
                                run,
                                run_end,
                                coord,
                                hi_reg,
                                lo,
                                hi,
                                exit: exit.0,
                            });
                            Next::Rle { cache, idx: *idx, child, run, run_end, coord, hi_reg }
                        }
                        LevelFormat::Dense => unreachable!("dense levels never drive"),
                    }
                } else {
                    let (cur, end) = (self.alloc_u(), self.alloc_u());
                    self.emit(Instr::DenseLoopHead {
                        idx: *idx,
                        cur,
                        end,
                        extent: *extent,
                        lo,
                        hi,
                        exit: exit.0,
                    });
                    Next::Dense { idx: *idx, cur, end }
                };

                // Scope the never-miss facts this loop establishes.
                let mut saved: Vec<(usize, usize, bool)> = Vec::new();
                let mut set_flag = |c: &mut Self, access: usize, level: usize, value: bool| {
                    saved.push((access, level + 1, c.never_miss[access][level + 1]));
                    c.never_miss[access][level + 1] = value;
                };
                if let Some(driver) = drivers.first() {
                    // The driver loop binds this level to stored
                    // positions only.
                    set_flag(self, driver.access, driver.level, true);
                }

                // Per-iteration entry point: advance the remaining
                // tracked accesses at the just-bound coordinate.
                let again = self.new_label();
                self.bind(again);
                for advance in drivers.iter().skip(1).chain(probes) {
                    let tensor = self.program.accesses[advance.access].tensor;
                    let parent = self.pos_base[advance.access] + advance.level;
                    // A probe into a dense level of a never-miss parent
                    // always lands on a stored position.
                    let SlotLayout::Sparse { formats } = &self.layouts[tensor] else {
                        unreachable!("probed tensors are sparse inputs");
                    };
                    let parent_safe = self.never_miss[advance.access][advance.level];
                    let dense_level = formats[advance.level] == LevelFormat::Dense;
                    set_flag(self, advance.access, advance.level, parent_safe && dense_level);
                    self.emit(Instr::Probe {
                        tensor,
                        level: advance.level,
                        parent,
                        child: parent + 1,
                        idx: *idx,
                    });
                }
                let binds = drivers
                    .iter()
                    .chain(probes)
                    .map(|a| self.pos_base[a.access] + a.level + 1)
                    .collect();
                self.frames.push(LoopFrame { idx: *idx, binds, scatters: Vec::new() });
                self.stmt(body);
                let frame = self.frames.pop().expect("pushed above");
                for (access, level, old) in saved {
                    self.never_miss[access][level] = old;
                }
                match next {
                    Next::Dense { idx, cur, end } => {
                        self.emit(Instr::DenseLoopNext { idx, cur, end, back: again.0 });
                    }
                    Next::Sparse { cache, idx, child, cur, end } => {
                        self.emit(Instr::SparseLoopNext {
                            cache,
                            idx,
                            child,
                            cur,
                            end,
                            back: again.0,
                        });
                    }
                    Next::Rle { cache, idx, child, run, run_end, coord, hi_reg } => {
                        self.emit(Instr::RleLoopNext {
                            cache,
                            idx,
                            child,
                            run,
                            run_end,
                            coord,
                            hi_reg,
                            back: again.0,
                        });
                    }
                }
                let head_pc = self.hoist(head_pc, frame.scatters);
                // A row nest replaces the whole head … advance run with
                // one instruction at the head's pc (so a recorded split
                // head stays valid). Nothing outside the run jumps into
                // it, and its own labels die with it.
                if let Some(nest) = crate::fuse::row_nest(&self.instrs[head_pc..]) {
                    self.instrs.truncate(head_pc);
                    self.emit(Instr::RowNest(Box::new(nest)));
                }
                self.bind(exit);
            }
            LStmt::If { cond, body } => {
                let done = self.new_label();
                self.cond_false_jump(cond, done);
                self.stmt(body);
                self.bind(done);
            }
            LStmt::Let { slot, value, skip_if_missing, body } => {
                // A `let` that merely renames a never-reassigned scalar
                // (LICM alias chains) compiles to nothing: the body reads
                // the source register directly.
                if skip_if_missing.is_none() {
                    if let LExpr::Scalar(src) = value {
                        let canonical = self.alias[*src];
                        if !self.written[*slot] && !self.written[canonical] {
                            self.alias[*slot] = canonical;
                            self.stmt(body);
                            return;
                        }
                    }
                }
                let done = self.new_label();
                if let Some(access) = skip_if_missing {
                    // When every level of the access is driver-bound (or
                    // a dense probe), the leaf cannot miss: the guard is
                    // dead and the body always runs.
                    let rank = self.program.accesses[*access].rank;
                    if !self.never_miss[*access][rank] {
                        let leaf = self.pos_base[*access] + rank;
                        self.emit(Instr::JumpIfUMiss { reg: leaf, to: done.0 });
                    }
                }
                let mark = self.temp_next;
                self.expr(value, *slot);
                self.temp_next = mark;
                self.stmt(body);
                self.bind(done);
            }
            LStmt::Workspace { slot, init, body } => {
                self.emit(Instr::InitScalar { slot: *slot, val: *init });
                self.stmt(body);
            }
            LStmt::Assign { target, op, rhs, can_miss } => {
                let mark = self.temp_next;
                let skip = self.new_label();
                if *can_miss {
                    self.emit(Instr::ClearMiss);
                }
                let src = self.expr_reg(rhs);
                if *can_miss {
                    self.emit(Instr::JumpIfMiss { to: skip.0 });
                }
                match target {
                    LTarget::Output { tensor, modes } => {
                        let terms = self.terms(*tensor, modes);
                        self.emit(Instr::WriteOutput { tensor: *tensor, terms, op: *op, src });
                    }
                    LTarget::Scalar(slot) => {
                        self.emit(Instr::WriteScalar { slot: *slot, op: *op, src });
                    }
                }
                self.bind(skip);
                self.temp_next = mark;
            }
        }
    }

    /// Inserts `scatters` in front of the loop head at `head_pc` and
    /// returns the head's new pc. Labels the loop's compilation bound
    /// move with it; a label bound at `head_pc` before the loop (an
    /// enclosing loop's back edge) now lands on the first scatter, so
    /// every entry into the loop scatters first.
    fn hoist(&mut self, head_pc: usize, scatters: Vec<Instr>) -> usize {
        let n = scatters.len();
        if n == 0 {
            return head_pc;
        }
        self.instrs.splice(head_pc..head_pc, scatters);
        for pc in self.labels.iter_mut().flatten().filter(|pc| **pc > head_pc) {
            *pc += n;
        }
        for (pc, _) in self.split_heads.iter_mut().filter(|(pc, _)| *pc == head_pc) {
            *pc += n;
        }
        head_pc + n
    }

    /// Attempts to compile an innermost loop as one vector-loop
    /// instruction. Returns `false` (emitting nothing) when the body
    /// does not conform; the caller then uses the general path.
    ///
    /// Conforming bodies contain only: guards that are conjunctions of
    /// comparisons over *outer* indices (loop-invariant after
    /// hoisting), `let`s binding dense reads, the driver's value or the
    /// probed value, and assignments folding scalars / literals / any of
    /// those loads — and every item seals
    /// into a fused body the loop's other items are independent of and
    /// exclusive with (`crate::fuse` has the rules). Drivers may walk a
    /// compressed or run-length level. A two-way intersection vectorizes
    /// only as its workspace form ([`Self::workspace_rows`]), which drives
    /// the probed fiber instead.
    #[allow(clippy::too_many_arguments)]
    fn try_vectorize(
        &mut self,
        idx: usize,
        extent: usize,
        lo: &[LBound],
        hi: &[LBound],
        driver: Option<&systec_exec::lowered::Advance>,
        probe: Option<&systec_exec::lowered::Advance>,
        body: &LStmt,
    ) -> bool {
        let driver_info = match driver {
            Some(d) => {
                let tensor = self.program.accesses[d.access].tensor;
                let SlotLayout::Sparse { formats } = &self.layouts[tensor] else {
                    return false;
                };
                let acc = VecAccess { access: d.access, level: d.level, tensor };
                match formats[d.level] {
                    LevelFormat::Sparse => Some((acc, false)),
                    // Runs expand coordinate by coordinate; only a
                    // compressed driver fiber scatters into a workspace.
                    LevelFormat::RunLength if probe.is_none() => Some((acc, true)),
                    _ => return false,
                }
            }
            None if probe.is_some() => return false,
            None => None,
        };
        let probe_info = match probe {
            Some(p) => {
                let tensor = self.program.accesses[p.access].tensor;
                let SlotLayout::Sparse { .. } = &self.layouts[tensor] else {
                    return false;
                };
                Some(VecAccess { access: p.access, level: p.level, tensor })
            }
            None => None,
        };
        let shape = VecShape {
            driver: driver_info.map(|(a, _)| a),
            rle: driver_info.is_some_and(|(_, rle)| rle),
            probe: probe_info,
        };

        let mut builder = VecBuilder::default();
        let ok = self.vec_stmt(body, idx, shape, &mut builder)
            && builder.flush()
            && !builder.items.is_empty()
            && independent(&builder.items, &builder.bound)
            && exclusive(&builder.items);
        let lo = self.bounds(lo);
        let hi = self.bounds(hi);
        let items = match (ok, shape.driver, shape.probe) {
            (true, Some(d), Some(p)) => self.workspace_rows(d, p, extent, &lo, &hi, &builder.items),
            (ok, ..) => ok.then(|| builder.items.into()),
        };
        let Some(items) = items else {
            return false;
        };
        match (shape.driver, shape.probe) {
            (_, Some(p)) => {
                // The probed fiber drives; the scatter took the bounds.
                self.emit(Instr::VecSparseLoop {
                    tensor: p.tensor,
                    level: p.level,
                    idx,
                    parent: self.pos_base[p.access] + p.level,
                    lo: Box::new([]),
                    hi: Box::new([]),
                    items,
                });
            }
            (Some(d), None) => {
                let parent = self.pos_base[d.access] + d.level;
                let (tensor, level) = (d.tensor, d.level);
                if shape.rle {
                    self.emit(Instr::VecRleLoop { tensor, level, idx, parent, lo, hi, items });
                } else {
                    self.emit(Instr::VecSparseLoop { tensor, level, idx, parent, lo, hi, items });
                }
            }
            (None, None) => {
                self.emit(Instr::VecDenseLoop { idx, extent, lo, hi, items });
            }
        }
        true
    }

    /// The workspace form of a two-way intersection's one item (see
    /// `crate::fuse`, "Workspace rows"), its driver's scatter queued in
    /// front of the innermost enclosing loop's head. It applies when that
    /// loop rebinds the probed fiber but not the driver's, the probed
    /// level is compressed, no bound reads the loop's index (the scatter
    /// clamps the driver fiber once for the whole loop), and the item is
    /// unguarded and is the canonical probe-gated dot
    /// ([`crate::fuse::gated_dot`]). `None` leaves the loop on the
    /// general path.
    /// Both fibers hold coordinates below the loop's `extent` (lowering
    /// checks every mode bound to one index against its extent), so that
    /// many slots cover either.
    fn workspace_rows(
        &mut self,
        d: VecAccess,
        p: VecAccess,
        extent: usize,
        lo: &[Bound],
        hi: &[Bound],
        items: &[VItem],
    ) -> Option<Box<[VItem]>> {
        let frame = self.frames.last()?;
        let SlotLayout::Sparse { formats } = &self.layouts[p.tensor] else {
            return None;
        };
        let [VItem { guard, body }] = items else {
            return None;
        };
        let chain = crate::fuse::gated_dot(body)?;
        let parent = self.pos_base[d.access] + d.level;
        let hoistable = formats[p.level] == LevelFormat::Sparse
            && guard.is_empty()
            && !frame.binds.contains(&parent)
            && frame.binds.contains(&(self.pos_base[p.access] + p.level))
            && lo.iter().chain(hi).all(|b| b.reg != frame.idx);
        if !hoistable {
            return None;
        }
        let ws = Workspace {
            tensor: d.tensor,
            level: d.level,
            base: self.ws_len,
            start: self.alloc_u(),
            stop: self.alloc_u(),
        };
        self.ws_len += extent;
        let scatter = Instr::Scatter { parent, lo: lo.into(), hi: hi.into(), ws };
        self.frames.last_mut().expect("an enclosing loop").scatters.push(scatter);
        let body = crate::fuse::workspace_form(body, chain, ws);
        Some(Box::new([VItem { guard: Box::new([]), body }]))
    }

    /// Walks a vector-loop body, appending loads and folds; `false` =
    /// bail.
    fn vec_stmt(&mut self, stmt: &LStmt, idx: usize, shape: VecShape, b: &mut VecBuilder) -> bool {
        match stmt {
            LStmt::Seq(ss) => ss.iter().all(|s| self.vec_stmt(s, idx, shape, b)),
            LStmt::If { cond, body } => {
                let mut conjuncts = Vec::new();
                if !(flatten_guard(cond, idx, &mut conjuncts) && b.flush()) {
                    return false;
                }
                let depth = b.open_guard.len();
                b.open_guard.extend(conjuncts);
                let ok = self.vec_stmt(body, idx, shape, b) && b.flush();
                b.open_guard.truncate(depth);
                ok
            }
            LStmt::Let { slot, value, skip_if_missing, body } => {
                if let LExpr::Scalar(src) = value {
                    // Alias-elidable let, as in the general path.
                    if skip_if_missing.is_none() {
                        let canonical = self.alias[*src];
                        if !self.written[*slot] && !self.written[canonical] {
                            self.alias[*slot] = canonical;
                            return self.vec_stmt(body, idx, shape, b);
                        }
                    }
                    return false;
                }
                if let Some(access) = skip_if_missing {
                    // Only a driver binding (which cannot miss) may carry
                    // a skip guard; a skip on the probed access would
                    // need per-coordinate predication of the whole body.
                    let rank = self.program.accesses[*access].rank;
                    if !(Some(*access) == shape.driver.map(|d| d.access)
                        && self.never_miss_leaf(*access, rank, shape.driver))
                    {
                        return false;
                    }
                }
                self.vec_load(value, Some(*slot), idx, shape, b, &mut false).is_some()
                    && self.vec_stmt(body, idx, shape, b)
            }
            LStmt::Assign { target, op, rhs, can_miss } => {
                // Operand loads that can actually miss (probes) set
                // their miss bit; the fold then guards its store
                // exactly like the interpreter's miss-checked
                // assignment. Bodies without such operands keep the
                // unguarded form (and its bulk counters).
                let (bin, args): (systec_ir::BinOp, Vec<&LExpr>) = match rhs {
                    LExpr::Call { op: bin, args } if args.len() >= 2 => {
                        (*bin, args.iter().collect())
                    }
                    simple => (systec_ir::BinOp::Add, vec![simple]),
                };
                let mut srcs = Vec::with_capacity(args.len());
                let mut missable = false;
                for a in args {
                    match self.vec_operand(a, idx, shape, b, &mut missable) {
                        Some(src) => srcs.push(src),
                        None => return false,
                    }
                }
                let acc = match target {
                    LTarget::Output { tensor, modes } => {
                        let (base, stride) = self.split_terms(*tensor, modes, idx);
                        FAcc::Out { tensor: *tensor, base, stride }
                    }
                    LTarget::Scalar(slot) => FAcc::Scalar { slot: *slot },
                };
                b.open.fold(acc, bin, *op, srcs, *can_miss && missable);
                true
            }
            LStmt::Loop { .. } | LStmt::Workspace { .. } => false,
        }
    }

    fn never_miss_leaf(&self, access: usize, rank: usize, driver: Option<VecAccess>) -> bool {
        // Within the vectorized loop, the driver's own level is bound to
        // stored positions; outer levels carry the compile-time flags.
        match driver {
            Some(d) if d.access == access && d.level + 1 == rank => {
                self.never_miss[access][d.level]
            }
            _ => self.never_miss[access][rank],
        }
    }

    /// The fold operand for `e`, appending a load for dense / driver /
    /// probe reads. `None` = not vectorizable. Sets `missable`
    /// when the appended load can miss.
    fn vec_operand(
        &mut self,
        e: &LExpr,
        idx: usize,
        shape: VecShape,
        b: &mut VecBuilder,
        missable: &mut bool,
    ) -> Option<FOp> {
        match e {
            LExpr::Scalar(slot) => Some(b.open.operand(self.alias[*slot])),
            LExpr::Lit(v) => Some(FOp::Reg(self.const_reg(*v))),
            _ => self.vec_load(e, None, idx, shape, b, missable),
        }
    }

    /// Appends a load of `e` binding `dst`. `None` = bail.
    ///
    /// `dst` distinguishes `let` bindings (`Some(slot)`, whose misses
    /// are cleared before any assignment evaluates, as in the
    /// interpreter) from assignment operands (whose annihilator misses
    /// must gate the store).
    fn vec_load(
        &mut self,
        e: &LExpr,
        dst: Option<usize>,
        idx: usize,
        shape: VecShape,
        b: &mut VecBuilder,
        missable: &mut bool,
    ) -> Option<FOp> {
        match e {
            LExpr::ReadDense { tensor, modes } => {
                let (base, stride) = self.split_terms(*tensor, modes, idx);
                let load = FLoad::Dense { tensor: *tensor, base, stride };
                Some(b.open.load(dst, load, Some(*tensor)))
            }
            LExpr::ReadSparsePath { access, tensor, rank, annihilator } => {
                // The driver's leaf value reads positionally; the probed
                // access's leaf value reads through the intersection.
                let leaf = |a: VecAccess| {
                    a.access == *access && a.level + 1 == *rank && a.tensor == *tensor
                };
                if shape.driver.is_some_and(|d| leaf(d) && self.never_miss[*access][d.level]) {
                    return Some(b.open.load(dst, FLoad::Val, Some(*tensor)));
                }
                if shape.probe.is_some_and(leaf) {
                    let set_miss = dst.is_none() && *annihilator;
                    *missable |= set_miss;
                    let load = FLoad::Probe { set_miss };
                    return Some(b.open.load(dst, load, None));
                }
                None
            }
            // A random-access (`ReadSparseRandom`) read leaves the loop on
            // the general path, one search per coordinate.
            _ => None,
        }
    }

    fn split_terms(&self, tensor: usize, modes: &[usize], idx: usize) -> (Box<[Term]>, usize) {
        let strides = self.strides_of(tensor);
        let mut base = Vec::new();
        let mut stride = 0usize;
        for (&m, &s) in modes.iter().zip(strides) {
            if m == idx {
                stride += s;
            } else {
                base.push(Term { reg: m, stride: s });
            }
        }
        (base.into(), stride)
    }

    /// Compiles `e` and returns the register holding its value. Plain
    /// scalar reads return their (alias-resolved) slot and literals
    /// return their pooled constant register — no instruction emitted.
    fn expr_reg(&mut self, e: &LExpr) -> usize {
        match e {
            LExpr::Scalar(slot) => self.alias[*slot],
            LExpr::Lit(v) => self.const_reg(*v),
            _ => {
                let t = self.alloc_temp();
                self.expr(e, t);
                t
            }
        }
    }

    /// Compiles `e`'s value into `f[dst]`.
    fn expr(&mut self, e: &LExpr, dst: usize) {
        match e {
            LExpr::Lit(v) => self.emit(Instr::Const { dst, val: *v }),
            LExpr::Scalar(slot) => {
                let src = self.alias[*slot];
                self.emit(Instr::Copy { dst, src });
            }
            LExpr::ReadDense { tensor, modes } => {
                let terms = self.terms(*tensor, modes);
                self.emit(Instr::ReadDense { dst, tensor: *tensor, terms });
            }
            LExpr::ReadOutput { tensor, modes } => {
                let terms = self.terms(*tensor, modes);
                self.emit(Instr::ReadOutput { dst, tensor: *tensor, terms });
            }
            LExpr::ReadSparsePath { access, tensor, rank, annihilator } => {
                let leaf = self.pos_base[*access] + rank;
                if self.never_miss[*access][*rank] {
                    self.emit(Instr::ReadSparseDirect { dst, tensor: *tensor, leaf });
                } else {
                    self.emit(Instr::ReadSparsePath {
                        dst,
                        tensor: *tensor,
                        leaf,
                        annihilator: *annihilator,
                    });
                }
            }
            LExpr::ReadSparseRandom { tensor, modes, annihilator } => {
                self.emit(Instr::ReadSparseRandom {
                    dst,
                    tensor: *tensor,
                    modes: modes.iter().copied().collect(),
                    annihilator: *annihilator,
                });
            }
            LExpr::Call { op, args } => match args.as_slice() {
                [single] => self.expr(single, dst),
                [first, rest @ ..] => {
                    // Left fold; the first Bin reads both operands from
                    // registers, so scalar/constant operands cost nothing.
                    let mark = self.temp_next;
                    let a = self.expr_reg(first);
                    let (second, tail) = rest.split_first().expect("binary or wider handled here");
                    let b = self.expr_reg(second);
                    self.emit(Instr::Bin { op: *op, dst, a, b });
                    self.temp_next = mark;
                    for arg in tail {
                        let mark = self.temp_next;
                        let t = self.expr_reg(arg);
                        self.emit(Instr::Bin { op: *op, dst, a: dst, b: t });
                        self.temp_next = mark;
                    }
                }
                [] => unreachable!("calls have at least one argument"),
            },
            LExpr::CmpVal { op, a, b } => {
                self.emit(Instr::CmpVal { dst, op: *op, a: *a, b: *b });
            }
            LExpr::Lookup { table, index } => {
                self.expr(index, dst);
                self.tables.push(table.clone().into_boxed_slice());
                self.emit(Instr::LookupTable { dst, table: self.tables.len() - 1, src: dst });
            }
        }
    }

    /// Emits a branch to `target` when `cond` is false (fall through when
    /// true).
    fn cond_false_jump(&mut self, cond: &LCond, target: Label) {
        match cond {
            LCond::True => {}
            LCond::Cmp(op, a, b) => {
                self.emit(Instr::JumpIfNotCmp { op: *op, a: *a, b: *b, to: target.0 });
            }
            LCond::And(cs) => {
                for c in cs {
                    self.cond_false_jump(c, target);
                }
            }
            LCond::Or(cs) => {
                let ok = self.new_label();
                if let Some((last, init)) = cs.split_last() {
                    for c in init {
                        self.cond_true_jump(c, ok);
                    }
                    self.cond_false_jump(last, target);
                } else {
                    // An empty disjunction is false, as in the interpreter.
                    self.emit(Instr::Jump { to: target.0 });
                }
                self.bind(ok);
            }
        }
    }

    /// Emits a branch to `target` when `cond` is true (fall through when
    /// false).
    fn cond_true_jump(&mut self, cond: &LCond, target: Label) {
        match cond {
            LCond::True => self.emit(Instr::Jump { to: target.0 }),
            LCond::Cmp(op, a, b) => {
                self.emit(Instr::JumpIfCmp { op: *op, a: *a, b: *b, to: target.0 });
            }
            LCond::And(cs) => {
                let fail = self.new_label();
                if let Some((last, init)) = cs.split_last() {
                    for c in init {
                        self.cond_false_jump(c, fail);
                    }
                    self.cond_true_jump(last, target);
                } else {
                    self.emit(Instr::Jump { to: target.0 });
                }
                self.bind(fail);
            }
            LCond::Or(cs) => {
                for c in cs {
                    self.cond_true_jump(c, target);
                }
            }
        }
    }

    /// Rewrites label ids in jump fields to absolute program counters.
    fn resolve_labels(&mut self) {
        let resolve = |labels: &[Option<usize>], id: usize| -> usize {
            labels[id].expect("jump to unbound label")
        };
        // Split borrows: read labels, rewrite instructions.
        let labels = std::mem::take(&mut self.labels);
        for instr in &mut self.instrs {
            match instr {
                Instr::Jump { to }
                | Instr::JumpIfCmp { to, .. }
                | Instr::JumpIfNotCmp { to, .. }
                | Instr::JumpIfMiss { to }
                | Instr::JumpIfUMiss { to, .. } => *to = resolve(&labels, *to),
                Instr::DenseLoopHead { exit, .. }
                | Instr::SparseLoopHead { exit, .. }
                | Instr::RleLoopHead { exit, .. } => *exit = resolve(&labels, *exit),
                Instr::DenseLoopNext { back, .. }
                | Instr::SparseLoopNext { back, .. }
                | Instr::RleLoopNext { back, .. } => *back = resolve(&labels, *back),
                _ => {}
            }
        }
    }
}
