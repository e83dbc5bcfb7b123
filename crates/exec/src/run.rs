//! The interpreter: executes lowered programs over concrete tensors.

use std::collections::HashMap;

use systec_ir::{AssignOp, Stmt};
use systec_tensor::{DenseTensor, SparseTensor, Tensor};

use crate::lower::{LBound, LCond, LExpr, LStmt, LTarget, LoweredProgram, SlotKind};
use crate::{hoist_conditions, lower, CounterBank, Counters, ExecError};

/// Hoists, lowers and executes a program in one call.
///
/// `inputs` maps *display names* (including derived variants such as
/// `A_T`, `A_diag` — see [`crate::prepare_variants`]) to tensors;
/// `outputs` maps output display names to pre-initialized dense tensors,
/// which are updated in place.
///
/// # Errors
///
/// Returns an [`ExecError`] if the program does not validate against the
/// bindings (unknown tensors, rank/extent mismatches, unbound indices).
pub fn run(
    stmt: &Stmt,
    inputs: &HashMap<String, Tensor>,
    outputs: &mut HashMap<String, DenseTensor>,
) -> Result<Counters, ExecError> {
    let hoisted = hoist_conditions(stmt.clone());
    let program = lower(&hoisted, inputs, outputs)?;
    run_lowered(&program, inputs, outputs)
}

/// Executes an already-lowered program (use this to amortize lowering
/// over repeated benchmark runs).
///
/// # Errors
///
/// Returns an [`ExecError`] if a tensor bound at lowering time is missing
/// or changed shape.
pub fn run_lowered(
    program: &LoweredProgram,
    inputs: &HashMap<String, Tensor>,
    outputs: &mut HashMap<String, DenseTensor>,
) -> Result<Counters, ExecError> {
    // Resolve tensor slots. Outputs are temporarily moved out of the map
    // so the machine can read and write them freely.
    let mut dense_inputs: Vec<Option<&DenseTensor>> = vec![None; program.tensors.len()];
    let mut sparse_inputs: Vec<Option<&SparseTensor>> = vec![None; program.tensors.len()];
    for (slot, info) in program.tensors.iter().enumerate() {
        match info.kind {
            SlotKind::DenseInput => match inputs.get(&info.name) {
                Some(Tensor::Dense(t)) => dense_inputs[slot] = Some(t),
                _ => return Err(ExecError::UnknownTensor { name: info.name.clone() }),
            },
            SlotKind::SparseInput => match inputs.get(&info.name) {
                Some(Tensor::Sparse(t)) => sparse_inputs[slot] = Some(t),
                _ => return Err(ExecError::UnknownTensor { name: info.name.clone() }),
            },
            SlotKind::Output => {
                if !outputs.contains_key(&info.name) {
                    return Err(ExecError::UnknownTensor { name: info.name.clone() });
                }
            }
        }
    }
    let mut taken: Vec<DenseTensor> = Vec::new();
    let mut output_slot_to_taken: Vec<usize> = vec![usize::MAX; program.tensors.len()];
    for (slot, info) in program.tensors.iter().enumerate() {
        if info.kind == SlotKind::Output {
            let t = outputs.remove(&info.name).expect("presence checked above");
            output_slot_to_taken[slot] = taken.len();
            taken.push(t);
        }
    }

    let mut machine = Machine {
        program,
        dense_inputs,
        sparse_inputs,
        outputs: taken,
        output_slot_to_taken: &output_slot_to_taken,
        idx: vec![0; program.indices.len()],
        scalars: vec![0.0; program.n_scalars],
        paths: program
            .accesses
            .iter()
            .map(|a| {
                let mut p = vec![None; a.rank + 1];
                p[0] = Some(0);
                p
            })
            .collect(),
        missing: false,
        counters: CounterBank::with_slots(program.tensors.len()),
    };
    machine.exec(&program.root);

    // Put the outputs back (in taken order, moving them).
    let Machine { outputs: taken, counters, .. } = machine;
    let mut names: Vec<&str> = vec![""; taken.len()];
    for (slot, info) in program.tensors.iter().enumerate() {
        if info.kind == SlotKind::Output {
            names[output_slot_to_taken[slot]] = &info.name;
        }
    }
    for (name, tensor) in names.into_iter().zip(taken) {
        outputs.insert(name.to_string(), tensor);
    }
    Ok(counters.to_counters(program.tensors.iter().map(|t| t.name.as_str())))
}

struct Machine<'p, 'a> {
    program: &'p LoweredProgram,
    dense_inputs: Vec<Option<&'a DenseTensor>>,
    sparse_inputs: Vec<Option<&'a SparseTensor>>,
    outputs: Vec<DenseTensor>,
    output_slot_to_taken: &'p [usize],
    idx: Vec<usize>,
    scalars: Vec<f64>,
    /// Per tracked access: positions per level (`paths[a][m+1]` is the
    /// position after descending level `m`); `None` = unstored.
    paths: Vec<Vec<Option<usize>>>,
    /// Set when an annihilator read missed; the enclosing assignment
    /// skips.
    missing: bool,
    counters: CounterBank,
}

impl Machine<'_, '_> {
    fn exec(&mut self, stmt: &LStmt) {
        match stmt {
            LStmt::Seq(ss) => {
                for s in ss {
                    self.exec(s);
                }
            }
            LStmt::Loop { idx, extent, lo, hi, drivers, probes, body } => {
                self.exec_loop(*idx, *extent, lo, hi, drivers, probes, body);
            }
            LStmt::If { cond, body } => {
                if self.eval_cond(cond) {
                    self.exec(body);
                }
            }
            LStmt::Let { slot, value, skip_if_missing, body } => {
                if let Some(access) = skip_if_missing {
                    if self.paths[*access].last().copied().flatten().is_none() {
                        return;
                    }
                }
                self.missing = false;
                let v = self.eval(value);
                self.scalars[*slot] = v;
                self.exec(body);
            }
            LStmt::Workspace { slot, init, body } => {
                self.scalars[*slot] = *init;
                self.exec(body);
            }
            LStmt::Assign { target, op, rhs, can_miss } => {
                let v = if *can_miss {
                    self.missing = false;
                    let v = self.eval(rhs);
                    if self.missing {
                        return;
                    }
                    v
                } else {
                    self.eval(rhs)
                };
                match target {
                    LTarget::Output { tensor, modes } => {
                        let out = &mut self.outputs[self.output_slot_to_taken[*tensor]];
                        let mut off = 0usize;
                        for (k, &m) in modes.iter().enumerate() {
                            off += self.idx[m] * out.strides()[k];
                        }
                        let cell = &mut out.as_mut_slice()[off];
                        *cell = op.apply(*cell, v);
                        self.counters.writes += 1;
                        if *op != AssignOp::Overwrite {
                            self.counters.flops += 1;
                        }
                    }
                    LTarget::Scalar(slot) => {
                        let cell = &mut self.scalars[*slot];
                        *cell = op.apply(*cell, v);
                        if *op != AssignOp::Overwrite {
                            self.counters.flops += 1;
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_loop(
        &mut self,
        idx: usize,
        extent: usize,
        lo: &[LBound],
        hi: &[LBound],
        drivers: &[crate::lower::Advance],
        probes: &[crate::lower::Advance],
        body: &LStmt,
    ) {
        if extent == 0 {
            return;
        }
        let mut lo_v: i64 = 0;
        for b in lo {
            lo_v = lo_v.max(self.idx[b.idx] as i64 + b.delta);
        }
        let mut hi_v: i64 = extent as i64 - 1;
        for b in hi {
            hi_v = hi_v.min(self.idx[b.idx] as i64 + b.delta);
        }
        if lo_v > hi_v {
            return;
        }
        let (lo_v, hi_v) = (lo_v as usize, hi_v as usize);

        if let Some(driver) = drivers.first() {
            let tensor = self.program.accesses[driver.access].tensor;
            let sparse = self.sparse_inputs[tensor].expect("driver tensors are sparse inputs");
            let Some(parent) = self.paths[driver.access][driver.level] else {
                // The driver's own prefix is unstored: every coordinate
                // reads fill and every assignment annihilates. Skip.
                return;
            };
            // Walking the compressed level is where the sparse kernel's
            // memory traffic happens; count one structure read per step.
            let iter = sparse.level_iter(driver.level, parent, lo_v, hi_v);
            for (coord, pos) in iter {
                self.idx[idx] = coord;
                self.paths[driver.access][driver.level + 1] = Some(pos);
                for extra in &drivers[1..] {
                    self.advance_probe(extra, coord);
                }
                for probe in probes {
                    self.advance_probe(probe, coord);
                }
                self.counters.iterations += 1;
                self.exec(body);
            }
        } else {
            for v in lo_v..=hi_v {
                self.idx[idx] = v;
                for probe in probes {
                    self.advance_probe(probe, v);
                }
                self.counters.iterations += 1;
                self.exec(body);
            }
        }
    }

    fn advance_probe(&mut self, probe: &crate::lower::Advance, coord: usize) {
        let tensor = self.program.accesses[probe.access].tensor;
        let sparse = self.sparse_inputs[tensor].expect("probed tensors are sparse inputs");
        let next = match self.paths[probe.access][probe.level] {
            Some(parent) => sparse.level_find(probe.level, parent, coord),
            None => None,
        };
        self.paths[probe.access][probe.level + 1] = next;
    }

    #[inline]
    fn offset(&self, strides: &[usize], modes: &[usize]) -> usize {
        let mut off = 0usize;
        for (k, &m) in modes.iter().enumerate() {
            off += self.idx[m] * strides[k];
        }
        off
    }

    fn eval_cond(&self, cond: &LCond) -> bool {
        match cond {
            LCond::True => true,
            LCond::Cmp(op, a, b) => op.eval(self.idx[*a], self.idx[*b]),
            LCond::And(cs) => cs.iter().all(|c| self.eval_cond(c)),
            LCond::Or(cs) => cs.iter().any(|c| self.eval_cond(c)),
        }
    }

    fn eval(&mut self, expr: &LExpr) -> f64 {
        match expr {
            LExpr::Lit(v) => *v,
            LExpr::Scalar(slot) => self.scalars[*slot],
            LExpr::ReadDense { tensor, modes } => {
                let t = self.dense_inputs[*tensor].expect("dense input bound");
                let off = self.offset(t.strides(), modes);
                self.counters.reads[*tensor] += 1;
                t.as_slice()[off]
            }
            LExpr::ReadOutput { tensor, modes } => {
                let t = &self.outputs[self.output_slot_to_taken[*tensor]];
                let off = self.offset(t.strides(), modes);
                self.counters.reads[*tensor] += 1;
                t.as_slice()[off]
            }
            LExpr::ReadSparsePath { access, tensor, rank, annihilator } => {
                match self.paths[*access][*rank] {
                    Some(pos) => {
                        let t = self.sparse_inputs[*tensor].expect("sparse input bound");
                        self.counters.reads[*tensor] += 1;
                        t.value(pos)
                    }
                    None => {
                        if *annihilator {
                            self.missing = true;
                        }
                        0.0
                    }
                }
            }
            LExpr::ReadSparseRandom { tensor, modes, annihilator } => {
                let t = self.sparse_inputs[*tensor].expect("sparse input bound");
                let mut pos = 0usize;
                let mut found = true;
                for (level, &m) in modes.iter().enumerate() {
                    match t.level_find(level, pos, self.idx[m]) {
                        Some(next) => pos = next,
                        None => {
                            found = false;
                            break;
                        }
                    }
                }
                if found {
                    self.counters.reads[*tensor] += 1;
                    t.value(pos)
                } else {
                    if *annihilator {
                        self.missing = true;
                    }
                    0.0
                }
            }
            LExpr::Call { op, args } => {
                // Binary fast path (the overwhelmingly common case).
                if let [a, b] = args.as_slice() {
                    let va = self.eval(a);
                    let vb = self.eval(b);
                    self.counters.flops += 1;
                    return op.apply(va, vb);
                }
                let mut it = args.iter();
                let first = it.next().expect("calls have at least one argument");
                let mut acc = self.eval(first);
                for a in it {
                    let v = self.eval(a);
                    acc = op.apply(acc, v);
                    self.counters.flops += 1;
                }
                acc
            }
            LExpr::CmpVal { op, a, b } => {
                if op.eval(self.idx[*a], self.idx[*b]) {
                    1.0
                } else {
                    0.0
                }
            }
            LExpr::Lookup { table, index } => {
                let i = self.eval(index) as usize;
                table.get(i).copied().unwrap_or(0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_outputs;
    use systec_ir::build::*;
    use systec_ir::{AssignOp, Stmt};
    use systec_tensor::{CooTensor, SparseTensor, CSR};

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

    #[test]
    fn spmv_concordant_driver() {
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 1, 2.0), (1, 0, 3.0), (2, 2, 4.0)], 3));
        inputs.insert("x".to_string(), dense_vec(&[1.0, 10.0, 100.0]));
        let mut outputs = alloc_outputs(&prog, &inputs).unwrap();
        let c = run(&prog, &inputs, &mut outputs).unwrap();
        let y = &outputs["y"];
        assert_eq!(y.get(&[0]), 20.0);
        assert_eq!(y.get(&[1]), 3.0);
        assert_eq!(y.get(&[2]), 400.0);
        // Only the 3 stored entries were read (driven iteration).
        assert_eq!(c.reads_of("A"), 3);
        assert_eq!(c.reads_of("x"), 3);
        assert_eq!(c.writes, 3);
    }

    #[test]
    fn triangular_bound_restricts_sparse_walk() {
        // s[] += A[i, j] for j <= i  over lower-triangle-heavy A.
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
        let mut outputs = alloc_outputs(&prog, &inputs).unwrap();
        let c = run(&prog, &inputs, &mut outputs).unwrap();
        assert_eq!(outputs["s"].get(&[]), 6.0);
        // The (0,2) entry is outside the bound: binary search skips it
        // without reading its value.
        assert_eq!(c.reads_of("A"), 3);
    }

    #[test]
    fn residual_equality_guard() {
        // trace: s[] += A[i, j] if i == j  (equality becomes point bounds).
        let prog = Stmt::loops(
            [idx("i"), idx("j")],
            Stmt::guarded(
                eq("i", "j"),
                assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
            ),
        );
        let mut inputs = HashMap::new();
        inputs
            .insert("A".to_string(), csr(&[(0, 0, 1.0), (0, 1, 9.0), (1, 1, 2.0), (2, 0, 7.0)], 3));
        let mut outputs = alloc_outputs(&prog, &inputs).unwrap();
        let c = run(&prog, &inputs, &mut outputs).unwrap();
        assert_eq!(outputs["s"].get(&[]), 3.0);
        assert_eq!(c.reads_of("A"), 2, "point bounds touch only diagonal entries");
    }

    #[test]
    fn min_plus_semiring_with_sparse_fill() {
        // Bellman-Ford step: y[i] min= A[i, j] + d[j]; unstored entries
        // must behave as +inf (skipped), not 0.
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
        let mut outputs = HashMap::new();
        outputs.insert("y".to_string(), DenseTensor::filled(vec![3], f64::INFINITY));
        run(&prog, &inputs, &mut outputs).unwrap();
        let y = &outputs["y"];
        assert_eq!(y.get(&[0]), 6.0); // 1 + d[1]
        assert_eq!(y.get(&[1]), 52.0); // 2 + d[2]
        assert_eq!(y.get(&[2]), f64::INFINITY); // no out-edges stored
    }

    #[test]
    fn let_binding_reuses_read() {
        // let a = A[i, j]: y[i] += a * x[j]; y[j] += a * x[i]
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
        let mut outputs = alloc_outputs(&prog, &inputs).unwrap();
        let c = run(&prog, &inputs, &mut outputs).unwrap();
        assert_eq!(outputs["y"].get(&[0]), 20.0);
        assert_eq!(outputs["y"].get(&[1]), 2.0);
        assert_eq!(c.reads_of("A"), 1, "the let makes one read serve two assignments");
    }

    #[test]
    fn workspace_accumulates_and_writes_back() {
        // for j: workspace t = 0: for i: t += A[i, j] ; y[j] += t
        // (discordant CSR access -> random reads, still correct).
        let prog = Stmt::loops(
            [idx("j")],
            Stmt::Workspace {
                name: "t".into(),
                init: 0.0,
                body: Box::new(Stmt::block([
                    Stmt::loops(
                        [idx("i")],
                        Stmt::Assign {
                            lhs: systec_ir::Lhs::Scalar("t".into()),
                            op: AssignOp::Add,
                            rhs: access("A", ["i", "j"]).into(),
                        },
                    ),
                    assign(access("y", ["j"]), scalar("t")),
                ])),
            },
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 0, 1.0), (1, 0, 2.0), (1, 1, 4.0)], 2));
        let mut outputs = alloc_outputs(&prog, &inputs).unwrap();
        run(&prog, &inputs, &mut outputs).unwrap();
        assert_eq!(outputs["y"].get(&[0]), 3.0);
        assert_eq!(outputs["y"].get(&[1]), 4.0);
    }

    #[test]
    fn replication_loop_overwrites_mirror() {
        // for j, i: if i > j: y[i, j] = y[j, i]
        let prog = Stmt::loops(
            [idx("j"), idx("i")],
            Stmt::guarded(
                gt("i", "j"),
                store(access("y", ["i", "j"]), access("y", ["j", "i"]).into()),
            ),
        );
        let inputs = HashMap::new();
        let mut y = DenseTensor::zeros(vec![2, 2]);
        y.set(&[0, 1], 7.0);
        let mut outputs = HashMap::new();
        outputs.insert("y".to_string(), y);
        run(&prog, &inputs, &mut outputs).unwrap();
        assert_eq!(outputs["y"].get(&[1, 0]), 7.0);
    }

    #[test]
    fn lookup_table_selects_factor() {
        // s[] += table[(i == j)] * A[i, j]  with table [3, 11].
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
        let mut outputs = alloc_outputs(&prog, &inputs).unwrap();
        run(&prog, &inputs, &mut outputs).unwrap();
        assert_eq!(outputs["s"].get(&[]), 11.0 + 3.0);
    }

    #[test]
    fn empty_loop_range_executes_nothing() {
        let prog = Stmt::loops(
            [idx("j"), idx("i")],
            Stmt::guarded(
                and([gt("i", "j"), lt("i", "j")]),
                assign(access("s", [] as [&str; 0]), access("A", ["i", "j"]).into()),
            ),
        );
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), csr(&[(0, 0, 1.0)], 2));
        let mut outputs = alloc_outputs(&prog, &inputs).unwrap();
        let c = run(&prog, &inputs, &mut outputs).unwrap();
        assert_eq!(outputs["s"].get(&[]), 0.0);
        assert_eq!(c.writes, 0);
    }
}
