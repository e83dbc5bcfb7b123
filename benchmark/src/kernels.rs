//! The two in-process workloads: a library user holding
//! `systec_kernels::Prepared` plans and sweeping them on one thread.
//!
//! One op is one sweep: every cell (kernel × input) runs once through
//! `Prepared::run_timed_into` on reused buffers with the default
//! symmetric plan, `Parallelism::Serial`.

use std::collections::HashMap;
use std::time::Instant;

use systec_kernels::{clear_plan_cache, defs, Counters, ExecContext, KernelDef, Prepared};
use systec_tensor::{csf, CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

use crate::inputs::{self, Entries, Rng};
use crate::measure::{Op, Window};
use crate::reference;
use crate::trace::{Tracer, NO_PARENT};
use crate::Scale;

/// A sparse operand shared by the cells that read it.
pub struct Operand {
    pub label: String,
    pub entries: Entries,
    pub coo: CooTensor,
    pub formats: Vec<LevelFormat>,
}

/// One (kernel, input) pair and the output the reference expects.
pub struct CellInput {
    pub kernel: &'static str,
    pub def: KernelDef,
    pub operand: usize,
    pub dense: Option<(&'static str, DenseTensor)>,
    pub out: &'static str,
    pub reference: Vec<f64>,
}

pub struct KernelInputs {
    pub operands: Vec<Operand>,
    pub cells: Vec<CellInput>,
}

impl KernelInputs {
    pub fn label(&self, cell: &CellInput) -> String {
        format!("{}/{}", cell.kernel, self.operands[cell.operand].label)
    }
}

impl CellInput {
    /// The kernel's input bindings over the packed operands.
    pub fn bind(&self, packed: &[Tensor]) -> HashMap<String, Tensor> {
        let mut bound = HashMap::from([("A".to_string(), packed[self.operand].clone())]);
        if let Some((name, t)) = &self.dense {
            bound.insert(name.to_string(), Tensor::Dense(t.clone()));
        }
        bound
    }
}

fn operand(label: &str, entries: Entries, formats: Vec<LevelFormat>) -> Operand {
    let coo = entries.to_coo();
    Operand { label: label.to_string(), entries, coo, formats }
}

/// Stored entries of the out-of-L2 matrix: ~20 MB packed, several
/// times the 4 MiB L2 (the paper's rank-2 win is a bandwidth win).
pub const OUT_OF_L2_NNZ: usize = 1_200_001;

/// `kernels_rank2`: {ssymv, syprd, bellman_ford} over four matrices.
///
/// Two are Table 2 stand-ins at a quarter of their size whose packed
/// form fits the L2 (`crystk02`: 69 entries a row; `finan512`: 8 a
/// row), one is a `bcsstk35` stand-in with [`OUT_OF_L2_NNZ`] stored
/// entries, and one is a 1600² plateau matrix packed `[Dense,
/// RunLength]`.
///
/// The two small matrices are fixed, not drawn by the seed: a draw over
/// matrices of different sizes makes op time a function of the seed,
/// and the spread bounds are taken across seeds.
pub fn rank2_inputs(seed: u64, scale: Scale) -> KernelInputs {
    match scale {
        Scale::Full => rank2_inputs_from(
            seed,
            &[
                ("crystk02-q", 3491, 242_145, 138),
                ("finan512-q", 18_688, 149_248, 16),
                ("bcsstk35", 30_237, OUT_OF_L2_NNZ, 96),
            ],
            Some((1600, 32, 3, 61)),
        ),
        Scale::Quick => rank2_inputs_from(
            seed,
            &[("crystk02-q32", 436, 30_268, 138), ("finan512-q32", 2336, 18_656, 16)],
            Some((320, 32, 1, 4)),
        ),
    }
}

/// The three rank-2 kernels over banded matrices given as `(label, n,
/// stored entries, bandwidth)` and an optional plateau matrix `(n,
/// block, diagonal tiles, off-diagonal tile pairs)`.
pub fn rank2_inputs_from(
    seed: u64,
    banded: &[(&str, usize, usize, usize)],
    plateau: Option<(usize, usize, usize, usize)>,
) -> KernelInputs {
    let mut operands = Vec::new();
    for &(label, n, nnz, bandwidth) in banded {
        let mut r = Rng::for_input(seed, label);
        let e = inputs::symmetric_banded(n, (nnz - n) / 2, bandwidth, 0.7, &mut r);
        operands.push(operand(label, e, csf(2)));
    }
    if let Some((n, block, diag, off)) = plateau {
        let e =
            inputs::symmetric_plateau(n, block, diag, off, &mut Rng::for_input(seed, "plateau"));
        operands.push(operand("plateau-rle", e, vec![LevelFormat::Dense, LevelFormat::RunLength]));
    }

    let mut cells = Vec::new();
    for (k, op) in operands.iter().enumerate() {
        let n = op.entries.dims[0];
        let x = inputs::dense(vec![n], &mut Rng::for_input(seed, &format!("x/{}", op.label)));
        let xs = x.as_slice();
        cells.push(CellInput {
            kernel: "ssymv",
            def: defs::ssymv(),
            operand: k,
            reference: reference::ssymv(&op.entries, xs),
            dense: Some(("x", x.clone())),
            out: "y",
        });
        cells.push(CellInput {
            kernel: "syprd",
            def: defs::syprd(),
            operand: k,
            reference: reference::syprd(&op.entries, xs),
            dense: Some(("x", x.clone())),
            out: "y",
        });
        cells.push(CellInput {
            kernel: "bellman_ford",
            def: defs::bellman_ford(),
            operand: k,
            reference: reference::bellman_ford(&op.entries, xs),
            dense: Some(("d", x)),
            out: "y",
        });
    }
    KernelInputs { operands, cells }
}

/// `kernels_rank3plus`: ssyrk, ttm, mttkrp3/4/5, one input each, sized
/// so that no cell is more than 40 % or less than 5 % of the sweep.
pub fn rank3plus_inputs(seed: u64, scale: Scale) -> KernelInputs {
    let q = scale == Scale::Quick;
    let mut operands = Vec::new();
    let mut cells = Vec::new();

    let (rows, nnz) = if q { (60, 600) } else { (160, 2400) };
    let e = inputs::uniform_matrix(rows, rows, nnz, &mut Rng::for_input(seed, "ssyrk"));
    let reference = reference::ssyrk(&e);
    operands.push(operand(&format!("uniform-{rows}"), e, csf(2)));
    cells.push(CellInput {
        kernel: "ssyrk",
        def: defs::ssyrk(),
        operand: 0,
        dense: None,
        out: "C",
        reference,
    });

    // (kernel, order, side, strict tuples, diagonal tuples, rank of B)
    let tensors: [(&'static str, usize, usize, usize, usize, usize); 4] = if q {
        [
            ("ttm", 3, 20, 60, 8, 8),
            ("mttkrp3", 3, 24, 120, 12, 8),
            ("mttkrp4", 4, 16, 40, 6, 8),
            ("mttkrp5", 5, 12, 12, 4, 8),
        ]
    } else {
        [
            ("ttm", 3, 60, 2500, 60, 16),
            ("mttkrp3", 3, 120, 6500, 300, 16),
            ("mttkrp4", 4, 40, 2000, 100, 16),
            ("mttkrp5", 5, 24, 600, 40, 16),
        ]
    };
    for (kernel, order, n, strict, diagonal, r) in tensors {
        let e =
            inputs::symmetric_tensor(n, order, strict, diagonal, &mut Rng::for_input(seed, kernel));
        let b = inputs::dense(vec![n, r], &mut Rng::for_input(seed, &format!("B/{kernel}")));
        let (def, reference) = if kernel == "ttm" {
            (defs::ttm(), reference::ttm(&e, b.as_slice(), r))
        } else {
            (defs::mttkrp(order), reference::mttkrp(&e, b.as_slice(), r))
        };
        operands.push(operand(&format!("sym{order}-{n}"), e, csf(order)));
        cells.push(CellInput {
            kernel,
            def,
            operand: operands.len() - 1,
            dense: Some(("B", b)),
            out: "C",
            reference,
        });
    }
    KernelInputs { operands, cells }
}

/// A prepared cell with its reusable run state.
pub struct Cell {
    pub label: String,
    plan: Prepared,
    outputs: HashMap<String, DenseTensor>,
    ctx: ExecContext,
    pub counters: Counters,
    /// The main-loop output of the first run, which every later run
    /// must reproduce bit for bit (the VM is deterministic per plan).
    expected: HashMap<String, DenseTensor>,
}

impl Cell {
    #[inline]
    pub fn run(&mut self) {
        self.plan
            .run_timed_into(&mut self.outputs, &mut self.ctx, &mut self.counters)
            .expect("a prepared kernel runs");
    }

    fn reproduces_first_run(&self) -> bool {
        self.expected.iter().all(|(name, want)| {
            self.outputs.get(name).is_some_and(|got| {
                got.as_slice().iter().zip(want.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
    }
}

pub struct PreparedCells {
    pub cells: Vec<Cell>,
    pub pack_s: f64,
    pub packed_nnz: usize,
}

const WARMUP_SWEEPS: usize = 3;

/// Packs, compiles, verifies and warms every cell from a cold plan
/// cache, as a process that has just started would. Also returns the
/// seconds spent inside the program: packing, `Prepared::compile`, the
/// first full run of each cell, and the warm-up sweeps.
pub fn prepare(inputs: &KernelInputs) -> Result<(PreparedCells, f64), String> {
    clear_plan_cache();
    let mut setup_s = 0.0;
    let mut packed = Vec::new();
    let mut packed_nnz = 0;
    let t0 = Instant::now();
    for op in &inputs.operands {
        let t = SparseTensor::from_coo(&op.coo, &op.formats).map_err(|e| e.to_string())?;
        packed_nnz += op.coo.nnz();
        packed.push(Tensor::Sparse(t));
    }
    let pack_s = t0.elapsed().as_secs_f64();
    setup_s += pack_s;

    let mut cells = Vec::new();
    for ci in &inputs.cells {
        let label = inputs.label(ci);
        let bound = ci.bind(&packed);
        let t0 = Instant::now();
        let plan = Prepared::compile(&ci.def, &bound).map_err(|e| format!("{label}: {e}"))?;
        let (full, _) = plan.run_full().map_err(|e| format!("{label}: {e}"))?;
        setup_s += t0.elapsed().as_secs_f64();
        let got = full.get(ci.out).ok_or_else(|| format!("{label}: no output {}", ci.out))?;
        let dev = reference::rel_deviation(got.as_slice(), &ci.reference);
        if dev > reference::TOLERANCE {
            return Err(format!("{label}: output deviates from the reference by {dev:e}"));
        }
        let mut cell = Cell {
            label,
            plan,
            outputs: HashMap::new(),
            ctx: ExecContext::new(),
            counters: Counters::new(),
            expected: HashMap::new(),
        };
        let t0 = Instant::now();
        cell.run();
        setup_s += t0.elapsed().as_secs_f64();
        cell.expected = cell.outputs.clone();
        cells.push(cell);
    }
    let t0 = Instant::now();
    for _ in 0..WARMUP_SWEEPS {
        cells.iter_mut().for_each(Cell::run);
    }
    setup_s += t0.elapsed().as_secs_f64();
    Ok((PreparedCells { cells, pack_s, packed_nnz }, setup_s))
}

/// Per-cell latencies of traced sweeps, in µs.
pub type CellSamples = Vec<(String, Vec<f64>)>;

pub fn cell_samples(cells: &[Cell]) -> CellSamples {
    cells.iter().map(|c| (c.label.clone(), Vec::new())).collect()
}

/// The closed loop: one thread, sweep after sweep for `seconds`. When
/// traced, every sweep is an `op` span with one `vm.run` child a cell,
/// and each cell's latency is appended to its samples.
pub fn window(
    cells: &mut [Cell],
    seconds: f64,
    mut trace: Option<(&mut Tracer, &mut CellSamples)>,
) -> Window {
    let mut w = Window::default();
    let names = trace.as_mut().map(|(t, _)| (t.name("op"), t.name("vm.run")));
    let mut marks: Vec<Instant> = Vec::with_capacity(cells.len() + 1);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let t1 = match (trace.as_mut(), names) {
            (Some((tracer, per_cell)), Some((op_name, run_name))) => {
                marks.clear();
                marks.push(t0);
                for c in cells.iter_mut() {
                    c.run();
                    marks.push(Instant::now());
                }
                let t1 = marks[cells.len()];
                let op = w.ops.len() as u64;
                let root = tracer.record(op_name, t0, t1, NO_PARENT, op);
                for (k, pair) in marks.windows(2).enumerate() {
                    tracer.record(run_name, pair[0], pair[1], root, op);
                    per_cell[k].1.push((pair[1] - pair[0]).as_secs_f64() * 1e6);
                }
                t1
            }
            _ => {
                cells.iter_mut().for_each(Cell::run);
                Instant::now()
            }
        };
        let ok = cells.iter().all(Cell::reproduces_first_run);
        w.ops.push(Op {
            lat_ms: (t1 - t0).as_secs_f64() * 1e3,
            end_s: start.elapsed().as_secs_f64(),
            ok,
        });
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w
}
