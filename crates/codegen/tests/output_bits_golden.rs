//! Golden output *bits*: an FNV-1a hash over every output value's
//! `to_bits()` for the eight paper kernels × five storage formats ×
//! serial and two-thread execution (plus a handful of naive programs
//! covering the runner shapes the paper kernels do not reach), diffed
//! against the checked-in `golden/output_bits.golden`. Every cell runs
//! twice, and the rerun must hash the same.
//!
//! The differential tiers hold every serial run to the interpreter's
//! bits, but a two-thread run's reduced outputs only to 1e-9, so they
//! cannot tell a change to the chunk merge (different last bits, still
//! within tolerance) from none. This snapshot can: any change to a fold
//! order or to the chunk merge shows up as a hash diff.
//!
//! Beside it, `golden/dispatch.golden` is the selection census: one
//! `dispatch <kernel> <format> runner=n …` line per group of cells, the
//! `systec_fused_dispatch_total` counts its four runs added (`none` when
//! no vector loop or row nest ran at all). A kernel that silently drops
//! from a nest to the scalar path fails there as a readable diff, not
//! as a timing. The registry is process-global, which is why this is
//! the only test in its binary.
//!
//! The symmetric variants hold only the entries their plan's guards can
//! reach (`prepare_variants`), and dropping entries no access reads moves
//! no output bit. It does move four census lines: in the rank ≥ 3
//! `dense` cells a `Dense` leaf pads zeros only under the middle fibers
//! that still exist, so the generic runner walks fewer padded entries.
//!
//! Workspace rows (`src/fuse.rs`, "Workspace rows") move no output bit:
//! the fold still visits row `i ∩ row j` in ascending `k`, in the same
//! operand order. `ssyrk csr` counts `workspace_dot`: row `i` is
//! scattered once and the `j ≥ i` sweep is a row nest gather-dotting each
//! row `j`, which counts one entry wherever the merge's driver window
//! was non-empty, as the merge did. `naive-isect csr*csr` does too
//! (naive `C[i,j] += A[i,k]·B[j,k]`, row `i` of `A` fixed across the `j`
//! loop). The `csr*dense-rle` and `csr*dense` intersections, a probe into
//! a dense or run-length level and so no compressed fiber to drive from,
//! run on the general path — a compressed head over row `i` and a probe
//! per coordinate, since a vector loop drives one fiber — so their census
//! lines read `none`, and their output bits are the ones a merge would
//! give: the general path folds in the same order.
//!
//! Regenerate after an *intentional* association or selection change
//! with:
//!
//! ```sh
//! SYSTEC_BLESS=1 cargo test -p systec-codegen --test output_bits_golden
//! ```
//!
//! Inputs come from a generator local to this file (no dependency on
//! the `rand` stand-in), with both long and short rows.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use systec_codegen::{CompiledKernel, ExecContext, Parallelism};
use systec_core::Compiler;
use systec_exec::{alloc_outputs, hoist_conditions, lower, prepare_variants, Counters};
use systec_ir::build::*;
use systec_ir::Stmt;
use systec_kernels::defs::{self, InputData, InputFormat, KernelDef};
use systec_telemetry::{global, RUNNER_KINDS};
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

/// Columns of the dense factor matrices.
const RANK: usize = 20;

/// (root, leaf) level formats — the five matrix formats of the
/// symmetric differential tier; middle levels of rank ≥ 3 tensors stay
/// compressed.
const FORMATS: &[(&str, LevelFormat, LevelFormat)] = &[
    ("csr", LevelFormat::Dense, LevelFormat::Sparse),
    ("dcsr", LevelFormat::Sparse, LevelFormat::Sparse),
    ("dense-rle", LevelFormat::Dense, LevelFormat::RunLength),
    ("sparse-rle", LevelFormat::Sparse, LevelFormat::RunLength),
    ("dense", LevelFormat::Dense, LevelFormat::Dense),
];

/// splitmix64: a fixed, self-contained value stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Full-mantissa values in `[0.1, 2)`, so the order of a sum is
    /// visible in its rounding.
    fn value(&mut self) -> f64 {
        0.1 + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 1.9
    }
}

/// Extent of the sparse-chain indices per tensor rank.
fn extent(rank: usize) -> usize {
    match rank {
        2 => 72,
        3 => 18,
        4 => 9,
        _ => 7,
    }
}

/// Random coordinates whose values come from a four-entry palette of
/// full-mantissa numbers, with leaf-mode run extension (so run-length
/// leaves form real runs and products still round); every third matrix
/// row is near-full, so windows are both long and short.
fn random_coo(rank: usize, s: &mut Stream) -> CooTensor {
    let n = extent(rank);
    let palette: [f64; 4] = std::array::from_fn(|_| s.value());
    let mut coo = CooTensor::new(vec![n; rank]);
    for _ in 0..6 * n {
        let mut coords: Vec<usize> = (0..rank).map(|_| s.below(n)).collect();
        let v = palette[s.below(4)];
        for _ in 0..1 + s.below(4) {
            coo.set(&coords, v);
            if coords[rank - 1] + 1 < n {
                coords[rank - 1] += 1;
            }
        }
    }
    if rank == 2 {
        for i in (0..n).step_by(3) {
            for j in 0..n {
                if s.below(8) != 0 {
                    coo.set(&[i, j], palette[(j / 5) % 4]);
                }
            }
        }
    }
    coo
}

/// The kernel's inputs with its sparse operand packed as `[root,
/// Sparse…, leaf]` (symmetrized where the kernel declares symmetry).
fn inputs_for(
    def: &KernelDef,
    root: LevelFormat,
    leaf: LevelFormat,
    s: &mut Stream,
) -> HashMap<String, Tensor> {
    let mut def = def.clone();
    let mut inputs: HashMap<String, Tensor> = HashMap::new();
    // Every kernel has one sparse operand; its rank fixes the extents.
    let chain_rank =
        def.einsum.rhs.accesses().iter().map(|a| a.rank()).max().expect("kernels have operands");
    for access in def.einsum.rhs.accesses() {
        let name = access.tensor.name.clone();
        if inputs.contains_key(&name) {
            continue;
        }
        let rank = access.rank();
        let value: InputData = if def.formats[&name] != InputFormat::Dense {
            let mut levels = vec![LevelFormat::Sparse; rank];
            levels[0] = root;
            levels[rank - 1] = leaf;
            def.formats.insert(name.clone(), InputFormat::Compressed(levels));
            let base = random_coo(rank, s);
            match def.symmetry.partition(&name) {
                Some(partition) => {
                    let mut sym = CooTensor::new(base.dims().to_vec());
                    for (coords, v) in base.entries() {
                        for perm in partition.permutations() {
                            let permuted: Vec<usize> = perm.iter().map(|&p| coords[p]).collect();
                            sym.set(&permuted, v);
                        }
                    }
                    sym.into()
                }
                None => base.into(),
            }
        } else {
            // Dense operands span (chain index[, dense index]).
            let n = extent(chain_rank);
            let dims = if rank == 1 { vec![n] } else { vec![n, RANK] };
            let len = dims.iter().product();
            DenseTensor::from_vec(dims, (0..len).map(|_| s.value()).collect())
                .expect("dense dims")
                .into()
        };
        inputs.extend(def.inputs([(name.as_str(), value)]).expect("data packs"));
    }
    inputs
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The two snapshot texts: output-bit hashes and the dispatch census.
#[derive(Default)]
struct Snapshots {
    bits: String,
    dispatch: String,
}

/// Runs the programs in order over shared outputs twice under each
/// parallelism, appending one `label serial|t2 hash` line per cell
/// (outputs hashed in name order; the rerun must hash the same) and one
/// census line for the four runs together.
fn hash_cells(
    snaps: &mut Snapshots,
    label: &str,
    programs: &[Stmt],
    inputs: &HashMap<String, Tensor>,
) {
    let text = &mut snaps.bits;
    let dispatched = || RUNNER_KINDS.map(|runner| global().fused(runner).get());
    let before = dispatched();
    let mut all_inputs = inputs.clone();
    all_inputs.extend(prepare_variants(&programs[0], inputs).expect("variants"));
    let outputs_init = alloc_outputs(&programs[0], &all_inputs).expect("outputs");
    let compiled: Vec<CompiledKernel> = programs
        .iter()
        .map(|stmt| {
            let lowered = lower(stmt, &all_inputs, &outputs_init).expect("lowers");
            CompiledKernel::compile(&lowered, &all_inputs, &outputs_init).expect("compiles")
        })
        .collect();
    for (pname, par) in [("serial", Parallelism::Serial), ("t2", Parallelism::threads(2))] {
        let mut ctx = ExecContext::new();
        let mut run = || {
            let mut outputs = outputs_init.clone();
            let mut counters = Counters::new();
            for kernel in &compiled {
                kernel
                    .run_with(&all_inputs, &mut outputs, &mut ctx, par, &mut counters)
                    .expect("runs");
            }
            let mut names: Vec<&String> = outputs.keys().collect();
            names.sort();
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for name in names {
                fnv1a(&mut hash, name.as_bytes());
                for v in outputs[name].as_slice() {
                    fnv1a(&mut hash, &v.to_bits().to_le_bytes());
                }
            }
            hash
        };
        let hash = run();
        assert_eq!(run(), hash, "{label} {pname}: the rerun moved an output bit");
        writeln!(text, "{label} {pname} {hash:016x}").unwrap();
    }
    let mut census = String::new();
    for ((runner, after), before) in RUNNER_KINDS.iter().zip(dispatched()).zip(before) {
        if after > before {
            write!(census, " {}={}", runner.name(), after - before).unwrap();
        }
    }
    let census = if census.is_empty() { " none" } else { &census };
    writeln!(snaps.dispatch, "dispatch {label}{census}").unwrap();
}

fn matrix(root: LevelFormat, leaf: LevelFormat, s: &mut Stream) -> Tensor {
    Tensor::Sparse(SparseTensor::from_coo(&random_coo(2, s), &[root, leaf]).expect("packs"))
}

/// Naive programs reaching the runner shapes the paper kernels do not:
/// dense-range and sparse-root drives, probes into every level format,
/// a driven gather, and a
/// dot chain with invariant factors around the driver (the compiler
/// loads its `x[i]` per coordinate, so the chain runs generic).
fn runner_shape_cells(text: &mut Snapshots) {
    use LevelFormat::{Dense, RunLength, Sparse};
    let n = extent(2);
    let mut s = Stream(0x5eed_1000);
    let x = Tensor::Dense(
        DenseTensor::from_vec(vec![n], (0..n).map(|_| s.value()).collect()).expect("dense dims"),
    );
    let spmv = Stmt::loops(
        [idx("i"), idx("j")],
        assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
    );
    let chain = Stmt::loops(
        [idx("i"), idx("j")],
        assign(
            access("y", ["i"]),
            mul([
                access("x", ["i"]),
                access("A", ["i", "j"]),
                access("x", ["i"]),
                access("x", ["j"]),
            ]),
        ),
    );
    for &(fname, root, leaf) in FORMATS {
        let inputs = HashMap::from([
            ("A".to_string(), matrix(root, leaf, &mut s)),
            ("x".to_string(), x.clone()),
        ]);
        hash_cells(text, &format!("naive-spmv {fname}"), std::slice::from_ref(&spmv), &inputs);
        hash_cells(text, &format!("naive-chain {fname}"), std::slice::from_ref(&chain), &inputs);
    }
    let isect = Stmt::loops(
        [idx("i"), idx("j"), idx("k")],
        assign(access("C", ["i", "j"]), mul([access("A", ["i", "k"]), access("B", ["j", "k"])])),
    );
    for (fname, leaf) in [("csr", Sparse), ("dense-rle", RunLength), ("dense", Dense)] {
        let inputs = HashMap::from([
            ("A".to_string(), matrix(Dense, Sparse, &mut s)),
            ("B".to_string(), matrix(Dense, leaf, &mut s)),
        ]);
        hash_cells(
            text,
            &format!("naive-isect csr*{fname}"),
            std::slice::from_ref(&isect),
            &inputs,
        );
    }
    let gather = Stmt::loops(
        [idx("i"), idx("j")],
        assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("B", ["j", "i"])])),
    );
    let inputs = HashMap::from([
        ("A".to_string(), matrix(Dense, Sparse, &mut s)),
        ("B".to_string(), matrix(Dense, Sparse, &mut s)),
    ]);
    hash_cells(text, "naive-gather csr*csr", std::slice::from_ref(&gather), &inputs);
    // Dense-range drives: a dense matvec (two strided loads) and a
    // leaf-varying gather riding the innermost dense loop.
    let dense_mv = Stmt::loops(
        [idx("i"), idx("j")],
        assign(access("y", ["i"]), mul([access("D", ["i", "j"]), access("x", ["j"])])),
    );
    let d = DenseTensor::from_vec(vec![n, n], (0..n * n).map(|_| s.value()).collect())
        .expect("dense dims");
    let inputs = HashMap::from([("D".to_string(), Tensor::Dense(d)), ("x".to_string(), x.clone())]);
    hash_cells(text, "naive-dense-mv dense", std::slice::from_ref(&dense_mv), &inputs);
    let leaf_gather = Stmt::loops(
        [idx("i"), idx("k"), idx("j")],
        assign(access("y", ["i"]), mul([access("A", ["k", "i", "j"]), access("x", ["j"])])),
    );
    let mut coo = CooTensor::new(vec![n; 3]);
    for _ in 0..40 * n {
        let mut coords = [s.below(n), s.below(n), s.below(n)];
        for _ in 0..1 + s.below(24) {
            coo.set(&coords, s.value());
            coords[2] = (coords[2] + 1).min(n - 1);
        }
    }
    let a = SparseTensor::from_coo(&coo, &[Dense, Sparse, Sparse]).expect("packs");
    let inputs = HashMap::from([("A".to_string(), Tensor::Sparse(a)), ("x".to_string(), x)]);
    hash_cells(text, "naive-leaf-gather csf", std::slice::from_ref(&leaf_gather), &inputs);
}

/// Diffs (or, under `SYSTEC_BLESS=1`, rewrites) one snapshot file.
fn check_golden(file: &str, text: &str, what: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(file);
    if std::env::var_os("SYSTEC_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {path:?} ({e}); bless with SYSTEC_BLESS=1"));
    let stale: Vec<String> = expected
        .lines()
        .zip(text.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("  - {a}\n  + {b}"))
        .collect();
    assert!(
        stale.is_empty() && expected.lines().count() == text.lines().count(),
        "{path:?} diverged on {} of {} lines — {what}:\n{}",
        stale.len(),
        text.lines().count(),
        stale.join("\n")
    );
}

#[test]
fn output_bits_match_golden() {
    let mut snaps = Snapshots::default();
    for (k, def) in defs::all().iter().enumerate() {
        let kernel = Compiler::new().compile(&def.einsum, &def.symmetry).expect("compiles");
        let programs: Vec<Stmt> =
            std::iter::once(kernel.main).chain(kernel.replication).map(hoist_conditions).collect();
        for (f, &(fname, root, leaf)) in FORMATS.iter().enumerate() {
            let mut stream = Stream(0x5eed_0000 + 16 * k as u64 + f as u64);
            let inputs = inputs_for(def, root, leaf, &mut stream);
            hash_cells(&mut snaps, &format!("{} {fname}", def.name), &programs, &inputs);
        }
    }
    runner_shape_cells(&mut snaps);

    check_golden("output_bits.golden", &snaps.bits, "a runner change moved a fold or merge order");
    check_golden(
        "dispatch.golden",
        &snaps.dispatch,
        "a selection change moved a loop between the nest, a vector loop and the scalar path",
    );
}
