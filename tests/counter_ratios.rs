//! The paper's access/op-saving claims (§5.2), checked via the
//! executor's instrumentation counters.
//!
//! Reads are checked *exactly*: a symmetric kernel must touch precisely
//! the canonical-triangle entries of `A` (which approaches `1/n!` of the
//! tensor as diagonals become negligible — the paper's 1/2, 1/6, 1/24,
//! 1/120 figures). Flops are checked against the analytical cost of the
//! generated code (the scale-by-`n!` multiply itself costs one flop, so
//! e.g. 3-d MTTKRP's ideal op ratio is 2/3 of naive rather than the
//! asymptotic 1/2 the paper quotes for pure semiring work; the dominant
//! saving — iteration and memory traffic — is in the read counters).

use std::collections::HashMap;

use systec::exec::Counters;
use systec::kernels::{defs, KernelDef, Prepared};
use systec::tensor::generate::{random_dense, rng, sprand, symmetric_erdos_renyi};
use systec::tensor::{CooTensor, Tensor};

/// Runs both versions and returns (symmetric counters, naive counters).
fn counters(def: &KernelDef, inputs: &HashMap<String, Tensor>) -> (Counters, Counters) {
    let sym = Prepared::compile(def, inputs).unwrap();
    assert_canonical_parts(def.name, &sym, &inputs["A"]);
    let naive = Prepared::naive(def, inputs).unwrap();
    // Timed region only: replication excluded on both sides, as in §5.2.
    let (_, cs) = sym.run_timed().unwrap();
    let (_, cn) = naive.run_timed().unwrap();
    (cs, cn)
}

/// The number of stored entries with nondecreasing coordinates — the
/// canonical triangle (Definition 2.3).
fn canonical_count(coo: &CooTensor) -> u64 {
    coo.entries().filter(|(c, _)| c.windows(2).all(|w| w[0] <= w[1])).count() as u64
}

/// Storage matches the reads: the symmetric plan's `A_diag` and
/// `A_nondiag` together hold exactly the base's stored entries with
/// nondecreasing coordinates, one per orbit (no parts: nothing to check).
fn assert_canonical_parts(name: &str, sym: &Prepared, base: &Tensor) {
    let entries = |t: &Tensor| {
        let mut out = Vec::new();
        t.as_sparse()
            .expect("compressed")
            .for_each_entry(|c, v| out.push((c.to_vec(), v.to_bits())));
        out
    };
    let parts: Vec<&Tensor> =
        ["A_diag", "A_nondiag"].iter().filter_map(|part| sym.inputs().get(*part)).collect();
    if parts.is_empty() {
        return;
    }
    let mut held: Vec<(Vec<usize>, u64)> = parts.into_iter().flat_map(entries).collect();
    held.sort_unstable();
    let canonical: Vec<(Vec<usize>, u64)> =
        entries(base).into_iter().filter(|(c, _)| c.windows(2).all(|w| w[0] <= w[1])).collect();
    assert_eq!(held, canonical, "{name}: the parts must store exactly the canonical entries");
}

fn assert_exact_reads(name: &str, sym_reads: u64, naive_reads: u64, canonical: u64, nnz: u64) {
    assert_eq!(naive_reads % nnz, 0, "{name}: naive reads must be a multiple of nnz");
    let per_entry = naive_reads / nnz;
    assert_eq!(
        sym_reads,
        canonical * per_entry,
        "{name}: symmetric kernel must read exactly the canonical entries \
         (canonical={canonical}, nnz={nnz}, per_entry={per_entry})"
    );
}

fn assert_flops_below(name: &str, sym: u64, naive: u64, bound: f64) {
    let ratio = sym as f64 / naive as f64;
    assert!(ratio <= bound, "{name}: flops ratio {ratio:.4} exceeds bound {bound}");
}

#[test]
fn ssymv_reads_exactly_canonical() {
    let def = defs::ssymv();
    let mut r = rng(1);
    let n = 60;
    let a = symmetric_erdos_renyi(n, 2, 0.1, &mut r);
    let x = random_dense(vec![n], &mut r);
    let canonical = canonical_count(&a);
    let nnz = a.nnz() as u64;
    let inputs = def.inputs([("A", a.into()), ("x", x.into())]).unwrap();
    let (cs, cn) = counters(&def, &inputs);
    assert_exact_reads("SSYMV", cs.reads_of_family("A"), cn.reads_of_family("A"), canonical, nnz);
    // Asymptotically 1/2: diagonals are the only entries not halved.
    let ratio = canonical as f64 / nnz as f64;
    assert!((0.5..0.56).contains(&ratio), "canonical fraction {ratio}");
    // All computations still happen (the symmetric kernel saves reads,
    // not flops, for SSYMV).
    assert!(cs.flops as f64 >= 0.9 * cn.flops as f64, "{} vs {}", cs.flops, cn.flops);
}

#[test]
fn bellman_ford_reads_exactly_canonical() {
    let def = defs::bellman_ford();
    let mut r = rng(9);
    let n = 50;
    let a = symmetric_erdos_renyi(n, 2, 0.1, &mut r);
    let d = random_dense(vec![n], &mut r);
    let canonical = canonical_count(&a);
    let nnz = a.nnz() as u64;
    let inputs = def.inputs([("A", a.into()), ("d", d.into())]).unwrap();
    let (cs, cn) = counters(&def, &inputs);
    assert_exact_reads(
        "Bellman-Ford",
        cs.reads_of_family("A"),
        cn.reads_of_family("A"),
        canonical,
        nnz,
    );
}

#[test]
fn syprd_reads_canonical_flops_reduced() {
    let def = defs::syprd();
    let mut r = rng(2);
    let n = 60;
    let a = symmetric_erdos_renyi(n, 2, 0.1, &mut r);
    let x = random_dense(vec![n], &mut r);
    let canonical = canonical_count(&a);
    let nnz = a.nnz() as u64;
    let inputs = def.inputs([("A", a.into()), ("x", x.into())]).unwrap();
    let (cs, cn) = counters(&def, &inputs);
    assert_exact_reads("SYPRD", cs.reads_of_family("A"), cn.reads_of_family("A"), canonical, nnz);
    // Naive: 3 flops/entry; symmetric off-diagonal: 4 flops per canonical
    // entry (the ×2 costs one multiply) => ideal ratio 2/3.
    assert_flops_below("SYPRD", cs.flops, cn.flops, 0.78);
}

#[test]
fn ssyrk_flops_and_writes_halved() {
    let def = defs::ssyrk();
    let mut r = rng(3);
    let n = 60;
    // Dense-ish rows so off-diagonal intersections dominate diagonal
    // self-intersections.
    let a = sprand(n, n, n * 12, &mut r);
    let inputs = def.inputs([("A", a.into())]).unwrap();
    let (cs, cn) = counters(&def, &inputs);
    let flops_ratio = cs.flops as f64 / cn.flops as f64;
    let writes_ratio = cs.writes as f64 / cn.writes as f64;
    // (offdiag/2 + diag) / (offdiag + diag): approaches 1/2 from above.
    assert!((0.45..0.65).contains(&flops_ratio), "SSYRK flops ratio {flops_ratio}");
    // The workspace transform additionally batches the symmetric
    // version's stores (one per canonical (i, j) pair rather than one per
    // k-match), so the write ratio drops well below the pure-symmetry 1/2.
    assert!((0.1..0.65).contains(&writes_ratio), "SSYRK writes ratio {writes_ratio}");
    // A is not symmetric, so every stored value is still touched (the
    // paper: "accesses all values of A") — but the per-iteration read
    // *count* halves along with the iteration space.
    let reads_ratio = cs.reads_of_family("A") as f64 / cn.reads_of_family("A") as f64;
    assert!((0.4..0.8).contains(&reads_ratio), "SSYRK reads ratio {reads_ratio}");
}

#[test]
fn ttm_reads_exactly_canonical() {
    let def = defs::ttm();
    let mut r = rng(4);
    let n = 20;
    let a = symmetric_erdos_renyi(n, 3, 0.03, &mut r);
    let b = random_dense(vec![n, 6], &mut r);
    let canonical = canonical_count(&a);
    let nnz = a.nnz() as u64;
    let inputs = def.inputs([("A", a.into()), ("B", b.into())]).unwrap();
    let (cs, cn) = counters(&def, &inputs);
    assert_exact_reads("TTM", cs.reads_of_family("A"), cn.reads_of_family("A"), canonical, nnz);
    // Visible {{j,l}} output symmetry halves compute and writes.
    assert_flops_below("TTM", cs.flops, cn.flops, 0.62);
    let writes_ratio = cs.writes as f64 / cn.writes as f64;
    assert!((0.4..0.62).contains(&writes_ratio), "TTM writes ratio {writes_ratio}");
}

#[test]
fn mttkrp3_reads_exactly_canonical() {
    let def = defs::mttkrp(3);
    let mut r = rng(5);
    let n = 20;
    let a = symmetric_erdos_renyi(n, 3, 0.03, &mut r);
    let b = random_dense(vec![n, 6], &mut r);
    let canonical = canonical_count(&a);
    let nnz = a.nnz() as u64;
    let inputs = def.inputs([("A", a.into()), ("B", b.into())]).unwrap();
    let (cs, cn) = counters(&def, &inputs);
    assert_exact_reads("MTTKRP3", cs.reads_of_family("A"), cn.reads_of_family("A"), canonical, nnz);
    // Ideal generated-code ratio: 12 flops per canonical entry vs 18
    // naive => 2/3; diagonals push it slightly up.
    assert_flops_below("MTTKRP3", cs.flops, cn.flops, 0.72);
    // Asymptotically canonical/nnz -> 1/6.
    let frac = canonical as f64 / nnz as f64;
    assert!(frac < 0.25, "canonical fraction {frac} should approach 1/6");
}

#[test]
fn mttkrp4_reads_exactly_canonical() {
    let def = defs::mttkrp(4);
    let mut r = rng(6);
    let n = 14;
    let a = symmetric_erdos_renyi(n, 4, 0.004, &mut r);
    let b = random_dense(vec![n, 4], &mut r);
    let canonical = canonical_count(&a);
    let nnz = a.nnz() as u64;
    let inputs = def.inputs([("A", a.into()), ("B", b.into())]).unwrap();
    let (cs, cn) = counters(&def, &inputs);
    assert_exact_reads("MTTKRP4", cs.reads_of_family("A"), cn.reads_of_family("A"), canonical, nnz);
    // Ideal: 24 flops per canonical vs 96 naive per 24 entries => 1/4.
    assert_flops_below("MTTKRP4", cs.flops, cn.flops, 0.30);
}

#[test]
fn mttkrp5_reads_exactly_canonical() {
    let def = defs::mttkrp(5);
    let mut r = rng(7);
    let n = 11;
    let a = symmetric_erdos_renyi(n, 5, 0.0008, &mut r);
    let b = random_dense(vec![n, 4], &mut r);
    let canonical = canonical_count(&a);
    let nnz = a.nnz() as u64;
    let inputs = def.inputs([("A", a.into()), ("B", b.into())]).unwrap();
    let (cs, cn) = counters(&def, &inputs);
    assert_exact_reads("MTTKRP5", cs.reads_of_family("A"), cn.reads_of_family("A"), canonical, nnz);
    assert_flops_below("MTTKRP5", cs.flops, cn.flops, 0.20);
}

#[test]
fn canonical_triangle_only_storage_suffices() {
    // Table 1's "optimizes redundant storage": because the symmetric
    // kernel only ever reads canonical coordinates, running it with a
    // tensor holding *only* the canonical triangle produces the same
    // output — a factor n! storage saving.
    let def = defs::ssymv();
    let mut r = rng(8);
    let n = 30;
    let full = symmetric_erdos_renyi(n, 2, 0.15, &mut r);
    let x = random_dense(vec![n], &mut r);
    // Canonical triangle only (i <= j).
    let mut upper = CooTensor::new(vec![n, n]);
    for (coords, v) in full.entries() {
        if coords[0] <= coords[1] {
            upper.push(coords, v);
        }
    }
    let inputs_full = def.inputs([("A", full.into()), ("x", x.clone().into())]).unwrap();
    let inputs_upper = def.inputs([("A", upper.into()), ("x", x.into())]).unwrap();
    let sym_full = Prepared::compile(&def, &inputs_full).unwrap();
    let sym_upper = Prepared::compile(&def, &inputs_upper).unwrap();
    let (a, _) = sym_full.run_full().unwrap();
    let (b, _) = sym_upper.run_full().unwrap();
    assert!(a["y"].max_abs_diff(&b["y"]).unwrap() < 1e-10);
}
