//! # systec-bench
//!
//! Shared harness code for the figure-regeneration binaries
//! (`src/bin/fig*.rs`) and the Criterion benches.
//!
//! Each binary regenerates one figure of the paper's evaluation (§5.2):
//! it builds the workload, prepares every method outside the timed
//! region (packing, transposition, diagonal splitting — excluded from
//! timings exactly as in the paper), measures the minimum over repeated
//! runs, prints a table normalized to naive Finch (the paper's red line
//! at 1.0), and writes a JSON file under `bench_results/`.
//!
//! ```sh
//! cargo run --release -p systec-bench --bin fig6_ssymv             # scaled suite
//! cargo run --release -p systec-bench --bin fig6_ssymv -- --full   # full Table 2 sizes
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Command-line options shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Divide the paper's problem sizes by this factor (default 4; 1
    /// with `--full`).
    pub scale: usize,
    /// Per-case measurement budget in milliseconds.
    pub budget_ms: u64,
    /// Output JSON path (default `bench_results/<figure>.json`).
    pub out: Option<String>,
}

impl HarnessArgs {
    /// Parses `--full`, `--scale N`, `--budget-ms N`, `--out PATH` from
    /// `std::env::args`.
    pub fn parse() -> Self {
        Self::parse_with_default_scale(4)
    }

    /// Like [`HarnessArgs::parse`] with a figure-specific default scale
    /// (the synthetic-tensor figures run at full size by default; only
    /// the Table 2 suite needs scaling to keep generation time sane).
    pub fn parse_with_default_scale(default_scale: usize) -> Self {
        let mut args = HarnessArgs { scale: default_scale, budget_ms: 300, out: None };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => args.scale = 1,
                "--scale" => {
                    args.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a positive integer");
                }
                "--budget-ms" => {
                    args.budget_ms = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--budget-ms needs a positive integer");
                }
                "--out" => args.out = Some(it.next().expect("--out needs a path")),
                other => {
                    panic!("unknown argument {other} (expected --full/--scale/--budget-ms/--out)")
                }
            }
        }
        args
    }

    /// The measurement budget as a [`Duration`].
    pub fn budget(&self) -> Duration {
        Duration::from_millis(self.budget_ms)
    }
}

/// Measures the minimum wall time of `f` over repeated runs: at least
/// `min_runs`, stopping once `budget` is spent — the paper's
/// "minimum of 10,000 runs or 5s, whichever happens first" methodology
/// scaled to interpreter speeds.
pub fn time_min(budget: Duration, min_runs: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    let started = Instant::now();
    let mut runs = 0usize;
    while runs < min_runs || started.elapsed() < budget {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
        runs += 1;
        if runs >= 10_000 {
            break;
        }
    }
    best
}

/// One benchmark case: a label (matrix name / parameter point) and the
/// measured seconds per method.
#[derive(Clone, Debug)]
pub struct Case {
    /// Case label (e.g. the matrix name).
    pub label: String,
    /// Free-form metadata (`dim=…, nnz=…`).
    pub meta: String,
    /// `(method name, seconds)` pairs; must include `"naive"`.
    pub series: Vec<(String, f64)>,
}

impl Case {
    /// Speedup of `method` over the naive baseline (the paper's
    /// normalization).
    pub fn speedup(&self, method: &str) -> Option<f64> {
        let naive = self.series.iter().find(|(n, _)| n == "naive")?.1;
        let m = self.series.iter().find(|(n, _)| n == method)?.1;
        Some(naive / m)
    }
}

/// A figure's complete result set.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure id (`"fig6_ssymv"`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The paper's expected speedup line (the purple line).
    pub expected_speedup: f64,
    /// All measured cases.
    pub cases: Vec<Case>,
}

impl Figure {
    /// Prints the normalized table the figure plots.
    pub fn print(&self) {
        println!("\n== {} ({}) ==", self.title, self.id);
        println!("(speedup over naive; paper's expected line at {:.2}x)\n", self.expected_speedup);
        let methods: Vec<&String> = self
            .cases
            .first()
            .map(|c| c.series.iter().map(|(n, _)| n).filter(|n| *n != "naive").collect())
            .unwrap_or_default();
        print!("{:<18}", "case");
        for m in &methods {
            print!("{:>14}", m);
        }
        println!("{:>26}", "meta");
        for case in &self.cases {
            print!("{:<18}", case.label);
            for m in &methods {
                match case.speedup(m) {
                    Some(s) => print!("{s:>13.2}x"),
                    None => print!("{:>14}", "-"),
                }
            }
            println!("{:>26}", case.meta);
        }
        // Geometric mean per method (the paper reports averages).
        print!("{:<18}", "geo-mean");
        for m in &methods {
            let mut product = 1.0f64;
            let mut count = 0usize;
            for case in &self.cases {
                if let Some(s) = case.speedup(m) {
                    product *= s;
                    count += 1;
                }
            }
            if count > 0 {
                print!("{:>13.2}x", product.powf(1.0 / count as f64));
            } else {
                print!("{:>14}", "-");
            }
        }
        println!();
    }

    /// Serializes to JSON (hand-rolled; values are labels and floats).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"id\": \"{}\",", self.id);
        let _ = writeln!(s, "  \"title\": \"{}\",", self.title);
        let _ = writeln!(s, "  \"expected_speedup\": {},", self.expected_speedup);
        let _ = writeln!(s, "  \"cases\": [");
        for (k, case) in self.cases.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"label\": \"{}\",", case.label);
            let _ = writeln!(s, "      \"meta\": \"{}\",", case.meta);
            let _ = writeln!(s, "      \"seconds\": {{");
            for (j, (name, secs)) in case.series.iter().enumerate() {
                let comma = if j + 1 < case.series.len() { "," } else { "" };
                let _ = writeln!(s, "        \"{name}\": {secs:e}{comma}");
            }
            let _ = writeln!(s, "      }}");
            let comma = if k + 1 < self.cases.len() { "," } else { "" };
            let _ = writeln!(s, "    }}{comma}");
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Writes the JSON next to the repo (`bench_results/<id>.json` by
    /// default, or the `--out` path).
    pub fn write(&self, args: &HarnessArgs) {
        let path = args.out.clone().unwrap_or_else(|| format!("bench_results/{}.json", self.id));
        if let Some(parent) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, self.to_json()).expect("write results JSON");
        println!("\nresults written to {path}");
    }
}

/// One series of the row-overhead cell set: a least-squares fit of
/// `time = ns_per_row · rows + ns_per_pair · pairs` over matrices that
/// share their off-diagonal pair count and differ only in row count.
#[derive(Clone, Debug)]
pub struct RowFit {
    /// `"symmetric"` / `"naive"` (compiled-VM plans) or `"native"` (the
    /// hand-written symmetric CSR loop).
    pub series: &'static str,
    /// Fitted cost of one more row (its diagonal entry included).
    pub ns_per_row: f64,
    /// Fitted cost of one off-diagonal pair (the symmetric plan and the
    /// native loop read it once, the naive plan as two stored entries).
    pub ns_per_pair: f64,
    /// The measured `(rows, ns per run)` cells behind the fit.
    pub cells: Vec<(usize, f64)>,
}

/// A symmetric `n`×`n` COO matrix with a full diagonal and exactly
/// `pairs` off-diagonal pairs placed uniformly (splitmix64 stream, so
/// the cells do not depend on the `rand` stand-in).
fn symmetric_with_pairs(n: usize, pairs: usize, seed: u64) -> systec_tensor::CooTensor {
    assert!(pairs <= n * (n - 1) / 4, "matrix too dense to place {pairs} pairs");
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut coo = systec_tensor::CooTensor::new(vec![n, n]);
    for i in 0..n {
        coo.set(&[i, i], 1.0 + i as f64 / n as f64);
    }
    let mut seen = std::collections::HashSet::with_capacity(pairs);
    while seen.len() < pairs {
        let (i, j) = ((next() % n as u64) as usize, (next() % n as u64) as usize);
        if i != j && seen.insert((i.min(j), i.max(j))) {
            let v = 0.5 + (next() >> 11) as f64 / (1u64 << 53) as f64;
            coo.set(&[i, j], v);
            coo.set(&[j, i], v);
        }
    }
    coo
}

/// The row-overhead cell set: SSYMV over CSR matrices with `pairs`
/// off-diagonal pairs and each of `rows` row counts, timed (minimum over
/// `budget`) for the symmetric and naive compiled plans and the native
/// symmetric loop, then fitted per series. With the pair count fixed,
/// what grows with the row count is per-row interpretation — the cost
/// the VM's row nest exists to remove.
pub fn row_overhead(pairs: usize, rows: &[usize], budget: Duration) -> Vec<RowFit> {
    use std::collections::HashMap;
    use systec_kernels::{defs, native, Counters, ExecContext, Prepared};
    use systec_tensor::{DenseTensor, SparseTensor, CSR};

    let def = defs::ssymv();
    let mut cells: [Vec<(usize, f64)>; 3] = Default::default();
    for (k, &n) in rows.iter().enumerate() {
        let coo = symmetric_with_pairs(n, pairs, 0x5eed_0000 + k as u64);
        let x = DenseTensor::from_vec(vec![n], (0..n).map(|i| 0.25 + (i % 7) as f64).collect())
            .expect("dense dims");
        let inputs =
            def.inputs([("A", coo.clone().into()), ("x", x.clone().into())]).expect("inputs pack");
        let plans = [
            Prepared::compile(&def, &inputs).expect("prepare symmetric"),
            Prepared::naive(&def, &inputs).expect("prepare naive"),
        ];
        for (series, plan) in cells.iter_mut().zip(&plans) {
            let mut outputs = HashMap::new();
            let mut ctx = ExecContext::new();
            let mut counters = Counters::new();
            let best = time_min(budget, 3, || {
                plan.run_timed_into(&mut outputs, &mut ctx, &mut counters).expect("run");
            });
            series.push((n, best.as_secs_f64() * 1e9));
        }
        let csr = SparseTensor::from_coo(&coo, &CSR).expect("pack csr");
        let best = time_min(budget, 3, || {
            std::hint::black_box(native::symmetric_csr_spmv(&csr, &x));
        });
        cells[2].push((n, best.as_secs_f64() * 1e9));
    }
    ["symmetric", "naive", "native"]
        .into_iter()
        .zip(cells)
        .map(|(series, cells)| {
            // Least squares over (rows, ns): slope = ns/row, intercept =
            // the pair work every cell shares.
            let m = cells.len() as f64;
            let (mx, my) =
                cells.iter().fold((0.0, 0.0), |(sx, sy), &(n, t)| (sx + n as f64 / m, sy + t / m));
            let (sxy, sxx) = cells.iter().fold((0.0, 0.0), |(sxy, sxx), &(n, t)| {
                let dx = n as f64 - mx;
                (sxy + dx * (t - my), sxx + dx * dx)
            });
            let ns_per_row = if sxx > 0.0 { sxy / sxx } else { 0.0 };
            let ns_per_pair = (my - ns_per_row * mx) / pairs.max(1) as f64;
            RowFit { series, ns_per_row, ns_per_pair, cells }
        })
        .collect()
}

/// Generates the (scaled) Table 2 suite, symmetrized as `A + Aᵀ`
/// (§5.2: "the asymmetric matrices in the suite were symmetrized by
/// summing the transpose"). Prints progress, since full-scale
/// generation of the multi-million-nnz members takes a while.
pub fn suite_cases(
    scale: usize,
) -> Vec<(systec_tensor::suite::MatrixSpec, systec_tensor::CooTensor)> {
    systec_tensor::suite::table2()
        .into_iter()
        .map(|spec| {
            let scaled = if scale > 1 { spec.scaled_down(scale) } else { spec };
            eprintln!("generating {} (dim={}, nnz={})", scaled.name, scaled.dim, scaled.nnz);
            let sym = scaled.generate_symmetric();
            (scaled, sym)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_relative_to_naive() {
        let case = Case {
            label: "m".into(),
            meta: String::new(),
            series: vec![("naive".into(), 2.0), ("systec".into(), 1.0)],
        };
        assert_eq!(case.speedup("systec"), Some(2.0));
        assert_eq!(case.speedup("missing"), None);
    }

    #[test]
    fn json_shape() {
        let fig = Figure {
            id: "figX",
            title: "t",
            expected_speedup: 2.0,
            cases: vec![Case {
                label: "m".into(),
                meta: "nnz=1".into(),
                series: vec![("naive".into(), 2.0), ("systec".into(), 1.0)],
            }],
        };
        let json = fig.to_json();
        assert!(json.contains("\"id\": \"figX\""));
        assert!(json.contains("\"systec\": 1e0"));
    }

    #[test]
    fn time_min_respects_min_runs() {
        let mut count = 0;
        let _ = time_min(Duration::ZERO, 3, || count += 1);
        assert!(count >= 3);
    }
}
