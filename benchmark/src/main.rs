//! The repo benchmark: six workloads from a VM sweep to a sharded
//! cluster. See `README.md` beside this crate and `BENCHMARK.json` at
//! the repo root.
//!
//! ```text
//! systec-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--quick]          smallest inputs, for smoke tests
//! systec-benchmark --all [--seed n] [--seconds s] [--quick] [--out FILE]
//! systec-benchmark --check-repeat [--seconds s] [--quick]
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, with
//! the end-to-end metrics for `--trace 0` and the per-layer metrics for
//! `--trace 1`.

mod inputs;
mod kernels;
mod layers;
mod measure;
mod procs;
mod reference;
mod run;
mod serve;
mod spec;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use layers::Metrics;
use run::{Config, Outcome, WORKLOADS};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Quick,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    all: bool,
    check_repeat: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        all: false,
        check_repeat: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?.parse().map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--quick" => a.quick = true,
            "--all" => a.all = true,
            "--check-repeat" => a.check_repeat = true,
            "--out" => a.out = Some(value("a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn metrics_json(m: &Metrics) -> String {
    let mut s = String::from("{");
    for (k, (name, (value, unit))) in m.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if k > 0 { ", " } else { "" }
        );
    }
    s.push('}');
    s
}

fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics_json(&o.metrics)
    )
}

/// Runs one workload and prints its report; the result line comes last.
fn run_and_print(name: &str, cfg: &Config) -> Result<Outcome, String> {
    let w = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (expected one of {})", names.join(", "))
    })?;
    println!(
        "== {} (seed {}, {} s window, trace {}) ==",
        w.name,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("load: {}", w.load);
    println!("why:  {}", w.why);
    let outcome = run::run(name, cfg)?;
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, (value, unit)) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        println!("metric {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "ops: attempted {}, succeeded {}, failed {}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    println!("{}", result_line(&outcome));
    Ok(outcome)
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(procs::repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, untraced then traced, and one summary document.
fn run_all(cfg: Config, out: Option<&str>) -> Result<bool, String> {
    let mut doc = String::from("{\n");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(doc, "  \"git_sha\": \"{}\",\n  \"nproc\": {nproc},", git_sha());
    let _ = writeln!(
        doc,
        "  \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},",
        cfg.seed,
        cfg.seconds,
        cfg.scale == Scale::Quick
    );
    doc.push_str("  \"workloads\": {\n");
    let mut all_correct = true;
    for (k, w) in WORKLOADS.iter().enumerate() {
        let plain = run_and_print(w.name, &Config { trace: false, ..cfg })?;
        let traced = run_and_print(w.name, &Config { trace: true, ..cfg })?;
        all_correct &= plain.correct && traced.correct;
        let _ = writeln!(
            doc,
            "    \"{}\": {{\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}{}",
            w.name,
            result_line(&plain),
            result_line(&traced),
            if k + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    doc.push_str("  },\n  \"claim\": null\n}\n");
    if let Some(path) = out {
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("summary written to {path}");
    }
    Ok(all_correct)
}

/// Runs every workload twice on one seed and once on another: each
/// end-to-end metric of the pair must agree within its bound, every
/// exact count must be identical, and no op may fail anywhere.
fn check_repeat(cfg: Config) -> Result<bool, String> {
    let spec = spec::Spec::load()?;
    let exact = |name: &str| {
        name == "codegen.bytecode_len"
            || name.ends_with(".reads_ratio")
            || name.starts_with("protocol.reply_bytes_")
    };
    let mut ok = true;
    let mut complain = |msg: String| {
        println!("check-repeat: FAIL {msg}");
        ok = false;
    };
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for (seed, trace) in [
            (cfg.seed, false),
            (cfg.seed, false),
            (cfg.seed, true),
            (cfg.seed, true),
            (cfg.seed + 1, false),
        ] {
            let o = run_and_print(w.name, &Config { seed, trace, ..cfg })?;
            if o.failed != 0 {
                complain(format!(
                    "{}: {} ops failed (seed {seed}, trace {trace})",
                    w.name, o.failed
                ));
            }
            runs.push(o);
        }
        for e in &spec.end_to_end {
            let (a, b) = (runs[0].metrics[&e.name].0, runs[1].metrics[&e.name].0);
            let apart = (a - b).abs() / a.min(b);
            println!(
                "check-repeat: {}/{} {a:.5} vs {b:.5} ({:.2} % apart, bound {:.0} %)",
                w.name,
                e.name,
                apart * 100.0,
                e.bound * 100.0
            );
            if apart > e.bound {
                complain(format!("{}/{} differs by more than its bound", w.name, e.name));
            }
        }
        for (name, (a, _)) in runs[2].metrics.iter().filter(|(n, _)| exact(n)) {
            let b = runs[3].metrics[name].0;
            if a.to_bits() != b.to_bits() {
                complain(format!("{}/{name}: exact count {a} vs {b}", w.name));
            }
        }
    }
    println!("check-repeat: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.quick { Scale::Quick } else { Scale::Full };
    let default_seconds = if args.quick { 1.0 } else { 10.0 };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds),
        trace: args.trace,
        scale,
    };
    let result = if args.check_repeat {
        check_repeat(cfg)
    } else if args.all {
        run_all(cfg, args.out.as_deref())
    } else if let Some(name) = &args.workload {
        // The result line carries the verdict; a printed result exits 0.
        run_and_print(name, &cfg).map(|_| true)
    } else {
        Err("nothing to do: pass --workload <name>, --all or --check-repeat".into())
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: outputs were wrong or ops failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
