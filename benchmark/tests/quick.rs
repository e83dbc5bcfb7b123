//! Smoke test, outside tier-1: every workload in `--quick` mode (1 s
//! windows, smallest inputs), untraced and traced, through the same
//! command the driver uses. Each run must exit 0, report no failed op,
//! and print exactly the metric names and units `BENCHMARK.json` lists,
//! so neither the harness nor the contract can rot silently.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use systec_serve::json::Json;

fn names_and_units(spec: &Json, section: &str) -> BTreeMap<String, String> {
    spec.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit are strings");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn quick_runs_print_the_metrics_the_contract_lists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the crate sits in the repo");
    let text =
        std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json at the root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let command: Vec<&str> = spec
        .get("command")
        .and_then(Json::as_arr)
        .expect("command is a list")
        .iter()
        .map(|a| a.as_str().expect("command holds strings"))
        .collect();
    let workloads = spec.get("workloads").and_then(Json::as_arr).expect("workloads is a list");
    assert_eq!(workloads.len(), 6);
    let end_to_end = names_and_units(&spec, "end_to_end");
    let per_layer = names_and_units(&spec, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    assert!(per_layer.len() <= 128);

    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("a workload has a name");
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = Command::new(command[0])
                .args(&command[1..])
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "5",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--quick",
                ])
                .current_dir(root)
                .output()
                .expect("the benchmark command starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).unwrap_or_else(|e| panic!("{name}: result line: {e}"));
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name} --trace {trace}");
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{name} --trace {trace}"
            );
            assert!(result.get("attempted").and_then(Json::as_u64).is_some_and(|n| n >= 1));
            let printed: BTreeMap<String, String> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics is an object")
                .iter()
                .map(|(k, v)| {
                    assert!(
                        v.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite),
                        "{name}/{k}"
                    );
                    (k.clone(), v.get("unit").and_then(Json::as_str).expect("a unit").to_string())
                })
                .collect();
            assert_eq!(&printed, expected, "{name} --trace {trace}: metric names or units drifted");
        }
    }
}
