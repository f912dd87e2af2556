//! Tiny-scale self-check: every workload runs on `DatasetSpec::tiny`
//! data in seconds, untraced and traced, and must print every metric
//! `BENCHMARK.json` names, with its unit, and no failed operation.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric object in the named array of
/// `BENCHMARK.json`.
fn declared(bench: &str, array: &str) -> Vec<(String, String)> {
    let start = bench
        .find(&format!("\"{array}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {array}"));
    let body = &bench[start..];
    let body = &body[..body.find(']').expect("array is closed")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rstore-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn tiny_runs_print_every_declared_metric_without_failures() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let bench = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in ["read_cold", "read_hot", "ingest_online"] {
        assert!(bench.contains(&format!("\"name\": \"{workload}\"")));
        for (trace, metrics) in [(false, &end_to_end), (true, &per_layer)] {
            let stdout = run(workload, trace);
            let last = stdout.lines().last().expect("output");
            assert!(
                last.starts_with("{\"correct\": true, "),
                "{workload}: {last}"
            );
            assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
            // Exactly the declared metrics, each with its unit.
            assert_eq!(
                last.matches("\"value\": ").count(),
                metrics.len(),
                "{workload}: {last}"
            );
            for (name, unit) in metrics {
                let json = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&json)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                let rest = &last[at + json.len()..];
                let (value, tail) = rest.split_at(rest.find(',').expect("value ends"));
                let value: f64 = value.parse().expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(
                    tail.starts_with(&format!(", \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} lacks unit {unit}"
                );
                let line = stdout
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(name.as_str()))
                    .unwrap_or_else(|| panic!("{workload}: no report line for {name}"));
                assert!(
                    line.contains(&format!(" {unit} ")) && line.contains(" n="),
                    "{line}"
                );
            }
            if !trace {
                assert!(
                    last.contains("\"ok_frac\": {\"value\": 1, "),
                    "{workload}: {last}"
                );
            } else {
                let trace_file = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("out")
                    .join(format!("trace-{workload}-5-tiny.json"));
                let text = std::fs::read_to_string(&trace_file).expect("chrome trace written");
                assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
            }
        }
    }
}
