//! Self-test: every workload, at smoke size, untraced and traced, prints
//! every metric `BENCHMARK.json` declares for that mode with its declared
//! unit, and completes with no failed operation.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |line: &str, key: &str| -> String {
        let at = line.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
        line[at..at + line[at..].find('"').expect("closing quote")].to_owned()
    };
    body.lines()
        .filter(|l| l.contains("\"name\"") && l.contains("\"unit\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn workloads() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let body = &text[text.find("\"workloads\"").expect("workloads")..];
    let body = &body[..body.find(']').expect("section ends")];
    body.lines()
        .filter_map(|l| {
            let at = l.find("\"name\": \"")? + 9;
            Some(l[at..at + l[at..].find('"')?].to_owned())
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", &trace.to_string(), "--out"])
        .arg(&out_dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

fn check(workload: &str, trace: u8, section: &str) {
    let result = run(workload, trace);
    assert!(
        result.starts_with("{\"correct\": true, "),
        "{workload}: {result}"
    );
    assert!(
        result.contains("\"failed\": 0, "),
        "{workload}: failed_share must be 0: {result}"
    );
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}: {result}"));
        let rest = &result[at + entry.len()..];
        let (value, tail) = rest.split_once(", ").expect("value ends");
        let value: f64 = value.parse().expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            tail.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{workload}: {name} is not reported in {unit}: {result}"
        );
    }
    assert_eq!(
        result.matches("\"value\"").count(),
        metrics.len(),
        "{workload} trace={trace} reports metrics BENCHMARK.json does not declare: {result}"
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let names = workloads();
    assert_eq!(names, ["city-sparse", "synth-dense", "serve-whatif"]);
    for w in &names {
        check(w, 0, "end_to_end");
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for w in &workloads() {
        check(w, 1, "per_layer");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!output.status.success());
    assert!(!String::from_utf8_lossy(&output.stdout).contains("\"correct\""));
}
