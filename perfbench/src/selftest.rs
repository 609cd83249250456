//! Tiny-size self-test: every workload, untraced and traced, prints every
//! metric `BENCHMARK.json` names, with its unit, in its JSON line, and the
//! output checks run.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use crate::gen::{self, Scale};
use crate::report;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every entry of array `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let key = format!("\"{section}\": [");
    let start = BENCHMARK_JSON
        .find(&key)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start + key.len()..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let unit = if section == "workloads" {
                String::new()
            } else {
                field(entry, "unit")
            };
            (field(entry, "name"), unit)
        })
        .collect()
}

fn field(entry: &str, key: &str) -> String {
    let key = format!("\"{key}\": \"");
    let at = entry.find(&key).expect("field present") + key.len();
    entry[at..]
        .split('"')
        .next()
        .expect("string closes")
        .to_string()
}

/// The `key=value` pairs of the output's `check` line.
fn check_counts(lines: &[String]) -> Vec<(String, u64)> {
    let line = lines
        .iter()
        .find(|l| l.starts_with("check "))
        .expect("a check line is printed");
    line.split_whitespace()
        .skip(1)
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("key=value");
            (k.to_string(), v.parse().expect("count"))
        })
        .collect()
}

fn count(counts: &[(String, u64)], key: &str) -> u64 {
    counts
        .iter()
        .find(|(k, _)| k == key)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("check line has no {key}"))
}

fn assert_json(line: &str, metrics: &[(String, String)]) {
    assert!(
        line.starts_with("{\"correct\": ") && line.contains("\"attempted\": "),
        "last line is the result object: {line}"
    );
    assert!(line.contains("\"failed\": "), "{line}");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let value = rest.split(',').next().expect("value");
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "{name} = {value} is not a number"
        );
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
            "{name} must carry unit {unit}: {rest}"
        );
    }
    assert_eq!(
        line.matches("\"value\": ").count(),
        metrics.len(),
        "exactly the declared metrics: {line}"
    );
}

fn self_test(workload: &str) {
    let declared_workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(
        declared_workloads,
        gen::WORKLOADS,
        "BENCHMARK.json lists every workload"
    );
    let tiny = Scale { divisor: 50 };
    for trace in [false, true] {
        let w = gen::generate(workload, 11, 1, tiny).expect("known workload");
        let lines = report::bench(&w, 11, 1, trace);
        let section = if trace { "per_layer" } else { "end_to_end" };
        assert_json(lines.last().expect("output"), &declared(section));
        let kind = if trace { "layer" } else { "e2e" };
        for (name, unit) in declared(section) {
            let printed = lines.iter().any(|l| {
                let t: Vec<&str> = l.split_whitespace().take(4).collect();
                t.len() == 4 && t[0] == kind && t[1] == name && t[3] == unit
            });
            assert!(printed, "{name} is printed with unit {unit}");
        }
        let counts = check_counts(&lines);
        assert!(count(&counts, "writes") > 0, "writes are counted");
        assert!(
            count(&counts, "image_audits") > 0 && count(&counts, "images_audited") > 0,
            "backup images are audited"
        );
        match workload {
            "read_mostly" => assert!(count(&counts, "reads") > 0, "reads are audited"),
            "churn_recovery" => assert!(count(&counts, "rejoins") > 0, "rejoins are judged"),
            _ => {}
        }
    }
}

#[test]
fn write_fanout_prints_every_metric_and_checks() {
    self_test("write_fanout");
}

#[test]
fn read_mostly_prints_every_metric_and_checks() {
    self_test("read_mostly");
}

#[test]
fn churn_recovery_prints_every_metric_and_checks() {
    self_test("churn_recovery");
}

#[test]
fn same_seed_same_virtual_outcomes() {
    let tiny = Scale { divisor: 50 };
    let virtual_lines = |seed| {
        let w = gen::generate("churn_recovery", seed, 1, tiny).expect("known workload");
        report::bench(&w, seed, 1, false)
            .into_iter()
            .filter(|l| l.contains("(virtual;") || l.starts_with("check "))
            .collect::<Vec<_>>()
    };
    assert_eq!(virtual_lines(5), virtual_lines(5));
    assert_ne!(virtual_lines(5), virtual_lines(6));
}
