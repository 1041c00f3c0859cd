//! `--smoke` runs all four workloads at a tiny size in a few seconds. Every
//! metric `BENCHMARK.json` lists must come out for every workload with its
//! unit, no operation may fail, and the traced run must report the part of
//! the solve no phase clock covers (`solve.other_s`), so layers that fail
//! to sum stay visible.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["large-batch", "small-batch", "serve-read", "serve-edit"];

fn smoke(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_antbench"))
        .arg("--smoke")
        .args(args)
        .output()
        .expect("antbench starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

/// The `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let body = &text[text
        .find(&format!("\"{section}\""))
        .expect("section present")..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|entry| (string_field(entry, "name"), string_field(entry, "unit")))
        .collect()
}

fn string_field(entry: &str, key: &str) -> String {
    let rest = &entry[entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2..];
    let open = rest.find('"').expect("string value") + 1;
    let close = open + rest[open..].find('"').expect("closed string");
    rest[open..close].to_owned()
}

fn assert_reports(output: &str, section: &str) {
    let result = output.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\":true,") && result.contains("\"failed\":0,"),
        "{result}"
    );
    let metrics = listed(section);
    assert!(!metrics.is_empty());
    for workload in WORKLOADS {
        for (name, unit) in &metrics {
            let prefix = format!("{{\"workload\":\"{workload}\",\"metric\":\"{name}\",\"value\":");
            let line = output
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("{workload} prints no {name}"));
            assert!(line.ends_with(&format!(",\"unit\":\"{unit}\"}}")), "{line}");
            assert!(
                result.contains(&format!("\"{workload}/{name}\":{{")),
                "{name} not in {result}"
            );
        }
    }
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric() {
    assert_reports(&smoke(&["--trace", "0"]), "end_to_end");
}

#[test]
fn traced_smoke_reports_every_per_layer_metric() {
    let out = smoke(&["--trace", "1"]);
    assert_reports(&out, "per_layer");
    for workload in WORKLOADS {
        let other = format!("{{\"workload\":\"{workload}\",\"metric\":\"solve.other_s\"");
        assert!(
            out.contains(&other),
            "{workload} hides the untimed solve work"
        );
    }
}

/// A seed with no pinned digests is checked against a reference computed
/// on the spot.
#[test]
fn unpinned_seed_is_checked_against_a_fresh_reference() {
    assert_reports(&smoke(&["--seed", "7"]), "end_to_end");
}
