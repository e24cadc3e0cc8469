//! Smoke check of the benchmark at tiny sizes: for every workload, the
//! untraced run emits every end-to-end metric of `BENCHMARK.json` with its
//! unit, the traced run emits every per-layer metric plus the attribution
//! line, and no operation fails.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric object in one section of
/// `BENCHMARK.json`. The file lists `workloads`, `end_to_end` and
/// `per_layer` in that order, so a section runs from its key to the next.
fn metrics_in(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &text[start..];
    let end = ["\"end_to_end\"", "\"per_layer\""]
        .iter()
        .filter_map(|k| rest[1..].find(k).map(|i| i + 1))
        .min()
        .unwrap_or(rest.len());
    let field = |obj: &str, key: &str| -> String {
        let i = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[i..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    rest[..end]
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        out.status
    );
    stdout
}

fn check(workload: &str, trace: u8, section: &str) -> String {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ") && last.contains("\"failed\": 0, "),
        "{workload}: {last}"
    );
    let metrics = metrics_in(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let tail = &last[at + key.len()..];
        assert!(
            tail.split('}')
                .next()
                .unwrap()
                .ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} not in {unit}: {tail}"
        );
        assert!(
            !tail.starts_with("null"),
            "{workload}: {name} is not a number"
        );
    }
    stdout
}

#[test]
fn every_end_to_end_metric_is_emitted() {
    for w in ["fig9-acoustic-so4", "tti-so8", "survey-rerun"] {
        check(w, 0, "end_to_end");
    }
}

#[test]
fn every_per_layer_metric_is_emitted() {
    for w in ["fig9-acoustic-so4", "tti-so8", "survey-rerun"] {
        let stdout = check(w, 1, "per_layer");
        assert!(stdout.contains("attribution: core.run_s"), "{w}");
    }
}

#[test]
fn bad_arguments_exit_with_2() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "tti-so8", "--trace", "2"],
    ] {
        let st = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(st.status.code(), Some(2), "{args:?}");
        assert!(st.stdout.is_empty(), "{args:?}: no result on bad arguments");
    }
}
