//! Smoke-sized runs of every workload, untraced and traced: each must
//! pass its output checks and print every metric `BENCHMARK.json` lists
//! for its mode, with its unit.

use digamma_obs::{parse_json, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric object in the `section` array of
/// `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
    let field = |metric: &JsonValue, key: &str| {
        metric.get(key).and_then(JsonValue::as_str).expect("a string field").to_owned()
    };
    doc.get(section)
        .and_then(JsonValue::as_arr)
        .expect("section is an array")
        .iter()
        .map(|metric| (field(metric, "name"), field(metric, "unit")))
        .collect()
}

/// This test's cargo target directory.
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    // <target>/<profile>/deps/<test binary>
    exe.ancestors().nth(3).expect("target dir").to_path_buf()
}

/// The release `digamma-netd`, built once into this test's target dir.
fn netd() -> &'static Path {
    static NETD: OnceLock<PathBuf> = OnceLock::new();
    NETD.get_or_init(|| {
        let target = target_dir();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root");
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "digamma-net", "--bin", "digamma-netd"])
            .env("CARGO_TARGET_DIR", &target)
            .current_dir(root)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building digamma-netd failed");
        target.join("release").join("digamma-netd")
    })
}

fn smoke(workload: &str, trace: &str, section: &str) {
    let out = target_dir().join("e2ebench-smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace])
        .arg("--netd")
        .arg(netd())
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).unwrap_or_else(|e| panic!("result is not JSON ({e}): {last}"));
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)), "{last}");
    assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1), "{last}");
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0), "{last}");
    let Some(JsonValue::Obj(reported)) = result.get("metrics") else {
        panic!("no metrics: {last}")
    };
    let metrics = listed(section);
    assert!(!metrics.is_empty());
    assert_eq!(reported.len(), metrics.len(), "exactly the listed metrics: {last}");
    for (name, unit) in metrics {
        let entry = result
            .get("metrics")
            .and_then(|m| m.get(&name))
            .unwrap_or_else(|| panic!("{name} missing: {last}"));
        assert!(entry.get("value").and_then(JsonValue::as_num).is_some(), "{name}: {last}");
        assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(unit.as_str()), "{name}");
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{name} ")) && l.contains(&format!(" {unit}"))),
            "no human-readable line for {name}"
        );
    }
}

#[test]
fn search_prints_every_metric() {
    smoke("search", "0", "end_to_end");
    smoke("search", "1", "per_layer");
}

#[test]
fn serve_persist_prints_every_metric() {
    smoke("serve-persist", "0", "end_to_end");
    smoke("serve-persist", "1", "per_layer");
}

#[test]
fn serve_repeat_prints_every_metric() {
    smoke("serve-repeat", "0", "end_to_end");
    smoke("serve-repeat", "1", "per_layer");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "search", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "search", "--seed", "1", "--seconds", "1"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args(args)
            .args(["--netd", "/nonexistent"])
            .output()
            .expect("benchmark runs");
        assert!(!output.status.success(), "{args:?} succeeded");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
