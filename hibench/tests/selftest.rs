//! Self-test of the benchmark at tiny sizes: every metric BENCHMARK.json
//! names is printed with its unit, the simulated-stat digest repeats for
//! a seed, and the oracles catch a deliberately corrupted result.
//!
//! Run with `cargo test --release --manifest-path hibench/Cargo.toml`.

use std::process::Command;

use hidisc_serve::json::Json;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, section: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = spec.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

struct Run {
    code: i32,
    stdout: String,
    result: Json,
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_hibench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "test"])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("last line `{last}`: {e}"));
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout,
        result,
    }
}

fn check_metrics(section: &str, trace: bool) {
    let spec = spec();
    let want = names(&spec, section);
    for (workload, _) in names(&spec, "workloads") {
        let r = run(&workload, trace, &[]);
        assert_eq!(r.code, 0, "{workload}: exit code\n{}", r.stdout);
        assert_eq!(r.result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(r.result.get("failed").and_then(Json::as_u64), Some(0));
        let metrics = r.result.get("metrics").expect("metrics object");
        assert_eq!(
            metrics.keys().len(),
            want.len(),
            "{workload}: metric count differs from BENCHMARK.json `{section}`"
        );
        for (name, unit) in &want {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            assert!(
                matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
                "{workload}: {name} has no finite value"
            );
        }
        for key in [
            "\"git_sha\"",
            "\"nproc\"",
            "\"threads\"",
            "\"seed\"",
            "\"scale\"",
        ] {
            assert!(r.stdout.contains(key), "{workload}: metadata lacks {key}");
        }
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    check_metrics("end_to_end", false);
}

#[test]
fn every_per_layer_metric_is_printed_with_its_unit() {
    check_metrics("per_layer", true);
}

#[test]
fn digest_repeats_for_a_seed() {
    let digest = |w: &str| {
        let r = run(w, false, &[]);
        r.stdout
            .lines()
            .find(|l| l.starts_with("digest "))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("{w}: no digest line"))
    };
    for w in ["latency-sweep", "serve-mix"] {
        assert_eq!(digest(w), digest(w), "{w}: digest differs between runs");
    }
}

#[test]
fn oracles_catch_a_corrupted_result() {
    for (workload, _) in names(&spec(), "workloads") {
        let r = run(&workload, false, &["--inject-fault"]);
        assert_ne!(r.code, 0, "{workload}: a corrupted result exited 0");
        assert_eq!(r.result.get("correct"), Some(&Json::Bool(false)));
        assert!(r.result.get("failed").and_then(Json::as_u64).unwrap_or(0) >= 1);
    }
}
