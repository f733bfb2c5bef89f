//! `repro` flag strictness: removed or misspelled options exit 2 with a
//! diagnostic before any simulation starts. Also drives `repro telemetry`
//! end to end through its one Chrome-trace export path.

use hidisc_serve::json::Json;
use std::process::Command;

#[test]
fn rejected_options_exit_2_with_a_diagnostic() {
    for (args, diagnostic) in [
        (
            &["fig8", "--scheduler", "ready"][..],
            "unknown flag `--scheduler`",
        ),
        (
            &["fig8", "--scale", "huge"][..],
            "unknown scale `huge` (use test|paper|large)",
        ),
        (&["telemetry", "--stream"][..], "unknown flag `--stream`"),
        (
            &["telemetry", "--event-cap", "16"][..],
            "unknown flag `--event-cap`",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(diagnostic), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn telemetry_writes_a_complete_parseable_trace() {
    let path = std::env::temp_dir().join(format!("repro-cli-trace-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["telemetry", "dm", "--scale", "test", "--trace"])
        .arg(&path)
        .args(["--metrics-interval", "1000"])
        .output()
        .expect("repro runs");
    let doc = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");

    let doc = Json::parse(&doc.expect("trace file written")).expect("trace is valid JSON");
    assert!(doc.get("traceEvents").is_some(), "no traceEvents array");
    assert!(doc.get("hidiscMetrics").is_some(), "no metrics side table");
    for cat in ["pipeline", "mem", "queue", "cmp", "machine"] {
        let lines = err
            .lines()
            .filter(|l| l.trim_start().starts_with(&format!("{cat}: ")) && l.ends_with(" events"))
            .count();
        assert_eq!(lines, 1, "one `{cat}` summary line expected: {err}");
    }
    assert!(err.contains("dropped: 0 "), "{err}");
}
