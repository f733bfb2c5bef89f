//! `repro` flag strictness: removed or misspelled options exit 2 with a
//! diagnostic before any simulation starts.

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
