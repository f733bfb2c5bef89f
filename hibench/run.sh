#!/usr/bin/env bash
# Builds the benchmark when its binary is missing or older than any
# source it is built from, then runs it with the given arguments. Run
# from the repository root:
#
#   bash hibench/run.sh --workload suite-paper --seed 2003 --seconds 20 --trace 0
#
# `cargo run` would do the same, but outside a git checkout the
# hidisc-serve build script watches a `.git/HEAD` that does not exist, so
# cargo rebuilds the crate and the benchmark on every invocation.
set -euo pipefail

target="${CARGO_TARGET_DIR:-hibench/target}"
bin="$target/release/hibench"
sources=(Cargo.toml Cargo.lock crates vendor hibench/Cargo.toml hibench/Cargo.lock hibench/src)
if [[ ! -x "$bin" ]] || [[ -n "$(find "${sources[@]}" -newer "$bin" -print -quit)" ]]; then
    cargo build --release --quiet --offline --manifest-path hibench/Cargo.toml
fi
exec "$bin" "$@"
