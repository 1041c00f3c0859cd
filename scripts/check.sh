#!/usr/bin/env bash
# Local CI: formatting, lints, the full test suite, and the benchmark's own
# tests (antbench/, see BENCHMARK.json).
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cross-representation differential test"
cargo test --test pts_repr_differential -q

echo "==> pass-pipeline differential test"
cargo test --test pipeline_differential -q

echo "==> propagation-mode differential test (full vs diff)"
cargo test --test prop_differential -q

echo "==> incremental resume differential test (warm start vs scratch)"
cargo test --test incremental_differential -q

echo "==> full test suite under the BSP engine (ANT_THREADS=4)"
ANT_THREADS=4 cargo test --workspace -q

echo "==> provenance differential test"
cargo test --test provenance_differential -q

echo "==> session-vs-one-shot differential test"
cargo test --test session_differential -q

echo "==> ant serve smoke test (real child process over stdin/stdout)"
cargo build --release -q -p ant-cli
serve_out="$(printf '%s\n' \
  '{"op":"points_to","var":"str_hash","id":1}' \
  '{this is not json' \
  '{"op":"add","text":"smoke_new = str_hash\n"}' \
  '{"op":"shutdown"}' \
  | target/release/ant serve testdata/hashtable.c)"
echo "$serve_out" | grep -q '"ok":true.*"op":"points_to"' \
  || { echo "serve smoke: missing points_to answer"; echo "$serve_out"; exit 1; }
echo "$serve_out" | grep -q '"error":"malformed_request"' \
  || { echo "serve smoke: malformed line not typed"; echo "$serve_out"; exit 1; }
echo "$serve_out" | grep -q '"ok":true.*"op":"add"' \
  || { echo "serve smoke: incremental add not answered"; echo "$serve_out"; exit 1; }

echo "==> fuzz smoke (fixed seed, FUZZ_ITERS=${FUZZ_ITERS:-500} programs + request streams)"
# Deterministic structure-aware fuzzing of parse/solve/serve (DESIGN.md §15).
# Exit 1 means the harness pinned a *new* reproducer under testdata/fuzz/ —
# inspect it, fix the crash/mismatch, and commit the entry with the fix.
FUZZ_ITERS="${FUZZ_ITERS:-500}" \
  cargo run --release -q -p ant-bench --bin fuzz_harness -- --seed 2599 \
  || { echo "fuzz smoke: new findings pinned in testdata/fuzz/ (see above)"; exit 1; }

echo "==> fuzz regression corpus replay"
cargo test --release --test fuzz_regressions -q

echo "==> benchmark tests (antbench: build, pinned answers, smoke run)"
cargo test --release -q --manifest-path antbench/Cargo.toml

echo "All checks passed."
