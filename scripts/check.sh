#!/usr/bin/env bash
# Local / CI quality gate for the CO-MAP reproduction: CI's `check`
# job runs this script and nothing else, so a local run is the CI run.
#
# Runs formatting, lints, and the tier-1 verification suite
# (`cargo build --release && cargo test -q`), then the simbench smoke
# test, every experiment's full run against results/figures.txt, the
# examples, the CLI exit-code checks, the fig_scale report byte-diff
# and the bench_diff gate. The workspace vendors all
# dependencies under vendor/, so the whole script must work with no
# network access — CARGO_NET_OFFLINE keeps cargo from ever trying the
# registry, which in sandboxed CI would otherwise hang or fail.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -D warnings (the one static gate)"
# clippy.toml and each library crate root hold the static invariants;
# DESIGN.md §6 maps every rule to its lint or test.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
# The workspace's default-members list every first-party crate (the
# vendored stand-ins stay out), so this runs the whole suite.
cargo test -q

echo "==> simbench smoke test (its own workspace, not in tier-1)"
cargo test -q --manifest-path simbench/Cargo.toml

echo "==> every experiment prints its checked-in text (all, full mode, vs results/figures.txt)"
# EXPERIMENTS.md quotes this file and a tier-1 test holds it to it, so
# the cmp ties the documented numbers to the code.
cargo run --release -p comap-experiments --bin all > target/figures.txt
cmp target/figures.txt results/figures.txt

echo "==> examples: a standalone protocol (quickstart), a mobile simulation (mobility), a timeline (timeline)"
cargo run --release --example quickstart > /dev/null
cargo run --release --example timeline > /dev/null

echo "==> the mobility example prints its golden bytes (moves, report acceptance, cache invalidation end to end)"
cargo run --release --example mobility > target/mobility_example.txt
cmp target/mobility_example.txt tests/golden/mobility_example.txt

echo "==> profiling smoke run (fig02 --quick --profile-json)"
cargo run --release -p comap-experiments --bin fig02 -- --quick \
    --profile-json target/profile_smoke.json

echo "==> a typo'd flag exits 2 (fig02 --quik)"
status=0
cargo run -q --release -p comap-experiments --bin fig02 -- --quik || status=$?
if [ "$status" != 2 ]; then
    echo "fig02 --quik exited $status, expected 2" >&2
    exit 1
fi

echo "==> an unwritable trace exits 1 (fig02 --quick --trace=/dev/full)"
status=0
cargo run -q --release -p comap-experiments --bin fig02 -- --quick --trace=/dev/full > /dev/null || status=$?
test "$status" = "1"

echo "==> two fig_scale runs write byte-identical reports and latency sections"
# The latency section holds the histograms of all 150 campus nodes, so
# its cmp gates the determinism of the latency sink at scale.
cargo run --release -p comap-experiments --bin fig_scale -- --quick \
    --report-json target/fig_scale_report_a.json \
    --latency-json target/latency_fig_scale_a.json > /dev/null
cargo run --release -p comap-experiments --bin fig_scale -- --quick \
    --report-json target/fig_scale_report_b.json \
    --latency-json target/latency_fig_scale_b.json > /dev/null
cmp target/fig_scale_report_a.json target/fig_scale_report_b.json
cmp target/latency_fig_scale_a.json target/latency_fig_scale_b.json

echo "==> a profiled, sink-free fig_scale report equals one from a run that also passes --latency-json"
# One instrumented run serves --report-json and every sink flag, so
# this cmp gates that neither observation nor profiling perturbs the
# report. The run attaches no sink, so its profile feeds the gate below.
cargo run --release -p comap-experiments --bin fig_scale -- --quick \
    --report-json target/fig_scale_report_plain.json \
    --profile-json target/profile_fig_scale.json > /dev/null
cmp target/fig_scale_report_plain.json target/fig_scale_report_a.json

echo "==> perf-regression gate (that run's profile vs pinned envelope, health invariants first)"
cargo run --release -p comap-experiments --bin bench_diff -- \
    target/profile_fig_scale.json results/BENCH_envelope.json

echo "all checks passed"
