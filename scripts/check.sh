#!/usr/bin/env bash
# Local / CI quality gate for the CO-MAP reproduction: CI's `check`
# job runs this script and nothing else, so a local run is the CI run.
#
# Runs formatting, lints, and the tier-1 verification suite
# (`cargo build --release && cargo test -q`), then the allocation-budget
# test, the observed-run tests (observability, sink allocations, golden
# traces: an observed run's event loop runs on a worker thread) and the
# experiments' library tests in release, the simbench smoke test, the simbench full-scale
# digests of hall_saturated, campus_mobile and campus_observed, every
# experiment's full run
# against results/figures.txt, the examples, the CLI exit-code checks,
# the fig_scale report byte-diff and the bench_diff gate. The workspace vendors all
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

echo "==> allocation budget per event, release build (tier-1 ran it in debug)"
# The counts are held exactly and agree across profiles; the release
# count is the one users pay, so it is checked on its own build.
cargo test -q --release -p comap-sim --test event_allocations

echo "==> observed runs, release build: the event loop on a worker, the sinks on the caller"
# With a sink attached the loop runs on a scoped worker thread and the
# calling thread feeds the sinks; these run that threaded path optimized
# too (tier-1 ran them in debug).
cargo test -q --release -p comap-sim --test observability --test sink_allocations
cargo test -q --release --test golden_traces

echo "==> the experiments' figure pins, release build (tier-1 ran them in debug)"
# Each pins a digest of its figure's data; a pin that only one build
# profile reproduces holds a counter that differs between them.
cargo test -q --release -p comap-experiments --lib

echo "==> simbench smoke test (its own workspace, not in tier-1)"
cargo test -q --manifest-path simbench/Cargo.toml

echo "==> simbench full-scale digests (hall_saturated, campus_mobile, campus_observed; seed 1, one rep)"
# The driver's last line is its JSON summary; "correct":true means the
# run's report digest equals the one simbench pins for the workload.
# For campus_observed that is the digest with its metrics and latency
# sinks attached, and its plain digest must also equal campus_mobile's.
simbench_digest() {
    python3 simbench/run.py --workload "$1" --seed 1 --reps 1 --out "$2" > "${2%.json}.log"
    if ! tail -n 1 "${2%.json}.log" | grep -q '"correct":true'; then
        echo "simbench $1 did not reproduce its pinned digest:" >&2
        tail -n 1 "${2%.json}.log" >&2
        exit 1
    fi
}
simbench_digest hall_saturated target/simbench_hall.json
simbench_digest campus_mobile target/simbench_campus.json
simbench_digest campus_observed target/simbench_observed.json

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
