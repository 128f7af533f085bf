#!/usr/bin/env bash
# Regenerates the golden files under tests/golden/ and
# results/figures.txt.
#
# Golden traces pin the byte-exact event stream of representative fig02
# and fig08 runs, fig02_quick_metrics.json pins the fig02 run's metrics
# and latency section, and mobility_example.txt pins the stdout of the
# `mobility` example and results/figures.txt the stdout of the full-mode
# `all` binary (scripts/check.sh cmps both); CI diffs every build
# against them. Regeneration is a deliberate act after an intentional
# behavior change, so this script refuses to run unless REGEN_GOLDEN is
# already set in the environment:
#
#     REGEN_GOLDEN=1 scripts/regen_golden.sh
#
# Review the resulting diff before committing it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ -z "${REGEN_GOLDEN:-}" ]]; then
    echo "refusing to overwrite golden files: set REGEN_GOLDEN=1 explicitly" >&2
    echo "usage: REGEN_GOLDEN=1 scripts/regen_golden.sh" >&2
    exit 2
fi

cargo test --test golden_traces -- --nocapture
cargo run --release --example mobility > tests/golden/mobility_example.txt
cargo run --release -p comap-experiments --bin all > results/figures.txt
echo
echo "golden files regenerated; review with: git diff tests/golden/ results/figures.txt"
