#!/usr/bin/env bash
# Line-coverage gate for the trace subsystem, the VM layer, the
# event-core scheduler, the policy engine and physical memory.
#
# Builds the test suite with gcc's --coverage instrumentation in a
# dedicated build dir, runs it once, then summarizes per-file line
# coverage for src/trace, src/vm, src/sched, src/policy and src/mem with
# gcov and enforces the checked-in floor in scripts/coverage_baseline.txt.
#
#   scripts/coverage.sh [build-dir]          # gate against baseline
#   UPM_BLESS_COVERAGE=1 scripts/coverage.sh # rewrite the baseline
#
# The build dir defaults to ./build-cov and is configured on first use.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-cov}"

cmake -S "$repo" -B "$build" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
cmake --build "$build" --target upm_tests -j "$(nproc)"

# Stale counters from a previous run would inflate the numbers.
find "$build" -name '*.gcda' -delete

"$build/tests/upm_tests" --gtest_brief=1

python3 "$repo/scripts/coverage_report.py" "$repo" "$build"
