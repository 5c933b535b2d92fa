#!/usr/bin/env python3
"""Summarize and gate gcov line coverage for src/trace, src/vm,
src/sched, src/policy and src/mem.

Invoked by scripts/coverage.sh after an instrumented test run:

    coverage_report.py <repo-root> <coverage-build-dir>

Walks the library's object dir for .gcno files belonging to the gated
source dirs, runs gcov on each, and parses the "Lines executed" summary
per source file. Every gated file must meet the floor recorded in
scripts/coverage_baseline.txt (percent, with a small tolerance so
line-table jitter between compiler versions does not flake the job).
Set UPM_BLESS_COVERAGE=1 to rewrite the baseline from the current run
(floors are recorded 2 points below measured, so routine drift passes
while a real coverage regression fails).
"""

import os
import re
import subprocess
import sys

GATED_DIRS = ("src/trace", "src/vm", "src/sched", "src/policy", "src/mem")
TOLERANCE = 0.01  # percent; gcov prints two decimals
BLESS_MARGIN = 2.0  # points of slack recorded below measured coverage


def find_gcno(build_dir):
    """All .gcno files with their object dirs. Source filtering
    happens on gcov's parsed output (the object tree nests sources
    under CMakeFiles/<target>.dir, not under src/...)."""
    out = []
    for root, _dirs, files in os.walk(build_dir):
        for f in files:
            if f.endswith(".gcno"):
                out.append((root, os.path.join(root, f)))
    return out


def gcov_coverage(repo, build_dir):
    """Map of repo-relative source path -> line coverage percent."""
    coverage = {}
    pattern = re.compile(
        r"File '([^']+)'\nLines executed:([0-9.]+)% of \d+")
    for obj_dir, gcno in find_gcno(build_dir):
        result = subprocess.run(
            ["gcov", "-n", "-o", obj_dir, gcno],
            capture_output=True,
            text=True,
            cwd=build_dir,
            check=False,
        )
        for path, pct in pattern.findall(result.stdout):
            abspath = os.path.abspath(os.path.join(build_dir, path))
            rel = os.path.relpath(abspath, repo)
            if not rel.startswith(tuple(GATED_DIRS)):
                continue
            # A source seen from several objects keeps its best run.
            coverage[rel] = max(coverage.get(rel, 0.0), float(pct))
    return coverage


def read_baseline(path):
    floors = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, pct = line.rsplit(None, 1)
            floors[name] = float(pct)
    return floors


def main():
    repo, build_dir = sys.argv[1], sys.argv[2]
    baseline_path = os.path.join(repo, "scripts",
                                 "coverage_baseline.txt")
    coverage = gcov_coverage(repo, build_dir)
    if not coverage:
        print("coverage: no gcov data found -- was the suite built "
              "with --coverage and run?", file=sys.stderr)
        return 2

    width = max(len(f) for f in coverage)
    print(f"{'file':<{width}}  lines")
    for f in sorted(coverage):
        print(f"{f:<{width}}  {coverage[f]:6.2f}%")

    if os.environ.get("UPM_BLESS_COVERAGE"):
        with open(baseline_path, "w", encoding="utf-8") as out:
            out.write(
                "# Per-file line-coverage floors for scripts/"
                "coverage.sh.\n"
                "# Regenerate with UPM_BLESS_COVERAGE=1 "
                "scripts/coverage.sh\n")
            for f in sorted(coverage):
                floor = max(0.0, coverage[f] - BLESS_MARGIN)
                out.write(f"{f} {floor:.2f}\n")
        print(f"\nblessed {baseline_path}")
        return 0

    floors = read_baseline(baseline_path)
    failed = False
    for f, floor in sorted(floors.items()):
        got = coverage.get(f)
        if got is None:
            print(f"FAIL {f}: no coverage data (file removed? "
                  "re-bless the baseline)")
            failed = True
        elif got + TOLERANCE < floor:
            print(f"FAIL {f}: {got:.2f}% < floor {floor:.2f}%")
            failed = True
    for f in sorted(set(coverage) - set(floors)):
        print(f"note: {f} is not in the baseline "
              "(UPM_BLESS_COVERAGE=1 to add)")
    if failed:
        return 1
    print("\ncoverage: all gated files meet their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
