#!/usr/bin/env bash
# gprof profile of one perfbench workload or one bench binary.
#
#   scripts/profile.sh paper-sweep                 # seed 3, 8 s, untraced
#   scripts/profile.sh alloc-churn --seed 0 --seconds 4 --trace 0
#   scripts/profile.sh bench_fig3_bandwidth        # --workers 1
#   scripts/profile.sh bench_oversubscription --smoke
#
# Arguments after the name go to the program in place of the defaults
# shown above. The program is built with -pg -g and linked -static in
# ./build-prof (ignored with the other build trees). Static linking is
# the point: a dynamic -pg binary gets no samples inside libc and
# libstdc++, so malloc/free and the std::map (_Rb_tree_*) internals
# vanish from the profile and the listed shares are of a fraction of
# the run. Prints the top of the flat profile; the whole one is left in
# build-prof/<name>.gprof.txt and the call graph (which callers a
# function's time and calls come from) in build-prof/<name>.graph.txt.
#
# Two ways gprof misleads. The call graph splits a callee's time among
# its callers by call count, not by what each call cost: on paper-sweep
# the few 256 MiB allocations of the stream anchors are charged to the
# many small ones of AllocProbe, so AllocProbe::measure reads 34.8%
# inclusive and StreamProbe::allocate 0.5%, while the core.alloc_probe
# span gives the alloc probe about 17% of probe wall time. And the flat
# profile samples user time only; system time (page zeroing, mmap) is
# not in it. For wall time per probe, read the spans of
# `python3 perfbench/run.py --workload paper-sweep --trace 1`.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: scripts/profile.sh WORKLOAD|BENCH [program args...]" >&2
    exit 2
fi
name="$1"
shift

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-prof"
jobs="$(nproc)"
mkdir -p "$build"

case "$name" in
  bench_*)
    src="$repo/bench/$name.cc"
    if [ ! -f "$src" ]; then
        echo "profile.sh: no bench source $src" >&2
        exit 2
    fi
    cmake -S "$repo" -B "$build/main" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS="-pg -g" \
        -DCMAKE_EXE_LINKER_FLAGS="-pg -static" > /dev/null
    cmake --build "$build/main" --target "$name" -j "$jobs" > /dev/null
    binary="$build/main/bench/$name"
    [ $# -gt 0 ] || set -- --workers 1
    ;;
  *)
    cmake -S "$repo/perfbench" -B "$build/perfbench" \
        -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS="-pg -g" \
        -DCMAKE_EXE_LINKER_FLAGS="-pg -static" > /dev/null
    cmake --build "$build/perfbench" --target upmperf -j "$jobs" \
        > /dev/null
    binary="$build/perfbench/upmperf"
    [ $# -gt 0 ] || set -- --seed 3 --seconds 8 --trace 0
    set -- --workload "$name" "$@"
    ;;
esac

# gmon.out is written to the working directory at exit.
cd "$build"
rm -f gmon.out
"$binary" "$@" > "$build/$name.out"
gprof -b -p "$binary" gmon.out > "$build/$name.gprof.txt"
gprof -b -q "$binary" gmon.out > "$build/$name.graph.txt"
head -n 40 "$build/$name.gprof.txt"
