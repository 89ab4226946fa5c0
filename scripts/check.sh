#!/usr/bin/env bash
#
# Tier-1 verification: first a static check that no two headers define one
# type name, then build and run the full test suite twice, once plain
# and once under ASan+UBSan (-DGIS_SANITIZE=address,undefined), then run
# the suites that compile on concurrent threads -- the batch engine, whose
# workers schedule distinct functions in parallel, and the subsystems
# those workers share -- under TSan (-DGIS_SANITIZE=thread; TSan and ASan
# cannot share a build), then the cold-path suite (label "perf-equiv",
# the golden schedule table included) and the per-stage fault matrices in
# a -DGIS_SLOWPATH_CHECK=ON build where the cold path cross-checks itself
# against full recomputation, then
# two gisc processes sharing one cache directory, and finally the
# benchmark's own self-test.  Run from anywhere; builds land in build/,
# build-san/, build-tsan/, build-slowcheck/ and .bench_build/ next to the
# sources.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

build_tree() {
  local dir="$1"
  shift
  cmake -S "$ROOT" -B "$dir" "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
}

run_suite() {
  local dir="$1"
  shift
  build_tree "$dir" "$@"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

echo "== duplicate type names across src/ headers =="
# Two headers that define one namespace-scope class or struct name break
# the one-definition rule, and the linker hides it: it keeps one copy of
# each inline member (a destructor, say) and every caller runs that one.
# Namespaces are not indented here, so a namespace-scope definition starts
# at column 0; forward declarations end in ';' and are skipped.
DUP_TYPES="$(
  find "$ROOT/src" -name '*.h' | sort | while read -r h; do
    { grep -oE '^(template <[^>]*> )?(class|struct) [A-Za-z_][A-Za-z0-9_]*([^;A-Za-z0-9_][^;]*)?$' "$h" || true; } |
      sed -E 's/^(template <[^>]*> )?(class|struct) ([A-Za-z0-9_]+).*/\3/' | sort -u
  done | sort | uniq -d
)"
if [ -n "$DUP_TYPES" ]; then
  echo "FAIL: type names defined in more than one header under src/:" >&2
  for T in $DUP_TYPES; do
    grep -rlE "^(template <[^>]*> )?(class|struct) $T([^;A-Za-z0-9_][^;]*)?\$" "$ROOT/src" --include='*.h' |
      sed "s|^|  $T: |" >&2
  done
  exit 1
fi

echo "== plain build =="
run_suite "$ROOT/build"

echo "== sanitized build (address,undefined) =="
run_suite "$ROOT/build-san" -DGIS_SANITIZE=address,undefined

echo "== sanitized build (thread): parallel + obs + regalloc + persist + opt suites =="
build_tree "$ROOT/build-tsan" -DGIS_SANITIZE=thread
# Function-level parallelism in the batch engine is the only concurrency:
# a pipeline run schedules its own regions serially, so each label below
# is here because its tests run engine workers (or the daemon) over shared
# state.  "parallel" is gis_parallel_tests: the batch engine, its thread
# pool, the shared schedule cache and hashing.  "obs" is gis_obs_tests:
# the event tracer records spans from concurrent engine workers
# (TraceFormat.SpansBalancePerThread).  "regalloc" is gis_regalloc_tests:
# engine workers allocate registers concurrently and one ScheduleCache is
# shared across engines.  "persist" is gis_persist_tests: engine workers
# write and read the disk cache tier, the compile daemon runs an acceptor
# plus workers over one shared cache, and two engines share a cache
# directory in-process.  "opt" is gis_opt_tests: engine workers compile
# optimized modules concurrently and the cache-isolation test shares
# memory and disk tiers across -O levels.  The perf-equiv and trace
# suites are single-threaded and run plain and under ASan above.
ctest --test-dir "$ROOT/build-tsan" --output-on-failure -L 'parallel|obs|regalloc|persist|opt'

echo "== slowpath-check build (GIS_SLOWPATH_CHECK=ON): perf-equiv suite + per-stage fault matrix =="
# The cold path checks every per-cycle ready list and fast-forward of the
# list scheduler against a full scan, the local pass's patched
# disambiguation facts after every reorder against a fresh derivation,
# every delta rollback (CFG edges included)
# against a full snapshot and every reused LoopInfo against a fresh
# compute, and runs the block-scoped and the full schedule verifier side
# by side on every region task, fatal-erroring on any divergence (DESIGN.md
# sections 14-15); the perf-equiv suite, whose golden table compiles
# 1,632 programs, then checks the cold path pick by pick, not just end to
# end, and its E-series table pins every E3, E4, E5, E10 and E14 cycle cell.  The per-stage fault matrices (Stages/FaultMatrixTest) run without
# the differential oracle, so their prerename, unroll, rotate, local and
# postalloc faults roll back through delta checkpoints, each compared
# with its full-snapshot shadow.
build_tree "$ROOT/build-slowcheck" -DGIS_SLOWPATH_CHECK=ON
ctest --test-dir "$ROOT/build-slowcheck" --output-on-failure -L 'perf-equiv'
ctest --test-dir "$ROOT/build-slowcheck" --output-on-failure -R '^Stages/'

echo "== cross-process cache-dir sharing (two gisc processes, one directory) =="
# Beyond the in-process test, run two real gisc processes concurrently
# against one cache directory: the atomic-rename publish protocol must
# hold across processes (no quarantines on a clean path, no crashes),
# and a third run must be served from the disk tier they populated.
GISC="$ROOT/build/examples/example_gisc"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cat > "$WORK/a.c" <<'EOF'
int work(int n) { int s = 0; int i = 0; while (i < n) { s = s + i * i; i = i + 1; } return s; }
int main(int n) { return work(n) + work(n + 1); }
EOF
cp "$WORK/a.c" "$WORK/b.c"
"$GISC" "$WORK/a.c" "$WORK/b.c" --cache-dir "$WORK/cache" --stats-json "$WORK/s1.json" >/dev/null &
P1=$!
"$GISC" "$WORK/b.c" "$WORK/a.c" --cache-dir "$WORK/cache" --stats-json "$WORK/s2.json" >/dev/null &
P2=$!
wait "$P1"
wait "$P2"
"$GISC" "$WORK/a.c" --cache-dir "$WORK/cache" --stats-json "$WORK/s3.json" >/dev/null
# A clean-path run must not leak quarantines: any nonzero count here
# means the publish protocol produced an entry some reader refused.
for s in "$WORK"/s1.json "$WORK"/s2.json "$WORK"/s3.json; do
  if ! grep -q '"quarantines": 0' "$s"; then
    echo "FAIL: quarantine counter leaked in clean-path run ($s):" >&2
    grep '"quarantines"' "$s" >&2 || cat "$s" >&2
    exit 1
  fi
done
if ! grep -q '"disk_hits": [1-9]' "$WORK/s3.json"; then
  echo "FAIL: warm restart saw no disk hits ($WORK/s3.json):" >&2
  grep '"disk_hits"' "$WORK/s3.json" >&2 || cat "$WORK/s3.json" >&2
  exit 1
fi

echo "== benchmark self-test (gisbench) =="
# gisbench builds the library from src/ into its own tree and compiles
# against PipelineStats, analysis/Liveness.h and the obs registry, so an
# API change that breaks the benchmark surfaces here, not only when the
# benchmark runs.  Its build and results stay in the git-ignored
# .bench_build/ directory.
(cd "$ROOT" && python3 gisbench/run.py --self-test)

echo "OK: all suites passed"
