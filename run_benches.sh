#!/bin/sh
# Regenerates every reproduced table/figure (see EXPERIMENTS.md): each
# bench binary prints its table on stdout. backend_compare doubles as a
# coloring-vs-linear-scan differential check and fails the run if the
# backends' memory images differ. The repository benchmark with its
# end-to-end and per-layer metrics is perfbench/ (BENCHMARK.json).
#
#   usage: run_benches.sh [BUILD_DIR]    (default: build)
#
# Set RA_TRACE to a path to additionally capture a Chrome/Perfetto
# trace of rac over the sample programs; an unwritable trace path is a
# hard error (structured diagnostic on stderr, non-zero exit), never a
# silent drop.
set -e

BUILD_DIR=build
while [ $# -gt 0 ]; do
  case "$1" in
    -*)
      echo "usage: run_benches.sh [BUILD_DIR]" >&2; exit 2 ;;
    *)
      BUILD_DIR="$1"; shift ;;
  esac
done

# Every allocation behind a published number must pass the independent
# post-allocation audit (the bench binaries also force C.Audit on).
RA_AUDIT=1
export RA_AUDIT

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: '$BUILD_DIR/bench' does not exist — build first" \
       "(cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi

# Pre-flight the trace destination before spending minutes on benches;
# rac itself repeats the check (io-error) at write time.
if [ -n "${RA_TRACE:-}" ]; then
  trace_dir=$(dirname -- "$RA_TRACE")
  if [ ! -d "$trace_dir" ] || [ ! -w "$trace_dir" ]; then
    echo "run_benches: $RA_TRACE: io-error: trace output directory" \
         "'$trace_dir' is not writable" >&2
    exit 1
  fi
fi

# The expected binary set is derived from the bench sources themselves
# (every bench/*.cpp), so adding a bench without building it — or a
# build that silently dropped one — is a hard error here, never a
# silently shorter run.
script_dir=$(dirname -- "$0")
found=0
for src in "$script_dir"/bench/*.cpp; do
  name=$(basename "$src" .cpp)
  b="$BUILD_DIR/bench/$name"
  if [ ! -x "$b" ] || [ ! -f "$b" ]; then
    echo "error: bench binary '$b' is missing — rebuild" \
         "(cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
  found=1
  echo "==== $b ===="
  "$b"
done

if [ "$found" -eq 0 ]; then
  echo "error: no bench sources under '$script_dir/bench'" >&2
  exit 1
fi

if [ -n "${RA_TRACE:-}" ]; then
  echo "==== trace: rac over tools/samples -> $RA_TRACE ===="
  "$BUILD_DIR"/tools/rac tools/samples/*.ral --quiet \
      --trace="$RA_TRACE" || {
    echo "run_benches: $RA_TRACE: io-error: rac failed writing trace" >&2
    exit 1
  }
fi
