#!/usr/bin/env bash
# Builds the benchmark once into .bench_build/ and runs it.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (BENCHMARK.json's command); also
#       "compare A.json B.json" and "merge -o out.json part.json..."
#   bash bench/run.sh [-seed N] [-repeats R]
#       the full set: every workload in its own process, untraced repeats
#       (default 3; 5 on search-cached) then the traced pass, merged into
#       bench/out/<commit>.json
set -euo pipefail
cd "$(dirname "$0")/.."

# Everything the build writes stays inside the checkout.
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .

case "${1:-}" in
--workload | -workload | compare | merge) exec "$build/bench" "$@" ;;
esac

seed=1 repeats=3
while [ $# -gt 0 ]; do
	case "$1" in
	-seed) seed=$2 ;;
	-repeats) repeats=$2 ;;
	*) echo "usage: bench/run.sh [-seed N] [-repeats R]" >&2 && exit 2 ;;
	esac
	shift 2
done

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
start=$SECONDS
parts=()
for w in search-kv search-kv-par2 search-dnn search-cached; do
	r=$repeats
	if [ "$w" = search-cached ]; then r=$((repeats + 2)); fi
	"$build/bench" -workload "$w" -seed "$seed" -repeats "$r" -trace 0 -commit "$commit"
	"$build/bench" -workload "$w" -seed "$seed" -trace 1 -commit "$commit"
	parts+=("bench/out/$w.e2e.json" "bench/out/$w.layers.json")
done
"$build/bench" merge -o "bench/out/$commit.json" "${parts[@]}"
echo "full set: $((SECONDS - start)) s -> bench/out/$commit.json"
