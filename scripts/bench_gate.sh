#!/bin/sh
# bench_gate.sh — benchmark regression gate for CI.
#
# Runs the substrate benchmarks into a fresh snapshot (bench-out/ by
# default), compares BenchmarkSimulatedCreate, BenchmarkCachedGetattr,
# BenchmarkSplitCreate, BenchmarkBackendCreate, BenchmarkDomainCreate,
# BenchmarkNFSDomainCreate and BenchmarkAggregateInject ns/op against
# the newest committed BENCH_*.json in the repo root, and for each
# gated benchmark
#
#   - fails (exit 1) on a regression worse than 2x,
#   - warns on any regression above 15%,
#   - passes otherwise.
#
# Absolute allocation guards ride along: BenchmarkAggregateInject's
# steady state must report 0 allocs/op, and the hot create paths carry
# allocs/op ceilings (alloc creep fails the build before it becomes a
# ns/op regression). When the host fingerprint (CPU model/cores,
# recorded by bench.sh) differs between baseline and candidate, the
# gate prints a loud warning — cross-hardware ratios are advisory.
#
# A gated benchmark missing from the committed baseline is skipped with
# a notice (the first snapshot that includes it becomes its baseline).
#
# Usage: scripts/bench_gate.sh [output-dir]
set -eu

cd "$(dirname "$0")/.."
outdir="${1:-bench-out}"
mkdir -p "$outdir"

baseline=$(ls BENCH_*.json 2>/dev/null | sort | tail -1)
if [ -z "$baseline" ]; then
	echo "bench_gate: no committed BENCH_*.json baseline found" >&2
	exit 1
fi

# Three samples per benchmark: one 1s sample on a shared CI runner is
# too noisy for a hard gate; the snapshot records the mean. Substrate
# benchmarks only — the gate never compares the failover or coherence
# experiments, so it does not pay for running them.
scripts/bench.sh "$outdir" -count 3 -substrate-only
fresh=$(ls "$outdir"/BENCH_*.json | sort | tail -1)

# Suite wall-clock timing line: one parallel run of the whole suite, so
# the perf trajectory in the CI artifact captures end-to-end cost, not
# just ns/op. Informational only — never gated (shared runners are too
# noisy for a hard wall-clock bound).
workers=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
go build -o "$outdir/.experiments-gate" ./cmd/experiments
suite_s=$("$outdir/.experiments-gate" -j "$workers" | awk '/^total:/ { sub(/s$/, "", $2); print $2 }')
rm -f "$outdir/.experiments-gate"
echo "bench_gate: suite wall-clock ${suite_s}s (-j $workers)" | tee "$outdir/suite_timing.txt"

extract() {
	# Pull one numeric field ($3, e.g. ns_per_op) of one benchmark out of
	# a snapshot; every snapshot format keeps one benchmark per line. The
	# quoted-key-plus-colon match is exact: a benchmark whose name is a
	# prefix of another's never matches the longer entry.
	awk -v bench="\"$2\":" -v field="\"$3\"" 'index($0, bench) {
		if (match($0, field ": *[0-9.]+")) {
			v = substr($0, RSTART, RLENGTH); sub(/.*: */, "", v); print v; exit
		}
	}' "$1"
}

# Host-fingerprint check: a ratio between snapshots from different
# hardware is advisory at best, so mismatches are flagged loudly (the
# ns/op gates still run — a >2x regression is meaningful even across
# machines, but read warnings in that light).
fingerprint() {
	awk '
	/"cpu_model":/ { split($0, q, "\""); m = q[4] }
	/"cpu_cores":/ { if (match($0, /[0-9]+/)) c = substr($0, RSTART, RLENGTH) }
	END {
		if (m == "" && c == "") print "unrecorded"
		else printf "%s, %s cores\n", m, c
	}' "$1"
}
base_fp=$(fingerprint "$baseline")
new_fp=$(fingerprint "$fresh")
if [ "$base_fp" != "$new_fp" ]; then
	echo "bench_gate: =================================================================="
	echo "bench_gate: WARNING — host fingerprint differs from the committed baseline:"
	echo "bench_gate:   baseline ($baseline): $base_fp"
	echo "bench_gate:   candidate: $new_fp"
	echo "bench_gate: ns/op ratios across different hardware are advisory only."
	echo "bench_gate: =================================================================="
fi

status=0
for bench in BenchmarkSimulatedCreate BenchmarkCachedGetattr BenchmarkSplitCreate BenchmarkBackendCreate BenchmarkDomainCreate BenchmarkNFSDomainCreate BenchmarkAggregateInject; do
	base_ns=$(extract "$baseline" "$bench" ns_per_op)
	new_ns=$(extract "$fresh" "$bench" ns_per_op)
	if [ -z "$new_ns" ]; then
		echo "bench_gate: $bench missing from $fresh" >&2
		status=1
		continue
	fi
	if [ -z "$base_ns" ]; then
		echo "bench_gate: $bench has no baseline in $baseline yet; skipping"
		continue
	fi
	echo "bench_gate: $bench $base_ns ns/op ($baseline) -> $new_ns ns/op"
	awk -v base="$base_ns" -v new="$new_ns" -v bench="$bench" 'BEGIN {
		ratio = new / base
		printf "bench_gate: %s ratio %.2fx\n", bench, ratio
		if (ratio > 2.0) {
			printf "bench_gate: FAIL — %s regressed more than 2x\n", bench
			exit 1
		}
		if (ratio > 1.15) {
			printf "bench_gate: WARNING — %s regressed %.0f%%\n", bench, (ratio - 1) * 100
		}
		exit 0
	}' || status=1
done

# Allocation guard: the aggregate-injection steady state must stay
# allocation-free (its per-op cost is the whole point of the model).
# This is an absolute bound, not a baseline comparison, so it holds
# from the first snapshot on.
inject_allocs=$(extract "$fresh" BenchmarkAggregateInject allocs_per_op)
if [ -z "$inject_allocs" ]; then
	echo "bench_gate: BenchmarkAggregateInject allocs/op missing from $fresh" >&2
	status=1
elif awk -v a="$inject_allocs" 'BEGIN { exit !(a > 0) }'; then
	echo "bench_gate: FAIL — BenchmarkAggregateInject allocates ($inject_allocs allocs/op, want 0)" >&2
	status=1
else
	echo "bench_gate: BenchmarkAggregateInject allocs/op 0 — ok"
fi

# Allocation-creep guards: absolute allocs/op ceilings on the hot
# simulated-create paths, set to the measured steady state: the
# single-kernel creates at 3 (the benchmark's path string, the inode,
# amortized map growth), NFSDomainCreate 3 too, and DomainCreate 5 (the
# same, plus the two simnet.Defer cache-fill closures a sharded create
# ships back). The cross-domain rendezvous itself allocates nothing:
# the call context is recycled, the request and reply legs ride pooled
# carriers, and RPC bodies are typed requests held on the client
# (simnet.Body), so a closure or a box slipping onto these paths turns
# the build red instead of slow.
for guard in "BenchmarkShardedCreate 3" "BenchmarkSplitCreate 3" "BenchmarkBackendCreate 3" "BenchmarkDomainCreate 5" "BenchmarkNFSDomainCreate 3"; do
	bench=${guard% *}
	limit=${guard#* }
	a=$(extract "$fresh" "$bench" allocs_per_op)
	if [ -z "$a" ]; then
		echo "bench_gate: $bench allocs/op missing from $fresh" >&2
		status=1
	elif awk -v a="$a" -v lim="$limit" 'BEGIN { exit !(a > lim) }'; then
		echo "bench_gate: FAIL — $bench allocates $a allocs/op (ceiling $limit)" >&2
		status=1
	else
		echo "bench_gate: $bench allocs/op $a <= $limit — ok"
	fi
done
exit $status
