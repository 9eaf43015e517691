#!/usr/bin/env bash
# The repository's one performance gate: the benchmark of bench/ on a parent
# commit and on this checkout, paired.
#
#   scripts/benchpair.sh PARENT_REF [pairs=5] [seconds=15]
#
# Unpacks PARENT_REF (git archive: no branch, index or .git entry is touched)
# under .bench_build/pair/parent, then for pair i = 1..pairs runs
# `bash bench/run.sh -seed i -seconds S -out ...` — all six workloads,
# untraced, every output checked — on both checkouts, the parent first in odd
# pairs and second in even ones, each side building its own sources with its
# own bench/. Prints `bench -compare parent.jsonl change.jsonl` and exits
# with its status: 1 when an end-to-end metric of a workload is `worse`, or
# earlier when a run fails its correctness checks (pair 1 is seed 1, the seed
# bench/expected/ pins). The records stay in .bench_build/pair/*.jsonl until
# the next invocation; the parent checkout is removed on exit, SIGINT and
# SIGTERM. Nothing is written outside .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
usage='usage: scripts/benchpair.sh PARENT_REF [pairs] [seconds]'
ref=${1:?$usage} pairs=${2:-5} seconds=${3:-15}
export GOTOOLCHAIN=local GOPROXY=off

out=$PWD/.bench_build/pair
child=
interrupted() {
	trap - INT TERM
	[ -z "$child" ] || kill -TERM "$child" 2>/dev/null || true
	wait 2>/dev/null || true
	exit 130
}
trap 'rm -rf "$out/parent"' EXIT
trap interrupted INT TERM

commit=$(git rev-parse --verify --quiet "$ref^{commit}") || { echo "benchpair: no commit $ref (shallow clone?); $usage" >&2; exit 2; }
rm -rf "$out"
mkdir -p "$out/parent"
git archive "$commit" | tar -x -C "$out/parent"

# side NAME SEED: one bench/run.sh invocation on that side's checkout, in the
# background so that a signal reaches the trap at once and the trap can stop
# the benchmark.
side() {
	local checkout=$PWD
	[ "$1" = change ] || checkout=$out/parent
	echo "benchpair: pair $2/$pairs: $1" >&2
	bash "$checkout/bench/run.sh" -seed "$2" -seconds "$seconds" -out "$out/$1.jsonl" >>"$out/$1.log" &
	child=$!
	wait "$child" || { echo "benchpair: the $1 run failed; its output is in $out/$1.log" >&2; exit 1; }
	child=
}
for i in $(seq 1 "$pairs"); do
	order='parent change'
	[ $((i % 2)) -eq 1 ] || order='change parent'
	for s in $order; do
		side "$s" "$i"
	done
done
bash bench/run.sh -compare "$out/parent.jsonl" "$out/change.jsonl"
