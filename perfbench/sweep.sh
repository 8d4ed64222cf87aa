#!/usr/bin/env bash
# Runs the benchmark once per workload and seed and keeps each run's
# standard output as one file of a result set, the input of
# perfbench/compare. Run from the repository root:
#
#   bash perfbench/sweep.sh OUTDIR "fig3-fanout serve-cached" "1 2 3 4 5" [TRACE]
#
# TRACE is 0 (untraced, the default), 1 (traced ledger) or "both". The
# run length is BENCHMARK.json's run_seconds.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: bash perfbench/sweep.sh OUTDIR WORKLOADS SEEDS [0|1|both]" >&2
	exit 2
fi
out=$1
workloads=$2
seeds=$3
traces=${4:-0}
[ "$traces" = both ] && traces="0 1"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p "$out"
for seed in $seeds; do
	for w in $workloads; do
		for t in $traces; do
			f="$out/${w}__seed${seed}__trace${t}.out"
			if ! bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" >"$f" 2>"$f.err"; then
				echo "sweep: $w seed $seed trace $t failed (see $f.err)" >&2
			fi
			tail -n 1 "$f" | cut -c1-160
		done
	done
done
