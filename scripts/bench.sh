#!/usr/bin/env bash
# bench.sh — run the benchmark suite and archive the series as JSON.
#
# Usage:
#   scripts/bench.sh                 # full suite, 1 iteration each
#   scripts/bench.sh Figure3         # only benchmarks matching the regex
#   scripts/bench.sh sharded         # the sharded-campaign throughput family
#                                    # (BenchmarkShardedCampaign: K-shard
#                                    # fan-out + JSONL artefacts + merge)
#   scripts/bench.sh fanout          # supervised + sharded throughput side
#                                    # by side (BenchmarkFanoutCampaign's
#                                    # runs_per_sec next to the hand-sharded
#                                    # BenchmarkShardedCampaign baseline)
#   scripts/bench.sh warm            # machine reuse: cold rebuild per run vs
#                                    # shared warm pool
#                                    # (BenchmarkWarmMachineCampaign) next to
#                                    # the BenchmarkCampaignThroughput anchor
#   scripts/bench.sh snapshot        # machine recycling: one post-boot image
#                                    # restore, clean and after a run
#                                    # (BenchmarkSnapshotRestore) next to the
#                                    # warm and throughput anchors
#   scripts/bench.sh checkpoint      # golden-timeline checkpoints: campaigns
#                                    # that start runs from the latest golden
#                                    # checkpoint before their first injection
#                                    # — E3-fig3 (late first injection, the
#                                    # gain), E1-hvc and E1-trap (recreate
#                                    # cycles; runs whose state probe
#                                    # failed rejoin) and
#                                    # A3-irqchip (injects at ~2 s: must not
#                                    # regress). Use BENCHTIME>=5x.
#   scripts/bench.sh layers          # the per-layer hot paths: one HVC round
#                                    # trip, one trapped MMIO read, one armed
#                                    # injector hook, one GIC ack/EOI cycle,
#                                    # one FreeRTOS tick and one cold golden
#                                    # virtual minute (event dispatch)
#   scripts/bench.sh inspect         # indexed dossier random access vs full
#                                    # sequential scan on a 10k-run artefact,
#                                    # plain and gzip, plus ReadShard and a
#                                    # one-shard Merge of the same file
#                                    # (BenchmarkDossierRandomAccess rows
#                                    # indexed, scan, read-shard, merge)
#   scripts/bench.sh serve           # campaign-server result cache: HTTP
#                                    # submit answered from the verified
#                                    # artefact store vs fresh execution
#                                    # (BenchmarkServerCachedRequest,
#                                    # speedup_x is the ≥100x bar), and a
#                                    # full-mode E1-hvc entry's repeat
#                                    # submit and download split apart
#                                    # (BenchmarkServerCachedRequestFullMode:
#                                    # cached_submit_ms, artefact_ms)
#   scripts/bench.sh obs             # flight-recorder overhead: identical
#                                    # campaign with metric recording on vs
#                                    # off (BenchmarkObsOverhead) next to the
#                                    # BenchmarkCampaignThroughput anchor —
#                                    # the two rows must stay within 3%
#   scripts/bench.sh adaptive        # CI-driven early stop: the Figure-3
#                                    # campaign under a 5pp Clopper-Pearson
#                                    # width target vs its 4000-run max-N
#                                    # guard (BenchmarkAdaptiveCampaign,
#                                    # runs_saved_pct is the ≥30% bar)
#   scripts/bench.sh hash            # trace-hash layer: ns_per_record of the
#                                    # end-of-run fold and of appends plus
#                                    # that fold over one E3-fig3 minute,
#                                    # of splicing it back in 1 s
#                                    # stretches from its fold
#                                    # plan and of restoring a trace to its
#                                    # last mark (BenchmarkTraceHash)
#                                    # next to BenchmarkShardedCampaign, the
#                                    # campaign row that hashes every run
#                                    # (CampaignThroughput has no OnRun and
#                                    # never hashes)
#   scripts/bench.sh soak            # not a benchmark: a quick soak gate —
#                                    # short FuzzFaultInjection sweep plus a
#                                    # -race -short pass over the fault-model
#                                    # and graceful-degradation tests and the
#                                    # artefact-order tests. Use
#                                    # scripts/soak.sh for the 10k-run soak.
#   BENCHTIME=5x scripts/bench.sh    # more iterations for every row that
#                                    # has no target of its own (see
#                                    # ROW_TARGETS below)
#   OUT=mybench.json scripts/bench.sh
#
# Emits BENCH_<YYYYMMDD>.json: one object per benchmark with ns/op,
# allocs/op, B/op and every ReportMetric series (correct_pct,
# runs_per_sec, ...). An existing archive (or OUT file) is never
# overwritten: a second run on the same day writes
# BENCH_<YYYYMMDD>-2.json, then -3, and so on. The static checks (go vet,
# perfbench build and vet, gofmt) run first so a dirty tree never
# produces an archived measurement.
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${1:-.}"
# "soak" is a gate, not a benchmark family: short randomized fuzz over
# the fault-model x seed x experiment space, then the model and
# degradation tests under the race detector. Exits before any
# measurement is archived.
if [ "$PATTERN" = "soak" ]; then
    echo "== soak gate: short fuzz sweep =="
    go test ./internal/core -run '^$' -fuzz 'FuzzFaultInjection' -fuzztime "${FUZZTIME:-5s}"
    echo "== soak gate: -race -short over fault-model tests =="
    go test -race -short ./internal/core \
        -run 'TestSoakFaultModels|TestClassifyGracefulDegradation|TestGracefulRunsAreDeterministic|TestFaultModelRegistryContents|TestFaultNamePlanFileRoundTrip|TestRegisterFactoryMatchesIntensityModel'
    # The artefact-order pair runs pooled machines that read their
    # profile's golden trace segments without a lock.
    go test -race -short ./internal/dist -run 'TestShardedCampaignMatchesSerialPerModel|TestMergeRejectsCrossModelShardSets|TestArtefactBytesIndependentOfWorkerCount|TestCutoffArtefactBytesMatchColdBuild'
    echo "soak gate clean"
    exit 0
fi
# Convenience aliases: "sharded" selects the distributed-campaign
# family; "fanout" puts the supervised path next to it.
if [ "$PATTERN" = "sharded" ]; then
    PATTERN='ShardedCampaign'
elif [ "$PATTERN" = "fanout" ]; then
    PATTERN='FanoutCampaign|ShardedCampaign'
elif [ "$PATTERN" = "warm" ]; then
    PATTERN='WarmMachineCampaign|CampaignThroughput'
elif [ "$PATTERN" = "snapshot" ]; then
    PATTERN='SnapshotRestore|WarmMachineCampaign|CampaignThroughput'
elif [ "$PATTERN" = "checkpoint" ]; then
    PATTERN='Figure3MediumIntensityCampaign|E1HighIntensityRootHVC|E1HighIntensityRootTrap|A3IRQChipInjection'
elif [ "$PATTERN" = "layers" ]; then
    PATTERN='HypercallPath|TrapMMIOEmulation|InjectorHook|GICAckEOI|SchedulerTick|VirtualMinute'
elif [ "$PATTERN" = "inspect" ]; then
    PATTERN='DossierRandomAccess'
elif [ "$PATTERN" = "serve" ]; then
    PATTERN='ServerCachedRequest'
elif [ "$PATTERN" = "obs" ]; then
    PATTERN='ObsOverhead|CampaignThroughput'
elif [ "$PATTERN" = "adaptive" ]; then
    PATTERN='AdaptiveCampaign'
elif [ "$PATTERN" = "hash" ]; then
    PATTERN='TraceHash|ShardedCampaign'
fi
BENCHTIME="${BENCHTIME:-1x}"
# Per-row iteration targets, "family regex=benchtime": a listed family
# runs at its own target whatever BENCHTIME says; every other row runs
# at BENCHTIME.
#   The layers rows get a duration. At a count such as 2000x a
#     nanosecond row times ~60 µs in total and its archived value is
#     noise.
ROW_TARGETS=(
    'HypercallPath|TrapMMIOEmulation|InjectorHook|GICAckEOI|SchedulerTick|VirtualMinute=1s'
)
OUT="${OUT:-BENCH_$(date +%Y%m%d).json}"
# Never overwrite an archive: take the first free -N suffix.
base="${OUT%.json}"
n=2
while [ -e "$OUT" ]; do
    OUT="$base-$n.json"
    n=$((n + 1))
done

echo "== static checks =="
go vet ./...
# perfbench is a nested module, so the root ./... skips it; it reads
# machine fields and must keep building against the tree it measures.
# gofmt walks directories, not modules: "." covers perfbench too.
(cd perfbench && go build ./... && go vet ./...)
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
# The supervisor, the artefact layer and the warm machine pool are the
# concurrency-heavy packages (worker goroutines, tail polling, shared
# JSONL writers with index bookkeeping, concurrent pool Get/Put and the
# batched-flush timer): run them under the race detector before
# archiving any measurement. internal/dist now includes the index
# footer / dossier code (writer offset metering, footer parse, random
# access + fallback) plus the JSONL close-vs-timed-flush and live-tail
# rescan regressions; internal/core's -short pass keeps the full
# differential-determinism plan × mode matrix — including the
# snapshot-restore fault-model sweep and leak fuzz — while trimming the
# full-duration golden campaigns. internal/serve adds the campaign
# server (fair queue, job lifecycle, cache lookups racing executors,
# event-stream tailers). internal/obs is the flight recorder: sharded
# counters, CAS-folded histogram sums and vec child creation are all
# written to be invoked from every worker goroutine at once.
# internal/analytics holds the adaptive stop policy (Clopper-Pearson
# intervals, sequential estimator) whose decisions shard workers replay.
go test -race -short ./internal/fanout ./internal/dist ./internal/core ./internal/serve ./internal/obs ./internal/analytics

# bench_rows PKG runs PKG's benchmarks that match PATTERN, one go test
# per iteration target. The pattern's first element selects the rows;
# any sub-benchmark elements after a "/" still apply.
TOP="${PATTERN%%/*}"
SUB=""
[ "$TOP" != "$PATTERN" ] && SUB="/${PATTERN#*/}"
bench_rows() {
    local pkg="$1" name entry i
    local -a times=() rows=()
    for entry in "${ROW_TARGETS[@]}"; do
        times+=("${entry##*=}")
        rows+=("")
    done
    times+=("$BENCHTIME")
    rows+=("")
    for name in $(go test -list "$TOP" "$pkg" | grep '^Benchmark' || true); do
        i=${#ROW_TARGETS[@]}
        for entry in "${!ROW_TARGETS[@]}"; do
            if [[ "${name#Benchmark}" =~ ^(${ROW_TARGETS[$entry]%=*})$ ]]; then
                i=$entry
                break
            fi
        done
        rows[i]="${rows[i]:+${rows[i]}|}$name"
    done
    for i in "${!rows[@]}"; do
        [ -n "${rows[i]}" ] || continue
        go test -run '^$' -bench "^(${rows[i]})\$$SUB" -benchmem -benchtime "${times[i]}" "$pkg"
    done
}

echo "== benchmarks (pattern: $PATTERN, benchtime: $BENCHTIME, per-row targets: ${ROW_TARGETS[*]}) =="
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT
# The campaign-server benchmark lives in internal/serve (linking
# net/http into the root test binary would disturb its allocation
# goldens); both packages stream into the same archive.
{ bench_rows .; bench_rows ./internal/serve; } | tee "$RAW"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
    printf "%s%s", (count++ ? ",\n" : ""), "  {\"name\": \"" name "\""
    printf ", \"iterations\": %s", $2
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)   # ns/op -> ns_per_op
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { if (count) print "" }
' "$RAW" | { echo "["; cat; echo "]"; } >"$OUT"

echo "wrote $OUT"
