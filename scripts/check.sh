#!/bin/sh
# check.sh — the full local gate: vet, build, and the test suite under
# the race detector, plus the parallel-runner determinism and RNG
# hygiene gates. CI and pre-commit both run exactly this.
set -eux
cd "$(dirname "$0")/.."
go vet ./...
go build ./...
go test -race ./...

# Runner-specific gates (already covered by the suite above, but named
# here so a failure points straight at the subsystem):
#  - determinism: Jobs=1 vs Jobs=8 byte-identity and cell cache replay
#  - cancellation: no goroutine leak under -race
#  - deal order: every workload's first cell dealt before any second,
#    single-key grids in spec order (TestDealOrder)
go test -race -count=1 -run 'TestGridDeterminism|TestGridCancellation|TestCellsRoundTrip|TestShardRun' ./internal/experiments
go test -race -count=1 -run 'TestDealOrder' ./internal/runner
go test -race -count=1 ./internal/runner

# Estimator bank gates: a threshold group's histogram kernel derives
# every ConfStats field of every member exactly as a per-member
# reference books it, read mid-stream and at the end; the pending
# ring's kept low-confidence count equals a walk of the ring.
go test -race -count=1 -run 'TestGroupKernelMatchesPerMemberOracle|TestBankGroupsByTable|TestPendingLowConfMatchesRingWalk' ./internal/pipeline

# Record/replay gates (likewise named for diagnosis):
#  - replay exactness: every estimator family replays bit-identical to
#    direct simulation, and replay-shaped grids render byte-identical
#  - trace codec and cache: round-trip, typed decode errors, LRU bounds
go test -race -count=1 ./internal/replay
go test -race -count=1 -run 'TestReplay' ./internal/experiments

# Cluster gates: N-worker byte-identity vs the local run, chaos kill
# mid-job with lease-TTL reassignment, graceful drain hand-back — all
# in-process, under the race detector (the real-process smoke is below).
go test -race -count=1 ./internal/cluster

# Godoc contract: the serving/cluster stack is the operational surface;
# every exported identifier there must carry a doc comment, and the
# package comment must live in doc.go.
go run ./scripts/doccheck internal/serve internal/runner internal/replay internal/obs/span internal/cluster internal/synth

# RNG hygiene: experiment cells must take randomness from spec.Seed only;
# a process-global RNG would break cross-job determinism silently.
if grep -rn 'math/rand' internal/experiments internal/runner internal/workload internal/serve internal/cluster internal/synth; then
    echo "check.sh: process-global RNG import found (use seed-derived rng streams)" >&2
    exit 1
fi

# One simulation entry point: Params.simulate is the only pipeline.New
# call in the experiments layer, so every run opens one span, prints one
# -v line and counts in specctrl_runs_total.
n=$(grep -ro --include='*.go' --exclude='*_test.go' 'pipeline\.New(' internal/experiments | wc -l)
if [ "$n" -gt 1 ]; then
    echo "check.sh: $n pipeline.New calls in internal/experiments (route runs through Params.simulate)" >&2
    exit 1
fi

# Bench gate: wall-clock and allocation regressions against the
# checked-in baseline (BENCH_PIPELINE.json). A >5% min-of-count ns/op
# regression (10% for the end-to-end runner) or any allocation on the
# allocation-free hot path fails the build; refresh the baseline with
# `go run ./scripts/benchgate.go -update` after intentional changes.
go run ./scripts/benchgate.go

# Serving smoke: results fetched through simserved must be byte-identical
# to a local simctrl run, and a resubmission must be served entirely from
# the content-addressed cache (zero new simulations).
SMOKE=$(mktemp -d)
SERVED_PID=""
COORD_PID=""
WORKER1_PID=""
WORKER2_PID=""
WORKER3_PID=""
cleanup() {
    for pid in "$SERVED_PID" "$WORKER1_PID" "$WORKER2_PID" "$WORKER3_PID" "$COORD_PID"; do
        if [ -n "$pid" ]; then
            kill -TERM "$pid" 2>/dev/null || true
            wait "$pid" || true
        fi
    done
    rm -rf "$SMOKE"
}
trap cleanup EXIT INT TERM

go build -o "$SMOKE/simctrl" ./cmd/simctrl
go build -o "$SMOKE/simserved" ./cmd/simserved
go build -o "$SMOKE/simtrace" ./cmd/simtrace

"$SMOKE/simctrl" -exp table3 -committed 60000 > "$SMOKE/local.txt"

# Record/replay smoke: table3 is a committed-stream experiment, so all
# three -replay modes — arch (the default), events, and off — must
# render the exact same bytes.
"$SMOKE/simctrl" -replay off -exp table3 -committed 60000 > "$SMOKE/direct.txt"
cmp "$SMOKE/local.txt" "$SMOKE/direct.txt"
"$SMOKE/simctrl" -replay arch -exp table3 -committed 60000 > "$SMOKE/arch.txt"
cmp "$SMOKE/direct.txt" "$SMOKE/arch.txt"
"$SMOKE/simctrl" -replay events -exp table3 -committed 60000 > "$SMOKE/events.txt"
cmp "$SMOKE/direct.txt" "$SMOKE/events.txt"
# Threshold-group smoke: fig4's 80-estimator JRS sweeps are scored as
# threshold groups both in event replay (the default) and in direct
# simulation, and the two must render the same bytes.
"$SMOKE/simctrl" -exp fig4 -committed 60000 > "$SMOKE/fig4.txt"
"$SMOKE/simctrl" -replay off -exp fig4 -committed 60000 > "$SMOKE/fig4-direct.txt"
cmp "$SMOKE/fig4.txt" "$SMOKE/fig4-direct.txt"

# Span-tracing smoke: -trace-out must emit a Chrome trace-event file
# that parses with per-cell spans, -profile-cells must print the
# slowest-cells table, and tracing must not perturb rendered output.
"$SMOKE/simctrl" -exp table3 -committed 60000 \
    -trace-out "$SMOKE/run.trace.json" -profile-cells 3 \
    > "$SMOKE/traced.txt" 2> "$SMOKE/trace.log"
cmp "$SMOKE/local.txt" "$SMOKE/traced.txt"
go run ./scripts/tracecheck -min-events 1 -want-span 'cell:' "$SMOKE/run.trace.json"
grep -q 'slowest' "$SMOKE/trace.log"

# Simtrace smoke: -record-jsonl writes the speculative event stream,
# -summarize reads it back and counts committed branches, and the JSONL
# file is not an ingestable trace (refused for its magic).
"$SMOKE/simtrace" -w gcc -record-jsonl "$SMOKE/gcc.jsonl" -committed 40000
"$SMOKE/simtrace" -summarize "$SMOKE/gcc.jsonl" > "$SMOKE/gcc-summary.txt"
grep -Eq '^committed +[1-9][0-9]*$' "$SMOKE/gcc-summary.txt"
if "$SMOKE/simctrl" -exp sweepspace -synth-n 1 -committed 40000 \
    -ingest-trace "$SMOKE/gcc.jsonl" > /dev/null 2> "$SMOKE/ingest-jsonl.log"; then
    echo "check.sh: simctrl -ingest-trace accepted a JSONL event stream" >&2
    exit 1
fi
grep -q 'bad magic' "$SMOKE/ingest-jsonl.log"

# Synth smoke (docs/WORKLOADS.md): record an SPAT committed-branch
# trace, ingest it plus a profile vector, and render the sweepspace
# panel — replay (the default) must match -replay off byte-for-byte,
# and both the profile-backed and the trace-backed rows must appear.
cat > "$SMOKE/profile.json" <<'EOF'
{"seed": 7, "sites": 24, "density": 0.10, "taken": 0.7, "spread": 0.2}
EOF
"$SMOKE/simtrace" -w compress -record-branches "$SMOKE/compress.spat" -committed 40000
[ "$(head -c 4 "$SMOKE/compress.spat")" = SPAT ] || {
    echo "check.sh: simtrace -record-branches did not write an SPAT file" >&2
    exit 1
}
"$SMOKE/simctrl" -exp sweepspace -synth-n 4 -committed 40000 \
    -ingest-trace "$SMOKE/compress.spat" > "$SMOKE/sweep-base.txt"
"$SMOKE/simctrl" -exp sweepspace -synth-n 4 -committed 40000 \
    -ingest-trace "$SMOKE/compress.spat" -synth-profile "$SMOKE/profile.json" \
    > "$SMOKE/sweep.txt"
"$SMOKE/simctrl" -replay off -exp sweepspace -synth-n 4 -committed 40000 \
    -ingest-trace "$SMOKE/compress.spat" -synth-profile "$SMOKE/profile.json" \
    > "$SMOKE/sweep-direct.txt"
cmp "$SMOKE/sweep.txt" "$SMOKE/sweep-direct.txt"
grep -q 'synth:t-' "$SMOKE/sweep.txt"

# Policy-layer smoke: the frontier experiment's policy cells simulate
# directly (policies perturb timing, so replay never applies to them) —
# the default mode must render the exact bytes of -replay off. And a
# base-config -policy must change table3's timing-derived bytes while
# staying byte-identical between replay modes, because an installed
# policy forces every cell off the replay path.
"$SMOKE/simctrl" -exp frontier -committed 60000 > "$SMOKE/frontier-local.txt"
"$SMOKE/simctrl" -replay off -exp frontier -committed 60000 > "$SMOKE/frontier-direct.txt"
cmp "$SMOKE/frontier-local.txt" "$SMOKE/frontier-direct.txt"
grep -q 'gate:1' "$SMOKE/frontier-local.txt"
# abl-gating shares the frontier's policy-sweep grid (one baseline per
# workload anchors every gated run): byte-identical at any -jobs, and
# served below.
"$SMOKE/simctrl" -exp abl-gating -committed 60000 > "$SMOKE/gating-local.txt"
"$SMOKE/simctrl" -jobs 1 -exp abl-gating -committed 60000 > "$SMOKE/gating-serial.txt"
cmp "$SMOKE/gating-local.txt" "$SMOKE/gating-serial.txt"
grep -q 'Dist(>3)' "$SMOKE/gating-local.txt"
"$SMOKE/simctrl" -policy gate:2 -exp table3 -committed 60000 > "$SMOKE/policied.txt"
"$SMOKE/simctrl" -policy gate:2 -replay off -exp table3 -committed 60000 > "$SMOKE/policied-direct.txt"
cmp "$SMOKE/policied.txt" "$SMOKE/policied-direct.txt"
if cmp -s "$SMOKE/local.txt" "$SMOKE/policied.txt"; then
    echo "check.sh: -policy gate:2 left table3 unchanged; the policy was not installed" >&2
    exit 1
fi

# start_served <log> [flags...] boots simserved over the smoke's cell
# store in the background, sets SERVED_PID, and sets URL once the server
# has published its address.
start_served() {
    log=$1
    shift
    rm -f "$SMOKE/addr"
    "$SMOKE/simserved" -addr 127.0.0.1:0 -addr-file "$SMOKE/addr" \
        -cache-dir "$SMOKE/cache" -committed 60000 "$@" 2> "$log" &
    SERVED_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$SMOKE/addr" ] && break
        sleep 0.1
    done
    [ -s "$SMOKE/addr" ] || { echo "check.sh: simserved never published its address" >&2; cat "$log" >&2; exit 1; }
    URL=$(cat "$SMOKE/addr")
}

start_served "$SMOKE/simserved.log" -ingest-trace "$SMOKE/compress.spat"

"$SMOKE/simctrl" -server "$URL" -exp table3 -committed 60000 \
    > "$SMOKE/served1.txt" 2> "$SMOKE/stats1.txt"
"$SMOKE/simctrl" -server "$URL" -exp table3 -committed 60000 \
    > "$SMOKE/served2.txt" 2> "$SMOKE/stats2.txt"

# Byte-identity of both served runs against the local run.
cmp "$SMOKE/local.txt" "$SMOKE/served1.txt"
cmp "$SMOKE/local.txt" "$SMOKE/served2.txt"

# First submission simulated everything; the resubmission hit the cache
# for every cell (the stats line is "... N cells (C cached, S simulated)").
grep -q '(0 cached' "$SMOKE/stats1.txt"
grep -q ' 0 simulated)' "$SMOKE/stats2.txt"

# Served synth smoke: the server ingested compress.spat at startup, so a
# sweepspace job renders the trace-backed row byte-identically to the
# local run, and replay evaluation inside the job must hit the server's
# in-memory trace cache (record once, replay per estimator config).
"$SMOKE/simctrl" -server "$URL" -exp sweepspace -synth-n 4 -committed 40000 \
    > "$SMOKE/ssweep1.txt" 2> "$SMOKE/sstats1.txt"
cmp "$SMOKE/sweep-base.txt" "$SMOKE/ssweep1.txt"
TRACE_HITS=$(curl -s "$URL/metrics" | awk '/^specctrl_trace_hits_total/ {print $2}')
[ -n "$TRACE_HITS" ] && [ "$TRACE_HITS" -ge 1 ] || {
    echo "check.sh: no replay trace-cache hits after a sweepspace job (got '$TRACE_HITS')" >&2
    exit 1
}
# Resubmitting with an extra pinned profile simulates only the new
# workload's cells; everything already seen is a cell-cache hit.
"$SMOKE/simctrl" -server "$URL" -exp sweepspace -synth-n 4 -committed 40000 \
    -synth-profile "$SMOKE/profile.json" > "$SMOKE/ssweep2.txt" 2> "$SMOKE/sstats2.txt"
grep -q 'synth:' "$SMOKE/ssweep2.txt"
if grep -q '(0 cached' "$SMOKE/sstats2.txt"; then
    echo "check.sh: sweepspace resubmission reused no cached cell" >&2
    exit 1
fi
if grep -q ' 0 simulated)' "$SMOKE/sstats2.txt"; then
    echo "check.sh: sweepspace resubmission simulated nothing for its new workload" >&2
    exit 1
fi

# Served frontier smoke: the policy-sweep grid must come back from the
# service byte-identical to the local run.
"$SMOKE/simctrl" -server "$URL" -exp frontier -committed 60000 \
    > "$SMOKE/frontier-served.txt" 2> "$SMOKE/fstats.txt"
cmp "$SMOKE/frontier-local.txt" "$SMOKE/frontier-served.txt"
# The server computed every frontier cell (none came from its store), so
# its run tier now holds frontier's 104 runs. abl-gating's baseline and
# gate:{1,2,3}@{JRS(t=15),SatCnt} cells repeat 56 of them, and every
# abl-gating run has a run address under the default -replay, so its 80
# runs must record exactly 24 new run-tier entries.
grep -q '(0 cached' "$SMOKE/fstats.txt"
run_records() { curl -s "$URL/metrics" | awk '/^specctrl_run_records_total / {print $2}'; }
RECORDS_BEFORE=$(run_records)
"$SMOKE/simctrl" -server "$URL" -exp abl-gating -committed 60000 \
    > "$SMOKE/gating-served.txt" 2> "$SMOKE/gstats.txt"
cmp "$SMOKE/gating-local.txt" "$SMOKE/gating-served.txt"
grep -q '(0 cached' "$SMOKE/gstats.txt"
RECORDS_AFTER=$(run_records)
[ -n "$RECORDS_BEFORE" ] && [ -n "$RECORDS_AFTER" ] && [ $((RECORDS_AFTER - RECORDS_BEFORE)) -eq 24 ] || {
    echo "check.sh: served abl-gating after frontier must simulate 24 runs (specctrl_run_records_total '$RECORDS_BEFORE' -> '$RECORDS_AFTER')" >&2
    exit 1
}

# Graceful drain: SIGTERM must exit 0.
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""

# Restart over the same store: nothing is resident, so the resubmission
# reads every cell back from its verified file and simulates none.
start_served "$SMOKE/simserved-restart.log"
"$SMOKE/simctrl" -server "$URL" -exp table3 -committed 60000 \
    > "$SMOKE/restart.txt" 2> "$SMOKE/restart-stats.txt"
cmp "$SMOKE/local.txt" "$SMOKE/restart.txt"
grep -q ' 0 simulated)' "$SMOKE/restart-stats.txt"
# The job's event stream names each cell's content address.
JOB=$(sed -n 's/^simctrl: submitted \([^ ]*\) to .*/\1/p' "$SMOKE/restart-stats.txt")
ADDR=$(curl -s "$URL/v1/jobs/$JOB/events" | sed -n 's/.*"type":"cell".*"addr":"\([0-9a-f]*\)".*/\1/p' | head -n 1)
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""

# Tamper with one table3 cell: flip the first digit of its first Chc
# count. A restarted server must reject the entry (its payload no
# longer matches the envelope's SHA-256), re-simulate exactly that
# cell, count it as corrupt, and still print the local bytes.
CELL="$SMOKE/cache/$(echo "$ADDR" | cut -c1-2)/$ADDR.json"
grep -q '"Chc":' "$CELL"
awk '{ i = index($0, "\"Chc\":"); d = substr($0, i + 6, 1);
       printf "%s%d%s\n", substr($0, 1, i + 5), (d + 1) % 10, substr($0, i + 7) }' \
    "$CELL" > "$SMOKE/tampered.json"
mv "$SMOKE/tampered.json" "$CELL"
start_served "$SMOKE/simserved-tamper.log"
"$SMOKE/simctrl" -server "$URL" -exp table3 -committed 60000 \
    > "$SMOKE/tamper.txt" 2> "$SMOKE/tamper-stats.txt"
cmp "$SMOKE/local.txt" "$SMOKE/tamper.txt"
grep -q ', 1 simulated)' "$SMOKE/tamper-stats.txt"
CORRUPT=$(curl -s "$URL/metrics" | awk '/^specctrl_store_corrupt_total/ {print $2}')
[ -n "$CORRUPT" ] && [ "$CORRUPT" -ge 1 ] || {
    echo "check.sh: tampered cell file not counted as corrupt (got '$CORRUPT')" >&2
    exit 1
}
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""

# Cluster smoke: a coordinator + 2 real worker processes must render
# byte-identically to the local run, keep doing so after a worker is
# SIGKILLed mid-job, and show cross-node traffic on all three cache
# tiers (cell, event trace, arch trace) on /metrics.
"$SMOKE/simserved" -coordinator -addr 127.0.0.1:0 -addr-file "$SMOKE/caddr" \
    -cache-dir "$SMOKE/ccache" -committed 60000 -heartbeat 250ms \
    2> "$SMOKE/coordinator.log" &
COORD_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/caddr" ] && break
    sleep 0.1
done
[ -s "$SMOKE/caddr" ] || { echo "check.sh: coordinator never published its address" >&2; cat "$SMOKE/coordinator.log" >&2; exit 1; }
CURL=$(cat "$SMOKE/caddr")

"$SMOKE/simserved" -worker -join "$CURL" -addr 127.0.0.1:0 -node smoke-1 \
    2> "$SMOKE/worker1.log" &
WORKER1_PID=$!
"$SMOKE/simserved" -worker -join "$CURL" -addr 127.0.0.1:0 -node smoke-2 \
    2> "$SMOKE/worker2.log" &
WORKER2_PID=$!
for _ in $(seq 1 100); do
    [ "$(curl -s "$CURL/cluster/v1/status" | grep -o '"node"' | wc -l)" -ge 2 ] && break
    sleep 0.1
done

# Healthy path: 2-worker output is byte-identical to the local run, and
# the resubmission makes the workers hit the shared cell tier.
"$SMOKE/simctrl" -server "$CURL" -exp table3 -committed 60000 > "$SMOKE/cluster1.txt"
cmp "$SMOKE/local.txt" "$SMOKE/cluster1.txt"
"$SMOKE/simctrl" -server "$CURL" -exp table3 -committed 60000 > "$SMOKE/cluster2.txt"
cmp "$SMOKE/local.txt" "$SMOKE/cluster2.txt"
CELL_HITS=$(curl -s "$CURL/metrics" | awk '/^specctrl_cluster_cell_hits_total/ {print $2}')
[ -n "$CELL_HITS" ] && [ "$CELL_HITS" -ge 1 ] || {
    echo "check.sh: no cross-node cell-cache hits after a resubmission (got '$CELL_HITS')" >&2
    exit 1
}
# Event-trace tier: jrsmcf replays McFarling event traces, so the
# workers' recordings must be written through to the coordinator's
# trace tier — with the cell and arch checks, every tier of the blob
# route is exercised by real processes.
"$SMOKE/simctrl" -exp jrsmcf -committed 60000 > "$SMOKE/jrsmcf-local.txt"
"$SMOKE/simctrl" -server "$CURL" -exp jrsmcf -committed 60000 > "$SMOKE/jrsmcf-cluster.txt"
cmp "$SMOKE/jrsmcf-local.txt" "$SMOKE/jrsmcf-cluster.txt"
TRACE_PUTS=$(curl -s "$CURL/metrics" | awk '/^specctrl_cluster_trace_puts_total/ {print $2}')
[ -n "$TRACE_PUTS" ] && [ "$TRACE_PUTS" -ge 1 ] || {
    echo "check.sh: no event traces were written through to the coordinator (got '$TRACE_PUTS')" >&2
    exit 1
}

# Chaos path: SIGKILL one worker while a fresh-scale job is in flight;
# the lease TTL reassigns its units and the bytes must not change.
"$SMOKE/simctrl" -exp table3 -committed 90000 > "$SMOKE/local90.txt"
"$SMOKE/simctrl" -server "$CURL" -exp table3 -committed 90000 > "$SMOKE/cluster90.txt" &
SUBMIT_PID=$!
# Wait (briefly) for a unit to be leased so the kill lands mid-grid.
for _ in $(seq 1 50); do
    curl -s "$CURL/cluster/v1/status" | grep -q '"leased":\["u-' && break
    sleep 0.05
done
kill -KILL "$WORKER1_PID"
wait "$WORKER1_PID" || true
WORKER1_PID=""
wait "$SUBMIT_PID"
cmp "$SMOKE/local90.txt" "$SMOKE/cluster90.txt"

# Arch-tier cross-node smoke: the chaos job's committed streams were
# written through to the coordinator's shared arch tier. Replace the
# fleet with one cold worker and submit misest at the same scale — the
# arch address excludes the predictor, so the cold worker must serve
# its units by fetching those streams from the coordinator instead of
# re-simulating, and /metrics must show the traffic.
"$SMOKE/simctrl" -exp misest -committed 90000 > "$SMOKE/misest-local.txt"
kill -TERM "$WORKER2_PID"
wait "$WORKER2_PID"
WORKER2_PID=""
"$SMOKE/simserved" -worker -join "$CURL" -addr 127.0.0.1:0 -node smoke-cold \
    2> "$SMOKE/worker3.log" &
WORKER3_PID=$!
for _ in $(seq 1 100); do
    curl -s "$CURL/cluster/v1/status" | grep -q 'smoke-cold' && break
    sleep 0.1
done
"$SMOKE/simctrl" -server "$CURL" -exp misest -committed 90000 > "$SMOKE/misest-cluster.txt"
cmp "$SMOKE/misest-local.txt" "$SMOKE/misest-cluster.txt"
ARCH_PUTS=$(curl -s "$CURL/metrics" | awk '/^specctrl_cluster_archtrace_puts_total/ {print $2}')
[ -n "$ARCH_PUTS" ] && [ "$ARCH_PUTS" -ge 1 ] || {
    echo "check.sh: no arch traces were written through to the coordinator (got '$ARCH_PUTS')" >&2
    exit 1
}
ARCH_HITS=$(curl -s "$CURL/metrics" | awk '/^specctrl_cluster_archtrace_hits_total/ {print $2}')
[ -n "$ARCH_HITS" ] && [ "$ARCH_HITS" -ge 1 ] || {
    echo "check.sh: the cold worker never hit the coordinator's arch tier (got '$ARCH_HITS')" >&2
    exit 1
}

# Graceful teardown: the surviving worker and the coordinator drain on
# SIGTERM and exit 0.
kill -TERM "$WORKER3_PID"
wait "$WORKER3_PID"
WORKER3_PID=""
kill -TERM "$COORD_PID"
wait "$COORD_PID"
COORD_PID=""
