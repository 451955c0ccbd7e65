#!/bin/sh
# Integration smoke for the serving layer, in two phases.
#
# Phase 1 (in-memory): start `janus serve`, drive concurrent multi-tenant
# load through the `janus loadgen` client (which verifies
# exactly-once journals and replays the sequential oracle to check state
# digests), then SIGTERM the daemon and require a clean drain.
#
# Phase 2 (durable): start `janus serve` with a data dir, drive a longer
# load (CRASH_BATCHES per client), and SIGKILL the daemon (no drain, no
# journal close) once tenant t0's journal holds about half its batches;
# the smoke fails unless that kill lands while the load runs. Restart on
# the same data dir
# and run the restart-aware loadgen (-resume): every
# pre-crash batch ID is resubmitted and must resolve exactly once — 409
# with its original verdict if it survived the crash, a fresh 200 if its
# record never reached the journal — before fresh load and the full
# journal/oracle verification run against the recovered state.
#
# Any verification failure, drain failure, or leak exits nonzero.
set -eu

GO=${GO:-go}
ADDR=${ADDR:-127.0.0.1:18085}
TENANTS=${TENANTS:-3}
CLIENTS=${CLIENTS:-4}
BATCHES=${BATCHES:-8}
# Phase 2's interrupted load is longer, so the kill lands while it runs.
CRASH_BATCHES=${CRASH_BATCHES:-$((BATCHES * 8))}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

"$GO" build -o "$DIR/janus" ./cmd/janus

# wait_up LOGFILE: block until the daemon logs its bound address.
wait_up() {
    i=0
    until grep -q 'listening on' "$1" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "serve-smoke: janus serve never came up" >&2
            cat "$1" >&2
            return 1
        fi
        sleep 0.1
    done
}

# ---- Phase 1: in-memory load + clean SIGTERM drain -------------------

"$DIR/janus" serve -addr "$ADDR" -flight-dir "$DIR" >"$DIR/serve.log" 2>&1 &
SERVE_PID=$!
wait_up "$DIR/serve.log" || { kill "$SERVE_PID" 2>/dev/null || true; exit 1; }

# Drive load; janus loadgen exits nonzero on any lost/duplicated batch or
# digest mismatch against the sequential oracle.
"$DIR/janus" loadgen -url "http://$ADDR" \
    -tenants "$TENANTS" -clients "$CLIENTS" -batches "$BATCHES"

# Graceful drain: SIGTERM must exit 0 within the drain budget. A hung
# drain (leaked in-flight work) or flight-recorder dump path exits 1.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "serve-smoke: janus serve did not drain cleanly" >&2
    cat "$DIR/serve.log" >&2
    exit 1
fi
if ! grep -q 'drained cleanly' "$DIR/serve.log"; then
    echo "serve-smoke: missing clean-drain confirmation" >&2
    cat "$DIR/serve.log" >&2
    exit 1
fi
echo "serve-smoke: phase 1 OK (in-memory; tenants=$TENANTS clients=$CLIENTS batches=$BATCHES)"

# ---- Phase 2: durable journal, mid-load kill, restart, resume --------

DATA="$DIR/data"
TOTAL=$((CLIENTS * CRASH_BATCHES))
HALF=$((TOTAL / 2))
"$DIR/janus" serve -addr "$ADDR" -flight-dir "$DIR" \
    -data-dir "$DATA" -fsync always -snapshot-every 16 -segment-bytes 65536 \
    >"$DIR/serve-crash.log" 2>&1 &
SERVE_PID=$!
wait_up "$DIR/serve-crash.log" || { kill "$SERVE_PID" 2>/dev/null || true; exit 1; }

# This client run is EXPECTED to fail: the daemon dies under it. Its job
# is to leave acked, in-flight and never-submitted batches at the kill.
"$DIR/janus" loadgen -url "http://$ADDR" \
    -tenants "$TENANTS" -clients "$CLIENTS" -batches "$CRASH_BATCHES" \
    >/dev/null 2>&1 &
LOAD_PID=$!

# Kill once t0 has applied half its batches. The kill must land mid-load
# (loadgen still running, t0 neither empty nor done), or the resume check
# below would pass on a daemon that was never interrupted.
applied=0
i=0
while [ "$applied" -lt "$HALF" ] && [ "$i" -lt 1000 ] && kill -0 "$LOAD_PID" 2>/dev/null; do
    applied=$(curl -s "http://$ADDR/statez?tenant=t0" | sed -n 's/.*"applied":\([0-9]*\).*/\1/p')
    applied=${applied:-0}
    i=$((i + 1))
    sleep 0.01
done
if ! kill -0 "$LOAD_PID" 2>/dev/null || [ "$applied" -le 0 ] || [ "$applied" -ge "$TOTAL" ]; then
    echo "serve-smoke: no mid-load kill: t0 applied $applied of $TOTAL, loadgen running: $(kill -0 "$LOAD_PID" 2>/dev/null && echo yes || echo no)" >&2
    kill -KILL "$SERVE_PID" "$LOAD_PID" 2>/dev/null || true
    cat "$DIR/serve-crash.log" >&2
    exit 1
fi
kill -KILL "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true

# Restart on the same data dir: boot recovery must replay the journals,
# then the resume run pins down the fate of every pre-crash batch ID and
# layers fresh load plus full verification on top.
"$DIR/janus" serve -addr "$ADDR" -flight-dir "$DIR" \
    -data-dir "$DATA" -fsync always -snapshot-every 16 -segment-bytes 65536 \
    >"$DIR/serve-recover.log" 2>&1 &
SERVE_PID=$!
wait_up "$DIR/serve-recover.log" || { kill "$SERVE_PID" 2>/dev/null || true; exit 1; }
if ! grep -q 'recovered' "$DIR/serve-recover.log"; then
    echo "serve-smoke: restarted daemon reported no recovery" >&2
    cat "$DIR/serve-recover.log" >&2
    exit 1
fi

"$DIR/janus" loadgen -url "http://$ADDR" \
    -tenants "$TENANTS" -clients "$CLIENTS" -batches "$BATCHES" \
    -seq-base "$CRASH_BATCHES" -resume

kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "serve-smoke: recovered janus serve did not drain cleanly" >&2
    cat "$DIR/serve-recover.log" >&2
    exit 1
fi
if ! grep -q 'drained cleanly' "$DIR/serve-recover.log"; then
    echo "serve-smoke: recovered daemon missing clean-drain confirmation" >&2
    cat "$DIR/serve-recover.log" >&2
    exit 1
fi
echo "serve-smoke: phase 2 OK (durable; SIGKILL with t0 at $applied of $TOTAL batches, recovered, resume verified)"
