#!/bin/sh
# Crash matrix: for every wal crash point × fsync policy, arm the real
# `janus serve` daemon to die (os.Exit(137) at the Nth visit of the point
# — SIGKILL semantics: no drain, no journal close), drive concurrent
# load until it does, restart on the same data dir, and run the
# restart-aware loadgen verification (-resume): every pre-crash
# batch ID must resolve exactly once (409 original-verdict or fresh
# 200), the journal must hold no duplicates, and the recovered state
# digest must equal a sequential-oracle replay of the journal.
#
# fsync=always additionally promises ack ⇒ durable; weaker policies may
# lose acked-but-unsynced tails on a kill, which the resume protocol
# tolerates (those batches apply fresh) but the exactly-once and
# oracle-digest invariants must still hold. This is the nightly
# durability soak; per-push CI runs the cheaper in-process soak
# (TestCrashRecoverySoak) and the two-phase serve-smoke instead.
set -eu

GO=${GO:-go}
ADDR=${ADDR:-127.0.0.1:18086}
TENANTS=${TENANTS:-2}
CLIENTS=${CLIENTS:-3}
BATCHES=${BATCHES:-8}
POINTS=${POINTS:-"wal.append.before wal.append.after wal.snapshot.mid wal.snapshot.rename.before wal.snapshot.rename.after wal.truncate.before"}
POLICIES=${POLICIES:-"always group"}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

"$GO" build -o "$DIR/janus" ./cmd/janus

wait_up() {
    i=0
    until grep -q 'listening on' "$1" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "crash-matrix: janus serve never came up" >&2
            cat "$1" >&2
            return 1
        fi
        sleep 0.1
    done
}

TOTAL=$((TENANTS * CLIENTS * BATCHES))
CASES=0
for policy in $POLICIES; do
    for point in $POINTS; do
        CASES=$((CASES + 1))
        tag="$policy-$(echo "$point" | tr . -)"
        DATA="$DIR/data-$tag"
        LOG="$DIR/crash-$tag.log"

        # Append points fire per batch — die mid-load. Snapshot and
        # truncate points fire once per snapshot cycle — die on the
        # second cycle so at least one snapshot has landed.
        case "$point" in
        wal.append.*) visit=$((TOTAL / 2)) ;;
        *) visit=2 ;;
        esac

        "$DIR/janus" serve -addr "$ADDR" -flight-dir "$DIR" \
            -data-dir "$DATA" -fsync "$policy" \
            -snapshot-every 6 -segment-bytes 4096 \
            -chaos-crash "$point:$visit" >"$LOG" 2>&1 &
        PID=$!
        wait_up "$LOG" || { kill "$PID" 2>/dev/null || true; exit 1; }

        # Expected to fail: the daemon dies under this run.
        "$DIR/janus" loadgen -url "http://$ADDR" \
            -tenants "$TENANTS" -clients "$CLIENTS" -batches "$BATCHES" \
            >/dev/null 2>&1 || true

        # Snapshot-cycle crashes can fire from a background goroutine
        # after the load finishes; give the armed death time to land.
        i=0
        while kill -0 "$PID" 2>/dev/null; do
            i=$((i + 1))
            if [ "$i" -gt 100 ]; then
                echo "crash-matrix: $tag: daemon survived armed crash $point:$visit" >&2
                cat "$LOG" >&2
                kill "$PID" 2>/dev/null || true
                exit 1
            fi
            sleep 0.1
        done
        wait "$PID" 2>/dev/null || true
        if ! grep -q 'chaos crash at' "$LOG"; then
            echo "crash-matrix: $tag: daemon died without reaching $point" >&2
            cat "$LOG" >&2
            exit 1
        fi

        RLOG="$DIR/recover-$tag.log"
        "$DIR/janus" serve -addr "$ADDR" -flight-dir "$DIR" \
            -data-dir "$DATA" -fsync "$policy" \
            -snapshot-every 6 -segment-bytes 4096 >"$RLOG" 2>&1 &
        PID=$!
        wait_up "$RLOG" || { kill "$PID" 2>/dev/null || true; exit 1; }

        "$DIR/janus" loadgen -url "http://$ADDR" \
            -tenants "$TENANTS" -clients "$CLIENTS" -batches "$BATCHES" \
            -seq-base "$BATCHES" -resume >"$DIR/bench-$tag.out" 2>&1 || {
            echo "crash-matrix: $tag: post-restart verification FAILED" >&2
            cat "$DIR/bench-$tag.out" >&2
            cat "$RLOG" >&2
            exit 1
        }

        kill -TERM "$PID"
        if ! wait "$PID"; then
            echo "crash-matrix: $tag: recovered daemon did not drain cleanly" >&2
            cat "$RLOG" >&2
            exit 1
        fi
        echo "crash-matrix: OK $tag (died at $point:$visit, recovered, resume verified)"
    done
done
echo "crash-matrix: OK ($CASES cases: {$POLICIES} x {$POINTS})"
