#!/usr/bin/env bash
# Chaos smoke for the failure-handling surface:
#
#   1. crash-consistency torture tests — every write op under scripted
#      fault schedules, replayed prefix-by-prefix through the fault VFS
#   2. kill -9 the daemon in the middle of a pipelined batch session,
#      restart it on the same port, and require the retrying client's
#      output to be byte-identical to an offline run — once with Newick
#      frames, once with `--format bin` frames
#
# Any divergence fails the job via `diff`; a client that cannot ride out
# the crash fails it via its exit code.
set -euo pipefail

BIN="${BFHRF_BIN:-target/release/bfhrf}"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== crash-consistency torture tests (fault VFS, prefix replay)"
cargo test -q -p phylo-index --test torture

echo "== build a reference index and an offline baseline"
# Enough work (one query per frame, a non-trivial index) that the kill
# below reliably lands while the batch session is still in flight.
"$BIN" simulate --taxa 128 --trees 4100 --out "$WORK/all.nwk" --seed 4077
head -n 100 "$WORK/all.nwk" >"$WORK/refs.nwk"
tail -n 4000 "$WORK/all.nwk" >"$WORK/queries.nwk"
"$BIN" index build --refs "$WORK/refs.nwk" --out "$WORK/index"
"$BIN" avgrf --refs "$WORK/refs.nwk" --queries "$WORK/queries.nwk" \
    >"$WORK/offline.tsv"

# Start the daemon on `addr`; succeeds once the port file appears.
start_daemon() {
    rm -f "$WORK/port"
    "$BIN" serve --index "$WORK/index" --addr "$1" --threads 2 \
        --port-file "$WORK/port" &
    SERVER_PID=$!
    for _ in $(seq 1 30); do
        [ -s "$WORK/port" ] && return 0
        kill -0 "$SERVER_PID" 2>/dev/null || return 1
        sleep 0.1
    done
    return 1
}

# Batch frames the running daemon has answered so far.
batch_frames_answered() {
    "$BIN" stats --addr "$ADDR" 2>/dev/null |
        awk '$1 == "serve_requests_total{op=batch,outcome=ok}" { n = $2 } END { print n + 0 }'
}

# One chaos leg: a retrying batch client (extra args pick its encoding)
# runs against the daemon, the daemon is killed with -9 mid-session and
# restarted on the same port, and the client's table must match offline
# byte-for-byte.
chaos_leg() {
    local leg="$1"
    shift
    local before
    before="$(batch_frames_answered)"
    "$BIN" query --addr "$ADDR" --queries "$WORK/queries.nwk" --batch 1 \
        --retries 10 --backoff-ms 200 "$@" \
        >"$WORK/served.$leg.tsv" 2>"$WORK/client.$leg.log" &
    local client_pid=$!

    # The client parses the whole query file before it connects: wait for
    # the daemon to answer its first frames so the kill lands mid-session.
    for _ in $(seq 1 200); do
        [ "$(batch_frames_answered)" -gt "$before" ] && break
        kill -0 "$client_pid" 2>/dev/null || break
        sleep 0.05
    done

    echo "== [$leg] kill -9 the daemon mid-session"
    kill -9 "$SERVER_PID"
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
    if kill -0 "$client_pid" 2>/dev/null; then
        echo "chaos smoke: [$leg] crash landed mid-session, client still running"
    else
        echo "chaos smoke: [$leg] WARNING client finished before the kill (weak run)" >&2
    fi

    echo "== [$leg] restart on the same port; the client must reconnect and resend"
    local restarted=0
    for _ in $(seq 1 25); do
        if start_daemon "$ADDR"; then restarted=1; break; fi
        sleep 0.2
    done
    [ "$restarted" = 1 ] || { echo "chaos smoke: could not rebind $ADDR" >&2; exit 1; }

    if ! wait "$client_pid"; then
        echo "chaos smoke: [$leg] retrying client failed across the restart" >&2
        cat "$WORK/client.$leg.log" >&2
        exit 1
    fi
    sed -n "s/^/chaos smoke: [$leg] client: /p" "$WORK/client.$leg.log"

    echo "== [$leg] served output across the crash must match offline byte-for-byte"
    diff -u "$WORK/offline.tsv" "$WORK/served.$leg.tsv"
}

echo "== start the daemon"
start_daemon 127.0.0.1:0 || { echo "chaos smoke: daemon never came up" >&2; exit 1; }
ADDR="$(cat "$WORK/port")"

# Newick frames: reconnect, re-hello, resend the unanswered frames.
chaos_leg newick
# Binary frames: the reconnect also re-negotiates the encoding, re-runs
# the taxa exchange and re-encodes the payload in the new namespace.
chaos_leg bin --format bin

echo "== restarted daemon is healthy (ping) and shuts down cleanly"
"$BIN" query --addr "$ADDR" --op ping
"$BIN" query --addr "$ADDR" --op shutdown
wait "$SERVER_PID"
SERVER_PID=""
echo "chaos smoke: byte-identical across kill -9 + restart"
