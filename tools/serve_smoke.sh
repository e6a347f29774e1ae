#!/usr/bin/env bash
# End-to-end smoke test of the serving subsystem (docs/SERVING.md): starts a
# bsr_served daemon on a scratch Unix socket with a scratch durable store,
# drives it with bsr_servectl, and asserts the request-path contract —
# cold run "executed", repeat "memory", byte-identical reports, an oversized
# request line refused without harm, a clean shutdown, no leaked socket
# file, and store hits that answer with the cold bytes, also from a record
# whose report holds whitespace the writer never puts there. Then a burst of
# 8 concurrent identical requests to a memory-only daemon must execute once
# and answer 8 identical reports, and a reply larger than the client's
# receive window must repeat byte for byte from memory. Last, a daemon must
# exit after SIGTERM although its directory is already gone.
# Exits 0 on success, non-zero with the failing step on stderr otherwise.
#
# Usage: tools/serve_smoke.sh [build-dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
SERVED="$BUILD_DIR/src/bsr_served"
SERVECTL="$BUILD_DIR/src/bsr_servectl"
WORK_DIR="$(mktemp -d)"
SOCKET="$WORK_DIR/bsr.sock"
STORE="$WORK_DIR/store"
CONFIG='{"n":1024,"b":128}'
SERVED_PID=""

fail() {
    echo "serve_smoke: FAIL: $*" >&2
    [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null
    exit 1
}

cleanup() {
    [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null
    rm -rf "$WORK_DIR"
}
trap cleanup EXIT

[ -x "$SERVED" ] || fail "daemon binary not found: $SERVED"
[ -x "$SERVECTL" ] || fail "client binary not found: $SERVECTL"

"$SERVED" --socket "$SOCKET" --store "$STORE" --workers 2 &
SERVED_PID=$!

# The daemon binds before printing its listening line; poll for the socket.
for _ in $(seq 1 100); do
    [ -S "$SOCKET" ] && break
    kill -0 "$SERVED_PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.05
done
[ -S "$SOCKET" ] || fail "socket never appeared: $SOCKET"

# Cold run: executed exactly once, report persisted to the store.
COLD=$("$SERVECTL" --socket "$SOCKET" --op run --config "$CONFIG") \
    || fail "cold run request failed"
echo "$COLD" | grep -q '"source":"executed"' \
    || fail "cold run not executed: $COLD"

# Repeat: a memory-cache hit with a byte-identical report payload (strip the
# envelope's source tag, the one legitimate difference).
WARM=$("$SERVECTL" --socket "$SOCKET" --op run --config "$CONFIG") \
    || fail "repeat run request failed"
echo "$WARM" | grep -q '"source":"memory"' \
    || fail "repeat was not a memory-cache hit: $WARM"
COLD_REPORT="${COLD#*\"report\":}"
WARM_REPORT="${WARM#*\"report\":}"
[ "$COLD_REPORT" = "$WARM_REPORT" ] \
    || fail "repeat report differs from cold report"

# Stats reflect the two runs and the store save.
STATS=$("$SERVECTL" --socket "$SOCKET" --op stats) \
    || fail "stats request failed"
echo "$STATS" | grep -q '"executed":1' || fail "expected executed:1: $STATS"
echo "$STATS" | grep -q '"memory_hits":1' \
    || fail "expected memory_hits:1: $STATS"
echo "$STATS" | grep -q '"saves":1' || fail "expected store saves:1: $STATS"

# A request line over the daemon's 1 MiB bound (1 MiB + 1 bytes, no newline)
# is refused with ok:false and counted as a bad request; the daemon serves on.
OVERSIZED=$(python3 -c '
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(10)
s.connect(sys.argv[1])
s.sendall(b"x" * ((1 << 20) + 1))
reply = b""
while not reply.endswith(b"\n"):
    chunk = s.recv(4096)
    if not chunk:
        break
    reply += chunk
sys.stdout.write(reply.decode())
' "$SOCKET") || fail "oversized request line got no reply"
echo "$OVERSIZED" | grep -q '"ok":false' \
    || fail "oversized request line not refused: $OVERSIZED"
STATS=$("$SERVECTL" --socket "$SOCKET" --op stats) \
    || fail "stats request failed"
echo "$STATS" | grep -q '"bad_requests":1' \
    || fail "expected bad_requests:1: $STATS"
AFTER=$("$SERVECTL" --socket "$SOCKET" --op run --config "$CONFIG") \
    || fail "run request after the oversized line failed"
echo "$AFTER" | grep -q '"ok":true' \
    || fail "run request after the oversized line failed: $AFTER"

# Graceful shutdown: the daemon exits 0 and unlinks its socket.
"$SERVECTL" --socket "$SOCKET" --op shutdown >/dev/null \
    || fail "shutdown request failed"
wait "$SERVED_PID" || fail "daemon exited non-zero after shutdown"
SERVED_PID=""
[ ! -e "$SOCKET" ] || fail "socket file leaked after shutdown: $SOCKET"

# Restart over the same store: the warm daemon serves from disk, no re-run.
"$SERVED" --socket "$SOCKET" --store "$STORE" --workers 2 &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCKET" ] && break
    sleep 0.05
done
RESTART=$("$SERVECTL" --socket "$SOCKET" --op run --config "$CONFIG") \
    || fail "post-restart run request failed"
echo "$RESTART" | grep -q '"source":"store"' \
    || fail "post-restart run not served from the store: $RESTART"
RESTART_REPORT="${RESTART#*\"report\":}"
[ "$RESTART_REPORT" = "$COLD_REPORT" ] \
    || fail "post-restart report differs from cold report"

"$SERVECTL" --socket "$SOCKET" --op shutdown >/dev/null \
    || fail "second shutdown request failed"
wait "$SERVED_PID" || fail "daemon exited non-zero after second shutdown"
SERVED_PID=""

# A space inside the stored report: the record is still valid, but its
# report text is no longer what the writer produces, so the hit is
# re-emitted through a tree. The reply must still carry the cold bytes.
RECORDS=("$STORE"/*.json)
[ "${#RECORDS[@]}" -eq 1 ] && [ -f "${RECORDS[0]}" ] \
    || fail "expected one store record, found: ${RECORDS[*]}"
sed -i 's/"report":{/"report":{ /' "${RECORDS[0]}" \
    || fail "cannot edit the store record"
grep -q '"report":{ "' "${RECORDS[0]}" || fail "store record not edited"
"$SERVED" --socket "$SOCKET" --store "$STORE" --workers 2 &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCKET" ] && break
    sleep 0.05
done
SPACED=$("$SERVECTL" --socket "$SOCKET" --op run --config "$CONFIG") \
    || fail "run request over the edited record failed"
echo "$SPACED" | grep -q '"source":"store"' \
    || fail "edited record not served from the store: $SPACED"
SPACED_REPORT="${SPACED#*\"report\":}"
[ "$SPACED_REPORT" = "$COLD_REPORT" ] \
    || fail "report from the edited record differs from cold report"
STATS=$("$SERVECTL" --socket "$SOCKET" --op stats) \
    || fail "stats request failed"
echo "$STATS" | grep -q '"rejected":0' \
    || fail "expected store rejected:0: $STATS"

"$SERVECTL" --socket "$SOCKET" --op shutdown >/dev/null \
    || fail "third shutdown request failed"
wait "$SERVED_PID" || fail "daemon exited non-zero after third shutdown"
SERVED_PID=""

# A burst of 8 concurrent identical requests to a memory-only daemon with 8
# workers: one execution, the other 7 answered from that run in flight or
# finished, and 8 byte-identical reports. Its own daemon, so the store above
# keeps its one record.
BURST_SOCKET="$WORK_DIR/burst.sock"
BURST_CONFIG='{"n":2048,"b":128,"seed":11}'
"$SERVED" --socket "$BURST_SOCKET" --workers 8 >/dev/null &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -S "$BURST_SOCKET" ] && break
    kill -0 "$SERVED_PID" 2>/dev/null || fail "burst daemon exited during startup"
    sleep 0.05
done
[ -S "$BURST_SOCKET" ] || fail "socket never appeared: $BURST_SOCKET"
BURST_PIDS=()
for i in $(seq 1 8); do
    "$SERVECTL" --socket "$BURST_SOCKET" --op run --config "$BURST_CONFIG" \
        >"$WORK_DIR/burst_$i.out" &
    BURST_PIDS+=($!)
done
for pid in "${BURST_PIDS[@]}"; do
    wait "$pid" || fail "a burst run request failed"
done
BURST_FIRST=$(cat "$WORK_DIR/burst_1.out")
BURST_REPORT="${BURST_FIRST#*\"report\":}"
for i in $(seq 2 8); do
    BURST_REPLY=$(cat "$WORK_DIR/burst_$i.out")
    [ "${BURST_REPLY#*\"report\":}" = "$BURST_REPORT" ] \
        || fail "burst reply $i carries a different report"
done
STATS=$("$SERVECTL" --socket "$BURST_SOCKET" --op stats) \
    || fail "burst stats request failed"
echo "$STATS" | grep -q '"executed":1,' \
    || fail "burst: expected executed:1: $STATS"
MEMORY_HITS=$(echo "$STATS" | grep -o '"memory_hits":[0-9]*' | cut -d: -f2)
COALESCED=$(echo "$STATS" | grep -o '"coalesced":[0-9]*' | cut -d: -f2)
[ $((MEMORY_HITS + COALESCED)) -eq 7 ] \
    || fail "burst: expected memory_hits + coalesced = 7: $STATS"

# A report larger than the reader's 64 KiB receive window (n = 30720 with
# b = 32: 960 iterations, about 0.6 MB). The repeat is a memory hit, whose
# report is sent without a copy; apart from its source tag it must be the
# first reply byte for byte.
LARGE_CONFIG='{"n":30720,"b":32}'
LARGE=$("$SERVECTL" --socket "$BURST_SOCKET" --op run --config "$LARGE_CONFIG") \
    || fail "large run request failed"
echo "$LARGE" | grep -q '"source":"executed"' \
    || fail "large run not executed"
[ "${#LARGE}" -gt 65536 ] || fail "large reply has only ${#LARGE} bytes"
LARGE_AGAIN=$("$SERVECTL" --socket "$BURST_SOCKET" --op run \
    --config "$LARGE_CONFIG") || fail "large repeat request failed"
echo "$LARGE_AGAIN" | grep -q '"source":"memory"' \
    || fail "large repeat was not a memory-cache hit"
[ "${LARGE_AGAIN/\"source\":\"memory\"/\"source\":\"executed\"}" = "$LARGE" ] \
    || fail "large repeat differs from the first reply"

"$SERVECTL" --socket "$BURST_SOCKET" --op shutdown >/dev/null \
    || fail "burst shutdown request failed"
wait "$SERVED_PID" || fail "burst daemon exited non-zero after shutdown"
SERVED_PID=""

# SIGTERM once the daemon's directory is gone (a cleanup that removes it
# right after signalling): no socket path is left to wake accept() through,
# and the daemon must still exit within 10 s. The signal waits for the
# listening line, which comes after the signal handlers are installed.
GONE_DIR="$(mktemp -d)"
GONE_LOG="$WORK_DIR/gone.log"
"$SERVED" --socket "$GONE_DIR/bsr.sock" --workers 2 >"$GONE_LOG" &
SERVED_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$GONE_LOG" && break
    kill -0 "$SERVED_PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.05
done
grep -q "listening on" "$GONE_LOG" || fail "daemon never reported listening"
rm -rf "$GONE_DIR"
kill -TERM "$SERVED_PID"
for _ in $(seq 1 100); do
    kill -0 "$SERVED_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVED_PID" 2>/dev/null; then
    kill -9 "$SERVED_PID"
    wait "$SERVED_PID" 2>/dev/null
    SERVED_PID=""
    fail "daemon still up 10 s after SIGTERM with its directory removed"
fi
wait "$SERVED_PID" || fail "daemon exited non-zero after SIGTERM"
SERVED_PID=""

echo "serve_smoke: OK (cold executed, repeat from memory, restart from store," \
     "spaced record from store, burst executed once, large reply repeated" \
     "from memory, SIGTERM without a directory)"
