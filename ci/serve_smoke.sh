#!/usr/bin/env bash
# End-to-end smoke for the persistent index + query daemon:
#
#   simulate -> index build -> serve (background) -> query -> diff vs offline
#
# The served `avgrf` answer must be byte-identical to the offline report on
# the same files; any divergence fails the job via `diff`.
set -euo pipefail

BIN="${BFHRF_BIN:-target/release/bfhrf}"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

wait_port() {
    local file=$1 pid=$2
    for _ in $(seq 1 100); do
        [ -s "$file" ] && return 0
        kill -0 "$pid" 2>/dev/null || { echo "serve smoke: daemon died" >&2; exit 1; }
        sleep 0.1
    done
    echo "serve smoke: port file never appeared" >&2
    exit 1
}

echo "== simulate a reference collection"
"$BIN" simulate --taxa 24 --trees 40 --out "$WORK/refs.nwk" --seed 4077
head -n 5 "$WORK/refs.nwk" >"$WORK/queries.nwk"

echo "== build and verify the on-disk index"
"$BIN" index build --refs "$WORK/refs.nwk" --out "$WORK/index"
"$BIN" index inspect --index "$WORK/index" --check
# A copy without the frozen sidecar, served by a second daemon below.
cp -r "$WORK/index" "$WORK/index_nosidecar"
rm "$WORK/index_nosidecar/frozen.bfh"

echo "== start the daemon on an OS-assigned port"
"$BIN" serve --index "$WORK/index" --addr 127.0.0.1:0 --threads 2 \
    --port-file "$WORK/port" &
SERVER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "serve smoke: daemon died" >&2; exit 1; }
    sleep 0.1
done
[ -s "$WORK/port" ] || { echo "serve smoke: port file never appeared" >&2; exit 1; }

echo "== served answers must match offline avgrf byte-for-byte"
"$BIN" avgrf --refs "$WORK/refs.nwk" --queries "$WORK/queries.nwk" >"$WORK/offline.tsv"
"$BIN" query --port-file "$WORK/port" --queries "$WORK/queries.nwk" >"$WORK/served.tsv"
diff -u "$WORK/offline.tsv" "$WORK/served.tsv"

echo "== batched v2 client matches offline byte-for-byte"
"$BIN" query --port-file "$WORK/port" --queries "$WORK/queries.nwk" --batch 2 \
    >"$WORK/served_batch.tsv"
diff -u "$WORK/offline.tsv" "$WORK/served_batch.tsv"

echo "== v2 binary tree encoding: negotiated bin session matches newick byte-for-byte"
"$BIN" query --port-file "$WORK/port" --queries "$WORK/queries.nwk" --format bin \
    >"$WORK/served_bin.tsv"
diff -u "$WORK/offline.tsv" "$WORK/served_bin.tsv"
"$BIN" convert --in "$WORK/queries.nwk" --out "$WORK/queries.phw" --format bin
"$BIN" query --port-file "$WORK/port" --queries "$WORK/queries.phw" --batch 2 \
    --format bin >"$WORK/served_bin_file.tsv"
diff -u "$WORK/offline.tsv" "$WORK/served_bin_file.tsv"

echo "== wire protocol v2: hello + pipelined batch; v1 dialect on the same socket"
python3 - "$(cat "$WORK/port")" "$WORK/queries.nwk" <<'EOF'
import json
import socket
import sys

host, port = sys.argv[1].rsplit(":", 1)
queries = [l.strip() for l in open(sys.argv[2]) if l.strip()]

sock = socket.create_connection((host, int(port)), timeout=30)
rfile = sock.makefile("r", encoding="utf-8")

def send(frame):
    sock.sendall((json.dumps(frame) + "\n").encode())

def recv():
    line = rfile.readline()
    if not line:
        sys.exit("serve smoke: server closed the v2 session")
    return json.loads(line)

# hello handshake: version + batch ceiling
send({"v": 2, "op": "hello"})
hello = recv()
if hello.get("ok") is not True or hello.get("v") != 2:
    sys.exit(f"serve smoke: bad hello response: {hello}")
if not isinstance(hello.get("max_batch"), int) or hello["max_batch"] < 1:
    sys.exit(f"serve smoke: hello lacks a max_batch ceiling: {hello}")
if "encoding" in hello:
    sys.exit(f"serve smoke: plain hello must stay byte-compatible "
             f"(no encoding member): {hello}")

# encoding negotiation on a separate socket (this session stays newick):
# "bin" must be echoed, an unknown encoding refused without dropping the
# connection
neg = socket.create_connection((host, int(port)), timeout=30)
nfile = neg.makefile("r", encoding="utf-8")
neg.sendall((json.dumps({"v": 2, "op": "hello", "encoding": "bin"})
             + "\n").encode())
resp = json.loads(nfile.readline())
if resp.get("ok") is not True or resp.get("encoding") != "bin":
    sys.exit(f"serve smoke: bin encoding not echoed: {resp}")
neg.sendall((json.dumps({"v": 2, "op": "hello", "encoding": "xml"})
             + "\n").encode())
resp = json.loads(nfile.readline())
if resp.get("ok") is not False or "encoding" not in resp.get("error", ""):
    sys.exit(f"serve smoke: unknown encoding not refused: {resp}")
neg.sendall((json.dumps({"v": 2, "op": "ping"}) + "\n").encode())
if json.loads(nfile.readline()).get("ok") is not True:
    sys.exit("serve smoke: connection unusable after refused encoding")
neg.close()

# two pipelined batch frames written back-to-back, answered in order
# with their ids echoed
send({"v": 2, "op": "batch", "id": 7, "queries": queries})
send({"v": 2, "op": "batch", "id": 8, "queries": queries})
for want in (7, 8):
    resp = recv()
    if resp.get("ok") is not True or resp.get("id") != want:
        sys.exit(f"serve smoke: frame {want} answered wrong: {resp}")
    if len(resp.get("scores", [])) != len(queries):
        sys.exit(f"serve smoke: frame {want} row count mismatch: {resp}")
    if "snap" not in resp or "generation" not in resp:
        sys.exit(f"serve smoke: batch response lacks snapshot provenance: {resp}")

# ping: a health summary without touching the admin path
send({"v": 2, "op": "ping"})
pong = recv()
if pong.get("ok") is not True or pong.get("pong") is not True:
    sys.exit(f"serve smoke: bad pong: {pong}")
for key in ("generation", "wal_pending", "uptime_ms"):
    if not isinstance(pong.get(key), int):
        sys.exit(f"serve smoke: pong lacks {key}: {pong}")

# a v1 frame (no "v") on the same connection keeps working
send({"op": "avgrf", "queries": queries[:1]})
v1 = recv()
if v1.get("ok") is not True or len(v1.get("scores", [])) != 1:
    sys.exit(f"serve smoke: v1 dialect broken on a v2 session: {v1}")

# oversized batches are refused without dropping the connection
send({"v": 2, "op": "batch", "queries": queries * (hello["max_batch"] // len(queries) + 1)})
err = recv()
if err.get("ok") is not False or err.get("code") != "error":
    sys.exit(f"serve smoke: oversized batch not refused: {err}")
send({"op": "stats"})
if recv().get("ok") is not True:
    sys.exit("serve smoke: connection unusable after oversized batch")

sock.close()
print(f"serve smoke: v2 session ok (max_batch {hello['max_batch']}, "
      f"{2 * len(queries)} rows pipelined)")
EOF

echo "== stats: metrics schema + non-zero request counters"
"$BIN" query --port-file "$WORK/port" --op ping
"$BIN" query --port-file "$WORK/port" --op stats
"$BIN" stats --port-file "$WORK/port"
"$BIN" stats --port-file "$WORK/port" --json >"$WORK/stats.json"
python3 - "$WORK/stats.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

if doc.get("ok") is not True:
    sys.exit(f"serve smoke: stats response not ok: {doc}")
series = doc.get("metrics", {}).get("series")
if not isinstance(series, list) or not series:
    sys.exit("serve smoke: stats carries no metrics.series")

by_key = {}
for s in series:
    for key in ("name", "labels", "kind"):
        if key not in s:
            sys.exit(f"serve smoke: series missing {key}: {s}")
    if s["kind"] == "histogram":
        for key in ("count", "sum", "max", "mean", "p50", "p90", "p99",
                    "buckets"):
            if key not in s:
                sys.exit(f"serve smoke: histogram missing {key}: {s}")
        for b in s["buckets"]:
            if "le" not in b or "n" not in b:
                sys.exit(f"serve smoke: malformed bucket in {s['name']}: {b}")
    else:
        if "value" not in s:
            sys.exit(f"serve smoke: {s['kind']} missing value: {s}")
    labels = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items()))
    by_key[(s["name"], labels)] = s

# the query burst above must have been counted
ok_avgrf = by_key.get(("serve_requests_total", "op=avgrf,outcome=ok"))
if ok_avgrf is None or ok_avgrf["value"] < 1:
    sys.exit("serve smoke: no successful avgrf requests counted")
lat = by_key.get(("serve_request_ns", "op=avgrf"))
if lat is None or lat["count"] < 1 or lat["p50"] <= 0:
    sys.exit("serve smoke: avgrf latency histogram is empty")
# the v2 session above pushed batch frames through a pipelined connection,
# so both protocol-shape histograms must have fired
bs = by_key.get(("serve_batch_size", ""))
if bs is None or bs["count"] < 1:
    sys.exit("serve smoke: serve_batch_size histogram empty after batch ops")
pd = by_key.get(("serve_pipeline_depth", ""))
if pd is None or pd["count"] < 1:
    sys.exit("serve smoke: serve_pipeline_depth histogram never recorded")
conns = by_key.get(("serve_connections_total", ""))
if conns is None or conns["value"] < 2:
    sys.exit("serve smoke: connection counter missed the query burst")
gen = by_key.get(("index_generation", ""))
if gen is None or gen["value"] < 0:
    sys.exit("serve smoke: index generation gauge absent")
# the bin sessions above pushed binary frames, so the wire metrics must
# have both fired and kept their pre-registered newick twins
wf = by_key.get(("wire_frames_total", "encoding=bin"))
if wf is None or wf["value"] < 1:
    sys.exit("serve smoke: wire_frames_total{encoding=bin} never counted")
wd = by_key.get(("wire_decode_ns", "encoding=bin"))
if wd is None or wd["count"] < 1:
    sys.exit("serve smoke: wire_decode_ns{encoding=bin} histogram empty")
for name in ("wire_frames_total", "wire_decode_ns", "wire_encode_ns"):
    for enc in ("newick", "bin"):
        if (name, f"encoding={enc}") not in by_key:
            sys.exit(f"serve smoke: missing pre-registered {name}"
                     f"{{encoding={enc}}}")
# every op x outcome cell is pre-registered so dashboards never see a
# series appear out of nowhere; spot-check the schema stability claim
for op in ("hello", "avgrf", "best-query", "batch", "ping", "stats", "add",
           "remove", "compact", "xavgrf", "catalog-create", "catalog-drop",
           "catalog-list", "shutdown", "unknown"):
    for outcome in ("ok", "error", "budget", "cancelled", "busy"):
        if ("serve_requests_total", f"op={op},outcome={outcome}") not in by_key:
            sys.exit(f"serve smoke: missing pre-registered series "
                     f"op={op} outcome={outcome}")
print(f"serve smoke: stats schema ok "
      f"({ok_avgrf['value']} avgrf ok, p50 {lat['p50']:.0f} ns)")
EOF

echo "== add/remove publish a delta: answers follow, the table is never refrozen"
"$BIN" simulate --taxa 24 --trees 1 --out "$WORK/extra.nwk" --seed 99
cat "$WORK/refs.nwk" "$WORK/extra.nwk" >"$WORK/refs_plus.nwk"
"$BIN" avgrf --refs "$WORK/refs_plus.nwk" --queries "$WORK/queries.nwk" >"$WORK/offline_plus.tsv"
"$BIN" stats --port-file "$WORK/port" --json >"$WORK/stats_pre_write.json"
"$BIN" query --port-file "$WORK/port" --op add --trees "$WORK/extra.nwk"
"$BIN" query --port-file "$WORK/port" --queries "$WORK/queries.nwk" >"$WORK/served_plus.tsv"
diff -u "$WORK/offline_plus.tsv" "$WORK/served_plus.tsv"
"$BIN" query --port-file "$WORK/port" --op remove --trees "$WORK/extra.nwk"
"$BIN" query --port-file "$WORK/port" --queries "$WORK/queries.nwk" >"$WORK/served_minus.tsv"
diff -u "$WORK/offline.tsv" "$WORK/served_minus.tsv"
"$BIN" stats --port-file "$WORK/port" --json >"$WORK/stats_post_write.json"
python3 - "$WORK/stats_pre_write.json" "$WORK/stats_post_write.json" <<'EOF'
import json
import sys

def series(path):
    with open(path) as fh:
        return {s["name"]: s for s in json.load(fh)["metrics"]["series"]
                if not s["labels"]}

pre, post = series(sys.argv[1]), series(sys.argv[2])
for name in ("index_freeze_ns", "index_folds_total", "index_delta_splits"):
    if name not in pre:
        sys.exit(f"serve smoke: {name} is not pre-registered")
if post["index_freeze_ns"]["count"] != pre["index_freeze_ns"]["count"]:
    sys.exit(f"serve smoke: the add/remove pair refroze the table "
             f"(index_freeze_ns count {pre['index_freeze_ns']['count']} -> "
             f"{post['index_freeze_ns']['count']})")
if post["index_delta_splits"]["value"] != 0:
    sys.exit(f"serve smoke: index_delta_splits is "
             f"{post['index_delta_splits']['value']} after the matching remove")
print("serve smoke: add/remove published as a delta "
      f"(index_freeze_ns count {post['index_freeze_ns']['count']})")
EOF

echo "== clean shutdown"
"$BIN" query --port-file "$WORK/port" --op shutdown
wait "$SERVER_PID"
SERVER_PID=""

echo "== no sidecar: the daemon lays the snapshot into the table, answers unchanged"
"$BIN" serve --index "$WORK/index_nosidecar" --addr 127.0.0.1:0 --threads 2 \
    --port-file "$WORK/port_nosidecar" &
SERVER_PID=$!
wait_port "$WORK/port_nosidecar" "$SERVER_PID"
"$BIN" query --port-file "$WORK/port_nosidecar" --queries "$WORK/queries.nwk" \
    >"$WORK/served_nosidecar.tsv"
diff -u "$WORK/offline.tsv" "$WORK/served_nosidecar.tsv"
"$BIN" query --port-file "$WORK/port_nosidecar" --op shutdown
wait "$SERVER_PID"
SERVER_PID=""

# ---------------------------------------------------------------------------
# Multi-collection catalog: one daemon, many indexes, LRU-managed under a
# global memory budget. Phase 1 creates three collections unbudgeted and
# measures their combined resident size; phase 2 restarts the same catalog
# under a budget one byte smaller, so serving the interleaved workload is
# only possible by evicting — and every routed answer must still match the
# offline report byte-for-byte.
# ---------------------------------------------------------------------------

echo "== catalog: simulate three collections on a shared taxon set"
"$BIN" simulate --taxa 32 --trees 30 --out "$WORK/c1.nwk" --seed 101
"$BIN" simulate --taxa 32 --trees 30 --out "$WORK/c2.nwk" --seed 202
"$BIN" simulate --taxa 32 --trees 30 --out "$WORK/c3.nwk" --seed 303
head -n 3 "$WORK/c1.nwk" >"$WORK/cq.nwk"

echo "== catalog phase 1: create collections unbudgeted, measure residency"
"$BIN" serve --index "$WORK/index" --catalog "$WORK/catalog" \
    --addr 127.0.0.1:0 --threads 2 --port-file "$WORK/port2" &
SERVER_PID=$!
wait_port "$WORK/port2" "$SERVER_PID"
for c in c1 c2 c3; do
    "$BIN" catalog create --port-file "$WORK/port2" --name "$c" \
        --trees "$WORK/$c.nwk"
    # Touch each collection through the routed path so it is open (and
    # therefore measured) when we read the resident sizes below.
    "$BIN" query --port-file "$WORK/port2" --op stats --collection "$c" >/dev/null
done
"$BIN" catalog list --port-file "$WORK/port2" >"$WORK/catalog_list.tsv"
cat "$WORK/catalog_list.tsv"
COMBINED=$(awk -F'\t' 'NR > 1 && $2 == "true" { s += $3 } END { print s+0 }' \
    "$WORK/catalog_list.tsv")
OPEN_ROWS=$(awk -F'\t' 'NR > 1 && $2 == "true"' "$WORK/catalog_list.tsv" | wc -l)
[ "$OPEN_ROWS" -eq 3 ] || {
    echo "serve smoke: expected 3 open collections, saw $OPEN_ROWS" >&2; exit 1; }
[ "$COMBINED" -gt 3 ] || {
    echo "serve smoke: implausible combined resident size $COMBINED" >&2; exit 1; }
"$BIN" query --port-file "$WORK/port2" --op shutdown
wait "$SERVER_PID"
SERVER_PID=""
rm -f "$WORK/port2"

echo "== catalog phase 2: budget $((COMBINED - 1)) < combined $COMBINED forces LRU eviction"
"$BIN" serve --index "$WORK/index" --catalog "$WORK/catalog" \
    --mem-budget "$((COMBINED - 1))" \
    --addr 127.0.0.1:0 --threads 2 --port-file "$WORK/port2" &
SERVER_PID=$!
wait_port "$WORK/port2" "$SERVER_PID"

echo "== routed queries match offline avgrf per collection, across evictions"
for c in c1 c2 c3 c1; do
    "$BIN" avgrf --refs "$WORK/$c.nwk" --queries "$WORK/cq.nwk" \
        >"$WORK/offline_$c.tsv"
    "$BIN" query --port-file "$WORK/port2" --collection "$c" \
        --queries "$WORK/cq.nwk" >"$WORK/served_$c.tsv"
    diff -u "$WORK/offline_$c.tsv" "$WORK/served_$c.tsv"
done

echo "== cross-collection xavgrf on the shared taxa"
"$BIN" query --port-file "$WORK/port2" --op xavgrf \
    --refs-collection c1 --queries-collection c2 >"$WORK/xavgrf.tsv"
head -n 2 "$WORK/xavgrf.tsv"
COMMON=$(awk -F'\t' '$1 == "common_taxa" { print $2 }' "$WORK/xavgrf.tsv")
[ "$COMMON" -eq 32 ] || {
    echo "serve smoke: xavgrf saw $COMMON common taxa, expected 32" >&2; exit 1; }
XROWS=$(awk 'NR > 2' "$WORK/xavgrf.tsv" | wc -l)
[ "$XROWS" -eq 30 ] || {
    echo "serve smoke: xavgrf scored $XROWS queries, expected 30" >&2; exit 1; }

echo "== ping reports the catalog; collection-less clients are untouched"
"$BIN" query --port-file "$WORK/port2" --op ping | tee "$WORK/pong2.tsv"
grep -q $'^collections\t4$' "$WORK/pong2.tsv" || {
    echo "serve smoke: pong should count default + 3 collections" >&2; exit 1; }
"$BIN" query --port-file "$WORK/port2" --queries "$WORK/queries.nwk" \
    >"$WORK/served_default.tsv"
diff -u "$WORK/offline.tsv" "$WORK/served_default.tsv"

echo "== catalog counters: evictions observed, residency under budget"
"$BIN" stats --port-file "$WORK/port2" --json >"$WORK/stats2.json"
python3 - "$WORK/stats2.json" "$COMBINED" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
combined = int(sys.argv[2])

by_key = {}
for s in doc["metrics"]["series"]:
    labels = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items()))
    by_key[(s["name"], labels)] = s

def value(name, labels=""):
    s = by_key.get((name, labels))
    return None if s is None else s["value"]

if value("catalog_collections") != 3:
    sys.exit(f"serve smoke: catalog_collections != 3: "
             f"{value('catalog_collections')}")
cold = value("catalog_opens_total", "kind=cold") or 0
if cold < 3:
    sys.exit(f"serve smoke: expected >= 3 cold opens, saw {cold}")
evictions = sum(s["value"] for (name, _), s in by_key.items()
                if name == "catalog_evictions_total")
if evictions < 1:
    sys.exit("serve smoke: the over-budget workload evicted nothing")
resident = value("catalog_resident_bytes")
if resident is None or resident >= combined:
    sys.exit(f"serve smoke: resident {resident} not held under "
             f"combined {combined}")
for c in ("c1", "c2", "c3"):
    if ("catalog_collection_open", f"collection={c}") not in by_key:
        sys.exit(f"serve smoke: missing per-collection gauge for {c}")
print(f"serve smoke: catalog ok ({cold} cold opens, {evictions} evictions, "
      f"resident {resident}/{combined - 1})")
EOF

echo "== catalog admin: drop removes a collection from the listing"
"$BIN" catalog drop --port-file "$WORK/port2" --name c3
"$BIN" catalog list --port-file "$WORK/port2" >"$WORK/catalog_list2.tsv"
ROWS=$(awk 'NR > 1' "$WORK/catalog_list2.tsv" | wc -l)
[ "$ROWS" -eq 2 ] || {
    echo "serve smoke: expected 2 collections after drop, saw $ROWS" >&2; exit 1; }
! grep -q $'^c3\t' "$WORK/catalog_list2.tsv" || {
    echo "serve smoke: dropped collection still listed" >&2; exit 1; }

"$BIN" query --port-file "$WORK/port2" --op shutdown
wait "$SERVER_PID"
SERVER_PID=""
echo "serve smoke: served answers match offline avgrf; catalog workload ok"
