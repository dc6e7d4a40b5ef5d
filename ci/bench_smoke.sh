#!/usr/bin/env bash
# Smoke for the benchmark binaries: run `query_bench --fast` (a real
# build + freeze + probe + serve cycle on a reduced insect preset) and a
# reduced `index_bench`, then validate that the emitted JSON carries the
# full measurement schema — dataset provenance, warmup/repeats protocol,
# single- and multi-thread sections with median/CV/speedup, the wire
# ablation cell (Newick parse vs phylo-wire binary decode), the serve
# section, and the
# frozen-sidecar open cells (zero-copy mmap open vs read-and-materialize).
#
# The speedup itself is NOT asserted here: CI runners are too noisy for a
# throughput gate, and query_bench already hard-asserts frozen == live on
# every answer before it times anything. What CI pins down is that the
# artifact schema never silently regresses.
set -euo pipefail

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
OUT="$WORK/BENCH_query.json"

echo "== run query_bench --fast"
cargo run --release -p bfhrf-bench --bin query_bench -- --fast --out "$OUT"

echo "== validate BENCH_query.json schema"
python3 - "$OUT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

def need(obj, key, kind, where):
    if key not in obj:
        sys.exit(f"bench smoke: missing {where}.{key}")
    if not isinstance(obj[key], kind):
        sys.exit(f"bench smoke: {where}.{key} is {type(obj[key]).__name__}, "
                 f"expected {kind}")
    return obj[key]

ds = need(doc, "dataset", dict, "$")
for key in ("n_taxa", "n_trees", "distinct"):
    need(ds, key, int, "dataset")
need(ds, "name", str, "dataset")
need(doc, "queries", int, "$")
need(doc, "repeats", int, "$")
need(doc, "warmup", int, "$")

st = need(doc, "single_thread", dict, "$")
need(st, "probes", int, "single_thread")
for key in ("live_seconds", "live_cv", "live_mprobes_per_s",
            "frozen_seconds", "frozen_cv", "frozen_mprobes_per_s", "speedup"):
    need(st, key, (int, float), "single_thread")
wi = need(doc, "wire", dict, "$")
need(wi, "trees", int, "wire")
need(wi, "newick_bytes", int, "wire")
need(wi, "bin_bytes", int, "wire")
for key in ("parse_seconds", "parse_cv", "parse_us_per_tree",
            "decode_seconds", "decode_cv", "decode_us_per_tree", "speedup"):
    need(wi, key, (int, float), "wire")
if wi["bin_bytes"] >= wi["newick_bytes"]:
    sys.exit(f"bench smoke: binary payload ({wi['bin_bytes']} B) not smaller "
             f"than Newick ({wi['newick_bytes']} B)")
ee = need(doc, "end_to_end", dict, "$")
for key in ("live_seconds", "live_cv", "live_qps",
            "frozen_seconds", "frozen_cv", "frozen_qps", "speedup"):
    need(ee, key, (int, float), "end_to_end")
mt = need(doc, "multi_thread", dict, "$")
need(mt, "cores", int, "multi_thread")
for key in ("live_seconds", "live_cv", "frozen_seconds", "frozen_cv", "speedup"):
    need(mt, key, (int, float), "multi_thread")
srv = need(doc, "serve", dict, "$")
need(srv, "requests", int, "serve")
need(srv, "clients", int, "serve")
need(srv, "pipeline_window", int, "serve")
need(srv, "batch_size", int, "serve")
need(srv, "batch_frames", int, "serve")
for key in ("qps", "pipelined_qps", "batch_qps",
            "inproc_live_qps", "inproc_frozen_qps"):
    need(srv, key, (int, float), "serve")
if srv["batch_size"] < 1 or srv["batch_frames"] < 1:
    sys.exit("bench smoke: degenerate batch cell parameters")
obs = need(doc, "obs", dict, "$")
need(obs, "attempts", int, "obs")
for key in ("bare_seconds", "bare_cv", "instrumented_seconds",
            "instrumented_cv", "overhead_ratio", "max_ratio"):
    need(obs, key, (int, float), "obs")
if obs["overhead_ratio"] > obs["max_ratio"]:
    sys.exit(f"bench smoke: obs overhead {obs['overhead_ratio']} exceeds "
             f"the recorded gate {obs['max_ratio']}")

for section, obj in (("single_thread", st), ("wire", wi),
                     ("end_to_end", ee),
                     ("multi_thread", mt), ("serve", srv), ("obs", obs)):
    for key, value in obj.items():
        if isinstance(value, (int, float)) and value < 0:
            sys.exit(f"bench smoke: {section}.{key} is negative: {value}")
if st["speedup"] <= 0 or st["live_mprobes_per_s"] <= 0 \
        or st["frozen_mprobes_per_s"] <= 0:
    sys.exit("bench smoke: degenerate single-thread timings")
if wi["speedup"] <= 0 or wi["parse_us_per_tree"] <= 0 \
        or wi["decode_us_per_tree"] <= 0:
    sys.exit("bench smoke: degenerate wire ablation timings")
if srv["qps"] <= 0 or srv["pipelined_qps"] <= 0 or srv["batch_qps"] <= 0:
    sys.exit("bench smoke: serve section measured nothing")

print(f"bench smoke: schema ok "
      f"(single-thread speedup {st['speedup']:.2f}x, "
      f"wire decode {wi['speedup']:.2f}x, serve {srv['qps']:.0f} q/s, "
      f"batch {srv['batch_qps']:.0f} q/s, "
      f"obs overhead {obs['overhead_ratio']:.4f}x)")
EOF

IOUT="$WORK/BENCH_index.json"

echo "== run index_bench (reduced preset)"
cargo run --release -p bfhrf-bench --bin index_bench -- \
    --trees 300 --frozen-trees 2000 --repeats 2 --requests 20 --out "$IOUT"

echo "== validate BENCH_index.json schema"
python3 - "$IOUT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

def need(key, kind):
    if key not in doc:
        sys.exit(f"bench smoke: missing $.{key}")
    if not isinstance(doc[key], kind):
        sys.exit(f"bench smoke: $.{key} is {type(doc[key]).__name__}, "
                 f"expected {kind}")
    return doc[key]

for key in ("cold_build_seconds", "snapshot_save_seconds",
            "snapshot_load_seconds", "load_speedup_vs_cold_build",
            "catalog_cold_open_seconds", "catalog_warm_acquire_seconds",
            "catalog_warm_speedup_vs_cold"):
    if need(key, (int, float)) <= 0:
        sys.exit(f"bench smoke: degenerate $.{key}")

# the frozen-sidecar cells: the zero-copy open must exist, be mapped, and
# index_bench itself hard-asserts mmap < full before emitting, so a
# well-formed file implies the win
need("frozen_trees", int)
need("frozen_snapshot_bytes", int)
need("frozen_sidecar_bytes", int)
if need("frozen_mapped", bool) is not True:
    sys.exit("bench smoke: frozen sidecar was not memory-mapped")
fz = need("frozen_open_seconds", (int, float))
full = need("full_open_seconds", (int, float))
speedup = need("frozen_open_speedup_vs_full", (int, float))
if fz <= 0 or full <= 0 or speedup <= 0:
    sys.exit("bench smoke: degenerate frozen-open timings")
if fz >= full:
    sys.exit(f"bench smoke: zero-copy open ({fz}s) did not beat "
             f"read-and-materialize ({full}s)")

serve = need("serve", list)
if not serve:
    sys.exit("bench smoke: serve table is empty")
for row in serve:
    for key in ("clients", "requests", "seconds", "qps", "batch_qps"):
        if key not in row:
            sys.exit(f"bench smoke: serve row missing {key}: {row}")

print(f"bench smoke: index schema ok "
      f"(snapshot load {doc['load_speedup_vs_cold_build']:.2f}x vs rebuild, "
      f"frozen open {speedup:.2f}x vs full at r={doc['frozen_trees']})")
EOF
