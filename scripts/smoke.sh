#!/usr/bin/env bash
# Serve smokes: boot `gmine serve` in the configurations CI checks and
# drive their routes end to end, failing on the first broken assertion.
#
#   bash scripts/smoke.sh <gmine-binary> <work-dir>
#
# CI's "Serve smoke" step runs it against a fresh build, and section 3 of
# scripts/coverage.sh runs it against the cover-built binary, so the two
# drive the same requests. Six smokes run in order:
#   1. boot: a synthetic session answers an extraction, and /metrics shows
#      the served extraction and a recorded solve stage; a client's
#      synthetic create answers 400 with the offline-build guidance, and an
#      oversize extract body answers 413;
#   2. navigate: a grandchildren scene renders as SVG that parses as XML,
#      and one leaf's analysis answers 200 with a report of that leaf;
#   3. memory = file: one edge list served built (-in) and opened from its
#      G-Tree file (-tree) answers an extraction and a whole-graph analysis
#      with the same bytes and the same non-zero edge count, and only the
#      -tree server reports a buffer pool;
#   4. tiered: a disk session whose tier budget covers the decoded graph
#      promotes it after the first query, keeps it resident within budget,
#      and its memory-hit ratio rises between two scrapes;
#   5. chaos: under seeded transient faults extractions answer 200 with
#      healed retries on /metrics; once the file is really corrupted they
#      answer 500 until the breaker opens (503), and after the file is
#      repaired the half-open probe closes it again;
#   6. timeout: under -timeout 50ms an extraction too heavy to finish in
#      time answers 503 with Retry-After 2 and the timeout overload body,
#      and /metrics counts one overload{timeout}.
# Uses ports 18080-18086 and writes only under <work-dir>.
set -eu
[ $# -eq 2 ] || { echo "usage: $0 <gmine-binary> <work-dir>" >&2; exit 2; }
G=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
mkdir -p "$2"; W=$(cd "$2" && pwd)
PIDS=""
trap 'kill $PIDS 2>/dev/null || true' EXIT

# serve <port> <args...> starts a server in the background and waits for
# its /healthz.
serve() {
	port=$1; shift
	"$G" serve -addr 127.0.0.1:$port "$@" >"$W/serve-$port.log" 2>&1 &
	PIDS="$PIDS $!"
	for _ in $(seq 1 150); do
		curl -sf http://127.0.0.1:$port/healthz >/dev/null && return 0
		sleep 0.2
	done
	echo "server on $port not healthy"; cat "$W/serve-$port.log"; exit 1
}

# stop ends every server started so far.
stop() {
	kill $PIDS 2>/dev/null || true
	wait $PIDS 2>/dev/null || true
	PIDS=""
}

echo "== smoke 1: boot, extract, assert /metrics moved"
serve 18080 -synthetic 0.01 -log json
curl -sf -X POST http://127.0.0.1:18080/sessions/default/extract \
	-d '{"sources":[1,5],"budget":10}' >/dev/null
METRICS=$(curl -sf http://127.0.0.1:18080/metrics)
echo "$METRICS" | grep -E 'gmine_http_requests_total\{route="POST /sessions/\{id\}/extract",code="200"\} [1-9]' \
	|| { echo "extract not counted in /metrics"; echo "$METRICS"; exit 1; }
echo "$METRICS" | grep -E 'gmine_query_stage_seconds_count\{stage="solve"\} [1-9]' \
	|| { echo "no solve stage recorded in /metrics"; echo "$METRICS"; exit 1; }
code=$(curl -s -o "$W/refused.json" -w '%{http_code}' -X POST http://127.0.0.1:18080/sessions \
	-d '{"name":"syn","source":"synthetic","scale":0.01}')
[ "$code" = 400 ] && grep -q 'gmine build -in g.edges -out g.gtree' "$W/refused.json" \
	|| { echo "synthetic create: status $code, want 400 with the build guidance"; cat "$W/refused.json"; exit 1; }
python3 -c 'print("{\"sources\":[" + ",".join(map(str, range(100000))) + "]}")' >"$W/big.json"
code=$(curl -s -o "$W/big.out" -w '%{http_code}' -X POST http://127.0.0.1:18080/sessions/default/extract \
	--data-binary @"$W/big.json")
[ "$code" = 413 ] || { echo "oversize extract body: status $code, want 413"; cat "$W/big.out"; exit 1; }
stop

echo "== smoke 2: navigate"
serve 18081 -synthetic 0.01 -log json
curl -sf 'http://127.0.0.1:18081/sessions/default/scene?format=svg&grandchildren=true' -o "$W/scene.svg"
python3 -c 'import xml.etree.ElementTree as ET, sys; root = ET.parse(sys.argv[1]).getroot(); sys.exit(not root.tag.endswith("svg"))' "$W/scene.svg" \
	|| { echo "scene SVG does not parse"; head -c 2000 "$W/scene.svg"; exit 1; }
LEAF=$(curl -sf 'http://127.0.0.1:18081/sessions/default/tree' | python3 -c '
import json, sys
print(next(c["id"] for c in json.load(sys.stdin)["listing"] if c["leaf"]))')
curl -sf "http://127.0.0.1:18081/sessions/default/analysis?community=$LEAF" | python3 -c '
import json, sys
rep = json.load(sys.stdin)
sys.exit(not (rep["community"] == int(sys.argv[1]) and rep["nodes"] > 0))' "$LEAF" \
	|| { echo "leaf $LEAF analysis failed"; exit 1; }
stop

echo "== smoke 3: memory = file"
"$G" generate -out "$W/eq.edges" -scale 0.01 -seed 2
"$G" build -in "$W/eq.edges" -out "$W/eq.gtree"
serve 18084 -in "$W/eq.edges" -log off
serve 18085 -tree "$W/eq.gtree" -log off
for port in 18084 18085; do
	curl -sf -X POST http://127.0.0.1:$port/sessions/default/extract \
		-d '{"labels":["Philip S. Yu","Flip Korn"],"budget":20}' -o "$W/eq.extract.$port"
	curl -sf "http://127.0.0.1:$port/sessions/default/analysis/graph?topk=5" -o "$W/eq.graph.$port"
	curl -sf http://127.0.0.1:$port/sessions/default -o "$W/eq.info.$port"
	curl -sf http://127.0.0.1:$port/healthz -o "$W/eq.health.$port"
done
cmp "$W/eq.extract.18084" "$W/eq.extract.18085" \
	|| { echo "extraction bodies differ"; head -c 600 "$W"/eq.extract.1808*; exit 1; }
cmp "$W/eq.graph.18084" "$W/eq.graph.18085" \
	|| { echo "graph analysis bodies differ"; head -c 600 "$W"/eq.graph.1808*; exit 1; }
python3 - "$W" <<'PY'
import json, sys
w = sys.argv[1]
info = {p: json.load(open(f"{w}/eq.info.{p}")) for p in (18084, 18085)}
health = {p: json.load(open(f"{w}/eq.health.{p}")) for p in (18084, 18085)}
edges = {p: i["edges"] for p, i in info.items()}
assert edges[18084] == edges[18085] > 0, f"session edges {edges}"
pools = {p: sorted(h.get("pools") or {}) for p, h in health.items()}
assert pools == {18084: [], 18085: ["default"]}, f"healthz pools {pools}"
print("memory = file:", edges[18084], "edges; pools", pools)
PY
stop

echo "== smoke 4: tiered extraction, promotions and a rising hit ratio"
# The ratio counts queries, each of which picks memory or pages once when
# it opens: the first query pages and the rest read memory, so it is about
# 7/8 after eight extractions and 15/16 after sixteen.
"$G" generate -out "$W/smoke.edges" -scale 0.02 -seed 3
"$G" build -in "$W/smoke.edges" -out "$W/smoke.gtree" -pagesize 1024
serve 18082 -tree "$W/smoke.gtree" -pool 256 -tierbudget 4194304 -log json
tierop() {
	curl -sf http://127.0.0.1:18082/metrics \
		| sed -nE "s/^gmine_tier_ops_total\{session=\"default\",op=\"$1\"\} (.*)/\1/p"
}
# Vary one source per request: identical bodies would be served from the
# LRU result cache without ever touching the adjacency.
for i in $(seq 1 8); do
	curl -sf -X POST http://127.0.0.1:18082/sessions/default/extract \
		-d "{\"sources\":[1,5,$((i * 7))],\"budget\":10}" >/dev/null
done
PROMO=$(tierop promotion); H1=$(tierop hit); M1=$(tierop miss)
awk -v p="${PROMO:-0}" 'BEGIN{exit !(p+0 > 0)}' \
	|| { echo "no tier promotions after warmup (promotions=$PROMO)"; curl -s http://127.0.0.1:18082/metrics | grep gmine_tier; exit 1; }
curl -sf http://127.0.0.1:18082/healthz | python3 -c '
import json, sys
tier = json.load(sys.stdin)["pools"]["default"]["tier"]
sys.exit(not (tier["fragments"] == 1 and tier["bytes"] <= tier["budget"]))' \
	|| { echo "whole graph not resident within budget"; curl -s http://127.0.0.1:18082/healthz; exit 1; }
for i in $(seq 9 16); do
	curl -sf -X POST http://127.0.0.1:18082/sessions/default/extract \
		-d "{\"sources\":[1,5,$((i * 7))],\"budget\":10}" >/dev/null
done
H2=$(tierop hit); M2=$(tierop miss)
awk -v h1="${H1:-0}" -v m1="${M1:-0}" -v h2="${H2:-0}" -v m2="${M2:-0}" \
	'BEGIN{r1 = (h1+m1 > 0) ? h1/(h1+m1) : 0; r2 = (h2+m2 > 0) ? h2/(h2+m2) : 0;
	       printf "memory-hit ratio %.4f -> %.4f\n", r1, r2; exit !(r2 > r1)}' \
	|| { echo "memory-hit ratio did not rise (hits $H1->$H2, misses $M1->$M2)"; exit 1; }
stop

echo "== smoke 5: chaos, retries heal, the breaker opens and recovers"
# The retry layer heals transients below the queries' fault latches (a
# sweep's window read retries whole at one offset, and rate mode caps each
# reader's fault streak at one offset below the retry budget).
cp "$W/smoke.gtree" "$W/smoke.pristine"
serve 18083 -tree "$W/smoke.gtree" -pool 8 -chaos 'rate=0.01,seed=1,kinds=flip+err+short' -log json
xcode() { # one extraction; prints the HTTP status (distinct sources bust the result cache)
	curl -s -o /dev/null -w '%{http_code}' -X POST http://127.0.0.1:18083/sessions/default/extract \
		-d "{\"sources\":[1,$(($1 * 5))],\"budget\":10}"
}
for i in 1 2 3; do
	CODE=$(xcode $i)
	[ "$CODE" = 200 ] || { echo "extract $i under chaos: status $CODE, want 200"; exit 1; }
done
METRICS=$(curl -sf http://127.0.0.1:18083/metrics)
echo "$METRICS" | grep -E 'gmine_pool_read_retries_total\{session="default",op="healed"\} [1-9]' \
	|| { echo "chaos injection healed no reads"; echo "$METRICS" | grep retries; exit 1; }
echo "$METRICS" | grep -E 'gmine_pool_read_retries_total\{session="default",op="failed"\} 0' \
	|| { echo "transient-only chaos latched permanent read failures"; echo "$METRICS" | grep retries; exit 1; }
# Corrupt the live file for real: one flipped byte per page after the
# superblock, so every paged read fails its checksum and retries refuse to
# heal what is actually on disk.
python3 -c '
import sys
data = bytearray(open(sys.argv[1], "rb").read())
for off in range(1024 + 13, len(data), 1024):
    data[off] ^= 0xFF
open(sys.argv[1], "wb").write(data)' "$W/smoke.gtree"
for i in 4 5 6; do
	CODE=$(xcode $i)
	[ "$CODE" = 500 ] || { echo "corrupted extract $i: status $CODE, want 500"; exit 1; }
done
CODE=$(xcode 7)
[ "$CODE" = 503 ] || { echo "breaker did not open: status $CODE, want 503"; exit 1; }
curl -sf http://127.0.0.1:18083/metrics \
	| grep -E 'gmine_session_breaker_opens_total\{session="default"\} [1-9]' \
	|| { echo "breaker open not counted"; exit 1; }
# Repair the file; after the 2s cooldown the half-open probe reads clean
# and the session serves again.
cp "$W/smoke.pristine" "$W/smoke.gtree"
sleep 2.5
CODE=$(xcode 8)
[ "$CODE" = 200 ] || { echo "post-repair probe: status $CODE, want 200"; exit 1; }
curl -sf http://127.0.0.1:18083/metrics \
	| grep -E 'gmine_session_breaker_state\{session="default"\} 0' \
	|| { echo "breaker did not close after recovery"; exit 1; }
stop

echo "== smoke 6: request timeout"
serve 18086 -synthetic 0.01 -timeout 50ms -log off
curl -s -D "$W/timeout.head" -o "$W/timeout.body" -X POST http://127.0.0.1:18086/sessions/default/extract \
	-d '{"labels":["Philip S. Yu","Flip Korn"],"budget":2000}'
python3 - "$W" <<'PY'
import json, sys
w = sys.argv[1]
lines = open(f"{w}/timeout.head").read().splitlines()
status = lines[0].split()[1]
head = {k.strip().lower(): v.strip() for k, v in (l.split(":", 1) for l in lines[1:] if ":" in l)}
body = json.load(open(f"{w}/timeout.body"))
assert status == "503", f"status {status}, want 503"
assert head.get("retry-after") == "2", f"Retry-After {head.get('retry-after')!r}, want 2"
assert body == {"error": "request timed out", "kind": "timeout", "retryAfterSeconds": 2}, f"body {body}"
print("timeout: 503, Retry-After 2,", body)
PY
curl -sf http://127.0.0.1:18086/metrics | grep -E '^gmine_http_overload_total\{kind="timeout"\} 1$' \
	|| { echo "timeout not counted once in /metrics"; curl -s http://127.0.0.1:18086/metrics | grep overload; exit 1; }
stop
echo "== serve smokes passed"
