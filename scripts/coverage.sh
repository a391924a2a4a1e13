#!/usr/bin/env bash
# End-to-end statement coverage of the product paths: what the gmine
# subcommands, every HTTP route, the paper experiments and the examples
# reach. It lists the non-test functions under internal/ that none of them
# runs (the input to coverage-guided deletion).
#
#   bash scripts/coverage.sh <out-dir>
#
# It copies the checkout's files (tracked and untracked, not ignored, not
# deleted) to <out-dir>/src and works there, so the checkout is never
# touched; only in that copy does bench/run.sh build gmine with -cover.
# It then:
#   1. runs the four bench workloads (12 s each, trace 0, seed 1) against
#      the cover-built server;
#   2. runs every gmine subcommand, `gmine repro -scale 0.01 -levels 4`
#      (and -exp E7) and every example at scale 0.01;
#   3. runs scripts/smoke.sh, CI's serve smokes (boot, navigate, memory =
#      file, tiered, chaos), then serves a synthetic (with a debug
#      listener), an -in and a -tree session and drives every route:
#      extractions in each mode and format, batch, scene, tree, leaf and
#      graph analysis, labels, healthz, metrics, session
#      create/list/info/delete and error paths;
#   4. merges the counters into <out-dir>/func.txt (go tool cover -func)
#      and lists the 0 % functions under internal/ in
#      <out-dir>/zero-internal.txt.
# Takes about five minutes on two cores. Uses ports 18080-18085 (the
# smokes) and 18180-18189.
set -uo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <out-dir>" >&2; exit 2; }
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
mkdir -p "$1"; out=$(cd "$1" && pwd)
src=$out/src; w=$out/work
rm -rf "$src" "$w" "$out/covdata"; mkdir -p "$src" "$w" "$out/covdata"
# Tracked files deleted in the working tree are still listed by -c; leave
# them out, and stop if the copy fails.
(cd "$root" && git ls-files -co --exclude-standard | grep -vxFf <(git ls-files --deleted) | tar -cf - -T -) |
	tar -xf - -C "$src" || { echo "copying the checkout to $src failed" >&2; exit 1; }
export GOCOVERDIR=$out/covdata
cd "$src"

# 1. Workloads.
sed -i 's|exec.Command("go", "build", "-o", out, pkg)|exec.Command("go", "build", "-cover", "-coverpkg=./...", "-o", out, pkg)|' bench/fixture.go
grep -q -- '-coverpkg' bench/fixture.go || { echo "bench/fixture.go: go build line not found" >&2; exit 1; }
for wl in navigate compute-mem compute-paged session-skewed; do
	bash bench/run.sh --workload $wl --seed 1 --seconds 12 --trace 0 >"$w/bench-$wl.txt" 2>&1
	echo "bench $wl: exit $?"
done

# 2. CLI, experiments and examples.
go build -cover -coverpkg=./... -o "$w/gmine" ./cmd/gmine || exit 1
G=$w/gmine
run() { "$@" >>"$w/cli.txt" 2>&1 || echo "failed: $*"; }
run $G help
run $G generate -scale 0.01 -seed 1 -out "$w/d.edges"
run $G build -in "$w/d.edges" -out "$w/d.gtree" -k 3 -levels 3
run $G build -in "$w/d.edges" -out "$w/p.gtree" -pagesize 1024
run $G info -tree "$w/d.gtree"
run $G query -tree "$w/d.gtree" -label "Jiawei Han"
run $G query -tree "$w/d.gtree" -prefix Ji -limit 5
run $G navigate -tree "$w/d.gtree" -path 0 -svg "$w/scene.svg"
run $G navigate -tree "$w/d.gtree" -community 1 -deep -svg "$w/scene2.svg"
run $G metrics -tree "$w/d.gtree"
run $G metrics -tree "$w/d.gtree" -community 5
run $G extract -in "$w/d.edges" -labels "Philip S. Yu,Flip Korn" -budget 20 -svg "$w/x.svg"
run $G extract -in "$w/d.edges" -ids 1,5,9 -budget 10
run $G stats -in "$w/d.edges"
run $G repro -scale 0.01 -levels 4 -dir "$w/repro"
run $G repro -exp E7 -scale 0.01 -levels 4
for ex in examples/*/; do
	n=$(basename "$ex")
	go build -cover -coverpkg=./... -o "$w/ex-$n" "./$ex" || exit 1
	run "$w/ex-$n" -scale 0.01
done
echo "cli, experiments and examples: output in $w/cli.txt"

# 3. Servers and routes: CI's serve smokes, then every route.
bash scripts/smoke.sh "$G" "$w/smoke" >"$w/smoke.txt" 2>&1
echo "serve smokes: exit $? (output in $w/smoke.txt)"
B=http://127.0.0.1
up() { for _ in $(seq 1 150); do curl -sf $B:$1/healthz >/dev/null && return 0; sleep 0.2; done; echo "port $1 not up" >&2; }
c() { curl -s -o /dev/null -w '%{http_code} ' "$@"; }
$G serve -addr 127.0.0.1:18180 -synthetic 0.01 -log json -debug-addr 127.0.0.1:18189 >"$w/serve-18180.log" 2>&1 & P1=$!
$G serve -addr 127.0.0.1:18184 -in "$w/d.edges" -log text >"$w/serve-18184.log" 2>&1 & P2=$!
$G serve -addr 127.0.0.1:18185 -tree "$w/d.gtree" -log off >"$w/serve-18185.log" 2>&1 & P3=$!
trap 'kill $P1 $P2 $P3 2>/dev/null' EXIT
for p in 18180 18184 18185; do up $p; done
for p in 18180 18184 18185; do
	s=$B:$p/sessions/default
	c -X POST $s/extract -d '{"sources":[1,5],"budget":10}'
	c -X POST $s/extract -d '{"sources":[1,5],"budget":10}'
	c -X POST $s/extract -d '{"labels":["Philip S. Yu","Flip Korn"],"budget":20}'
	c -X POST $s/extract -d '{"sources":[1,5,9],"budget":10,"mode":"or","format":"svg"}'
	c -X POST $s/extract -d '{"sources":[1,5,9],"budget":10,"mode":"ksoft","k":2}'
	c -X POST "$s/extract?trace=1" -d '{"sources":[2,7],"budget":10}'
	c -X POST $s/extract/batch -d '{"requests":[{"sources":[1,5],"budget":10},{"sources":[3,8],"budget":10}],"parallel":2}'
	c "$s/scene?format=svg&grandchildren=true"; c "$s/scene?format=json&focus=1"; c "$s/scene?debug=1"
	c $s/tree; c "$s/tree?listing=false"
	leaf=$(curl -sf $s/tree | python3 -c 'import json,sys; print(next(c["id"] for c in json.load(sys.stdin)["listing"] if c["leaf"]))')
	c "$s/analysis?community=$leaf"; c "$s/analysis?community=$leaf&seed=2&trace=1"
	c "$s/analysis/graph?topk=5"
	c "$s/labels?q=Jiawei%20Han"; c "$s/labels?prefix=Ji&limit=3"
	c $B:$p/sessions; c $s; c $B:$p/healthz; c $B:$p/metrics
	c -X POST $s/extract -d '{bad'; c $B:$p/sessions/nope; c $s/extract
	c -X POST $B:$p/sessions -d '{"name":"default","source":"synthetic","scale":0.005}'
	echo "<- routes on $p"
done
c $B:18189/metrics; c $B:18189/debug/pprof/; echo "<- debug listener"
c -X POST $B:18180/sessions -d '{"name":"syn","source":"synthetic","scale":0.005,"seed":2,"k":3,"levels":3,"method":"bfs"}'
c -X POST $B:18180/sessions -d '{"name":"rnd","source":"synthetic","scale":0.005,"method":"random"}'
c -X POST $B:18180/sessions -d "{\"name\":\"ed\",\"source\":\"edges\",\"path\":\"$w/d.edges\",\"k\":3,\"levels\":3}"
c -X POST $B:18180/sessions -d "{\"name\":\"gt\",\"source\":\"gtree\",\"path\":\"$w/d.gtree\",\"poolPages\":64,\"tierBudget\":4194304}"
c -X POST $B:18180/sessions -d '{"name":"bad","source":"nope"}'
c -X POST $B:18180/sessions -d "{\"name\":\"missing\",\"source\":\"edges\",\"path\":\"$w/missing.edges\"}"
c $B:18180/sessions; c $B:18180/sessions/gt; c -X POST $B:18180/sessions/gt/extract -d '{"sources":[1,5],"budget":10}'
for n in syn ed gt nope; do c -X DELETE $B:18180/sessions/$n; done
echo "<- session lifecycle"
kill -TERM $P1 $P2 $P3; wait $P1 $P2 $P3 2>/dev/null
trap - EXIT

# 4. Merge.
go tool covdata percent -i="$GOCOVERDIR" >"$out/percent.txt"
go tool covdata textfmt -i="$GOCOVERDIR" -o "$out/cov.txt"
go tool cover -func="$out/cov.txt" >"$out/func.txt"
grep '^repro/internal/' "$out/func.txt" | awk '$NF == "0.0%"' >"$out/zero-internal.txt"
tail -1 "$out/func.txt"
echo "0 % functions under internal/: $(wc -l <"$out/zero-internal.txt") (listed in $out/zero-internal.txt)"
