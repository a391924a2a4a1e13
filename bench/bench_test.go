package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/bench/wire"
)

// offlineFacts is a small hand-made fixture: a ring with chords, labelled,
// under a two-level hierarchy. Generators only ever see facts, so their
// properties can be tested without a server.
func offlineFacts() *facts {
	const n = 240
	g := &graphFacts{n: n, labels: make([]string, n), xadj: make([]int32, n+1)}
	nbrs := make([][]int32, n)
	link := func(u, v int) {
		nbrs[u] = append(nbrs[u], int32(v))
		nbrs[v] = append(nbrs[v], int32(u))
		g.edges++
	}
	for u := 0; u < n; u++ {
		g.labels[u] = fmt.Sprintf("Author%03d Of%d", u, u%7)
		link(u, (u+1)%n)
		if u%3 == 0 {
			link(u, (u+17)%n)
		}
		g.giant = append(g.giant, int32(u))
	}
	for u := 0; u < n; u++ {
		g.xadj[u+1] = g.xadj[u] + int32(len(nbrs[u]))
		g.adj = append(g.adj, nbrs[u]...)
	}
	t := &treeFacts{perLevel: []int{1, 4}, communities: []community{{ID: 0, Parent: -1, Size: n, Children: 4}}}
	for c := 1; c <= 4; c++ {
		t.communities = append(t.communities, community{ID: c, Parent: 0, Level: 1, Size: n / 4, Leaf: true})
		t.leaves = append(t.leaves, c)
	}
	return &facts{g: g, t: t, pathOf: func(u int32) ([]int, error) { return []int{0, 1 + int(u)%4}, nil }}
}

func head(t *testing.T, name string, seed int64, n int) []wire.Request {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	st, err := newStream(w, offlineFacts(), seed, 20)
	if err != nil {
		t.Fatal(err)
	}
	var out []wire.Request
	for i := 0; i < n; i++ {
		req, ok := st.seq(i)
		if !ok {
			break
		}
		out = append(out, req)
	}
	return out
}

func TestStreamsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := head(t, w.name, 7, 300), head(t, w.name, 7, 300), head(t, w.name, 8, 300)
		if len(a) != 300 {
			t.Fatalf("%s: stream ended after %d requests", w.name, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different requests", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", w.name)
		}
	}
}

func TestClientAndSequentialOrdersAgree(t *testing.T) {
	// What the two closed-loop clients issue between them is what the
	// sequential pass of the traced run issues.
	for _, w := range workloads {
		st, err := newStream(w, offlineFacts(), 3, 20)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for c := 0; c < w.clients; c++ {
			for k := 0; k < 90; k++ {
				if req, _, ok := st.at(c, k); ok {
					seen[requestKey(req)]++
				}
			}
		}
		for i := 0; i < 90; i++ {
			req, _ := st.seq(i)
			if seen[requestKey(req)] == 0 {
				t.Fatalf("%s: sequential request %d (%s) is not in either client's first 90", w.name, i, req.Path)
			}
		}
	}
}

func TestPagedListIsMemoryList(t *testing.T) {
	if mem, paged := head(t, "compute-mem", 5, 48), head(t, "compute-paged", 5, 48); !reflect.DeepEqual(mem, paged) {
		t.Error("compute-paged does not issue compute-mem's requests")
	}
}

func TestComputeListNeverRepeats(t *testing.T) {
	seen := map[string]bool{}
	for _, req := range head(t, "compute-mem", 1, 200) {
		if k := requestKey(req); seen[k] {
			t.Fatalf("request %s %s appears twice: the result cache could hit", req.Path, req.Body)
		} else {
			seen[k] = true
		}
	}
}

func TestCyclesHaveOneComposition(t *testing.T) {
	shape := func(r wire.Request) string {
		return fmt.Sprintf("%s/%d/%d", r.Kind, len(r.Want.Sources), r.Want.Budget)
	}
	for _, name := range []string{"compute-mem", "session-skewed"} {
		w, _ := findWorkload(name)
		st, err := newStream(w, offlineFacts(), 11, 20)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < w.clients; c++ {
			var first, cur map[string]int
			cur = map[string]int{}
			cycles := 0
			for k := 0; cycles < 5; k++ {
				req, ends, ok := st.at(c, k)
				if !ok {
					t.Fatalf("%s: client %d ran out after %d cycles", name, c, cycles)
				}
				cur[shape(req)]++
				if !ends {
					continue
				}
				if first == nil {
					first = cur
				} else if !reflect.DeepEqual(first, cur) {
					t.Errorf("%s client %d: cycle %d is %v, cycle 0 was %v", name, c, cycles, cur, first)
				}
				cur = map[string]int{}
				cycles++
			}
		}
	}
}

// TestSessionHitShareByDesign replays the session stream against an ideal
// result cache: over whole cycles, two thirds of the extractions must be
// repeats, whichever order the two clients interleave in.
func TestSessionHitShareByDesign(t *testing.T) {
	w, _ := findWorkload("session-skewed")
	st, err := newStream(w, offlineFacts(), 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	cached := map[string]bool{}
	hits, total := 0, 0
	for c := 0; c < w.clients; c++ {
		var pending []wire.Request
		for k := 0; k < 400; k++ {
			req, ends, ok := st.at(c, k)
			if !ok {
				break
			}
			pending = append(pending, req)
			if !ends {
				continue
			}
			for _, r := range pending {
				if r.Class != wire.ClassExtract {
					continue
				}
				total++
				if cached[requestKey(r)] {
					hits++
				}
				cached[requestKey(r)] = true
			}
			pending = nil
		}
	}
	if share := float64(hits) / float64(total); total < 60 || share < 0.65 || share > 0.75 {
		t.Errorf("%d of %d extractions repeat an earlier one (%.3f), want 0.65..0.75", hits, total, share)
	}
}

func TestPercentileAndSummary(t *testing.T) {
	var v []float64
	for i := 1; i <= 1000; i++ {
		v = append(v, float64(i))
	}
	if got := percentile(v, 0.50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(v, 0.95); got != 950 {
		t.Errorf("p95 = %v, want 950", got)
	}
	if s := summarize(v); s.P95 == nil || s.P99 == nil {
		t.Error("1000 samples must support p95 and p99")
	}
	if s := summarize(v[:150]); s.P95 != nil {
		t.Error("150 samples leave fewer than ten beyond p95")
	}
}

// TestQuickRuns drives every workload end to end, untraced and traced, on
// the tiny fixture: it keeps the harness compiling against the CLI and the
// routes, and the layer probe compiling against the module.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches gmine")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			opt := options{workload: w.name, seed: 1, seconds: 1, trace: trace, quick: true}
			if code := run(root, opt); code != 0 {
				t.Errorf("%s --trace %d --quick: exit code %d", w.name, trace, code)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the code in
// step: same workloads with the same reasons, same metric names and units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, listed []entry, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code prints %d", kind, len(listed), len(units))
		}
		for _, e := range listed {
			if units[e.Name] != e.Unit {
				t.Errorf("%s %s: BENCHMARK.json says unit %q, the code %q", kind, e.Name, e.Unit, units[e.Name])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndUnits)
	same("per_layer", doc.PerLayer, perLayerUnits)
}
