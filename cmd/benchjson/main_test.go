package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func bm(name string, ns float64) Benchmark { return Benchmark{Name: name, NsPerOp: ns} }

func TestCompareReportsRegression(t *testing.T) {
	oldR := Report{Benchmarks: []Benchmark{
		bm("BenchmarkA/x", 100), bm("BenchmarkB", 1000), bm("BenchmarkGone", 5),
	}}
	newR := Report{Benchmarks: []Benchmark{
		bm("BenchmarkA/x", 140), // 1.4x: regression at 1.3 tolerance
		bm("BenchmarkB", 600),   // improvement
		bm("BenchmarkNew", 7),   // no baseline
	}}
	res := compareReports(oldR, newR, 1.3, nil, true)
	if res.Compared != 2 {
		t.Fatalf("compared %d, want 2", res.Compared)
	}
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "BenchmarkA/x") {
		t.Fatalf("regressions = %v", res.Regressions)
	}
	notes := strings.Join(res.Notes, "\n")
	for _, want := range []string{"improved: BenchmarkB", "new (no baseline): BenchmarkNew", "dropped (in baseline only): BenchmarkGone"} {
		if !strings.Contains(notes, want) {
			t.Fatalf("notes missing %q:\n%s", want, notes)
		}
	}
}

func TestCompareReportsWithinTolerance(t *testing.T) {
	oldR := Report{Benchmarks: []Benchmark{bm("BenchmarkA", 100)}}
	newR := Report{Benchmarks: []Benchmark{bm("BenchmarkA", 129)}}
	res := compareReports(oldR, newR, 1.3, nil, true)
	if len(res.Regressions) != 0 || res.Compared != 1 {
		t.Fatalf("1.29x flagged at 1.3 tolerance: %+v", res)
	}
}

func TestCompareReportsMatchFilter(t *testing.T) {
	oldR := Report{Benchmarks: []Benchmark{bm("BenchmarkHot", 100), bm("BenchmarkCold", 100)}}
	newR := Report{Benchmarks: []Benchmark{bm("BenchmarkHot", 105), bm("BenchmarkCold", 500)}}
	res := compareReports(oldR, newR, 1.3, regexp.MustCompile("Hot"), true)
	if len(res.Regressions) != 0 || res.Compared != 1 {
		t.Fatalf("match filter leaked: %+v", res)
	}
}

func TestCompareReportsZeroNsSkipped(t *testing.T) {
	oldR := Report{Benchmarks: []Benchmark{bm("BenchmarkA", 0)}}
	newR := Report{Benchmarks: []Benchmark{bm("BenchmarkA", 100)}}
	if res := compareReports(oldR, newR, 1.3, nil, true); res.Compared != 0 || len(res.Regressions) != 0 {
		t.Fatalf("zero-baseline benchmark compared: %+v", res)
	}
}

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkPageRankSweepVsNeighbors/Paged/Sweep/pool=256-8 \t 33 \t 37172582 ns/op\t     17190 pins/op\t  342040 B/op\t     203 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Name != "BenchmarkPageRankSweepVsNeighbors/Paged/Sweep/pool=256" || b.Procs != 8 {
		t.Fatalf("name/procs: %q %d", b.Name, b.Procs)
	}
	if b.NsPerOp != 37172582 || b.AllocsPerOp != 203 || b.Metrics["pins/op"] != 17190 {
		t.Fatalf("values: %+v", b)
	}
	if _, ok := parseLine("ok  \trepro\t0.979s"); ok {
		t.Fatal("non-benchmark line parsed")
	}
}

// TestMachineMismatch: reports compare only when produced on the same
// machine and toolchain; the commit may differ, that is what is compared.
func TestMachineMismatch(t *testing.T) {
	rep := func(cpus, procs int, goVersion, commit string) Report {
		return Report{GoOS: "linux", GoArch: "amd64", CPU: "Xeon",
			Env: &Fingerprint{NumCPU: cpus, GOMAXPROCS: procs, GoVersion: goVersion, GitCommit: commit}}
	}
	base := rep(2, 2, "go1.24.0", "aaa")
	if diff := machineMismatch(base, rep(2, 2, "go1.24.0", "bbb")); diff != "" {
		t.Fatalf("same machine, different commit refused: %s", diff)
	}
	if diff := machineMismatch(Report{CPU: "Xeon"}, Report{CPU: "Xeon"}); diff != "" {
		t.Fatalf("two pre-fingerprint reports refused: %s", diff)
	}
	other := base
	other.CPU = "EPYC"
	for name, r := range map[string]Report{
		"1-core vs 2-core": rep(1, 1, "go1.24.0", "aaa"),
		"GOMAXPROCS":       rep(2, 1, "go1.24.0", "aaa"),
		"Go version":       rep(2, 2, "go1.25.1", "aaa"),
		"CPU model":        other,
		"no fingerprint":   {GoOS: "linux", GoArch: "amd64", CPU: "Xeon"},
	} {
		if machineMismatch(base, r) == "" {
			t.Errorf("%s: compared as the same machine", name)
		}
	}
}

func bmWork(name string, ns float64, work map[string]float64) Benchmark {
	return Benchmark{Name: name, NsPerOp: ns, Metrics: work}
}

// TestCompareReportsWorkCounts: rows/op, pins/op, reads/op and sweeps/op
// fail the compare above old×1.01+1, with or without the ns/op gate; other
// custom metrics and counts reported on one side only never do.
func TestCompareReportsWorkCounts(t *testing.T) {
	oldR := Report{Benchmarks: []Benchmark{
		bmWork("BenchmarkKeyPath", 100, map[string]float64{"rows/op": 206000, "pins/op": 12000}),
		bmWork("BenchmarkSweep", 100, map[string]float64{"reads/op": 2864, "sweeps/op": 110, "misses/op": 10}),
		bmWork("BenchmarkTier", 100, map[string]float64{"pins/op": 0}),
	}}
	newR := Report{Benchmarks: []Benchmark{
		bmWork("BenchmarkKeyPath", 100, map[string]float64{"rows/op": 720022, "pins/op": 12000}),
		bmWork("BenchmarkSweep", 100, map[string]float64{"reads/op": 2865, "sweeps/op": 111.1, "misses/op": 500, "pins/op": 99}),
		bmWork("BenchmarkTier", 100, map[string]float64{"pins/op": 1}),
	}}
	for _, timed := range []bool{true, false} {
		res := compareReports(oldR, newR, 1.3, nil, timed)
		if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "BenchmarkKeyPath") || !strings.Contains(res.Regressions[0], "rows/op") {
			t.Fatalf("timed=%v: regressions %v, want the rows/op of BenchmarkKeyPath alone", timed, res.Regressions)
		}
		if res.WorkCompared != 5 {
			t.Fatalf("timed=%v: compared %d work counts, want 5", timed, res.WorkCompared)
		}
	}
	// Just past the slack fails, on the other three counts too.
	for _, m := range []string{"pins/op", "reads/op", "sweeps/op"} {
		o := Report{Benchmarks: []Benchmark{bmWork("BenchmarkX", 100, map[string]float64{m: 1000})}}
		n := Report{Benchmarks: []Benchmark{bmWork("BenchmarkX", 100, map[string]float64{m: 1011.5})}}
		if res := compareReports(o, n, 1.3, nil, false); len(res.Regressions) != 1 {
			t.Errorf("%s 1000 -> 1011.5 passed: %+v", m, res)
		}
	}
}

// TestCompareReportsUntimed: without the ns/op gate (reports from
// different machines) a 10x slower benchmark is not a regression.
func TestCompareReportsUntimed(t *testing.T) {
	oldR := Report{Benchmarks: []Benchmark{bm("BenchmarkA", 100)}}
	newR := Report{Benchmarks: []Benchmark{bm("BenchmarkA", 1000)}}
	if res := compareReports(oldR, newR, 1.3, nil, false); len(res.Regressions) != 0 || res.Compared != 0 {
		t.Fatalf("untimed compare gated ns/op: %+v", res)
	}
}

// TestRunCompareExitCodes: across machines a work-count regression exits
// 1 and a clean work compare exits 3 (ns/op skipped); on one machine a
// clean compare exits 0.
func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpus int, rows float64) string {
		rep := Report{GoOS: "linux", GoArch: "amd64", CPU: "Xeon",
			Env:        &Fingerprint{NumCPU: cpus, GOMAXPROCS: cpus, GoVersion: "go1.24.0"},
			Benchmarks: []Benchmark{bmWork("BenchmarkKeyPath", 100, map[string]float64{"rows/op": rows})}}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 2, 206000)
	for _, c := range []struct {
		name string
		new  string
		want int
	}{
		{"same machine, same work", write("same.json", 2, 206000), 0},
		{"other machine, same work", write("other.json", 4, 206000), 3},
		{"other machine, more work", write("other-more.json", 4, 720022), 1},
		{"same machine, more work", write("same-more.json", 2, 720022), 1},
	} {
		if got := runCompare(base, c.new, 1.5, "^BenchmarkKeyPath"); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
