package main

import (
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
	res := compareReports(oldR, newR, 1.3, nil)
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
	res := compareReports(oldR, newR, 1.3, nil)
	if len(res.Regressions) != 0 || res.Compared != 1 {
		t.Fatalf("1.29x flagged at 1.3 tolerance: %+v", res)
	}
}

func TestCompareReportsMatchFilter(t *testing.T) {
	oldR := Report{Benchmarks: []Benchmark{bm("BenchmarkHot", 100), bm("BenchmarkCold", 100)}}
	newR := Report{Benchmarks: []Benchmark{bm("BenchmarkHot", 105), bm("BenchmarkCold", 500)}}
	res := compareReports(oldR, newR, 1.3, regexp.MustCompile("Hot"))
	if len(res.Regressions) != 0 || res.Compared != 1 {
		t.Fatalf("match filter leaked: %+v", res)
	}
}

func TestCompareReportsZeroNsSkipped(t *testing.T) {
	oldR := Report{Benchmarks: []Benchmark{bm("BenchmarkA", 0)}}
	newR := Report{Benchmarks: []Benchmark{bm("BenchmarkA", 100)}}
	if res := compareReports(oldR, newR, 1.3, nil); res.Compared != 0 || len(res.Regressions) != 0 {
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
