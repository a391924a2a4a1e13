// Command benchjson converts `go test -bench` text output (stdin) into a
// machine-readable JSON report (stdout), so CI can archive ns/op and
// allocs/op per benchmark and the perf trajectory of the hot paths gets
// recorded run over run instead of living in scrollback.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson > BENCH.json
//
// Lines that are not benchmark results (pkg headers, PASS, ok) are either
// captured as environment metadata (goos/goarch/pkg/cpu) or ignored, so
// the tool can be fed the raw `go test` stream.
//
// Compare mode turns two such reports into a CI regression gate:
//
//	go run ./cmd/benchjson -compare old.json new.json -tolerance 1.3
//
// exits non-zero when any benchmark present in both reports regressed in
// ns/op by more than the tolerance factor (1.3 = 30% slower). -match
// restricts the check to benchmark names matching a regexp. Benchmarks
// present on only one side are reported but never fail the gate (the
// suite grows over time), and improvements are listed for the log.
//
// The work counts a benchmark reports (rows/op, pins/op, reads/op,
// sweeps/op: rows, pool pins, file reads and sweeps per operation) are
// gated too, on any machine: they count what the code does, not how fast
// the box is, so a value above old×1.01+1 fails the compare (exit 1)
// whatever the tolerance. The slack absorbs one-off work (an offset-table
// read at a store's first query) spread over a different iteration count.
//
// Every report carries the environment that produced it (CPU count,
// GOMAXPROCS, Go version, commit), and -compare skips the ns/op gate —
// exit code 3, distinct from a regression's 1, once the work counts have
// passed — when the two reports' machines differ: a 1-core point against
// a 2-core point says nothing about the code's speed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one result line in parsed form.
type Benchmark struct {
	// Name is the benchmark path without the trailing -GOMAXPROCS suffix
	// (e.g. "BenchmarkExtractMemoryVsPaged/Paged/pool=256").
	Name string `json:"name"`
	// Procs is the -cpu value the run used (the -N suffix), 0 if absent.
	Procs      int   `json:"procs,omitempty"`
	Iterations int64 `json:"iterations"`
	// NsPerOp / BytesPerOp / AllocsPerOp mirror the standard units.
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp,omitempty"`
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"`
	// Metrics carries any custom b.ReportMetric units (e.g. evictions/op).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Fingerprint says what produced a report's numbers (the fields bench/'s
// own reports carry; goos, goarch and the CPU model are already on the
// Report, parsed from the `go test` stream). convert runs right after the
// benchmarks on the same box with the same toolchain (`make bench-json`),
// so its own runtime describes theirs.
type Fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

func newFingerprint() *Fingerprint {
	commit := "none"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &Fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  commit,
	}
}

// Report is the document written to stdout.
type Report struct {
	Env        *Fingerprint `json:"env,omitempty"`
	GoOS       string       `json:"goos,omitempty"`
	GoArch     string       `json:"goarch,omitempty"`
	Pkg        string       `json:"pkg,omitempty"`
	CPU        string       `json:"cpu,omitempty"`
	Benchmarks []Benchmark  `json:"benchmarks"`
}

// machineMismatch names the first way in which two reports' machines
// differ, "" when their numbers are comparable. The commit is provenance,
// not machine: comparing two commits is the point. Two reports that both
// predate the fingerprint compare as before; one that has it against one
// that does not is refused.
func machineMismatch(oldRep, newRep Report) string {
	if (oldRep.Env == nil) != (newRep.Env == nil) {
		return "only one report carries an environment fingerprint"
	}
	machine := func(r Report) string {
		s := fmt.Sprintf("%s/%s %q", r.GoOS, r.GoArch, r.CPU)
		if e := r.Env; e != nil {
			s += fmt.Sprintf(" %d CPUs GOMAXPROCS=%d %s", e.NumCPU, e.GOMAXPROCS, e.GoVersion)
		}
		return s
	}
	if o, n := machine(oldRep), machine(newRep); o != n {
		return o + " vs " + n
	}
	return ""
}

func main() {
	compareOld := flag.String("compare", "", "baseline JSON report; compare the new report (positional arg) against it instead of converting stdin")
	tolerance := flag.Float64("tolerance", 1.3, "ns/op regression factor that fails the compare (1.3 = 30% slower)")
	match := flag.String("match", "", "regexp restricting -compare to matching benchmark names (default: all)")
	// Accept flags interleaved with positionals (`-compare old.json
	// new.json -tolerance 1.3`): the flag package stops at the first
	// positional, so keep re-parsing the remainder.
	flag.Parse()
	var positional []string
	for args := flag.Args(); len(args) > 0; {
		// A bare "-" is an operand, not a flag, and flag.Parse leaves it in
		// place — re-parsing it would spin forever.
		if strings.HasPrefix(args[0], "-") && args[0] != "-" {
			if err := flag.CommandLine.Parse(args); err != nil {
				os.Exit(2)
			}
			if rest := flag.Args(); len(rest) < len(args) {
				args = rest
				continue
			}
		}
		positional = append(positional, args[0])
		args = args[1:]
	}
	if *compareOld != "" {
		if len(positional) != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly one new-report argument")
			os.Exit(2)
		}
		os.Exit(runCompare(*compareOld, positional[0], *tolerance, *match))
	}
	convert()
}

// runCompare loads both reports and prints the verdict; returns the
// process exit code (0 ok, 1 regression, 2 usage/IO error, 3 work counts
// passed but ns/op skipped, the reports being from different machines).
func runCompare(oldPath, newPath string, tolerance float64, match string) int {
	if tolerance <= 0 {
		fmt.Fprintf(os.Stderr, "benchjson: tolerance %g must be positive\n", tolerance)
		return 2
	}
	var re *regexp.Regexp
	if match != "" {
		var err error
		if re, err = regexp.Compile(match); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -match: %v\n", err)
			return 2
		}
	}
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	diff := machineMismatch(oldRep, newRep)
	res := compareReports(oldRep, newRep, tolerance, re, diff == "")
	for _, l := range res.Notes {
		fmt.Println(l)
	}
	if len(res.Regressions) > 0 {
		for _, l := range res.Regressions {
			fmt.Println(l)
		}
		fmt.Printf("benchjson: %d regression(s): ns/op beyond %.2fx or work counts above old×%.2f+1\n", len(res.Regressions), tolerance, workSlack)
		return 1
	}
	fmt.Printf("benchjson: no work count above old×%.2f+1 across %d compared count(s)\n", workSlack, res.WorkCompared)
	if diff != "" {
		fmt.Printf("benchjson: ns/op skipped, %s and %s are not comparable: %s\n", oldPath, newPath, diff)
		return 3
	}
	fmt.Printf("benchjson: no ns/op regression beyond %.2fx across %d compared benchmark(s)\n", tolerance, res.Compared)
	return 0
}

func loadReport(path string) (Report, error) {
	var rep Report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// CompareResult is the verdict of compareReports: Regressions fail the
// gate, Notes (improvements, one-sided benchmarks) are informational.
// Compared counts the benchmarks whose ns/op was compared, WorkCompared
// the work counts.
type CompareResult struct {
	Compared     int
	WorkCompared int
	Regressions  []string
	Notes        []string
}

// workMetrics are the deterministic work counts benchmarks report, gated
// on any machine; workSlack is their relative slack. A benchmark reports
// a count under one of these names only when every op does the same
// work; a count that moves with b.N (a stream of differing queries, a
// one-off promotion) goes under another name and is never gated.
var workMetrics = []string{"rows/op", "pins/op", "reads/op", "sweeps/op"}

const workSlack = 1.01

// compareReports diffs new against old per benchmark name (the -cpu
// suffix is already stripped by the parser). Every work count both sides
// report regresses when new > old*workSlack+1; when timed, ns/op regresses
// when newNs > oldNs*tolerance. Benchmarks on only one side are noted but
// never fail, so the gate survives suite growth and renames.
func compareReports(oldRep, newRep Report, tolerance float64, match *regexp.Regexp, timed bool) CompareResult {
	oldBy := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	var res CompareResult
	seen := make(map[string]bool, len(newRep.Benchmarks))
	for _, nb := range newRep.Benchmarks {
		if match != nil && !match.MatchString(nb.Name) {
			continue
		}
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			res.Notes = append(res.Notes, fmt.Sprintf("new (no baseline): %s  %.0f ns/op", nb.Name, nb.NsPerOp))
			continue
		}
		for _, m := range workMetrics {
			ov, okOld := ob.Metrics[m]
			nv, okNew := nb.Metrics[m]
			if !okOld || !okNew {
				continue
			}
			res.WorkCompared++
			if nv > ov*workSlack+1 {
				res.Regressions = append(res.Regressions, fmt.Sprintf(
					"WORK REGRESSION %s: %g -> %g %s (> %g×%.2f+1)", nb.Name, ov, nv, m, ov, workSlack))
			}
		}
		if !timed || ob.NsPerOp <= 0 || nb.NsPerOp <= 0 {
			continue
		}
		res.Compared++
		ratio := nb.NsPerOp / ob.NsPerOp
		switch {
		case ratio > tolerance:
			res.Regressions = append(res.Regressions, fmt.Sprintf(
				"REGRESSION %s: %.0f -> %.0f ns/op (%.2fx > %.2fx)", nb.Name, ob.NsPerOp, nb.NsPerOp, ratio, tolerance))
		case ratio < 1/tolerance:
			res.Notes = append(res.Notes, fmt.Sprintf(
				"improved: %s  %.0f -> %.0f ns/op (%.2fx)", nb.Name, ob.NsPerOp, nb.NsPerOp, ratio))
		}
	}
	for _, ob := range oldRep.Benchmarks {
		if match != nil && !match.MatchString(ob.Name) {
			continue
		}
		if !seen[ob.Name] {
			res.Notes = append(res.Notes, fmt.Sprintf("dropped (in baseline only): %s", ob.Name))
		}
	}
	return res
}

// convert is the original stdin->JSON mode.
func convert() {
	rep := Report{Env: newFingerprint(), Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if b, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
}

// parseLine parses one `BenchmarkX-8  N  V unit  V unit ...` line.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0]}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	// The remainder is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[fields[i+1]] = v
		}
	}
	return b, true
}
