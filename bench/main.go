// Command bench is GMine's server-level benchmark: it generates a fixture
// with the shipped CLI, launches the shipped `gmine serve` binary, drives
// it over loopback HTTP with two closed-loop clients, checks every
// response, and prints every metric by name and unit.
//
// This package knows the product only through its CLI flags and HTTP
// routes. The layer probes that call the module's Go API live in
// bench/layers, a separate binary this driver builds and runs for
// --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/bench/wire"
)

// setupRepeats is how often a run performs the whole set-up; setup_s is the
// median. The server of the last repetition is the one measured.
const setupRepeats = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	list     int
}

func main() {
	var opt options
	root := flag.String("root", "..", "checkout root (holds go.mod and cmd/gmine)")
	flag.StringVar(&opt.workload, "workload", "all", "workload to run, or all (each workload, untraced then traced)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for the fixture and the request streams")
	flag.IntVar(&opt.seconds, "seconds", 18, "length of the measured window")
	flag.IntVar(&opt.trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from the traced run")
	flag.BoolVar(&opt.quick, "quick", false, "tiny fixture, one set-up, no volume-dependent assertions (smoke test)")
	flag.IntVar(&opt.list, "list", 0, "print the first N generated requests of the workload as JSON lines and exit")
	flag.Parse()
	if flag.NArg() > 0 || opt.seconds < 1 || (opt.trace != 0 && opt.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		os.Exit(2)
	}
	stopOnSignal()
	os.Exit(run(*root, opt))
}

func run(root string, opt options) int {
	p, err := newPaths(root)
	if err != nil {
		return fail(err)
	}
	begin := time.Now()
	if err := p.buildGmine(); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "bench: built gmine in %.1fs\n", time.Since(begin).Seconds())

	if opt.list > 0 {
		return listRequests(p, opt)
	}
	if opt.workload != "all" {
		w, ok := findWorkload(opt.workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", opt.workload))
		}
		return runOne(p, w, opt)
	}
	code := 0
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			o := opt
			o.trace = trace
			if c := runOne(p, w, o); c != 0 {
				code = c
			}
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full account of one run, printed before the result line
// and saved under bench/out. It ends with the claim this issue makes: none.
type report struct {
	Workload    string                  `json:"workload"`
	Why         string                  `json:"why"`
	Trace       int                     `json:"trace"`
	Environment fingerprint             `json:"environment"`
	Classes     map[string]classSummary `json:"op_classes,omitempty"`
	Reported    map[string]metric       `json:"reported_only,omitempty"`
	Checks      []wire.Check            `json:"checks"`
	Failures    []string                `json:"failures,omitempty"`
	Result      result                  `json:"result"`
	Claim       *string                 `json:"claim"`
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, wire.Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// advise records a check that compares two timings taken at different
// moments. On a shared host those drift apart by more than any useful
// tolerance every few runs, so the outcome is reported and decides nothing.
func (r *report) advise(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, wire.Check{Name: name, OK: ok, Advisory: true, Detail: fmt.Sprintf(format, args...)})
}

// emit prints the report, then the result as the last line, and returns
// the process exit code: non-zero on any failed operation or failed check
// that is not advisory.
func (r *report) emit(p paths) int {
	r.Result.Correct = r.Result.Failed == 0
	for _, c := range r.Checks {
		r.Result.Correct = r.Result.Correct && (c.OK || c.Advisory)
	}
	full, _ := json.MarshalIndent(r, "", "  ")
	name := fmt.Sprintf("result-%s-trace%d.json", r.Workload, r.Trace)
	if err := os.WriteFile(filepath.Join(p.out, name), append(full, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	fmt.Printf("%s\n", full)
	last, _ := json.Marshal(r.Result)
	fmt.Printf("%s\n", last)
	if !r.Result.Correct {
		return 1
	}
	return 0
}

func runOne(p paths, w workload, opt options) int {
	if opt.trace == 1 {
		return runTraced(p, w, opt)
	}
	return runEndToEnd(p, w, opt)
}

// ready is a launched, warmed server plus everything needed to drive it.
type ready struct {
	sv      *served
	fx      fixtureFiles
	facts   *facts
	stream  stream
	setupS  float64 // generate + build + launch + warm-up of this repetition
	fileLen int64   // bytes of the .gtree file (0 for memory workloads)
}

// setUp performs one full set-up the way a user would: generate the edge
// list, build the tree file if the workload serves from disk, launch the
// server, and send the warm-up requests. Reading the fixture with the
// benchmark's own parser and generating the request stream are the
// benchmark's work, not the system's, and are left out of the time.
func setUp(p paths, w workload, opt options, g *graphFacts) (*ready, error) {
	scale := fixtureScale
	if opt.quick {
		scale = quickScale
	}
	rd := &ready{fx: p.fixtureFor(scale, opt.seed)}
	var total time.Duration
	d, err := p.generate(rd.fx)
	if err != nil {
		return nil, err
	}
	total += d
	if w.server.Disk {
		if d, err = p.buildTree(rd.fx); err != nil {
			return nil, err
		}
		total += d
		st, err := os.Stat(rd.fx.tree)
		if err != nil {
			return nil, err
		}
		rd.fileLen = st.Size()
	}
	if g == nil {
		if g, err = readGraphFacts(rd.fx.edges); err != nil {
			return nil, err
		}
	}
	sv, up, err := launch(p.gmine, w.serveArgs(rd.fx))
	if err != nil {
		return nil, err
	}
	total += up
	rd.sv = sv
	warm := time.Now()
	t, err := warmUp(sv, w, g)
	if err != nil {
		sv.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	total += time.Since(warm)
	rd.setupS = total.Seconds()
	rd.facts = &facts{g: g, t: t, pathOf: func(u int32) ([]int, error) { return pathOf(sv, g, u) }}
	if rd.stream, err = newStream(w, rd.facts, opt.seed, opt.seconds); err != nil {
		sv.stop()
		return nil, err
	}
	return rd, nil
}

// warmUp sends the off-list requests that finish the server's lazy
// initialisation (label index, CSR and weighted degrees, first page-ins)
// and reads the hierarchy shape. None of them fills a cache entry a listed
// request could hit: the lists never use budget 7, topk 1000 or analysis
// seed 0.
func warmUp(sv *served, w workload, g *graphFacts) (*treeFacts, error) {
	t, err := readTreeFacts(sv)
	if err != nil {
		return nil, err
	}
	for _, req := range warmUpRequests(w, g, t) {
		if sm := issue(sv, g, req, false); sm.err != nil {
			return nil, sm.err
		}
	}
	return t, nil
}

func warmUpRequests(w workload, g *graphFacts, t *treeFacts) []wire.Request {
	reqs := []wire.Request{labelExactRequest(g, g.giant[0])}
	switch w.name {
	case "navigate":
		leaf := t.leaves[0]
		reqs = append(reqs, sceneRequest(t, 0, false), wire.Request{
			Class: wire.ClassNav, Kind: wire.KindLeafAnalysis, Method: "GET",
			Path: fmt.Sprintf("/analysis?community=%d&seed=0", leaf),
			Want: wire.Want{Community: leaf, Size: t.communities[leaf].Size},
		})
	case "compute-mem", "compute-paged":
		reqs = append(reqs, extractRequest([]int32{g.giant[0], g.giant[1]}, 7), wire.Request{
			Class: wire.ClassAnalyze, Kind: wire.KindGraphAnalysis, Method: "GET",
			Path: fmt.Sprintf("/analysis/graph?topk=%d", warmTopK),
			Want: wire.Want{TopK: warmTopK},
		})
	case "session-skewed":
		reqs = append(reqs, sceneRequest(t, 0, false), extractRequest([]int32{g.giant[0], g.giant[1]}, 7))
	}
	return reqs
}

func readTreeFacts(sv *served) (*treeFacts, error) {
	body, err := sv.get("/tree")
	if err != nil {
		return nil, err
	}
	var tr struct {
		Levels   int         `json:"levels"`
		PerLevel []int       `json:"perLevel"`
		Listing  []community `json:"listing"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		return nil, fmt.Errorf("/tree: %w", err)
	}
	t := &treeFacts{communities: tr.Listing, perLevel: tr.PerLevel}
	for i, c := range tr.Listing {
		if c.ID != i {
			return nil, fmt.Errorf("/tree: listing row %d has id %d", i, c.ID)
		}
		if c.Leaf {
			t.leaves = append(t.leaves, c.ID)
		}
	}
	if len(t.leaves) == 0 || len(t.perLevel) == 0 {
		return nil, fmt.Errorf("/tree: empty hierarchy")
	}
	return t, nil
}

// pathOf looks an author up by label and returns the root-to-leaf path of
// the hit that is this node (labels need not be unique).
func pathOf(sv *served, g *graphFacts, u int32) ([]int, error) {
	req := labelExactRequest(g, u)
	body, err := sv.get(req.Path)
	if err != nil {
		return nil, err
	}
	var lh labelHits
	if err := json.Unmarshal(body, &lh); err != nil {
		return nil, err
	}
	for _, h := range lh.Hits {
		if h.Node == u {
			return h.Path, nil
		}
	}
	return nil, fmt.Errorf("node %d (%q) not found by label", u, g.labels[u])
}

// listRequests prints the head of the generated stream, for eyeballing and
// for diffing two seeds.
func listRequests(p paths, opt options) int {
	w, ok := findWorkload(opt.workload)
	if !ok {
		return fail(fmt.Errorf("-list needs one -workload (got %q)", opt.workload))
	}
	rd, err := setUp(p, w, opt, nil)
	if err != nil {
		return fail(err)
	}
	defer rd.sv.stop()
	enc := json.NewEncoder(os.Stdout)
	for i := 0; i < opt.list; i++ {
		req, ok := rd.stream.seq(i)
		if !ok {
			break
		}
		if err := enc.Encode(req); err != nil {
			return fail(err)
		}
	}
	return 0
}
