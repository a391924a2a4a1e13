package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The fixture is constant and recorded in every output: synthetic DBLP at
// 3% of the paper's graph (about 9,500 nodes, 42,000 edges, a 546-page
// file and a 1.0 MB decoded CSR), hierarchy fanout 5 over 4 levels. The
// size is set by the slowest operation: a paged extraction under two
// clients has to finish often enough inside one measured window for its
// percentiles to be steady. Every cache level a workload configures is
// sized relative to this file.
const (
	fixtureScale  = 0.03
	quickScale    = 0.01
	fixtureK      = 5
	fixtureLevels = 4
	pageSize      = 4096
)

// paths locates everything the benchmark builds or writes, all inside the
// checkout.
type paths struct {
	root     string // checkout root (holds go.mod and cmd/gmine)
	build    string // .bench_build: binaries, Go caches, fixtures
	out      string // bench/out: result and span files
	gmine    string
	probe    string
	fixtures string
}

func newPaths(root string) (paths, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return paths{}, err
	}
	p := paths{root: abs, build: filepath.Join(abs, ".bench_build"), out: filepath.Join(abs, "bench", "out")}
	p.gmine = filepath.Join(p.build, "gmine")
	p.probe = filepath.Join(p.build, "gmine-layerprobe")
	p.fixtures = filepath.Join(p.build, "fixtures")
	for _, d := range []string{p.build, p.out, p.fixtures, filepath.Join(p.build, "gocache"), filepath.Join(p.build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return paths{}, err
		}
	}
	return p, nil
}

// goEnv keeps everything the toolchain writes (build cache, temp files,
// module cache, telemetry counters) inside the checkout, and the user's
// own go settings out of the build.
func (p paths) goEnv() []string {
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(p.build, "gocache"),
		"GOTMPDIR="+filepath.Join(p.build, "tmp"),
		"GOPATH="+filepath.Join(p.build, "gopath"),
		"XDG_CONFIG_HOME="+filepath.Join(p.build, "xdg"),
		"GOTOOLCHAIN=local", "GOENV=off", "GOFLAGS=", "GOWORK=off")
}

// goBuild compiles pkg (relative to dir) into out.
func (p paths) goBuild(dir, pkg, out string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Env = p.goEnv()
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s in %s: %v\n%s", pkg, dir, err, b)
	}
	return nil
}

// buildGmine compiles the shipped CLI from the checkout's source.
func (p paths) buildGmine() error { return p.goBuild(p.root, "./cmd/gmine", p.gmine) }

// buildProbe compiles the layer-probe binary (bench/layers), the only
// part of the benchmark that links against the module's packages.
func (p paths) buildProbe() error {
	return p.goBuild(filepath.Join(p.root, "bench"), "./layers", p.probe)
}

// runCLI runs one gmine subcommand to completion and returns its wall time.
func (p paths) runCLI(args ...string) (time.Duration, error) {
	begin := time.Now()
	cmd := exec.Command(p.gmine, args...)
	if b, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("gmine %s: %v\n%s", strings.Join(args, " "), err, b)
	}
	return time.Since(begin), nil
}

// fixtureFiles names the generated inputs of one (scale, seed).
type fixtureFiles struct {
	edges, tree string
	scale       float64
	seed        int64
}

func (p paths) fixtureFor(scale float64, seed int64) fixtureFiles {
	base := filepath.Join(p.fixtures, fmt.Sprintf("s%g-seed%d", scale, seed))
	return fixtureFiles{edges: base + ".edges", tree: base + ".gtree", scale: scale, seed: seed}
}

// generate runs `gmine generate`; build runs `gmine build`. Both overwrite.
func (p paths) generate(f fixtureFiles) (time.Duration, error) {
	return p.runCLI("generate", "-scale", fmt.Sprint(f.scale), "-seed", fmt.Sprint(f.seed), "-out", f.edges)
}

func (p paths) buildTree(f fixtureFiles) (time.Duration, error) {
	return p.runCLI("build", "-in", f.edges, "-out", f.tree,
		"-k", strconv.Itoa(fixtureK), "-levels", strconv.Itoa(fixtureLevels), "-seed", fmt.Sprint(f.seed))
}

// graphFacts is what the request generators may know about the fixture:
// only what the .edges file itself says, read with the benchmark's own
// parser (the driver links nothing from the module).
type graphFacts struct {
	n      int
	edges  int      // distinct undirected edges, self-loops excluded
	labels []string // by node id, "" when unlabeled
	// CSR-style adjacency over distinct edges, neighbors ascending.
	xadj []int32
	adj  []int32
	// giant lists the nodes of the largest connected component, ascending.
	// Extraction sources come from here: an isolated source makes the solve
	// trivially short, so it would mix two latency classes by chance.
	giant []int32
}

func (g *graphFacts) neighbors(u int32) []int32 { return g.adj[g.xadj[u]:g.xadj[u+1]] }

func readGraphFacts(path string) (*graphFacts, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g := &graphFacts{}
	type edge struct{ u, v int32 }
	var es []edge
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			fields := strings.Fields(string(line[1:]))
			switch {
			case len(fields) >= 2 && fields[0] == "nodes":
				if g.n, err = strconv.Atoi(fields[1]); err != nil {
					return nil, fmt.Errorf("%s: bad node count %q", path, fields[1])
				}
				g.labels = make([]string, g.n)
			case len(fields) >= 3 && fields[0] == "label":
				id, err := strconv.Atoi(fields[1])
				if err != nil || id < 0 || id >= g.n {
					return nil, fmt.Errorf("%s: bad label id %q", path, fields[1])
				}
				g.labels[id] = strings.Join(fields[2:], " ")
			case len(fields) >= 1 && fields[0] == "directed":
				return nil, fmt.Errorf("%s: directed fixture not supported", path)
			}
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s: bad edge line %q", path, line)
		}
		u, err1 := strconv.Atoi(string(fields[0]))
		v, err2 := strconv.Atoi(string(fields[1]))
		if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= g.n || v >= g.n {
			return nil, fmt.Errorf("%s: bad edge line %q", path, line)
		}
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		es = append(es, edge{int32(u), int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	uniq := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			uniq = append(uniq, e)
		}
	}
	es = uniq
	g.edges = len(es)

	g.xadj = make([]int32, g.n+1)
	for _, e := range es {
		g.xadj[e.u+1]++
		g.xadj[e.v+1]++
	}
	for i := 0; i < g.n; i++ {
		g.xadj[i+1] += g.xadj[i]
	}
	g.adj = make([]int32, 2*len(es))
	fill := append([]int32(nil), g.xadj[:g.n]...)
	for _, e := range es {
		g.adj[fill[e.u]] = e.v
		fill[e.u]++
		g.adj[fill[e.v]] = e.u
		fill[e.v]++
	}
	for u := 0; u < g.n; u++ {
		nb := g.adj[g.xadj[u]:g.xadj[u+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}

	// Largest component by union-find over the distinct edges.
	parent := make([]int32, g.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range es {
		if a, b := find(e.u), find(e.v); a != b {
			parent[a] = b
		}
	}
	size := make(map[int32]int)
	best, bestSize := int32(-1), 0
	for u := 0; u < g.n; u++ {
		r := find(int32(u))
		size[r]++
		if size[r] > bestSize || (size[r] == bestSize && r < best) {
			best, bestSize = r, size[r]
		}
	}
	for u := 0; u < g.n; u++ {
		if find(int32(u)) == best {
			g.giant = append(g.giant, int32(u))
		}
	}
	if len(g.giant) < 8 {
		return nil, fmt.Errorf("%s: largest component has %d nodes, too small to draw sources from", path, len(g.giant))
	}
	return g, nil
}
