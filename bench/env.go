package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/bench/wire"
)

// fingerprint says what produced a set of numbers. Two runs are comparable
// only if these agree.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
	PageSize   int    `json:"page_size"`
	Clients    int    `json:"clients"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`

	Server       wire.ServerConfig `json:"server"`
	FixtureScale float64           `json:"fixture_scale"`
	FixtureK     int               `json:"fixture_k"`
	FixtureLvls  int               `json:"fixture_levels"`
	Nodes        int               `json:"fixture_nodes"`
	Edges        int               `json:"fixture_edges"`
	GiantNodes   int               `json:"fixture_giant_component_nodes"`
	FilePages    int64             `json:"fixture_file_pages"`
	Communities  int               `json:"fixture_communities"`
	Leaves       int               `json:"fixture_leaves"`
}

func newFingerprint(p paths, w workload, opt options, rd *ready) fingerprint {
	return fingerprint{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		GitCommit:    gitCommit(p.root),
		PageSize:     pageSize,
		Clients:      w.clients,
		Seed:         opt.seed,
		Seconds:      opt.seconds,
		Server:       w.server,
		FixtureScale: rd.fx.scale,
		FixtureK:     fixtureK,
		FixtureLvls:  fixtureLevels,
		Nodes:        rd.facts.g.n,
		Edges:        rd.facts.g.edges,
		GiantNodes:   len(rd.facts.g.giant),
		FilePages:    rd.fileLen / pageSize,
		Communities:  len(rd.facts.t.communities),
		Leaves:       len(rd.facts.t.leaves),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is best effort: the driver's checkout is not a git repository,
// and git must not go looking for one in the directories above it.
func gitCommit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}
