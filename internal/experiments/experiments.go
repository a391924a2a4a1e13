// Package experiments implements the reproduction harness: one runner per
// paper artifact (figures 1–6 plus the textual claims of §III–§IV), each
// printing the paper's claim next to the measured result and emitting the
// figure's SVG counterpart. The cmd/gmine "repro" subcommand and the
// top-level benchmarks drive these runners; EXPERIMENTS.md records their
// output.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/gtree"
)

// Config parameterizes a run.
type Config struct {
	// Scale of the synthetic DBLP dataset (1.0 = the paper's 315,688
	// authors). Default 0.1.
	Scale float64
	// Seed drives every randomized step.
	Seed int64
	// K and Levels shape the hierarchy (paper: 5 and 5).
	K, Levels int
	// Out receives the experiment report (default os.Stdout).
	Out io.Writer
	// Dir receives artifacts (SVGs, tree files). Empty = one temp dir per
	// Config, made on the first artifact.
	Dir string
	// Quiet suppresses the report (results still returned).
	Quiet bool

	// Memoized dataset and engine so multi-experiment runs share them.
	cachedDS  *dblp.Dataset
	cachedEng *core.Engine
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.Levels <= 0 {
		c.Levels = 5
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	return c
}

func (c *Config) printf(format string, args ...any) {
	if !c.Quiet {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// artifactDir returns Dir, creating it if needed; with Dir empty it makes
// one temp directory, reports it and keeps it as Dir for the whole run.
func (c *Config) artifactDir() (string, error) {
	if c.Dir != "" {
		return c.Dir, os.MkdirAll(c.Dir, 0o755)
	}
	dir, err := os.MkdirTemp("", "gmine-exp")
	if err == nil {
		c.Dir = dir
		c.printf("artifacts: %s\n", dir)
	}
	return dir, err
}

func (c *Config) writeArtifact(name, content string) (string, error) {
	dir, err := c.artifactDir()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// dataset memoizes the generated graph per config so multi-experiment runs
// share it.
func (c *Config) dataset() *dblp.Dataset {
	if c.cachedDS == nil {
		c.cachedDS = dblp.Generate(dblp.Config{Scale: c.Scale, Seed: c.Seed})
	}
	return c.cachedDS
}

// engine memoizes the built engine per config.
func (c *Config) engine() (*core.Engine, error) {
	if c.cachedEng == nil {
		eng, err := core.BuildEngine(c.dataset().Graph, core.BuildConfig{
			K: c.K, Levels: c.Levels, Seed: c.Seed,
		})
		if err != nil {
			return nil, err
		}
		c.cachedEng = eng
	}
	return c.cachedEng, nil
}

// Runner is one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(cfg *Config) error
}

// All lists every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", "G-Tree construction (Fig 1, §III.A)", func(c *Config) error { _, err := RunE1(c); return err }},
		{"E2", "Drawing vocabulary (Fig 2)", func(c *Config) error { _, err := RunE2(c); return err }},
		{"E3", "DBLP navigation walk-through (Fig 3)", func(c *Config) error { _, err := RunE3(c); return err }},
		{"E4", "Tomahawk principle (Fig 4)", func(c *Config) error { _, err := RunE4(c); return err }},
		{"E5", "Connection subgraph extraction (Fig 5)", func(c *Config) error { _, err := RunE5(c); return err }},
		{"E6", "Extraction + hierarchy pipeline (Fig 6)", func(c *Config) error { _, err := RunE6(c); return err }},
		{"E7", "Subgraph mining metrics (§III.B)", func(c *Config) error { _, err := RunE7(c); return err }},
		{"E8", "Multi-resolution vs whole-graph drawing (§I, §V)", func(c *Config) error { _, err := RunE8(c); return err }},
		{"E9", "Multi-source vs pairwise extraction (§IV)", func(c *Config) error { _, err := RunE9(c); return err }},
		{"E10", "On-demand paging (§III.A storage claim)", func(c *Config) error { _, err := RunE10(c); return err }},
		{"ABL", "Ablations (partitioner, refinement, restart, pool)", func(c *Config) error { return RunAblations(c) }},
	}
}

// RunAll executes every experiment with a shared dataset/engine.
func RunAll(cfg *Config) error {
	*cfg = cfg.withDefaults()
	for _, r := range All() {
		cfg.printf("\n=== %s: %s ===\n", r.ID, r.Title)
		if err := r.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
	}
	return nil
}

// RunByID executes one experiment by id (e.g. "E5").
func RunByID(cfg *Config, id string) error {
	*cfg = cfg.withDefaults()
	for _, r := range All() {
		if r.ID == id {
			cfg.printf("\n=== %s: %s ===\n", r.ID, r.Title)
			return r.Run(cfg)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q", id)
}

// timeIt measures fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// leafPathString formats a hierarchy path as the UI shows it ("s000 > s012 > ...").
func leafPathString(path []gtree.TreeID) string {
	s := ""
	for i, id := range path {
		if i > 0 {
			s += " > "
		}
		s += fmt.Sprintf("s%03d", id)
	}
	return s
}
