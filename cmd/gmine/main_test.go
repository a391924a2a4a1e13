package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", errRun, out)
	}
	return out
}

// pipeline builds the standard test fixture: edges file + gtree file.
func pipeline(t *testing.T) (edges, tree string) {
	t.Helper()
	dir := t.TempDir()
	edges = filepath.Join(dir, "d.edges")
	tree = filepath.Join(dir, "d.gtree")
	capture(t, func() error {
		return cmdGenerate([]string{"-scale", "0.01", "-seed", "1", "-out", edges})
	})
	capture(t, func() error {
		return cmdBuild([]string{"-in", edges, "-out", tree, "-k", "3", "-levels", "3", "-seed", "1"})
	})
	return edges, tree
}

func TestCmdGenerateAndBuild(t *testing.T) {
	edges, tree := pipeline(t)
	for _, p := range []string{edges, tree} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestCmdInfo(t *testing.T) {
	_, tree := pipeline(t)
	out := capture(t, func() error { return cmdInfo([]string{"-tree", tree}) })
	for _, want := range []string{"communities:", "levels:", "leaf size:", "conn edges:", "file pages:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("info output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdQueryLabelAndPrefix(t *testing.T) {
	_, tree := pipeline(t)
	out := capture(t, func() error {
		return cmdQuery([]string{"-tree", tree, "-label", "Jiawei Han"})
	})
	if !strings.Contains(out, "Jiawei Han") || !strings.Contains(out, "s000") {
		t.Fatalf("query output wrong:\n%s", out)
	}
	out = capture(t, func() error {
		return cmdQuery([]string{"-tree", tree, "-prefix", "Jiawei", "-limit", "5"})
	})
	if !strings.Contains(out, "Jiawei Han") {
		t.Fatalf("prefix query output wrong:\n%s", out)
	}
	out = capture(t, func() error {
		return cmdQuery([]string{"-tree", tree, "-label", "No Such Person"})
	})
	if !strings.Contains(out, "no matches") {
		t.Fatalf("missing-label output wrong:\n%s", out)
	}
	if err := cmdQuery([]string{"-tree", tree}); err == nil {
		t.Fatal("query without -label/-prefix should fail")
	}
}

func TestCmdNavigate(t *testing.T) {
	_, tree := pipeline(t)
	svg := filepath.Join(t.TempDir(), "scene.svg")
	out := capture(t, func() error {
		return cmdNavigate([]string{"-tree", tree, "-path", "0", "-svg", svg, "-deep"})
	})
	if !strings.Contains(out, "focus s") {
		t.Fatalf("navigate output wrong:\n%s", out)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("scene svg not written")
	}
	// Direct community focus.
	capture(t, func() error {
		return cmdNavigate([]string{"-tree", tree, "-community", "1"})
	})
	// Bad path elements fail.
	if err := cmdNavigate([]string{"-tree", tree, "-path", "zz"}); err == nil {
		t.Fatal("bad path accepted")
	}
	if err := cmdNavigate([]string{"-tree", tree, "-path", "99"}); err == nil {
		t.Fatal("out-of-range child accepted")
	}
}

func TestCmdMetrics(t *testing.T) {
	_, tree := pipeline(t)
	out := capture(t, func() error { return cmdMetrics([]string{"-tree", tree}) })
	for _, want := range []string{"degree distribution:", "hops:", "weak components:", "top PageRank:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdExtract(t *testing.T) {
	edges, _ := pipeline(t)
	svg := filepath.Join(t.TempDir(), "ex.svg")
	out := capture(t, func() error {
		return cmdExtract([]string{"-in", edges,
			"-labels", "Philip S. Yu,Flip Korn,Minos N. Garofalakis",
			"-budget", "15", "-svg", svg})
	})
	if !strings.Contains(out, "extracted 15 nodes") && !strings.Contains(out, "extracted 1") {
		t.Fatalf("extract output wrong:\n%s", out)
	}
	if _, err := os.Stat(svg); err != nil {
		t.Fatal("extraction svg not written")
	}
	// ids variant.
	capture(t, func() error {
		return cmdExtract([]string{"-in", edges, "-ids", "0,5", "-budget", "10"})
	})
	if err := cmdExtract([]string{"-in", edges, "-labels", "Nobody At All"}); err == nil {
		t.Fatal("unknown label accepted")
	}
	if err := cmdExtract([]string{"-in", edges}); err == nil {
		t.Fatal("extract without sources accepted")
	}
	if err := cmdExtract([]string{"-in", edges, "-ids", "x"}); err == nil {
		t.Fatal("bad id accepted")
	}
}

func TestCmdStats(t *testing.T) {
	edges, _ := pipeline(t)
	out := capture(t, func() error {
		return cmdStats([]string{"-in", edges, "-anfk", "8"})
	})
	for _, want := range []string{"graph:", "degree:", "weak components:", "ANF effective diameter:", "hop plot"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
	// ANF disabled.
	out = capture(t, func() error {
		return cmdStats([]string{"-in", edges, "-anfk", "0"})
	})
	if strings.Contains(out, "hop plot") {
		t.Fatal("ANF printed despite -anfk 0")
	}
}

func TestCmdRepro(t *testing.T) {
	out := capture(t, func() error {
		return cmdRepro([]string{"-exp", "E1", "-scale", "0.01", "-k", "3", "-levels", "3", "-dir", t.TempDir()})
	})
	if !strings.Contains(out, "=== E1") || !strings.Contains(out, "hierarchy:") {
		t.Fatalf("repro output wrong:\n%s", out)
	}
	if err := cmdRepro([]string{"-exp", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestLoadGraphErrors(t *testing.T) {
	if _, err := loadGraph(filepath.Join(t.TempDir(), "missing.edges")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.edges")
	if err := os.WriteFile(bad, []byte("not an edge list\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadGraph(bad); err == nil {
		t.Fatal("malformed file accepted")
	}
}

// TestRemovedCommandAndFlagFailLoudly runs the binary's main in a child
// process: the deleted hidden `bench` subcommand is now an unknown command
// (usage, exit 2), and the deleted `serve -sweepshards` and `serve
// -poolquota` flags stop serve at flag parsing (exit 2) before any session
// is built or port opened.
func TestRemovedCommandAndFlagFailLoudly(t *testing.T) {
	if args := os.Getenv("GMINE_TEST_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"gmine"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, want string }{
		{"bench", `unknown command "bench"`},
		{"serve -addr 127.0.0.1:0 -sweepshards 1", "flag provided but not defined: -sweepshards"},
		{"serve -addr 127.0.0.1:0 -poolquota 4", "flag provided but not defined: -poolquota"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedCommandAndFlagFailLoudly$")
		cmd.Env = append(os.Environ(), "GMINE_TEST_MAIN_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("gmine %s: err %v, want exit status 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("gmine %s: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}
