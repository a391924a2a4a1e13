package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallCfg keeps experiment tests fast: ~3000-node dataset, shallow tree.
func smallCfg(t *testing.T) *Config {
	t.Helper()
	var buf bytes.Buffer
	return &Config{
		Scale:  0.01,
		Seed:   1,
		K:      3,
		Levels: 3,
		Out:    &buf,
		Dir:    t.TempDir(),
	}
}

func TestRunE1(t *testing.T) {
	cfg := smallCfg(t)
	res, err := RunE1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Leaves == 0 || res.Stats.Communities == 0 {
		t.Fatal("no communities built")
	}
	if res.FileBytes == 0 {
		t.Fatal("tree file not written")
	}
	if res.Stats.AvgLeafSize <= 0 {
		t.Fatal("bad leaf size")
	}
	// K=3, Levels=3 => up to 9 leaves.
	if res.Stats.Leaves > 9 {
		t.Fatalf("leaves=%d want <= 9", res.Stats.Leaves)
	}
	if res.PaperLeaves != 9 {
		t.Fatalf("paper leaves=%d want 9", res.PaperLeaves)
	}
}

func TestRunE2ConnectivityMatchesBruteForce(t *testing.T) {
	cfg := smallCfg(t)
	res, err := RunE2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExampleConn.Count != res.BruteForceConn {
		t.Fatalf("connectivity %d != brute force %d", res.ExampleConn.Count, res.BruteForceConn)
	}
	if res.LeafNodes == 0 {
		t.Fatal("leaf subgraph empty")
	}
	if res.SceneSVGPath == "" || res.SubgraphSVGPath == "" {
		t.Fatal("artifacts missing")
	}
}

func TestRunE3Narrative(t *testing.T) {
	cfg := smallCfg(t)
	res, err := RunE3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TopCommunities == 0 || res.SecondLevel == 0 {
		t.Fatal("root scene empty")
	}
	if res.OutlierWeight != 1 {
		t.Fatalf("outlier weight %.0f want 1 (single 1989 publication)", res.OutlierWeight)
	}
	if !strings.Contains(res.HanPath, "s000") {
		t.Fatalf("Han path %q should start at the root", res.HanPath)
	}
	if res.HanLeafSize == 0 {
		t.Fatal("Han community empty")
	}
	if res.HanTopCoauthor != "Ke Wang" {
		t.Fatalf("top co-author %q want Ke Wang", res.HanTopCoauthor)
	}
	if res.HanTopWeight < 18 {
		t.Fatalf("Han-Wang weight %.0f want >= 18", res.HanTopWeight)
	}
}

func TestRunE4TomahawkFlat(t *testing.T) {
	cfg := smallCfg(t)
	res, err := RunE4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.TomahawkSize > res.Bound {
			t.Fatalf("tomahawk scene %d exceeds bound %d", r.TomahawkSize, res.Bound)
		}
	}
	// The full-level scene on the largest graph must exceed the Tomahawk
	// scene (that is the point of the principle).
	last := res.Rows[len(res.Rows)-1]
	if last.FullLevel <= last.TomahawkSize {
		t.Fatalf("full level %d not larger than tomahawk %d", last.FullLevel, last.TomahawkSize)
	}
}

func TestRunE5Extraction(t *testing.T) {
	cfg := smallCfg(t)
	res, err := RunE5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputNodes > 30 {
		t.Fatalf("budget exceeded: %d", res.OutputNodes)
	}
	if res.ReductionRatio < 50 {
		t.Fatalf("reduction ratio %.0f suspiciously low", res.ReductionRatio)
	}
	if res.SVGPath == "" {
		t.Fatal("artifact missing")
	}
}

func TestRunE6Pipeline(t *testing.T) {
	cfg := smallCfg(t)
	res, err := RunE6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtractedNodes > 200 {
		t.Fatalf("extracted %d nodes, budget 200", res.ExtractedNodes)
	}
	if res.TopCommunities == 0 || res.TopCommunities > 3 {
		t.Fatalf("top communities %d want 1..3", res.TopCommunities)
	}
	if len(res.SVGPaths) < 3 {
		t.Fatalf("artifacts %v", res.SVGPaths)
	}
}

func TestRunE7Metrics(t *testing.T) {
	cfg := smallCfg(t)
	res, err := RunE7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Nodes == 0 || res.Report.Edges == 0 {
		t.Fatal("empty metrics report")
	}
	if res.Report.WeakComponents < 1 {
		t.Fatal("no components")
	}
	if len(res.TopList) == 0 {
		t.Fatal("no top-ranked authors")
	}
}

// TestRunE8MultiResolution pins E8's shape, not its timings (which would
// flake): four scales of strictly increasing size, each of whose focus
// changes paged something in. A focus pages in one leaf, about n/9 nodes
// at K=3 and Levels=3, so at a fixed depth the pages per focus grow with
// n; per node they read 0.00225–0.00281 on seeds 1–3, and the bound below
// leaves room for that spread.
func TestRunE8MultiResolution(t *testing.T) {
	cfg := smallCfg(t)
	res, err := RunE8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows=%d want 4", len(res.Rows))
	}
	for i, r := range res.Rows {
		if i > 0 && r.Nodes <= res.Rows[i-1].Nodes {
			t.Fatalf("row %d: %d nodes, not above the previous scale's %d", i, r.Nodes, res.Rows[i-1].Nodes)
		}
		if r.PagesPerFocus <= 0 {
			t.Fatalf("row %d (%d nodes): %.2f pages per focus, want > 0", i, r.Nodes, r.PagesPerFocus)
		}
		perNode := r.PagesPerFocus / float64(r.Nodes)
		t.Logf("%d nodes: %.2f pages per focus, %.5f per node", r.Nodes, r.PagesPerFocus, perNode)
		if perNode > 0.004 {
			t.Fatalf("row %d (%d nodes): %.5f pages per focus per node, want <= 0.004", i, r.Nodes, perNode)
		}
	}
}

func TestRunE9MultiSourceWins(t *testing.T) {
	cfg := smallCfg(t)
	res, err := RunE9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		wantRuns := r.M * (r.M - 1) / 2
		if r.PairRuns != wantRuns {
			t.Fatalf("m=%d pair runs %d want %d", r.M, r.PairRuns, wantRuns)
		}
		if r.CepsGoodness < r.PairGoodness {
			t.Fatalf("m=%d ceps goodness %g below pairwise %g", r.M, r.CepsGoodness, r.PairGoodness)
		}
	}
}

func TestRunE10Paging(t *testing.T) {
	cfg := smallCfg(t)
	res, err := RunE10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d want 3", len(res.Rows))
	}
	// Bigger pools must not have lower hit rates on the same walk.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].HitRate+1e-9 < res.Rows[i-1].HitRate {
			t.Fatalf("hit rate regressed with bigger pool: %v", res.Rows)
		}
	}
	// The largest pool should serve the working set mostly from memory.
	if res.Rows[len(res.Rows)-1].HitRate < 0.5 {
		t.Fatalf("hit rate %.2f too low with a big pool", res.Rows[len(res.Rows)-1].HitRate)
	}
}

func TestAblations(t *testing.T) {
	cfg := smallCfg(t)
	res, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CutMultilevel >= res.CutRandom {
		t.Fatalf("multilevel cut %.0f not below random %.0f", res.CutMultilevel, res.CutRandom)
	}
	if res.CutRefined > res.CutUnrefined {
		t.Fatalf("refined cut %.0f worse than unrefined %.0f", res.CutRefined, res.CutUnrefined)
	}
	if res.RestartOverlap[0.15] != 1 {
		t.Fatalf("self-overlap %.2f want 1", res.RestartOverlap[0.15])
	}
}

func TestRunByIDAndUnknown(t *testing.T) {
	cfg := smallCfg(t)
	if err := RunByID(cfg, "E1"); err != nil {
		t.Fatal(err)
	}
	if err := RunByID(cfg, "E99"); err == nil {
		t.Fatal("accepted unknown experiment id")
	}
	out := cfg.Out.(*bytes.Buffer).String()
	if !strings.Contains(out, "=== E1") {
		t.Fatal("report header missing")
	}
}

// TestArtifactDirOncePerConfig: without Dir, a run's artifacts share one
// temp directory, made on first use and reported once.
func TestArtifactDirOncePerConfig(t *testing.T) {
	var buf bytes.Buffer
	cfg := &Config{Out: &buf}
	first, err := cfg.writeArtifact("a.svg", "<svg/>")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(cfg.Dir) })
	second, err := cfg.writeArtifact("b.svg", "<svg/>")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(first) != cfg.Dir || filepath.Dir(second) != cfg.Dir {
		t.Fatalf("artifacts %s and %s, want both in %s", first, second, cfg.Dir)
	}
	if n := strings.Count(buf.String(), cfg.Dir); n != 1 {
		t.Fatalf("artifact directory reported %d times, want once:\n%s", n, buf.String())
	}
}
