package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/extract"
	"repro/internal/graph"
)

// floatsDigest is the SHA-256 of the IEEE-754 bits of vectors, in order.
func floatsDigest(vs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, xs := range vs {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// danglingGraph is a random weighted graph of n nodes. Undirected, its
// last tenth has no edges; directed, every fifth node has in-edges and
// no out-edges (a sink).
func danglingGraph(rng *rand.Rand, n int, directed bool) *graph.Graph {
	g := graph.NewWithNodes(n, directed)
	conn := n - n/10
	if directed {
		conn = n
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(conn), rng.Intn(conn)
		if directed && u%5 == 0 {
			continue
		}
		g.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.5+rng.Float64()*4)
	}
	g.Dedup()
	return g
}

// TestRandomWalkDanglingGolden pins RWRMulti, RWRSet and PageRankAdj —
// one power-iteration body — at restarts 0.15 and 0.5 on graphs whose
// walkers reach nodes without out-edges, whose mass restarts: an
// undirected graph with isolated nodes, one of them a source, and a
// directed graph with sinks. The restart folds that mass onto the restart
// set before each pass. Every PageRank digest, the undirected RWRMulti
// digests and the undirected set whose members all have edges are those
// of the PageRank loop and the per-row dangling restart the fold replaced;
// the directed walks and the undirected set holding the isolated source
// moved by rounding when the fold moved that mass ahead of the pass.
// TestKernels' oracle rows referee them.
func TestRandomWalkDanglingGolden(t *testing.T) {
	want := map[string]string{
		"undirected/c=0.15/multi":    "afc301963afc9e2242403c6a86d4a1c44ae5376ed0dc4040961505239699e5ab",
		"undirected/c=0.15/set":      "bfcb8996c7f80cdae737532b429a753a33a886084ccfcc18c2638d29a3bbe75a",
		"undirected/c=0.15/edgeset":  "87ad3f2216f45a71232ce8653f6c5dabd7d9b009410ecb41cc5f5c6bb12a3cca",
		"undirected/c=0.15/pagerank": "1c0d13a852078b289575d7c549bdf2bd575d1b5e32c036804d7a57bb684a121e",
		"undirected/c=0.5/multi":     "ba9b025fc5ca9bfa460bed582d1db6d3e5a53b47579ada05f466d38badc60c5f",
		"undirected/c=0.5/set":       "e1c6f17c9c1c5f4cd21148182c5c185328697ea55c92126f8edda5a35fa7962c",
		"undirected/c=0.5/edgeset":   "872246463e202ed67f619279d67af1070b9bf37bc4fb3feeb27419a6bc65816a",
		"undirected/c=0.5/pagerank":  "11556d059a014a4f5ece160872611b8d85f06499e709a88b3a7eccf0f2cb64da",
		"directed/c=0.15/multi":      "e40f1e326773920b38d98ba19353b982537d30f35466c54f54ebf0271caa6b2c",
		"directed/c=0.15/set":        "dcc8996ddc985d39863b04ab6b2b15348103adf7cb63e04e0e3eefea18d5854c",
		"directed/c=0.15/pagerank":   "d43c98389ac5c047ea2c273ed69666fad1b6339138a7d02041c77b7a94d8ac26",
		"directed/c=0.5/multi":       "f7cf082f970bd31cbe605f667f7debf2a2e73e89dc9c9cdec9f2907d6424e6f7",
		"directed/c=0.5/set":         "431c293238621793596a6b9e11de17cc5ffe2a13710ff120c8e4f968a9530923",
		"directed/c=0.5/pagerank":    "9f8215c21c149742c053a6240c1a87b3e3babc76b0f1a8cfe061dedfbb202ed4",
	}
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name     string
		g        *graph.Graph
		sources  []graph.NodeID // RWRMulti's, and RWRSet's "set"
		edgeSet  []graph.NodeID // RWRSet's "edgeset": members with edges
		dangling graph.NodeID   // a node without out-edges
	}{
		{"undirected", danglingGraph(rng, 200, false), []graph.NodeID{199, 3, 100}, []graph.NodeID{3, 100, 50}, 199},
		{"directed", danglingGraph(rng, 300, true), []graph.NodeID{1, 151, 298}, nil, 150},
	} {
		csr := graph.ToCSR(c.g)
		if c.g.Degree(c.dangling) != 0 || c.g.Degree(c.sources[1]) == 0 {
			t.Fatalf("%s: fixture lost its dangling node or a source's edges", c.name)
		}
		for _, restart := range []float64{0.15, 0.5} {
			tag := fmt.Sprintf("%s/c=%g", c.name, restart)
			opts := extract.RWROptions{Restart: restart}
			multi, err := extract.RWRMulti(csr, c.sources, opts)
			if err != nil {
				t.Fatal(err)
			}
			set, err := extract.RWRSet(csr, c.sources, opts)
			if err != nil {
				t.Fatal(err)
			}
			pr := PageRankAdj(csr, PageRankOptions{Damping: 1 - restart})
			got := map[string]string{"multi": floatsDigest(multi...), "set": floatsDigest(set), "pagerank": floatsDigest(pr)}
			if c.edgeSet != nil {
				edgeSet, err := extract.RWRSet(csr, c.edgeSet, opts)
				if err != nil {
					t.Fatal(err)
				}
				got["edgeset"] = floatsDigest(edgeSet)
			}
			for name, d := range got {
				if w := want[tag+"/"+name]; d != w {
					t.Errorf("%s %s digest %s, want %s", tag, name, d, w)
				}
			}
		}
	}
}
