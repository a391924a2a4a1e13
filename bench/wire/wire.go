// Package wire holds the plain data the end-to-end driver and the layer
// probe exchange through files: generated requests, the probe's job and
// its result. It imports nothing but the standard library, so the driver
// stays free of the product's Go API.
package wire

// Op classes group latencies the way a user feels them.
const (
	ClassNav     = "nav"     // scene, tree, labels, leaf analysis
	ClassExtract = "extract" // connection-subgraph extraction
	ClassAnalyze = "analyze" // whole-graph analysis
)

// Request kinds name the route and variant, and select the response check.
const (
	KindScene         = "scene"
	KindSceneSVG      = "scene-svg"
	KindTree          = "tree"
	KindLabelExact    = "label-exact"
	KindLabelPrefix   = "label-prefix"
	KindLeafAnalysis  = "leaf-analysis"
	KindExtract       = "extract"
	KindGraphAnalysis = "graph-analysis"
)

// Request is one generated operation against /sessions/default, together
// with what its response must satisfy.
type Request struct {
	Class  string `json:"class"`
	Kind   string `json:"kind"`
	Method string `json:"method"`
	Path   string `json:"path"` // relative to /sessions/default, query included
	Body   string `json:"body,omitempty"`
	Want   Want   `json:"want"`
}

// Want is the expectation a response is checked against; which fields
// apply depends on Kind.
type Want struct {
	Community int     `json:"community,omitempty"` // scene focus / analysed leaf
	Children  int     `json:"children,omitempty"`  // scene: child count of the focus
	Size      int     `json:"size,omitempty"`      // scene: focus size; leaf analysis: node count
	Level     int     `json:"level,omitempty"`     // tree: requested level
	Listed    int     `json:"listed,omitempty"`    // tree: communities on that level
	Label     string  `json:"label,omitempty"`     // labels: exact label or prefix
	Node      int32   `json:"node,omitempty"`      // label-exact: a node that must be among the hits
	Sources   []int32 `json:"sources,omitempty"`   // extract: ascending
	Budget    int     `json:"budget,omitempty"`    // extract
	Restart   float64 `json:"restart,omitempty"`   // extract: RWR restart probability
	TopK      int     `json:"topk,omitempty"`      // graph analysis
	Seed      int64   `json:"seed,omitempty"`      // leaf analysis sampling seed
}

// ServerConfig is how a workload runs `gmine serve`; zero fields mean the
// flag is not passed and the shipped default applies.
type ServerConfig struct {
	Disk         bool  `json:"disk"` // -tree (paged) instead of -in (memory)
	PoolPages    int   `json:"poolPages"`
	TierBudget   int64 `json:"tierBudget"`
	CacheEntries int   `json:"cacheEntries"`
}

// Job is what the driver hands the layer probe for one traced run.
type Job struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Edges    string       `json:"edges"`
	Tree     string       `json:"tree"`
	K        int          `json:"k"`
	Levels   int          `json:"levels"`
	Server   ServerConfig `json:"server"`
	// Warmup is what the driver sent the real server before the pass; the
	// probe sends its in-process server and engines the same, so lazy
	// initialisation and pool state start out alike.
	Warmup []Request `json:"warmup"`
	// Requests is the sequence the sequential HTTP pass issued, in order;
	// Traced says which carried ?trace=1 (replayed, but left out of the
	// handler's p50 as they are left out of the client's).
	Requests []Request `json:"requests"`
	Traced   []bool    `json:"traced"`
	// ReplaySeconds bounds the engine-level replay; the handler-level
	// replay always covers every request so cache state matches the server's.
	ReplaySeconds float64 `json:"replaySeconds"`
	// HitSmall and HitLarge are two cacheable requests with a small and a
	// large answer. Driver and probe both time them as result-cache hits;
	// the difference, by answer size, is what HTTP costs a request.
	HitSmall Request `json:"hitSmall"`
	HitLarge Request `json:"hitLarge"`
	SpanFile string  `json:"spanFile"`
	Quick    bool    `json:"quick"`
	// Pool and tier sizes the workload-independent probes use, taken from
	// the workloads that configure them so a probe measures the layer the
	// way a workload uses it.
	NavPool    int   `json:"navPool"`    // navigate's pool: cold leaf reads
	PagedPool  int   `json:"pagedPool"`  // compute-paged's pool: cold sweeps
	TierPool   int   `json:"tierPool"`   // session-skewed's pool
	TierBudget int64 `json:"tierBudget"` // session-skewed's tier budget
}

// HitProbeRequests is how many times the driver (over HTTP) and the probe
// (inside the handler chain) each time a result-cache hit.
const HitProbeRequests = 200

// Check is one pass/fail assertion with the numbers behind it. A failed
// check fails the run unless it is advisory: checks on outputs and traffic
// decide, comparisons between timings taken at different moments only
// report.
type Check struct {
	Name     string `json:"name"`
	OK       bool   `json:"ok"`
	Advisory bool   `json:"advisory,omitempty"`
	Detail   string `json:"detail"`
}

// ProbeResult is what the layer probe prints as its last line.
type ProbeResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Checks  []Check            `json:"checks"`
	Spans   int                `json:"spans"`
	// HandlerMs is the in-process handler wall of each job request, and
	// HitSmallUs / HitLargeUs the handler wall of the two result-cache
	// hits the driver also times over HTTP (see Job.HitSmall, HitLarge).
	HandlerMs  []float64 `json:"handlerMs"`
	HitSmallUs float64   `json:"hitSmallUs"`
	HitLargeUs float64   `json:"hitLargeUs"`
}
