package gmine

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/layout"
	"repro/internal/partition"
	"repro/internal/render"
	"repro/internal/server"
)

// --- Graph substrate ---

// Graph is a weighted graph with optional node labels.
type Graph = graph.Graph

// NodeID identifies a graph node.
type NodeID = graph.NodeID

// NewGraph returns an empty graph.
func NewGraph(directed bool) *Graph { return graph.New(directed) }

// NewGraphWithNodes returns a graph with n unlabeled nodes.
func NewGraphWithNodes(n int, directed bool) *Graph { return graph.NewWithNodes(n, directed) }

// Induced returns the subgraph of an Adjacency induced by nodes plus the
// id mapping; labelOf (optional) supplies the non-empty labels to carry.
// Pass ToCSR(g) for a *Graph.
var Induced = graph.Induced

// CSR is the in-memory compressed-sparse-row view used by the algorithm
// kernels.
type CSR = graph.CSR

// Adjacency is the read-only neighbor-structure interface every kernel
// consumes; *CSR implements it in memory and every engine's store serves
// a paged implementation bounded by its buffer pool (see Engine.Adj).
type Adjacency = graph.Adjacency

// RowCursor is the per-goroutine random-access row reader opened with
// Adjacency.Cursor; on a paged backend it keeps its last pages pinned
// between reads. Close it on every path.
type RowCursor = graph.RowCursor

// PagedCSR is the disk-backed Adjacency over a G-Tree file's CSR
// section, reading neighbor ranges through the buffer pool.
type PagedCSR = gtree.PagedCSR

// EdgeSweeper is the whole-graph read path every Adjacency embeds: the
// backend walks its own storage in layout order and emits every node's
// edge list in one blocked pass, which on a paged CSR costs the buffer
// pool O(filePages) round-trips per sweep instead of O(n). The
// whole-graph kernels (RWR, PageRank, structure reports) read through it.
type EdgeSweeper = graph.EdgeSweeper

// ToCSR converts a graph to CSR form.
func ToCSR(g *Graph) *CSR { return graph.ToCSR(g) }

// ReadEdgeList / WriteEdgeList re-export the edge-list format, the one
// graph input format.
var (
	ReadEdgeList  = graph.ReadEdgeList
	WriteEdgeList = graph.WriteEdgeList
)

// --- Engine ---

// Engine is a GMine session (see core.Engine).
type Engine = core.Engine

// BuildConfig configures hierarchy construction.
type BuildConfig = core.BuildConfig

// Build constructs an engine over g: its G-Tree is saved into an
// in-memory file and served from there, the whole graph resident.
func Build(g *Graph, cfg BuildConfig) (*Engine, error) { return core.BuildEngine(g, cfg) }

// Open opens a persisted G-Tree file as a disk-backed engine.
func Open(path string, poolPages int) (*Engine, error) { return core.OpenEngine(path, poolPages) }

// RenderExtraction renders an extraction result to SVG.
var RenderExtraction = core.RenderExtraction

// FullDrawBaseline is the naive whole-graph layout (experiment E8).
var FullDrawBaseline = core.FullDrawBaseline

// --- G-Tree ---

// Tree is the communities-within-communities hierarchy.
type Tree = gtree.Tree

// TreeID identifies a community in the hierarchy.
type TreeID = gtree.TreeID

// Community is one node of the G-Tree.
type Community = gtree.Node

// Scene is a Tomahawk display scene.
type Scene = gtree.Scene

// TomahawkOptions tunes scene construction.
type TomahawkOptions = gtree.TomahawkOptions

// TreeStats summarizes a hierarchy.
type TreeStats = gtree.Stats

// ConnStat is a connectivity edge (count+weight of crossing edges).
type ConnStat = gtree.ConnStat

// LabelHit is a label query result.
type LabelHit = gtree.LabelHit

// BuildTreeOptions configures direct tree construction (most callers use
// Build on an Engine instead).
type BuildTreeOptions = gtree.BuildOptions

// BuildTree builds a G-Tree without an engine.
func BuildTree(g *Graph, opts BuildTreeOptions) (*Tree, error) { return gtree.Build(g, opts) }

// --- Partitioning ---

// PartitionOptions configures the partitioner.
type PartitionOptions = partition.Options

// PartitionMethod selects the algorithm.
type PartitionMethod = partition.Method

// Partitioner method constants.
const (
	Multilevel = partition.Multilevel
	BFSGrow    = partition.BFSGrow
	RandomPart = partition.Random
)

// Partition splits a graph into k parts.
func Partition(g *Graph, opts PartitionOptions) (*partition.Result, error) {
	return partition.Partition(g, opts)
}

// EdgeCut returns the weight of edges crossing parts.
var EdgeCut = partition.EdgeCut

// --- Extraction ---

// ExtractOptions configures connection subgraph extraction.
type ExtractOptions = extract.Options

// ExtractResult is an extracted connection subgraph.
type ExtractResult = extract.Result

// RWROptions tunes the random walk with restart.
type RWROptions = extract.RWROptions

// CombineMode selects the goodness combination (AND / OR / k-softAND).
type CombineMode = extract.CombineMode

// Goodness combination modes.
const (
	CombineAND      = extract.CombineAND
	CombineOR       = extract.CombineOR
	CombineKSoftAND = extract.CombineKSoftAND
)

// ConnectionSubgraph extracts a multi-source connection subgraph (§IV).
func ConnectionSubgraph(g *Graph, sources []NodeID, opts ExtractOptions) (*ExtractResult, error) {
	return extract.ConnectionSubgraph(g, sources, opts)
}

// RWRPower computes the random walk with restart from one source by
// power iteration, the one solver behind RWRSet, RWRMulti and PageRankAdj.
var RWRPower = extract.RWR

// RWRSet computes RWR with the restart mass spread over a source set —
// the per-source building block of extraction, exported for benchmarks
// and direct kernel use. One edge sweep of the Adjacency per power
// iteration.
var RWRSet = extract.RWRSet

// RWRMulti runs one independent RWR per source, all advanced by the same
// sweep per power iteration (k sources cost the slowest one's sweeps, not
// the sum): the goodness inputs of extraction. Each vector is
// bit-identical to RWRPower on that source alone; RWROptions.Parallel and
// RWROptions.Shards are accepted and ignored.
var RWRMulti = extract.RWRMulti

// PairwiseOptions configures the KDD'04 electrical baseline.
type PairwiseOptions = extract.PairwiseOptions

// MultiSourceViaPairwise answers multi-source queries with pairwise runs.
var MultiSourceViaPairwise = extract.MultiSourceViaPairwise

// --- Analysis (§III.B metrics) ---

// SubgraphReport bundles the metrics GMine computes on focused subgraphs.
type SubgraphReport = analysis.SubgraphReport

// AnalysisReport computes the full metric suite for a subgraph.
func AnalysisReport(g *Graph, hopSamples int, seed int64) SubgraphReport {
	return analysis.Report(g, hopSamples, seed)
}

// PageRank, components and hops over any Adjacency; pass ToCSR(g) for a
// *Graph. PageRankAdj is RWRSet over every node at restart 1 − Damping.
// Degree statistics and weak components come from ReportAdj. For
// disk-backed engines prefer Engine.PageRank, which solves on the query's
// own view and fails the call if any of its reads faulted.
var (
	PageRankAdj      = analysis.PageRankAdj
	StrongComponents = analysis.StrongComponents
	BFSDistances     = analysis.BFSDistances
	LargestComponent = analysis.LargestComponent
)

// PageRankOptions tunes PageRank.
type PageRankOptions = analysis.PageRankOptions

// GraphAnalysis is the whole-graph analysis suite of Engine.AnalyzeGraph:
// degree distribution, connected components, self-loops and PageRank over
// the query's view of the graph — out of core unless the resident tier
// holds it, with bit-identical results either way.
type GraphAnalysis = core.GraphAnalysis

// AdjacencyReport is the Adjacency-only half of the whole-graph suite
// (degrees, components, self-loops), computed in one adjacency sweep.
type AdjacencyReport = analysis.AdjacencyReport

// ReportAdj computes the whole-graph structure metrics over any Adjacency.
var ReportAdj = analysis.ReportAdj

// ANFOptions / ComputeANF expose the approximate neighborhood function
// (hop plots on full-scale graphs without n BFS runs).
type ANFOptions = analysis.ANFOptions

// ComputeANF estimates the hop plot with Flajolet–Martin sketches.
var ComputeANF = analysis.ComputeANF

// --- Layout & rendering ---

// Point is a 2-D position; Circle a disc.
type (
	Point  = layout.Point
	Circle = layout.Circle
)

// ForceOptions tunes the force-directed layout.
type ForceOptions = layout.ForceOptions

// ForceLayout positions subgraph nodes inside bounds.
var ForceLayout = layout.ForceLayout

// LayoutScene positions a Tomahawk scene's communities.
var LayoutScene = layout.LayoutScene

// SceneSVG / SubgraphSVG render to SVG documents.
var (
	SceneSVG    = render.SceneSVG
	SubgraphSVG = render.SubgraphSVG
)

// --- Synthetic DBLP ---

// DBLPConfig configures the synthetic DBLP generator.
type DBLPConfig = dblp.Config

// DBLPDataset is a generated co-authorship graph with planted notables.
type DBLPDataset = dblp.Dataset

// GenerateDBLP builds the synthetic stand-in for the paper's dataset.
func GenerateDBLP(cfg DBLPConfig) *DBLPDataset { return dblp.Generate(cfg) }

// SmallDBLP returns the tiny deterministic fixture.
func SmallDBLP() *DBLPDataset { return dblp.SmallFixture() }

// Notable author names planted by the generator (paper figure narrative).
const (
	NameJiaweiHan   = dblp.NameJiaweiHan
	NameKeWang      = dblp.NameKeWang
	NamePhilipYu    = dblp.NamePhilipYu
	NameFlipKorn    = dblp.NameFlipKorn
	NameGarofalakis = dblp.NameGarofalakis
	NameJagadish    = dblp.NameJagadish
	NameMiller      = dblp.NameMiller
	NameStockton    = dblp.NameStockton
)

// DBLP reference scale (the real snapshot's size).
const (
	DBLPFullNodes = dblp.FullNodes
	DBLPFullEdges = dblp.FullEdges
)

// NMI computes normalized mutual information between two labelings —
// the external partition-quality measure used by the ablation suite.
var NMI = analysis.NMI

// --- Serving ---

// Server hosts named engine sessions behind a concurrent HTTP/JSON API:
// Tomahawk scenes, label queries, mining metrics and connection-subgraph
// extraction as endpoints, with per-session RW locking and an LRU result
// cache (see internal/server and the `gmine serve` subcommand).
type Server = server.Server

// ServerConfig tunes the HTTP server.
type ServerConfig = server.Config

// ServerSessionInfo is the wire representation of a hosted session.
type ServerSessionInfo = server.SessionInfo

// CreateSessionRequest describes a session to build or open (POST
// /sessions body, also accepted by Server.Preload).
type CreateSessionRequest = server.CreateSessionRequest

// BatchExtractRequest / BatchExtractResponse are the wire types of POST
// /sessions/{id}/extract/batch: many extractions executed through one
// bounded worker pool against the session's shared CSR, with per-item
// cache hit/miss reporting.
type (
	BatchExtractRequest  = server.BatchExtractRequest
	BatchExtractResponse = server.BatchExtractResponse
	BatchExtractItem     = server.BatchExtractItem
)

// NewServer returns an HTTP server ready to Preload sessions and serve.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }
