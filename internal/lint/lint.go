// Package lint registers the gminevet analyzer suite: the custom
// go/analysis-style checks that enforce this repo's hot-path contracts at
// build time. See cmd/gminevet for the multichecker driver and the
// individual analyzer packages for the contracts:
//
//   - sweepalias: sweep-callback and row-cursor buffer-aliasing discipline
//     (internal/graph/adjacency.go)
//   - pinpair: BufferPool Get/Release pin pairing and row-cursor Close
//     (internal/storage/bufferpool.go)
//   - sentinelerr: errors.Is instead of sentinel identity comparison
//   - hotalloc: zero-alloc //gmine:hotpath kernel bodies
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/hotalloc"
	"repro/internal/lint/pinpair"
	"repro/internal/lint/sentinelerr"
	"repro/internal/lint/sweepalias"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		hotalloc.Analyzer,
		pinpair.Analyzer,
		sentinelerr.Analyzer,
		sweepalias.Analyzer,
	}
}
