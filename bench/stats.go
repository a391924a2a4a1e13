package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-quantile (0 < p <= 1) of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencies returns the sorted latencies of the samples pick accepts. A
// failed operation counts as the slowest sample of its class: it takes the
// largest latency seen, so it can only push percentiles up.
func latencies(samples []sample, pick func(sample) bool) []float64 {
	var out []float64
	worst, failed := 0.0, 0
	for _, s := range samples {
		if !pick(s) {
			continue
		}
		worst = max(worst, s.ms)
		if s.err != nil {
			failed++
			continue
		}
		out = append(out, s.ms)
	}
	for ; failed > 0; failed-- {
		out = append(out, worst)
	}
	sort.Float64s(out)
	return out
}

// classSummary is the per-op-class latency report. A percentile is given
// only where at least ten samples lie beyond it; the count is beside it.
type classSummary struct {
	Count int      `json:"count"`
	P50   float64  `json:"p50_ms"`
	P95   *float64 `json:"p95_ms,omitempty"`
	P99   *float64 `json:"p99_ms,omitempty"`
}

func summarize(sorted []float64) classSummary {
	cs := classSummary{Count: len(sorted), P50: percentile(sorted, 0.50)}
	if float64(len(sorted))*0.05 >= 10 {
		v := percentile(sorted, 0.95)
		cs.P95 = &v
	}
	if float64(len(sorted))*0.01 >= 10 {
		v := percentile(sorted, 0.99)
		cs.P99 = &v
	}
	return cs
}
