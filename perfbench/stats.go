package main

import (
	"math"
	"slices"
	"time"
)

// tailLadder is the percentile ladder tail reporting climbs, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rankOf is the nearest-rank index (0-based) of percentile p in n sorted
// samples.
func rankOf(p float64, n int) int {
	// The epsilon absorbs float error such as 99.9/100*10000 > 9990.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples strictly above percentile p's rank.
func beyond(p float64, n int) int { return n - 1 - rankOf(p, n) }

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))]
}

// tailPercentile picks the highest ladder percentile that has at least ten
// samples beyond it, so a reported tail is never one or two outliers. ok is
// false when even the median lacks ten samples beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// supported reports whether percentile p has at least ten samples beyond it.
func supported(p float64, n int) bool { return n > 0 && beyond(p, n) >= 10 }

// latencies collects per-call durations from one client goroutine.
type latencies []time.Duration

// summary is a sorted latency sample with its count.
type summary struct {
	sorted []time.Duration
}

func summarize(parts ...latencies) summary {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all := make([]time.Duration, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	slices.Sort(all)
	return summary{sorted: all}
}

func (s summary) n() int                      { return len(s.sorted) }
func (s summary) pct(p float64) time.Duration { return percentile(s.sorted, p) }
func (s summary) ms(p float64) float64        { return float64(s.pct(p)) / 1e6 }
func (s summary) supported(p float64) bool    { return supported(p, s.n()) }
func (s summary) tail() (p float64, ok bool)  { return tailPercentile(s.n()) }
func (s summary) mean() time.Duration         { return meanDuration(s.sorted) }
func meanDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

// median of float64 values (not modified).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
