package main

import (
	"math"
	"sort"

	"sand/internal/metrics"
	"sand/internal/obs"
)

// median and p90 are metrics.Summarize's interpolated order statistics;
// 0 for an empty sample.
func median(xs []float64) float64 { return metrics.Summarize(xs).P50 }

func p90(xs []float64) float64 { return metrics.Summarize(xs).P90 }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spreads
// the suite prints are the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		v := median(xs)
		return v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// minBatches is the least a timed window holds: the reported tail is p90,
// and a tail percentile means something only with ten observations beyond
// it (choosing-metrics guide, §1). A window is --seconds long, and longer
// on a box too slow to read this many batches in that time.
const minBatches = 100

// snapshot is one reading of a node's obs registry: every counter,
// gauge and snapshot value by name, and every histogram's buckets.
type snapshot struct {
	vals  map[string]float64
	hists map[string]obs.HistSnapshot
}

func takeSnapshot(reg *obs.Registry) snapshot {
	s := snapshot{vals: map[string]float64{}, hists: map[string]obs.HistSnapshot{}}
	for _, sm := range reg.Gather() {
		if sm.Kind == "histogram" {
			s.hists[sm.Name] = *sm.Hist
		} else {
			s.vals[sm.Name] = sm.Value
		}
	}
	return s
}

// window accumulates counter and histogram deltas over one or more timed
// intervals on one or more registries: add(before, after) folds in
// after-before, so fresh-boot reps and multi-node fleets sum into one
// set. Gauges are not meaningful here; read them from a snapshot.
type window struct {
	vals  map[string]float64
	hists map[string]*obs.HistSnapshot
}

func newWindow() *window {
	return &window{vals: map[string]float64{}, hists: map[string]*obs.HistSnapshot{}}
}

func (w *window) add(before, after snapshot) {
	for name, v := range after.vals {
		w.vals[name] += v - before.vals[name]
	}
	for name, a := range after.hists {
		b := before.hists[name] // zero value when the histogram is new
		h := w.hists[name]
		if h == nil {
			h = &obs.HistSnapshot{Min: math.MaxInt64}
			w.hists[name] = h
		}
		for i := range a.Counts {
			h.Counts[i] += a.Counts[i] - b.Counts[i]
		}
		h.Count += a.Count - b.Count
		h.Sum += a.Sum - b.Sum
		// Min/Max cannot be windowed from cumulative snapshots; the
		// lifetime extremes only clamp Quantile's bucket midpoints.
		if a.Min < h.Min {
			h.Min = a.Min
		}
		if a.Max > h.Max {
			h.Max = a.Max
		}
	}
}

func (w *window) get(name string) float64 { return w.vals[name] }

// histMS returns the windowed q-quantile of a nanosecond histogram in
// milliseconds (0 when the window saw no observations).
func (w *window) histMS(name string, q float64) float64 {
	h := w.hists[name]
	if h == nil || h.Count == 0 {
		return 0
	}
	return h.Quantile(q) / 1e6
}

func (w *window) histSum(name string) float64 {
	if h := w.hists[name]; h != nil {
		return float64(h.Sum)
	}
	return 0
}

// ratio returns a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// div returns a/b, 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
