package sched

import (
	"sync"

	"sand/internal/obs"
)

// CostModel learns per-op-signature task run-time distributions and
// turns them into SJF cost predictions, closing the loop between the
// pool's run-time observations and its ordering decisions. Tasks carry
// an op signature (Task.Sig, shared with the engine's reuse-plan
// signatures); each signature keeps an EWMA of observed nanoseconds per
// unprocessed edge plus an HDR histogram sketch of the same quantity,
// and predictions take the larger of the EWMA and half the p95 — the
// sketch guards the smoothed estimate against a run of lucky samples.
//
// Prediction falls back in two steps: a signature never observed uses
// the global per-edge EWMA across all signatures (same units, so mixed
// queues still order consistently), and a completely cold model
// predicts nothing — the pool then orders by raw edge counts, exactly
// the pre-closed-loop behavior.
//
// All methods are safe for concurrent use and tolerate a nil receiver.
type CostModel struct {
	mu   sync.Mutex
	sigs map[string]*sigEstimate

	globalPerEdge float64 // EWMA ns/edge across every observation
	globalN       int64
}

// sigEstimate is one signature's online run-time estimator.
type sigEstimate struct {
	perEdge float64        // EWMA ns/edge
	n       int64          // observations
	hist    *obs.Histogram // per-edge ns sketch (p95 guard)
}

const (
	// costAlpha is the EWMA smoothing factor for run-time estimates.
	costAlpha = 0.2
	// costP95Frac is the fraction of the observed p95 per-edge cost the
	// prediction never drops below.
	costP95Frac = 0.5
	// costMaxSigs bounds the signature map; beyond it new signatures use
	// the global fallback instead of growing memory without bound.
	costMaxSigs = 4096
)

// NewCostModel creates an empty model.
func NewCostModel() *CostModel {
	return &CostModel{sigs: map[string]*sigEstimate{}}
}

// Observe records one completed task: its signature, the unprocessed-edge
// count it was submitted with, and its measured run time.
func (c *CostModel) Observe(sig string, edges int, runNS int64) {
	if c == nil || edges <= 0 || runNS < 0 {
		return
	}
	perEdge := float64(runNS) / float64(edges)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.globalN == 0 {
		c.globalPerEdge = perEdge
	} else {
		c.globalPerEdge += costAlpha * (perEdge - c.globalPerEdge)
	}
	c.globalN++
	if sig == "" {
		return
	}
	est, ok := c.sigs[sig]
	if !ok {
		if len(c.sigs) >= costMaxSigs {
			return
		}
		est = &sigEstimate{hist: obs.NewHistogram()}
		c.sigs[sig] = est
	}
	if est.n == 0 {
		est.perEdge = perEdge
	} else {
		est.perEdge += costAlpha * (perEdge - est.perEdge)
	}
	est.n++
	est.hist.Observe(int64(perEdge))
}

// EstimateNS predicts the run time of a task with the given signature
// and edge count. ok is false only when the model is completely cold
// (no observations yet) — callers then fall back to edge-count ordering.
func (c *CostModel) EstimateNS(sig string, edges int) (ns int64, ok bool) {
	if c == nil {
		return 0, false
	}
	if edges < 1 {
		edges = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if est, found := c.sigs[sig]; found && est.n > 0 {
		per := est.perEdge
		snap := est.hist.Snapshot()
		if p95 := snap.Quantile(0.95) * costP95Frac; p95 > per {
			per = p95
		}
		return int64(per * float64(edges)), true
	}
	if c.globalN > 0 {
		return int64(c.globalPerEdge * float64(edges)), true
	}
	return 0, false
}
