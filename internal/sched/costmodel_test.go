package sched

import (
	"container/heap"
	"fmt"
	"testing"
)

func TestCostModelColdDeclines(t *testing.T) {
	c := NewCostModel()
	if ns, ok := c.EstimateNS("decode|crop", 10); ok || ns != 0 {
		t.Fatalf("cold model predicted %d ok=%v, want decline", ns, ok)
	}
}

func TestCostModelNilSafe(t *testing.T) {
	var c *CostModel
	c.Observe("sig", 4, 1000)
	if _, ok := c.EstimateNS("sig", 4); ok {
		t.Fatal("nil model produced an estimate")
	}
}

func TestCostModelEWMAConvergence(t *testing.T) {
	c := NewCostModel()
	// Constant 100ns/edge workload: the EWMA must converge exactly.
	for i := 0; i < 50; i++ {
		c.Observe("decode", 10, 1000) // 100 ns/edge
	}
	ns, ok := c.EstimateNS("decode", 10)
	if !ok {
		t.Fatal("trained model declined")
	}
	if ns < 900 || ns > 1100 {
		t.Fatalf("estimate = %dns for 10 edges at 100ns/edge, want ~1000", ns)
	}
	// Shift the workload 10×; the estimate must follow.
	for i := 0; i < 50; i++ {
		c.Observe("decode", 10, 10000) // 1000 ns/edge
	}
	ns, _ = c.EstimateNS("decode", 10)
	if ns < 9000 {
		t.Fatalf("estimate = %dns after shift to 1000ns/edge, want ≥9000", ns)
	}
}

func TestCostModelUnseenSignatureFallsBackToGlobal(t *testing.T) {
	c := NewCostModel()
	for i := 0; i < 20; i++ {
		c.Observe("seen", 5, 500) // 100 ns/edge
	}
	ns, ok := c.EstimateNS("never-seen", 8)
	if !ok {
		t.Fatal("global fallback declined despite observations")
	}
	if ns < 700 || ns > 900 {
		t.Fatalf("global estimate = %dns for 8 edges, want ~800", ns)
	}
}

func TestCostModelP95Guard(t *testing.T) {
	c := NewCostModel()
	// Huge samples followed by many tiny ones (spikes stay above the 5%
	// tail): the EWMA decays toward the tiny value but the p95 sketch
	// remembers the spikes, and the prediction must not drop below half
	// the p95.
	for i := 0; i < 10; i++ {
		c.Observe("spiky", 1, 1_000_000)
	}
	for i := 0; i < 90; i++ {
		c.Observe("spiky", 1, 100)
	}
	ns, _ := c.EstimateNS("spiky", 1)
	if ns < 100_000 {
		t.Fatalf("estimate = %dns, want ≥ half the observed p95 spike", ns)
	}
}

func TestCostModelSignatureCap(t *testing.T) {
	c := NewCostModel()
	for i := 0; i < costMaxSigs+100; i++ {
		c.Observe(fmt.Sprintf("sig-%d", i), 1, 100)
	}
	if n := len(c.sigs); n != costMaxSigs {
		t.Fatalf("signatures = %d, want capped at %d", n, costMaxSigs)
	}
}

func TestSJFHeapOrdersByPredictedCost(t *testing.T) {
	c := NewCostModel()
	// slow-sig runs 1000ns/edge, fast-sig 10ns/edge.
	for i := 0; i < 20; i++ {
		c.Observe("slow", 1, 1000)
		c.Observe("fast", 1, 10)
	}
	// A few edges of slow work must sort after many edges of fast work:
	// 5 slow edges ≈ 5000ns vs 50 fast edges ≈ 500ns. Edge-count SJF
	// would order these the other way around.
	mk := func(key, sig string, edges int) *Task {
		t := &Task{Key: key, Kind: Premat, Sig: sig, Remaining: edges, Run: func() error { return nil }}
		cost := int64(edges)
		if est, ok := c.EstimateNS(sig, edges); ok {
			cost = est
		}
		t.costNS = cost
		return t
	}
	h := taskHeap{sjf: true}
	heap.Push(&h, mk("slow-few-edges", "slow", 5))
	heap.Push(&h, mk("fast-many-edges", "fast", 50))
	first := h.pop()
	if first.Key != "fast-many-edges" {
		t.Fatalf("SJF popped %q first, want the cheaper-by-time task", first.Key)
	}
}

func TestSubmitSetsCostFromModel(t *testing.T) {
	c := NewCostModel()
	for i := 0; i < 20; i++ {
		c.Observe("s", 1, 1000)
	}
	p, err := NewPool(Options{Workers: 1, Cost: c})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	task := &Task{Key: "t", Kind: Demand, Sig: "s", Remaining: 3, Run: func() error { close(done); return nil }}
	if err := p.Submit(task); err != nil {
		t.Fatal(err)
	}
	<-done
	p.Close()
	if task.costNS < 2000 || task.costNS > 4500 {
		t.Fatalf("costNS = %d for 3 edges at ~1000ns/edge, want ~3000", task.costNS)
	}
}

func TestWorkerFeedsCostModel(t *testing.T) {
	p, err := NewPool(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(&Task{Key: "t", Kind: Demand, Sig: "fed", Remaining: 2, Run: func() error { return nil }}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	c := p.Cost()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.globalN != 1 || len(c.sigs) != 1 {
		t.Fatalf("cost model after one run: %d observations, %d signatures, want 1 and 1", c.globalN, len(c.sigs))
	}
}
