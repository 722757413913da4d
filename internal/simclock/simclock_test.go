package simclock

import (
	"math"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(2.0, func() { order = append(order, 2) })
	s.At(1.0, func() { order = append(order, 1) })
	s.At(3.0, func() { order = append(order, 3) })
	s.At(1.0, func() { order = append(order, 11) }) // same time: insertion order
	s.Run()
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if s.Now() != 3.0 {
		t.Fatalf("final time %v", s.Now())
	}
	if s.Steps != 4 {
		t.Fatalf("steps %d", s.Steps)
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New()
	var times []float64
	s.After(1, func() {
		times = append(times, s.Now())
		s.After(0.5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 1.5 {
		t.Fatalf("times %v", times)
	}
}

func TestSchedulingPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestResourceSingleSlot(t *testing.T) {
	s := New()
	r := NewResource(s, "gpu", 1, FIFO)
	var done []float64
	for i := 0; i < 3; i++ {
		r.Submit(Job{Name: "j", Work: 2, OnDone: func() { done = append(done, s.Now()) }})
	}
	s.Run()
	want := []float64{2, 4, 6}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
	if r.BusyTime() != 6 {
		t.Fatalf("busy=%v", r.BusyTime())
	}
	if u := r.Utilization(); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("utilization %v, want 1", u)
	}
}

func TestResourceMultiSlot(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu", 4, FIFO)
	var last float64
	for i := 0; i < 8; i++ {
		r.Submit(Job{Work: 1, OnDone: func() { last = s.Now() }})
	}
	s.Run()
	// 8 unit jobs on 4 slots: two waves, finish at t=2.
	if last != 2 {
		t.Fatalf("finished at %v, want 2", last)
	}
	if u := r.Utilization(); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("utilization %v", u)
	}
}

func TestResourcePartialUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu", 2, FIFO)
	r.Submit(Job{Work: 1})
	s.At(4, func() {}) // extend the horizon to t=4
	s.Run()
	// 1 slot-second of work over 4 seconds on 2 slots = 1/8.
	if u := r.Utilization(); math.Abs(u-0.125) > 1e-9 {
		t.Fatalf("utilization %v, want 0.125", u)
	}
}

func TestFIFOOrder(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu", 1, FIFO)
	var order []string
	mk := func(name string) Job {
		return Job{Name: name, Work: 1, Class: 9, Priority: -5, OnDone: func() { order = append(order, name) }}
	}
	// Class/priority must be ignored under FIFO.
	r.Submit(mk("a"))
	b := mk("b")
	b.Class = 0
	r.Submit(b)
	r.Submit(mk("c"))
	s.Run()
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("FIFO order %v", order)
	}
}

func TestPriorityOrder(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu", 1, PriorityOrder)
	var order []string
	submit := func(name string, class int, prio float64) {
		r.Submit(Job{Name: name, Work: 1, Class: class, Priority: prio,
			OnDone: func() { order = append(order, name) }})
	}
	// First job seizes the slot immediately; the rest queue and must be
	// served by (class, priority).
	submit("first", 5, 0)
	submit("premat-late", 1, 9)
	submit("premat-urgent", 1, 1)
	submit("demand", 0, 0)
	s.Run()
	want := []string{"first", "demand", "premat-urgent", "premat-late"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order %v, want %v", order, want)
		}
	}
}

func TestZeroWorkJob(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu", 1, FIFO)
	done := false
	r.Submit(Job{Work: 0, OnDone: func() { done = true }})
	s.Run()
	if !done || s.Now() != 0 {
		t.Fatalf("zero-work job: done=%v now=%v", done, s.Now())
	}
}

func TestInvalidJobPanics(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu", 1, FIFO)
	defer func() {
		if recover() == nil {
			t.Fatal("negative work did not panic")
		}
	}()
	r.Submit(Job{Work: -1})
}

func TestLinkTransfers(t *testing.T) {
	s := New()
	l := NewLink(s, "wan", 100) // 100 B/s
	var done []float64
	l.Transfer(200, func() { done = append(done, s.Now()) })
	l.Transfer(100, func() { done = append(done, s.Now()) })
	s.Run()
	if len(done) != 2 || done[0] != 2 || done[1] != 3 {
		t.Fatalf("transfer completions %v", done)
	}
	if l.Transferred != 300 {
		t.Fatalf("transferred %v", l.Transferred)
	}
	if u := l.Utilization(); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("link utilization %v", u)
	}
}

func TestPipelineOverlapModel(t *testing.T) {
	// Sanity-check the core modeling assumption used by trainsim: with a
	// GPU step of 1s and preprocessing of 3 slot-seconds per batch on a
	// 1-slot CPU, a pipelined loop converges to ~3s per iteration
	// (preprocessing-bound) and GPU utilization ~1/3.
	s := New()
	cpu := NewResource(s, "cpu", 1, FIFO)
	gpu := NewResource(s, "gpu", 1, FIFO)
	const iters = 20
	var finished float64
	var gpuStep func(i int)
	prepDone := make([]bool, iters+1)
	gpuWaiting := make([]bool, iters+1)
	prep := func(i int) {
		cpu.Submit(Job{Work: 3, OnDone: func() {
			prepDone[i] = true
			if gpuWaiting[i] {
				gpuStep(i)
			}
		}})
	}
	gpuStep = func(i int) {
		gpu.Submit(Job{Work: 1, OnDone: func() {
			finished = s.Now()
			if i+1 < iters {
				if prepDone[i+1] {
					gpuStep(i + 1)
				} else {
					gpuWaiting[i+1] = true
				}
			}
		}})
	}
	for i := 0; i < iters; i++ {
		prep(i)
	}
	gpuWaiting[0] = true
	if prepDone[0] {
		gpuStep(0)
	}
	s.Run()
	perIter := finished / iters
	if perIter < 2.9 || perIter > 3.3 {
		t.Fatalf("pipelined iteration time %v, want ~3", perIter)
	}
	if u := gpu.Utilization(); u < 0.28 || u > 0.37 {
		t.Fatalf("gpu utilization %v, want ~1/3", u)
	}
}
