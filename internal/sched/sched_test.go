package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sand/internal/obs"
)

// counts copies the pool's counters under its lock.
func counts(p *Pool) counters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(Options{Workers: 0}); err == nil {
		t.Fatal("accepted zero workers")
	}
}

// TestSubmitValidation checks that a rejected Submit leaves no trace: no
// enqueue event and nothing queued.
func TestSubmitValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		task *Task
	}{
		{"nil task", nil},
		{"no Run", &Task{Key: "x"}},
		{"unknown kind", &Task{Key: "x", Kind: Kind(42), Run: func() error { return nil }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			reg.Trace().Enable()
			p, err := NewPool(Options{Workers: 1, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Abort()
			if err := p.Submit(tc.task); err == nil {
				t.Fatal("Submit accepted the task")
			}
			for _, e := range reg.Trace().Events() {
				if e.Kind() == "sched.enqueue" {
					t.Fatalf("rejected Submit recorded an enqueue event: %v", e)
				}
			}
			if d := p.QueueDepth(); d != 0 {
				t.Fatalf("queue depth %d after a rejected Submit, want 0", d)
			}
		})
	}
}

func TestAllTasksRun(t *testing.T) {
	p, err := NewPool(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		kind := Premat
		if i%3 == 0 {
			kind = Demand
		}
		err := p.Submit(&Task{Key: "t", Kind: kind, Deadline: int64(i), Run: func() error {
			n.Add(1)
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
	st := counts(p)
	if st.completed != 100 || st.errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.demandRuns == 0 || st.prematRuns == 0 {
		t.Fatalf("class counters empty: %+v", st)
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	p, _ := NewPool(Options{Workers: 1})
	p.Close()
	if err := p.Submit(&Task{Run: func() error { return nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v", err)
	}
	// Double close is safe.
	p.Close()
}

// TestDemandPreemptsPremat verifies the paper's core scheduling rule:
// with a single worker, a demand task submitted after many premat tasks
// must still run before the queued premat backlog.
func TestDemandPreemptsPremat(t *testing.T) {
	block := make(chan struct{})
	p, _ := NewPool(Options{Workers: 1})
	defer p.Abort()

	var order []string
	var mu sync.Mutex
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	// First task blocks the worker so the queue builds up.
	p.Submit(&Task{Key: "gate", Kind: Demand, Run: func() error { <-block; return nil }})
	for i := 0; i < 5; i++ {
		p.Submit(&Task{Key: "premat", Kind: Premat, Deadline: 1, Run: func() error { record("premat"); return nil }})
	}
	p.Submit(&Task{Key: "demand", Kind: Demand, Run: func() error { record("demand"); return nil }})
	close(block)
	p.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 6 {
		t.Fatalf("ran %d tasks", len(order))
	}
	if order[0] != "demand" {
		t.Fatalf("demand task did not preempt premat backlog: %v", order)
	}
}

// TestEDFOrdering verifies earliest-deadline-first among premat tasks.
func TestEDFOrdering(t *testing.T) {
	block := make(chan struct{})
	p, _ := NewPool(Options{Workers: 1})
	defer p.Abort()
	var order []int64
	var mu sync.Mutex
	p.Submit(&Task{Key: "gate", Kind: Demand, Run: func() error { <-block; return nil }})
	for _, d := range []int64{50, 10, 90, 30, 70} {
		d := d
		p.Submit(&Task{Key: "p", Kind: Premat, Deadline: d, Remaining: 100, Run: func() error {
			mu.Lock()
			order = append(order, d)
			mu.Unlock()
			return nil
		}})
	}
	close(block)
	p.Close()
	want := []int64{10, 30, 50, 70, 90}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("EDF order %v, want %v", order, want)
		}
	}
}

// TestSJFUnderPressure verifies the switch to shortest-job-first when
// memory pressure exceeds the threshold.
func TestSJFUnderPressure(t *testing.T) {
	var pressure atomic.Value
	pressure.Store(1.0) // above 0.8 from the start
	block := make(chan struct{})
	p, _ := NewPool(Options{
		Workers:     1,
		MemPressure: func() float64 { return pressure.Load().(float64) },
	})
	defer p.Abort()
	var order []int
	var mu sync.Mutex
	p.Submit(&Task{Key: "gate", Kind: Demand, Run: func() error { <-block; return nil }})
	// Deadlines say 90 should run last; remaining says it's shortest.
	type job struct{ deadline, remaining int }
	for _, j := range []job{{10, 500}, {50, 300}, {90, 1}} {
		j := j
		p.Submit(&Task{Key: "p", Kind: Premat, Deadline: int64(j.deadline), Remaining: j.remaining, Run: func() error {
			mu.Lock()
			order = append(order, j.remaining)
			mu.Unlock()
			return nil
		}})
	}
	close(block)
	p.Close()
	if order[0] != 1 {
		t.Fatalf("SJF did not run shortest job first: %v", order)
	}
	if counts(p).sjfDecisions == 0 {
		t.Fatal("no SJF decisions counted")
	}

	// Run history does not enter the SJF key: after demand tasks with
	// very different run times, premat tasks with equal edge counts pop
	// in submission order, not by deadline and not by how long their
	// predecessors ran.
	p2, _ := NewPool(Options{Workers: 1, MemPressure: func() float64 { return 1.0 }})
	defer p2.Abort()
	for _, d := range []time.Duration{0, 20 * time.Millisecond, time.Microsecond} {
		d := d
		ran := make(chan struct{})
		p2.Submit(&Task{Key: "d", Kind: Demand, Remaining: 4, Run: func() error {
			time.Sleep(d)
			close(ran)
			return nil
		}})
		<-ran
	}
	block = make(chan struct{})
	p2.Submit(&Task{Key: "gate", Kind: Demand, Run: func() error { <-block; return nil }})
	var fifo []int
	for i := 0; i < 5; i++ {
		i := i
		p2.Submit(&Task{Key: "p", Kind: Premat, Deadline: int64(10 - i), Remaining: 4, Run: func() error {
			mu.Lock()
			fifo = append(fifo, i)
			mu.Unlock()
			return nil
		}})
	}
	close(block)
	p2.Close()
	mu.Lock()
	defer mu.Unlock()
	for i, got := range fifo {
		if got != i {
			t.Fatalf("equal-edge SJF order %v, want submission order", fifo)
		}
	}
	if len(fifo) != 5 || counts(p2).sjfDecisions != 5 {
		t.Fatalf("ran %v with %d SJF decisions, want 5 of each", fifo, counts(p2).sjfDecisions)
	}
}

// TestPolicySwitchesDynamically drives pressure above and below the
// threshold and checks both policies fire.
func TestPolicySwitchesDynamically(t *testing.T) {
	var pressure atomic.Value
	pressure.Store(0.0)
	gate := make(chan struct{})
	p, _ := NewPool(Options{
		Workers:     1,
		MemPressure: func() float64 { return pressure.Load().(float64) },
	})
	defer p.Abort()
	p.Submit(&Task{Key: "gate", Kind: Demand, Run: func() error { <-gate; return nil }})
	for i := 0; i < 10; i++ {
		p.Submit(&Task{Key: "a", Kind: Premat, Deadline: int64(i), Remaining: 10 - i, Run: func() error {
			time.Sleep(time.Millisecond)
			return nil
		}})
	}
	close(gate)
	// Flip pressure mid-drain.
	time.Sleep(3 * time.Millisecond)
	pressure.Store(0.95)
	p.Close()
	st := counts(p)
	if st.sjfDecisions == st.prematRuns {
		t.Fatalf("no EDF decisions despite low-pressure start: %+v", st)
	}
	if st.sjfDecisions == 0 {
		t.Skipf("timing did not exercise SJF in this run: %+v", st)
	}
}

func TestErrorsCountedAndReported(t *testing.T) {
	var reported atomic.Int64
	p, _ := NewPool(Options{
		Workers: 2,
		OnError: func(_ *Task, err error) {
			if err != nil {
				reported.Add(1)
			}
		},
	})
	boom := errors.New("boom")
	for i := 0; i < 10; i++ {
		fail := i%2 == 0
		p.Submit(&Task{Key: "e", Kind: Premat, Run: func() error {
			if fail {
				return boom
			}
			return nil
		}})
	}
	p.Close()
	if n := counts(p).errors; n != 5 || reported.Load() != 5 {
		t.Fatalf("errors=%d reported=%d, want 5", n, reported.Load())
	}
}

func TestAbortDiscardsQueue(t *testing.T) {
	block := make(chan struct{})
	p, _ := NewPool(Options{Workers: 1})
	var ran atomic.Int64
	p.Submit(&Task{Key: "gate", Kind: Demand, Run: func() error { <-block; return nil }})
	for i := 0; i < 20; i++ {
		p.Submit(&Task{Key: "x", Kind: Premat, Run: func() error { ran.Add(1); return nil }})
	}
	close(block)
	p.Abort()
	if ran.Load() == 20 {
		t.Fatal("Abort drained the whole queue")
	}
	if p.QueueDepth() != 0 {
		t.Fatal("queue not cleared")
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	p, _ := NewPool(Options{Workers: 8})
	var n atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Submit(&Task{Key: "c", Kind: Kind(i % 2), Deadline: int64(i), Remaining: i, Run: func() error {
					n.Add(1)
					return nil
				}})
			}
		}(g)
	}
	wg.Wait()
	p.Close()
	if n.Load() != 400 {
		t.Fatalf("ran %d, want 400", n.Load())
	}
}

func TestQueueDepthCountsQueuedTasks(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	p, _ := NewPool(Options{Workers: 1})
	p.Submit(&Task{Key: "gate", Kind: Demand, Run: func() error { close(started); <-block; return nil }})
	<-started // ensure the gate is running, not queued
	for i := 0; i < 30; i++ {
		p.Submit(&Task{Key: "q", Kind: Premat, Run: func() error { return nil }})
	}
	depth := p.QueueDepth()
	if depth != 30 {
		t.Fatalf("queue depth %d, want 30", depth)
	}
	close(block)
	p.Close()
	if depth := p.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth %d after Close, want 0", depth)
	}
}

// TestModeSwitchEventEmitted forces a deterministic EDF->SJF crossing
// and checks both the stats counter and the trace event record it.
func TestModeSwitchEventEmitted(t *testing.T) {
	reg := obs.New()
	reg.Trace().Enable()
	var pressure atomic.Value
	pressure.Store(0.0)
	gate := make(chan struct{})
	p, _ := NewPool(Options{
		Workers:     1,
		MemPressure: func() float64 { return pressure.Load().(float64) },
		Obs:         reg,
	})
	defer p.Abort()
	p.Submit(&Task{Key: "gate", Kind: Demand, Run: func() error { <-gate; return nil }})
	for i := 0; i < 3; i++ {
		p.Submit(&Task{Key: "p", Kind: Premat, Deadline: int64(i), Remaining: i, Run: func() error { return nil }})
	}
	// Cross the threshold while the queue is non-empty, then let the
	// worker drain: the next dequeue must observe the switch.
	pressure.Store(0.95)
	close(gate)
	p.Close()
	if st := counts(p); st.modeSwitches == 0 {
		t.Fatalf("no mode switches counted: %+v", st)
	}
	found := false
	for _, e := range reg.Trace().Events() {
		if e.Kind() == "sched.mode_switch" && e.Arg == "edf->sjf" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sched.mode_switch edf->sjf event in trace: %v", reg.Trace().Events())
	}
}
