package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sand/internal/obs"
)

// gatedPool returns a pool whose workers are all held by one blocking
// demand task each, and the function that releases them.
func gatedPool(t *testing.T, opts Options) (*Pool, func()) {
	t.Helper()
	p, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Abort)
	block := make(chan struct{})
	var started sync.WaitGroup
	for i := 0; i < opts.Workers; i++ {
		started.Add(1)
		if err := p.Submit(&Task{Key: "gate", Kind: Demand, Run: func() error {
			started.Done()
			<-block
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	started.Wait()
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	t.Cleanup(release) // runs before Abort, which waits for the workers
	return p, release
}

// TestPromoteRunsBeforePrematOnce promotes the last of three queued
// premat tasks: it runs first, exactly once, as a demand task, and the
// queue depth does not move.
func TestPromoteRunsBeforePrematOnce(t *testing.T) {
	p, release := gatedPool(t, Options{Workers: 1})
	var mu sync.Mutex
	var order []string
	for i, key := range []string{"a", "b", "c"} {
		key := key
		if err := p.Submit(&Task{Key: key, Kind: Premat, Deadline: int64(i), Run: func() error {
			mu.Lock()
			order = append(order, key)
			mu.Unlock()
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Promote("c") {
		t.Fatal("Promote of a queued premat task returned false")
	}
	if d := p.QueueDepth(); d != 3 {
		t.Fatalf("queue depth after Promote = %d, want 3", d)
	}
	release()
	p.Close()
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"c", "a", "b"}; len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("run order %v, want %v", order, want)
	}
	st := counts(p)
	if st.promotions != 1 || st.demandRuns != 2 || st.prematRuns != 2 || st.completed != 4 {
		t.Fatalf("counters %+v, want 1 promotion, 2 demand runs (gate, c), 2 premat runs, 4 completed", st)
	}
}

// TestPromoteDemandWaitStartsAtPromotion: a premat task that queued for
// a long time and is then promoted adds only its post-promotion wait to
// the demand-wait histogram that admission control reads.
func TestPromoteDemandWaitStartsAtPromotion(t *testing.T) {
	const queuedFor = 100 * time.Millisecond
	p, release := gatedPool(t, Options{Workers: 1, Obs: obs.New()})
	ran := make(chan struct{})
	if err := p.Submit(&Task{Key: "pm", Kind: Premat, Run: func() error { close(ran); return nil }}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(queuedFor)
	if !p.Promote("pm") {
		t.Fatal("Promote returned false")
	}
	release()
	<-ran
	snap := p.histDemand.Snapshot()
	if snap.Count != 2 {
		t.Fatalf("demand wait samples = %d, want 2 (gate, promoted task)", snap.Count)
	}
	if max := time.Duration(snap.Max); max >= queuedFor {
		t.Fatalf("max demand wait %v includes the %v spent queued as premat", max, queuedFor)
	}
}

// TestPromoteRefusesRunningShedUnknown: Promote only moves a task that
// is queued as premat.
func TestPromoteRefusesRunningShedUnknown(t *testing.T) {
	p, err := NewPool(Options{Workers: 1, AdmissionSLO: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Abort()
	block := make(chan struct{})
	defer close(block) // before Abort, which waits for the workers
	started := make(chan struct{})
	if err := p.Submit(&Task{Key: "running", Kind: Premat, Run: func() error {
		close(started)
		<-block
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	for _, key := range []string{"kept", "shed"} {
		if err := p.Submit(&Task{Key: key, Kind: Premat, Deadline: int64(len(key)), Run: func() error { return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	// Engage admission control: it keeps one premat task per worker (the
	// earliest deadline, "kept") and sheds the rest.
	feed(p, admMinSamples, 10*time.Millisecond)
	if got := counts(p).admissionShed; got != 1 {
		t.Fatalf("admission shed = %d, want 1", got)
	}
	for _, key := range []string{"running", "shed", "unknown"} {
		if p.Promote(key) {
			t.Errorf("Promote(%q) = true, want false", key)
		}
	}
	if !p.Promote("kept") {
		t.Fatal("Promote(\"kept\") = false for a queued task")
	}
	if p.Promote("kept") {
		t.Fatal("a second Promote of the same task returned true")
	}
	if got := counts(p).promotions; got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
}

// TestPromoteShedReportedThroughOnError: a premat task shed by admission
// control is handed to OnError with ErrAdmission and never runs.
func TestPromoteShedReportedThroughOnError(t *testing.T) {
	var reported sync.Map
	p, err := NewPool(Options{
		Workers:      1,
		AdmissionSLO: time.Millisecond,
		OnError:      func(t *Task, err error) { reported.Store(t.Key, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Abort()
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(&Task{Key: "gate", Kind: Demand, Run: func() error {
		close(started)
		<-block
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	var ranShed atomic.Bool
	for i, key := range []string{"kept", "shed"} {
		key := key
		if err := p.Submit(&Task{Key: key, Kind: Premat, Deadline: int64(i), Run: func() error {
			if key == "shed" {
				ranShed.Store(true)
			}
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// Age queued demand tasks past the SLO so a real dequeue engages
	// the gate and reports the shed.
	for i := 0; i < admMinSamples; i++ {
		if err := p.Submit(&Task{Key: "d", Kind: Demand, Run: func() error { return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	close(block)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := reported.Load("shed"); ok {
			if v != ErrAdmission {
				t.Fatalf("shed task reported with %v, want ErrAdmission", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the shed task was never reported to OnError")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := reported.Load("kept"); ok {
		t.Fatal("the surviving premat task was reported as shed")
	}
	p.Close()
	if ranShed.Load() {
		t.Fatal("the shed task ran")
	}
}

// TestDispatchLeavesWorkerFreeForDemand checks the dispatch rule at 1, 2
// and 8 workers: while a demand task runs, premat never takes the last
// free worker, so a second demand task starts at once; with no demand
// running, premat fills every worker.
func TestDispatchLeavesWorkerFreeForDemand(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p, err := NewPool(Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Abort()
			// Release every blocked task before Abort waits for the
			// workers, so a failing check cannot hang the test.
			block, demandDone := make(chan struct{}), make(chan struct{})
			var releaseBlock, releaseDemand sync.Once
			defer releaseBlock.Do(func() { close(block) })
			defer releaseDemand.Do(func() { close(demandDone) })
			var prematRunning, prematMax atomic.Int64
			prematStarted := make(chan struct{}, 4*workers)
			submitPremat := func(n int) {
				for i := 0; i < n; i++ {
					if err := p.Submit(&Task{Key: "pm", Kind: Premat, Run: func() error {
						n := prematRunning.Add(1)
						for {
							m := prematMax.Load()
							if n <= m || prematMax.CompareAndSwap(m, n) {
								break
							}
						}
						prematStarted <- struct{}{}
						<-block
						prematRunning.Add(-1)
						return nil
					}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			waitStarted := func(n int) {
				for i := 0; i < n; i++ {
					select {
					case <-prematStarted:
					case <-time.After(5 * time.Second):
						t.Fatalf("%d of %d premat tasks started", i, n)
					}
				}
			}

			// Demand running: premat may use all but one free worker.
			demandStarted := make(chan struct{})
			if err := p.Submit(&Task{Key: "d1", Kind: Demand, Run: func() error {
				close(demandStarted)
				<-demandDone
				return nil
			}}); err != nil {
				t.Fatal(err)
			}
			<-demandStarted
			submitPremat(2 * workers)
			allowed := workers - 2
			if allowed < 0 {
				allowed = 0
			}
			waitStarted(allowed)
			time.Sleep(20 * time.Millisecond) // room for a violation to show
			if got := prematMax.Load(); got != int64(allowed) {
				t.Fatalf("%d premat tasks ran beside a demand task on %d workers, want %d", got, workers, allowed)
			}
			if workers >= 2 {
				second := make(chan struct{})
				if err := p.Submit(&Task{Key: "d2", Kind: Demand, Run: func() error { close(second); return nil }}); err != nil {
					t.Fatal(err)
				}
				select {
				case <-second:
				case <-time.After(5 * time.Second):
					t.Fatal("a second demand task found no free worker")
				}
			}

			// No demand running: premat fills every worker.
			releaseDemand.Do(func() { close(demandDone) })
			waitStarted(workers - allowed)
			if got := prematRunning.Load(); got != int64(workers) {
				t.Fatalf("%d premat tasks running with no demand, want all %d workers", got, workers)
			}
			releaseBlock.Do(func() { close(block) })
			p.Close()
		})
	}
}
