package sched

import (
	"errors"
	"testing"
	"time"
)

// admPool builds a 1-worker pool with a 1ms SLO (so a 0.7ms release
// threshold), suitable for driving the gate via noteDemandWaitLocked.
func admPool(t *testing.T) *Pool {
	t.Helper()
	p, err := NewPool(Options{Workers: 1, AdmissionSLO: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Abort)
	return p
}

// engaged reports whether the admission gate is closed.
func engaged(p *Pool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.admEngaged
}

// feed pushes n identical demand-wait samples through the gate logic.
func feed(p *Pool, n int, wait time.Duration) {
	for i := 0; i < n; i++ {
		p.mu.Lock()
		p.noteDemandWaitLocked(wait.Nanoseconds())
		p.mu.Unlock()
	}
}

func TestAdmissionEngageAndRelease(t *testing.T) {
	p := admPool(t)

	// Below the minimum sample count nothing moves, however bad the waits.
	feed(p, admMinSamples-1, 10*time.Millisecond)
	if engaged(p) {
		t.Fatal("gate engaged before admMinSamples")
	}

	// One more bad sample crosses the threshold.
	feed(p, 1, 10*time.Millisecond)
	if st := counts(p); !engaged(p) || st.admissionEngages != 1 {
		t.Fatalf("after %d bad samples: %+v, want engaged once", admMinSamples, st)
	}

	// Engaged gate rejects premat but keeps admitting demand.
	err := p.Submit(&Task{Key: "pm", Kind: Premat, Run: func() error { return nil }})
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("premat submit error = %v, want ErrAdmission", err)
	}
	if got := counts(p).admissionRejected; got != 1 {
		t.Fatalf("admission rejected = %d, want 1", got)
	}
	done := make(chan struct{})
	if err := p.Submit(&Task{Key: "d", Kind: Demand, Run: func() error { close(done); return nil }}); err != nil {
		t.Fatalf("demand submit while engaged: %v", err)
	}
	<-done

	// Flushing the window with healthy waits releases the gate: p99 of
	// the ring falls below the release threshold once every bad sample
	// has been overwritten.
	feed(p, admWindowSize+admDwell, 100*time.Microsecond)
	if st := counts(p); engaged(p) || st.admissionReleases != 1 {
		t.Fatalf("after recovery: %+v, want released once", st)
	}
	if err := p.Submit(&Task{Key: "pm2", Kind: Premat, Run: func() error { return nil }}); err != nil {
		t.Fatalf("premat submit after release: %v", err)
	}
}

func TestAdmissionHysteresisNoFlapping(t *testing.T) {
	p := admPool(t)
	feed(p, admMinSamples, 10*time.Millisecond)
	if !engaged(p) {
		t.Fatal("gate did not engage")
	}
	// Waits inside the hysteresis band (below the 1ms SLO, above the
	// 0.7ms release threshold) must leave the gate exactly where it is,
	// even after the window has fully turned over.
	feed(p, 3*admWindowSize, 850*time.Microsecond)
	if !engaged(p) {
		t.Fatal("gate released inside the hysteresis band")
	}
	if st := counts(p); st.admissionEngages != 1 || st.admissionReleases != 0 {
		t.Fatalf("gate flapped: %+v", st)
	}
	// Just under the release threshold, the gate opens once the window
	// has turned over.
	feed(p, admWindowSize, 650*time.Microsecond)
	if st := counts(p); engaged(p) || st.admissionReleases != 1 {
		t.Fatalf("below the release threshold: %+v, want released once", st)
	}
}

func TestAdmissionDisabledByDefault(t *testing.T) {
	p, err := NewPool(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Abort()
	feed(p, 10*admWindowSize, time.Hour)
	if st := counts(p); engaged(p) || st.admissionEngages != 0 {
		t.Fatalf("gate moved with SLO unset: %+v", st)
	}
}

func TestAdmissionShedsPrematTail(t *testing.T) {
	p := admPool(t)

	// Pin the single worker so premat tasks pile up in the heaps.
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(&Task{Key: "blocker", Kind: Demand, Run: func() error {
		close(started)
		<-block
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started

	const queued = 10
	ran := make(chan string, queued)
	for i := 0; i < queued; i++ {
		key := string(rune('a' + i))
		if err := p.Submit(&Task{
			Key: key, Kind: Premat, Deadline: int64(i), Remaining: 1,
			Run: func() error { ran <- key; return nil },
		}); err != nil {
			t.Fatal(err)
		}
	}

	feed(p, admMinSamples, 10*time.Millisecond)
	if !engaged(p) {
		t.Fatal("gate did not engage")
	}
	// One survivor per worker (earliest deadline), the rest shed.
	if got, want := counts(p).admissionShed, int64(queued-1); got != want {
		t.Fatalf("admission shed = %d, want %d", got, want)
	}
	if depth := p.QueueDepth(); depth != 1 {
		t.Fatalf("queue depth after shed = %d, want 1 survivor", depth)
	}

	close(block)
	p.Close()
	close(ran)
	var survivors []string
	for k := range ran {
		survivors = append(survivors, k)
	}
	if len(survivors) != 1 || survivors[0] != "a" {
		t.Fatalf("ran %v, want only the earliest-deadline survivor \"a\"", survivors)
	}
}

func TestAdmissionBreachCallbackFires(t *testing.T) {
	breach := make(chan string, 1)
	p, err := NewPool(Options{
		Workers:      1,
		AdmissionSLO: time.Millisecond,
		OnSLOBreach: func(reason string) {
			select {
			case breach <- reason:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Abort()

	// Pin the worker, queue demand tasks, and let them age past the SLO
	// so the dequeue path itself detects the breach.
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(&Task{Key: "blocker", Kind: Demand, Run: func() error {
		close(started)
		<-block
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < admMinSamples+2; i++ {
		if err := p.Submit(&Task{Key: "d", Kind: Demand, Run: func() error { return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond) // queued waits now exceed the 1ms SLO
	close(block)

	select {
	case reason := <-breach:
		if reason == "" {
			t.Fatal("breach callback fired with empty reason")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("breach callback never fired")
	}
}
