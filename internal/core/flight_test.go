package core

import (
	"strings"
	"testing"
	"time"

	"sand/internal/config"
	"sand/internal/obs"
	"sand/internal/sched"
)

// flightService builds a one-task service over the mini corpus with the
// given pool size, look-ahead and demand SLO.
func flightService(t *testing.T, reg *obs.Registry, videos, workers, lookahead int, slo time.Duration) *Service {
	t.Helper()
	s, err := New(Options{
		Tasks:       []*config.Task{miniTask(t, "train")},
		Dataset:     miniDataset(t, videos),
		ChunkEpochs: 2,
		TotalEpochs: 4,
		MemBudget:   64 << 20,
		Workers:     workers,
		Lookahead:   lookahead,
		Coordinate:  true,
		Seed:        5,
		DemandSLO:   slo,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// holdWorker occupies one pool worker with a demand task until the
// returned function is called.
func holdWorker(t *testing.T, s *Service) func() {
	t.Helper()
	started, release := make(chan struct{}), make(chan struct{})
	if err := s.pool.Submit(&sched.Task{Key: "hold", Kind: sched.Demand, Run: func() error {
		close(started)
		<-release
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	return func() { close(release) }
}

// waitMetric polls a counter until it reaches want.
func waitMetric(t *testing.T, s *Service, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, s, name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, metric(t, s, name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightBuildsEachBatchOnce sends one demand read into a queued
// premat task and one into a running premat build. The first promotes
// the task, the second joins the build, and every batch key is built
// exactly once: one core.batch span per key. (Counting sched runs would
// not show it: a task that finds its batch built still counts as a run.)
func TestFlightBuildsEachBatchOnce(t *testing.T) {
	reg := obs.New()
	reg.Trace().Enable()
	s := flightService(t, reg, 8, 1, 2, 0)
	queued, running := iterationKey{"train", 0, 2}, iterationKey{"train", 0, 1}
	buildRunning, finishBuild := make(chan struct{}), make(chan struct{})
	s.buildStarted = func(k iterationKey) {
		if k == running {
			close(buildRunning)
			<-finishBuild
		}
	}
	read := func(key iterationKey) <-chan error {
		errc := make(chan error, 1)
		go func() {
			data, err := s.ensureBatch(key)
			if err == nil {
				_, err = DecodeBatch(data)
			}
			errc <- err
		}()
		return errc
	}

	// Premat for iterations 1 and 2 queues behind the held worker; a
	// demand read of 2 promotes its task.
	release := holdWorker(t, s)
	s.schedulePremat(iterationKey{"train", 0, 0})
	queuedRead := read(queued)
	waitMetric(t, s, "sched.promotions", 1)
	release()
	if err := <-queuedRead; err != nil {
		t.Fatal(err)
	}

	// Iteration 1's premat build runs next and holds in buildStarted; a
	// demand read of 1 joins it.
	<-buildRunning
	runningRead := read(running)
	waitMetric(t, s, "core.flight_joins", 1)
	close(finishBuild)
	if err := <-runningRead; err != nil {
		t.Fatal(err)
	}
	waitPoolIdle(t, s)

	builds := map[string]int{}
	for _, e := range reg.Trace().Events() {
		if e.Kind() == "core.batch" {
			_, key, _ := strings.Cut(e.Arg, " ")
			builds[key]++
		}
	}
	for _, k := range []iterationKey{running, queued} {
		if n := builds[batchKey(k.task, k.epoch, k.iter)]; n != 1 {
			t.Errorf("%v built %d times, want 1", k, n)
		}
	}
	for key, n := range builds {
		if n != 1 {
			t.Errorf("%s built %d times, want 1", key, n)
		}
	}
	if got := metric(t, s, "sched.promotions"); got != 1 {
		t.Errorf("promotions = %d, want 1", got)
	}
	if got := metric(t, s, "core.flight_joins"); got != 1 {
		t.Errorf("flight joins = %d, want 1", got)
	}
}

// TestFlightShedPrematIsResubmitted engages admission control while
// premat tasks are queued, lets it shed them, releases it, and checks
// that the next planning point submits the shed iterations again and
// builds them.
func TestFlightShedPrematIsResubmitted(t *testing.T) {
	const slo = 50 * time.Millisecond
	s := flightService(t, obs.New(), 4, 1, 4, slo)
	origin := iterationKey{"train", 0, 0}
	ahead := []iterationKey{{"train", 0, 1}, {"train", 1, 0}, {"train", 1, 1}, {"train", 2, 0}}

	// Four premat tasks queue behind the held worker, then demand tasks
	// queue behind them long enough to breach the SLO: the gate engages
	// and sheds every premat task but the earliest-deadline one.
	release := holdWorker(t, s)
	s.schedulePremat(origin)
	for i := 0; i < 10; i++ {
		if err := s.pool.Submit(&sched.Task{Key: "slow", Kind: sched.Demand, Run: func() error { return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * slo)
	release()
	waitMetric(t, s, "sched.admission_engages", 1)
	if got, want := metric(t, s, "sched.admission_shed"), int64(len(ahead)-1); got != want {
		t.Fatalf("admission shed = %d, want %d", got, want)
	}

	// Fast demand tasks refill the wait window until the gate releases.
	deadline := time.Now().Add(30 * time.Second)
	for metric(t, s, "sched.admission_releases") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission control never released")
		}
		done := make(chan struct{})
		if err := s.pool.Submit(&sched.Task{Key: "fast", Kind: sched.Demand, Run: func() error { close(done); return nil }}); err != nil {
			t.Fatal(err)
		}
		<-done
	}

	s.schedulePremat(origin)
	waitPoolIdle(t, s)
	for _, k := range ahead {
		if _, _, err := s.peekBatch(k); err != nil {
			t.Errorf("%v was never built after its premat was shed: %v", k, err)
		}
	}
}
