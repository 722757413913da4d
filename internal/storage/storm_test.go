package storage

import (
	"fmt"
	"sync"
	"testing"
)

func TestEvictStormFiresHook(t *testing.T) {
	var mu sync.Mutex
	var reasons []string
	s, err := Open(Options{
		MemBudget: 1000, // watermark 750
		OnEvictStorm: func(reason string) {
			mu.Lock()
			reasons = append(reasons, reason)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every Put past the second crosses the watermark and runs an
	// evicting pass; stormPasses of them land well inside stormWindow.
	for i := 0; i < 4*stormPasses; i++ {
		if err := s.Put(obj(fmt.Sprintf("/o%d", i), 400, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reasons) == 0 {
		t.Fatal("storm hook never fired")
	}
	// The cooldown keeps one storm from firing the hook per pass.
	if len(reasons) != 1 {
		t.Fatalf("hook fired %d times inside the cooldown, want 1", len(reasons))
	}
	if reasons[0] == "" {
		t.Fatal("storm reason is empty")
	}
	if got := s.Stats().EvictStorms; got != 1 {
		t.Fatalf("Stats().EvictStorms = %d, want 1", got)
	}
}

func TestNoStormBelowThreshold(t *testing.T) {
	fired := false
	s, err := Open(Options{
		MemBudget:    1000,
		OnEvictStorm: func(string) { fired = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fewer evicting passes than stormPasses: no storm.
	for i := 0; i < stormPasses-1; i++ {
		if err := s.Put(obj(fmt.Sprintf("/o%d", i), 400, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if fired {
		t.Fatal("storm hook fired below the pass threshold")
	}
	if got := s.Stats().EvictStorms; got != 0 {
		t.Fatalf("Stats().EvictStorms = %d, want 0", got)
	}
}
