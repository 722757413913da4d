package viewserver

import (
	"math/rand/v2"
	"testing"
	"time"
)

func TestBackoffDelayExponentialBase(t *testing.T) {
	base := 50 * time.Millisecond
	for attempt, want := range map[int]time.Duration{
		1: 50 * time.Millisecond,
		2: 100 * time.Millisecond,
		3: 200 * time.Millisecond,
	} {
		if got := backoffDelay(base, attempt, 0, 0.9); got != want {
			t.Fatalf("attempt %d with jitter off: %v, want %v", attempt, got, want)
		}
	}
}

func TestBackoffDelayJitterBounds(t *testing.T) {
	base := 100 * time.Millisecond
	const jitter = 0.5
	// Extremes of the uniform variate pin the spread interval.
	if got := backoffDelay(base, 1, jitter, 0); got != 50*time.Millisecond {
		t.Fatalf("u=0: %v, want 50ms", got)
	}
	if got := backoffDelay(base, 1, jitter, 0.5); got != 100*time.Millisecond {
		t.Fatalf("u=0.5: %v, want 100ms", got)
	}
	lo, hi := 50*time.Millisecond, 150*time.Millisecond
	seen := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		d := backoffDelay(base, 1, jitter, rand.Float64())
		if d < lo || d >= hi {
			t.Fatalf("jittered delay %v outside [%v, %v)", d, lo, hi)
		}
		seen[d/time.Millisecond*time.Millisecond] = true
	}
	// The whole point of jitter: the fleet does NOT redial in lockstep.
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delays", len(seen))
	}
}
