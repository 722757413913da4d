package core

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sand/internal/config"
	"sand/internal/obs"
	"sand/internal/vfs"
)

// obsService builds a traced service over the mini corpus.
func obsService(t testing.TB, reg *obs.Registry) *Service {
	t.Helper()
	s, err := New(Options{
		Tasks:       []*config.Task{miniTask(t, "train")},
		Dataset:     miniDataset(t, 4),
		ChunkEpochs: 2,
		TotalEpochs: 2,
		MemBudget:   64 << 20,
		Workers:     2,
		Coordinate:  true,
		Seed:        5,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// readEpoch consumes every batch of one epoch through the view filesystem.
func readEpoch(t testing.TB, s *Service, epoch int) {
	t.Helper()
	fs := s.FS()
	iters, err := s.ItersPerEpoch("train")
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		fd, err := fs.Open(vfs.BatchPath("train", epoch, it))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadAll(fd); err != nil {
			t.Fatal(err)
		}
		fs.Close(fd)
	}
}

// TestEpochEventKinds is the golden-file check that one quickstart-style
// epoch emits every load-bearing event kind. The golden file lists the
// deterministic kinds; nondeterministic ones (mode_switch, eviction
// events) are asserted by their own tests.
func TestEpochEventKinds(t *testing.T) {
	reg := obs.New()
	reg.Trace().Enable()
	s := obsService(t, reg)
	readEpoch(t, s, 0)

	seen := map[string]bool{}
	for _, e := range reg.Trace().Events() {
		seen[e.Kind()] = true
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "epoch_event_kinds.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, kind := range strings.Fields(string(raw)) {
		if !seen[kind] {
			missing = append(missing, kind)
		}
	}
	if len(missing) > 0 {
		got := make([]string, 0, len(seen))
		for k := range seen {
			got = append(got, k)
		}
		t.Fatalf("epoch trace missing event kinds %v; saw %v", missing, got)
	}
}

// TestTraceIDThreading checks that the scheduler's dequeue event and the
// materialization spans of the same batch share a trace ID, so one view
// open can be followed across worker goroutines.
func TestTraceIDThreading(t *testing.T) {
	reg := obs.New()
	reg.Trace().Enable()
	s := obsService(t, reg)
	readEpoch(t, s, 0)

	// Collect per-trace kind sets for demand batches.
	byTrace := map[obs.TraceID]map[string]bool{}
	for _, e := range reg.Trace().Events() {
		if e.Trace == 0 {
			continue
		}
		if byTrace[e.Trace] == nil {
			byTrace[e.Trace] = map[string]bool{}
		}
		byTrace[e.Trace][e.Kind()] = true
	}
	found := false
	for _, kinds := range byTrace {
		if kinds["sched.enqueue"] && kinds["sched.dequeue"] && kinds["core.batch"] && kinds["core.frame"] {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no trace ID links scheduler events to materialization spans: %v", byTrace)
	}
}

// TestMetricsEndpoint drives one epoch and asserts the /metrics
// exposition carries the acceptance metrics: GOP hits, eviction count,
// and view-read latency quantiles.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.New()
	s := obsService(t, reg)
	readEpoch(t, s, 0)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	reg.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"sand_core_gop_hits",
		"sand_storage_evictions",
		`sand_core_view_read_seconds{quantile="0.5"}`,
		`sand_core_view_read_seconds{quantile="0.99"}`,
		"sand_core_view_read_seconds_count",
		"sand_sched_completed",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestTracerOffNoEvents confirms instrumented paths stay silent (and
// allocation-free on the tracer side) when tracing is disabled.
func TestTracerOffNoEvents(t *testing.T) {
	reg := obs.New()
	s := obsService(t, reg)
	readEpoch(t, s, 0)
	if n := reg.Trace().Len(); n != 0 {
		t.Fatalf("disabled tracer buffered %d events", n)
	}
	// Histograms still observe with tracing off.
	if reg.Histogram("core.view_read_ns").Count() == 0 {
		t.Fatal("view-read histogram empty after an epoch")
	}
}
