package core

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"sand/internal/obs"
	"sand/internal/viewserver"
)

// benchReads matches the raw registry names bench/ reads: windowed
// counters and histograms (get, histMS, histSum) and snapshot values
// (vals[...], and frame.PoolStats's pool[...]).
var benchReads = regexp.MustCompile(`(?:\.get|histMS|histSum)\("([a-z]+\.[a-z0-9_.]+)"|(?:vals|pool)\["([a-z]+\.[a-z0-9_.]+)"\]`)

// benchStale are names bench/ still reads that the engine no longer
// publishes; their rows read 0 until bench/ drops them.
var benchStale = map[string]bool{
	"core.reuse.gop_readmissions": true, // the GOP cache has no ghost list
	"viewserver.readahead.brake":  true, // read-ahead has a fixed depth
	"frame.pool.gets":             true, // frame buffers are not pooled
	"frame.pool.reuses":           true,
	"storage.evict_storms":        true, // the store has no storm detector
}

// TestMetricCatalogue boots one engine and one view server on a single
// registry, serves one epoch remotely, and checks the metric catalogue
// three ways: every name bench/ reads is published, OBSERVABILITY.md's
// /metrics reference lists exactly the gathered names, and the leak
// gauges read zero once the client is gone. Read-ahead runs at depth 2,
// not the default (off), because the test asserts read-ahead hits.
func TestMetricCatalogue(t *testing.T) {
	reg := obs.New()
	s := obsService(t, reg)
	srv := viewserver.New(s.FS(), viewserver.Options{ReadAhead: 2, Obs: reg})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := viewserver.Dial("tcp", addr.String(), viewserver.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewRemoteLoader(cli, "train")
	if err != nil {
		t.Fatal(err)
	}
	iters, err := s.ItersPerEpoch("train")
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		if _, _, err := loader.Next(0, it); err != nil {
			t.Fatal(err)
		}
	}
	cli.Shutdown()

	gathered := map[string]bool{}
	for _, sm := range reg.Gather() {
		gathered[sm.Name] = true
	}

	t.Run("bench", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join("..", "..", "bench", "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no bench/ sources found: %v", err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range benchReads.FindAllStringSubmatch(string(src), -1) {
				name := m[1] + m[2]
				if !gathered[name] && !benchStale[name] {
					t.Errorf("%s reads %q, which the engine does not publish", filepath.Base(f), name)
				}
			}
		}
	})

	t.Run("doc", func(t *testing.T) {
		documented := docMetricNames(t)
		exposed := map[string]bool{}
		for name := range gathered {
			exposed[metricFamily(name)] = true
		}
		for _, name := range sortedKeys(exposed) {
			if !documented[name] {
				t.Errorf("%s is exposed but missing from OBSERVABILITY.md's /metrics reference", name)
			}
		}
		for _, name := range sortedKeys(documented) {
			if !exposed[name] {
				t.Errorf("OBSERVABILITY.md documents %s, which is not exposed", name)
			}
		}
	})

	t.Run("leaks", func(t *testing.T) {
		deadline := time.Now().Add(5 * time.Second)
		for metric(t, s, "viewserver.sessions") != 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		for _, name := range []string{"viewserver.sessions", "viewserver.fds", "viewserver.ra_pinned_bytes", "storage.pinned_bytes"} {
			if v := metric(t, s, name); v != 0 {
				t.Errorf("%s = %d after the client left, want 0", name, v)
			}
		}
		if metric(t, s, "viewserver.readahead.hit") == 0 {
			t.Error("a sequential remote epoch produced no read-ahead hits")
		}
	})
}

// metricFamily maps a registry name to its Prometheus exposition name,
// folding the per-op request counters into one family.
func metricFamily(name string) string {
	if strings.HasPrefix(name, "viewserver.op.") {
		return "sand_viewserver_op_*"
	}
	if base, ok := strings.CutSuffix(name, "_ns"); ok {
		return obs.PromName(base) + "_seconds"
	}
	return obs.PromName(name)
}

// docMetricNames returns every exposition name in the tables of
// OBSERVABILITY.md's "/metrics reference" section.
func docMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## /metrics reference\n")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no /metrics reference section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	names := map[string]bool{}
	token := regexp.MustCompile("`(sand_[^`]*)`")
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range token.FindAllStringSubmatch(line, -1) {
			names[m[1]] = true
		}
	}
	return names
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
