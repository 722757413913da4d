package fleet

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sand/internal/obs"
)

// threeRegistries builds obs registries with overlapping metric names:
// the same histogram and counter recorded with different values.
func threeRegistries(obsPerReg int) []*obs.Registry {
	regs := make([]*obs.Registry, 3)
	for i := range regs {
		regs[i] = obs.New()
		h := regs[i].Histogram("req_ns")
		for j := 0; j < obsPerReg; j++ {
			h.Observe(int64((i + 1) * (j + 1) * 1000))
		}
		regs[i].Counter("reqs").Add(int64((i + 1) * 10))
	}
	return regs
}

// TestCollectorMergeAssociativity: merging three registries' histograms
// in any order (and any grouping) yields identical buckets — the
// property that lets per-node and fleet-level folds disagree on order
// without disagreeing on results.
func TestCollectorMergeAssociativity(t *testing.T) {
	regs := threeRegistries(50)
	snaps := make([]*obs.HistSnapshot, 3)
	for i, r := range regs {
		for _, s := range r.Gather() {
			if s.Name == "req_ns" {
				snaps[i] = s.Hist
			}
		}
		if snaps[i] == nil {
			t.Fatalf("registry %d lost its histogram", i)
		}
	}
	merge := func(order ...int) obs.HistSnapshot {
		m := obs.NewHistogram()
		for _, i := range order {
			m.Merge(obs.HistogramFromSnapshot(snaps[i]))
		}
		return m.Snapshot()
	}
	// (0+1)+2, 2+(1+0), 1+2+0 — all groupings must agree bucket-for-bucket.
	a, b, c := merge(0, 1, 2), merge(2, 1, 0), merge(1, 2, 0)
	for _, other := range []obs.HistSnapshot{b, c} {
		if a.Count != other.Count || a.Sum != other.Sum || a.Min != other.Min || a.Max != other.Max {
			t.Fatalf("merge order changed totals: %+v vs %+v", a, other)
		}
		if a.Counts != other.Counts {
			t.Fatal("merge order changed bucket counts")
		}
	}
	if a.Count != 150 {
		t.Fatalf("merged count = %d, want 150", a.Count)
	}
}

// serveRegistries serves each registry's obs.Handler from its own
// httptest server and lists them as healthy nodes with the given names.
func serveRegistries(t *testing.T, regs []*obs.Registry, names ...string) *memLister {
	t.Helper()
	lister := &memLister{}
	nodes := make([]NodeStatus, len(regs))
	for i, reg := range regs {
		srv := httptest.NewServer(reg.Handler())
		t.Cleanup(srv.Close)
		nodes[i] = NodeStatus{Info: NodeInfo{Name: names[i], Addr: "x", MetricsAddr: srv.URL}, State: StateHealthy}
	}
	lister.set(nodes...)
	return lister
}

// TestCollectorNodeAndFleetSeries: each scraped node keeps its own
// series, and the node="_fleet" series sums counters and merges
// histograms across nodes.
func TestCollectorNodeAndFleetSeries(t *testing.T) {
	regs := threeRegistries(10)
	c := NewCollector(CollectorOptions{Lister: serveRegistries(t, regs, "a", "b", "c"), Timeout: time.Second})

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Counters: nodes carry 10, 20, 30; the fleet carries their sum.
	for _, want := range []string{
		`sand_reqs{node="a"} 10`,
		`sand_reqs{node="b"} 20`,
		`sand_reqs{node="c"} 30`,
		`sand_reqs{node="_fleet"} 60`,
		// Histograms: 10 samples per node, 30 merged.
		`sand_req_seconds_count{node="b"} 10`,
		`sand_req_seconds_count{node="_fleet"} 30`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %s:\n%s", want, out)
		}
	}
	if got := c.MergedHistogram("req_ns").Count(); got != 30 {
		t.Fatalf("MergedHistogram count = %d, want 30", got)
	}
}

// TestCollectorGatherUnderConcurrentMerge hammers the registries with
// writers while the collector scrapes and merges concurrently; the race
// detector owns the assertions, the final pull owns the totals.
func TestCollectorGatherUnderConcurrentMerge(t *testing.T) {
	regs := threeRegistries(0)
	c := NewCollector(CollectorOptions{Lister: serveRegistries(t, regs, "a", "b", "c"), Timeout: time.Second})
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for _, r := range regs {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(r *obs.Registry) {
				defer wg.Done()
				h := r.Histogram("req_ns")
				cnt := r.Counter("reqs")
				for j := 0; j < perWriter; j++ {
					h.Observe(int64(j%97) * 1000)
					cnt.Add(1)
				}
			}(r)
		}
	}
	stop := make(chan struct{})
	var pullers sync.WaitGroup
	for p := 0; p < 3; p++ {
		pullers.Add(1)
		go func() {
			defer pullers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var buf bytes.Buffer
					_ = c.WritePrometheus(&buf)
					c.MergedHistogram("req_ns")
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	pullers.Wait()

	want := int64(len(regs) * writers * perWriter)
	if got := c.MergedHistogram("req_ns").Count(); got != want {
		t.Fatalf("final merged count = %d, want %d", got, want)
	}
}

// TestCollectorScrapesHTTP: a node's /metrics.json round-trips through
// the collector with exact histogram counts, and an unreachable node
// shows up in sand_fleet_scrape_errors instead of failing the pull.
func TestCollectorScrapesHTTP(t *testing.T) {
	reg := obs.New()
	reg.Histogram("req_ns").Observe(5000)
	reg.Counter("reqs").Add(7)
	addr, stopObs, err := reg.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopObs()

	lister := &memLister{}
	lister.set(
		NodeStatus{Info: NodeInfo{Name: "live", Addr: "x", MetricsAddr: addr.String()}, State: StateHealthy},
		NodeStatus{Info: NodeInfo{Name: "gone", Addr: "x", MetricsAddr: "127.0.0.1:1"}, State: StateHealthy},
		NodeStatus{Info: NodeInfo{Name: "dead", Addr: "x", MetricsAddr: addr.String()}, State: StateDead},
	)
	c := NewCollector(CollectorOptions{Lister: lister, Timeout: time.Second})

	pulled := c.Pull()
	byNode := map[string]NodeSamples{}
	for _, ns := range pulled {
		byNode[ns.Node] = ns
	}
	if _, ok := byNode["dead"]; ok {
		t.Fatal("dead node must not be scraped")
	}
	if byNode["gone"].Err == nil {
		t.Fatal("unreachable node must report a scrape error")
	}
	live := byNode["live"]
	if live.Err != nil {
		t.Fatal(live.Err)
	}
	found := false
	for _, s := range live.Samples {
		if s.Name == "req_ns" && s.Hist != nil && s.Hist.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("scraped samples lost the histogram: %+v", live.Samples)
	}

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `sand_reqs{node="live"} 7`) {
		t.Fatalf("live node counter missing:\n%s", out)
	}
	if !strings.Contains(out, `sand_fleet_scrape_errors{node="gone"}`) {
		t.Fatalf("scrape error counter missing:\n%s", out)
	}
	if !strings.Contains(out, `sand_fleet_nodes{state="healthy"} 2`) {
		t.Fatalf("fleet health gauges missing:\n%s", out)
	}
}
