package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sand/internal/metrics"
)

// Counter is a monotonic (by convention) atomic counter handed out by a
// Registry; a nil Counter (from a nil Registry) is a no-op. Subsystems
// do not use it — they own their atomics and expose them through
// SnapshotFunc — but the benchmark's windowing tests push through it.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Get returns the current value.
func (c *Counter) Get() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is the one interface every subsystem reports through:
// counters (push, cached pointer), gauges (pull, closure), histograms
// (push, cached pointer), snapshot providers (pull: the subsystem's own
// counters), and the embedded Tracer. All methods tolerate a nil
// receiver, so instrumented code runs unconditionally.
//
// Metric names are dotted ("core.gop_hits"); the Prometheus exposition
// sanitizes them to sand_core_gop_hits. Histogram names end in "_ns" by
// convention and expose as *_seconds summaries.
type Registry struct {
	tracer *Tracer

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() float64
	hists    map[string]*Histogram
	snaps    map[string]func() map[string]int64
}

// New creates a registry with a disabled tracer of default capacity.
func New() *Registry {
	return &Registry{
		tracer:   NewTracer(0),
		counters: map[string]*Counter{},
		gauges:   map[string]func() float64{},
		hists:    map[string]*Histogram{},
		snaps:    map[string]func() map[string]int64{},
	}
}

// Trace returns the registry's tracer (nil on a nil registry — itself a
// valid no-op tracer receiver).
func (r *Registry) Trace() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or replaces) a pull gauge; fn is called at exposition
// time and must be safe for concurrent use.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Histogram returns (creating on first use) the named histogram. By
// convention histogram observations are nanoseconds and names end "_ns".
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// SnapshotFunc registers (or replaces) a named snapshot provider: fn
// returns a map of counter-style values exposed under "prefix.key". This
// is how subsystems count: each owns its counters and exposes them
// through one provider, and readers query them by name.
func (r *Registry) SnapshotFunc(prefix string, fn func() map[string]int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.snaps[prefix] = fn
	r.mu.Unlock()
}

// Sample is one gathered metric value.
type Sample struct {
	Name  string
	Kind  string // "counter", "gauge", "snapshot", "histogram"
	Value float64
	Hist  *HistSnapshot // set only for Kind "histogram"
}

// Gather evaluates every metric source and returns samples sorted by
// name.
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	snaps := make(map[string]func() map[string]int64, len(r.snaps))
	for k, v := range r.snaps {
		snaps[k] = v
	}
	r.mu.Unlock()

	var out []Sample
	for name, c := range counters {
		out = append(out, Sample{Name: name, Kind: "counter", Value: float64(c.Get())})
	}
	for name, fn := range gauges {
		out = append(out, Sample{Name: name, Kind: "gauge", Value: fn()})
	}
	for prefix, fn := range snaps {
		for k, v := range fn() {
			out = append(out, Sample{Name: prefix + "." + k, Kind: "snapshot", Value: float64(v)})
		}
	}
	for name, h := range hists {
		s := h.Snapshot()
		out = append(out, Sample{Name: name, Kind: "histogram", Hist: &s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// promName sanitizes a dotted metric name into a Prometheus identifier.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("sand_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format. Histograms (nanosecond-valued) render as *_seconds summaries
// with p50/p90/p99 quantiles.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, s := range r.Gather() {
		var err error
		switch s.Kind {
		case "histogram":
			base := promName(strings.TrimSuffix(s.Name, "_ns")) + "_seconds"
			_, err = fmt.Fprintf(w,
				"# TYPE %s summary\n%s{quantile=\"0.5\"} %g\n%s{quantile=\"0.9\"} %g\n%s{quantile=\"0.99\"} %g\n%s_sum %g\n%s_count %d\n",
				base,
				base, s.Hist.Quantile(0.50)/1e9,
				base, s.Hist.Quantile(0.90)/1e9,
				base, s.Hist.Quantile(0.99)/1e9,
				base, float64(s.Hist.Sum)/1e9,
				base, s.Hist.Count)
		case "gauge":
			name := promName(s.Name)
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, s.Value)
		default: // counter, snapshot
			name := promName(s.Name)
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %g\n", name, name, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders a human-readable dump of every metric — the
// consistent end-of-run report the examples print. Histogram rows show
// count and p50/p99/max as durations.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	t := metrics.NewTable("observability", "metric", "value")
	for _, s := range r.Gather() {
		switch s.Kind {
		case "histogram":
			if s.Hist.Count == 0 {
				continue
			}
			name := strings.TrimSuffix(s.Name, "_ns")
			t.AddRow(name+".count", s.Hist.Count)
			t.AddRow(name+".p50", metrics.Seconds(s.Hist.Quantile(0.50)/1e9))
			t.AddRow(name+".p99", metrics.Seconds(s.Hist.Quantile(0.99)/1e9))
			t.AddRow(name+".max", metrics.Seconds(float64(s.Hist.Max)/1e9))
		case "gauge":
			t.AddRow(s.Name, fmt.Sprintf("%.3f", s.Value))
		default:
			t.AddRow(s.Name, int64(s.Value))
		}
	}
	return t.Render(w)
}
