package fleet

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"sand/internal/obs"
)

// Collector builds the fleet's single pane of glass: it scrapes every
// registered node's obs registry over HTTP (/metrics.json), rebuilds
// each histogram from its snapshot and folds the fleet aggregate
// together with obs.Histogram.Merge, then serves one Prometheus-style
// exposition with a `node` label on every series plus a merged
// `node="_fleet"` series.
type Collector struct {
	opts CollectorOptions
	hc   *http.Client

	mu         sync.Mutex
	scrapeErrs map[string]int64
}

// CollectorOptions tunes a Collector.
type CollectorOptions struct {
	// Lister discovers nodes (and their MetricsAddr) to scrape.
	// Required.
	Lister NodeLister
	// Timeout bounds one node scrape (default 3s).
	Timeout time.Duration
}

// NewCollector creates a collector.
func NewCollector(opts CollectorOptions) *Collector {
	if opts.Timeout <= 0 {
		opts.Timeout = 3 * time.Second
	}
	return &Collector{
		opts:       opts,
		hc:         &http.Client{Timeout: opts.Timeout},
		scrapeErrs: map[string]int64{},
	}
}

// NodeSamples is one node's gathered metrics (or its scrape failure).
type NodeSamples struct {
	Node    string
	Samples []obs.Sample
	Err     error
}

// scrape fetches one node's /metrics.json.
func (c *Collector) scrape(metricsAddr string) ([]obs.Sample, error) {
	url := metricsAddr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := c.hc.Get(strings.TrimRight(url, "/") + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: scrape %s: %s", metricsAddr, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return obs.UnmarshalSamples(body)
}

// Pull scrapes every registered node that advertises a MetricsAddr,
// concurrently (dead nodes are skipped — their serving stopped; their
// history lives in the registry). The result is sorted by node name;
// scrape failures are reported per node, not fatal.
func (c *Collector) Pull() []NodeSamples {
	var targets []NodeInfo
	if nodes, err := c.opts.Lister.Nodes(); err == nil {
		for _, n := range nodes {
			if n.State == StateDead || n.Info.MetricsAddr == "" {
				continue
			}
			targets = append(targets, n.Info)
		}
	}

	out := make([]NodeSamples, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t NodeInfo) {
			defer wg.Done()
			samples, err := c.scrape(t.MetricsAddr)
			out[i] = NodeSamples{Node: t.Name, Samples: samples, Err: err}
		}(i, t)
	}
	wg.Wait()
	c.mu.Lock()
	for _, ns := range out {
		if ns.Err != nil {
			c.scrapeErrs[ns.Node]++
		}
	}
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// metricAgg folds same-named samples (within a node, and across nodes
// for the fleet aggregate): counters and gauges sum, histograms merge
// via obs.Histogram.Merge.
type metricAgg struct {
	kind  string
	value float64
	hist  *obs.Histogram
}

func foldInto(dst map[string]*metricAgg, s obs.Sample) {
	a, ok := dst[s.Name]
	if !ok {
		a = &metricAgg{kind: s.Kind}
		dst[s.Name] = a
	}
	if s.Hist != nil {
		if a.hist == nil {
			a.hist = obs.NewHistogram()
		}
		a.hist.Merge(obs.HistogramFromSnapshot(s.Hist))
		return
	}
	a.value += s.Value
}

// FleetLabel is the synthetic node label of the merged aggregate series.
const FleetLabel = "_fleet"

// MergedHistogram pulls the fleet and returns the named histogram merged
// across every node (nil snapshot-equivalent empty histogram when the
// metric exists nowhere).
func (c *Collector) MergedHistogram(name string) *obs.Histogram {
	merged := obs.NewHistogram()
	for _, ns := range c.Pull() {
		for _, s := range ns.Samples {
			if s.Name == name && s.Hist != nil {
				merged.Merge(obs.HistogramFromSnapshot(s.Hist))
			}
		}
	}
	return merged
}

// WritePrometheus renders the fleet exposition: every node's metrics
// labeled node="<name>", the cross-fleet merge labeled node="_fleet",
// registry health gauges (sand_fleet_nodes{state=...}) and per-node
// scrape error counters.
func (c *Collector) WritePrometheus(w io.Writer) error {
	pulled := c.Pull()

	// Per-node and fleet-wide folds, keyed by metric name.
	perNode := map[string]map[string]*metricAgg{} // node → name → agg
	fleet := map[string]*metricAgg{}
	var nodeNames []string
	for _, ns := range pulled {
		byName, ok := perNode[ns.Node]
		if !ok {
			byName = map[string]*metricAgg{}
			perNode[ns.Node] = byName
			nodeNames = append(nodeNames, ns.Node)
		}
		for _, s := range ns.Samples {
			foldInto(byName, s)
			foldInto(fleet, s)
		}
	}
	sort.Strings(nodeNames)
	metricNames := make([]string, 0, len(fleet))
	for name := range fleet {
		metricNames = append(metricNames, name)
	}
	sort.Strings(metricNames)

	emitRow := func(name, node string, a *metricAgg) error {
		if a.hist != nil {
			base := obs.PromName(strings.TrimSuffix(name, "_ns")) + "_seconds"
			s := a.hist.Snapshot()
			_, err := fmt.Fprintf(w,
				"%s{node=%q,quantile=\"0.5\"} %g\n%s{node=%q,quantile=\"0.9\"} %g\n%s{node=%q,quantile=\"0.99\"} %g\n%s_sum{node=%q} %g\n%s_count{node=%q} %d\n",
				base, node, s.Quantile(0.50)/1e9,
				base, node, s.Quantile(0.90)/1e9,
				base, node, s.Quantile(0.99)/1e9,
				base, node, float64(s.Sum)/1e9,
				base, node, s.Count)
			return err
		}
		_, err := fmt.Fprintf(w, "%s{node=%q} %g\n", obs.PromName(name), node, a.value)
		return err
	}
	for _, name := range metricNames {
		agg := fleet[name]
		promType := "counter"
		switch agg.kind {
		case "histogram":
			promType = "summary"
		case "gauge":
			promType = "gauge"
		}
		exposed := obs.PromName(name)
		if agg.hist != nil {
			exposed = obs.PromName(strings.TrimSuffix(name, "_ns")) + "_seconds"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", exposed, promType); err != nil {
			return err
		}
		for _, node := range nodeNames {
			if a, ok := perNode[node][name]; ok {
				if err := emitRow(name, node, a); err != nil {
					return err
				}
			}
		}
		if err := emitRow(name, FleetLabel, agg); err != nil {
			return err
		}
	}

	// Registry health: node counts by state.
	if nodes, err := c.opts.Lister.Nodes(); err == nil {
		counts := map[string]int{}
		for _, n := range nodes {
			counts[n.State.String()]++
		}
		states := make([]string, 0, len(counts))
		for s := range counts {
			states = append(states, s)
		}
		sort.Strings(states)
		if _, err := fmt.Fprintf(w, "# TYPE sand_fleet_nodes gauge\n"); err != nil {
			return err
		}
		for _, s := range states {
			if _, err := fmt.Fprintf(w, "sand_fleet_nodes{state=%q} %d\n", s, counts[s]); err != nil {
				return err
			}
		}
	}

	// Scrape failures, per node.
	c.mu.Lock()
	errNodes := make([]string, 0, len(c.scrapeErrs))
	for n := range c.scrapeErrs {
		errNodes = append(errNodes, n)
	}
	sort.Strings(errNodes)
	rows := make([]string, 0, len(errNodes))
	for _, n := range errNodes {
		rows = append(rows, fmt.Sprintf("sand_fleet_scrape_errors{node=%q} %d\n", n, c.scrapeErrs[n]))
	}
	c.mu.Unlock()
	if len(rows) > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE sand_fleet_scrape_errors counter\n"); err != nil {
			return err
		}
		for _, row := range rows {
			if _, err := io.WriteString(w, row); err != nil {
				return err
			}
		}
	}
	return nil
}
