package scenario

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"sand/internal/config"
	"sand/internal/gpusim"
	"sand/internal/trainsim"
)

// This file maps YAML (via the stdlib-only subset parser in
// internal/config) into the typed Scenario and validates it. Parsing is
// strict: unknown keys, unknown actions, out-of-order events, duplicate
// node ids and malformed durations are all errors at load time, so a
// broken scenario fails in `sandsim validate` before any simulation
// runs.

// Load reads and parses one scenario file.
func Load(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sc.File = path
	return sc, nil
}

// Parse parses and validates a scenario document.
func Parse(src []byte) (*Scenario, error) {
	doc, err := config.ParseYAML(string(src))
	if err != nil {
		return nil, err
	}
	root, ok := doc.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: document must be a map, got %T", doc)
	}
	d := &decoder{}
	sc := d.scenario(root)
	if d.err != nil {
		return nil, fmt.Errorf("scenario: %w", d.err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// decoder carries the first error through the tree walk so call sites
// stay flat.
type decoder struct {
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// strictKeys errors on any key of m outside allowed.
func (d *decoder) strictKeys(section string, m map[string]any, allowed ...string) {
	for k := range m {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			sort.Strings(allowed)
			d.fail("%s: unknown key %q (valid: %s)", section, k, strings.Join(allowed, ", "))
			return
		}
	}
}

func (d *decoder) str(section, key string, v any) string {
	if v == nil {
		return ""
	}
	s, ok := v.(string)
	if !ok {
		d.fail("%s: %s must be a string, got %T", section, key, v)
		return ""
	}
	return s
}

func (d *decoder) intval(section, key string, v any) int {
	if v == nil {
		return 0
	}
	switch n := v.(type) {
	case int:
		return n
	case float64:
		if n == float64(int(n)) {
			return int(n)
		}
	}
	d.fail("%s: %s must be an integer, got %v", section, key, v)
	return 0
}

func (d *decoder) boolval(section, key string, v any) bool {
	if v == nil {
		return false
	}
	b, ok := v.(bool)
	if !ok {
		d.fail("%s: %s must be a bool, got %v", section, key, v)
	}
	return b
}

func (d *decoder) floatval(section, key string, v any) float64 {
	switch n := v.(type) {
	case nil:
		return 0
	case int:
		return float64(n)
	case float64:
		return n
	}
	d.fail("%s: %s must be a number, got %v", section, key, v)
	return 0
}

// dur accepts either a bare number (seconds) or a duration string
// ("500ms", "5s", "2m") and returns virtual seconds.
func (d *decoder) dur(section, key string, v any) float64 {
	switch t := v.(type) {
	case nil:
		return 0
	case int:
		return float64(t)
	case float64:
		return t
	case string:
		dd, err := time.ParseDuration(t)
		if err != nil || dd < 0 {
			d.fail("%s: %s: bad duration %q (want 500ms / 5s / 2m or bare seconds)", section, key, t)
			return 0
		}
		return dd.Seconds()
	}
	d.fail("%s: %s must be a duration, got %T", section, key, v)
	return 0
}

func (d *decoder) mapval(section, key string, v any) map[string]any {
	if v == nil {
		return nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		d.fail("%s: %s must be a map", section, key)
		return nil
	}
	return m
}

func (d *decoder) listval(section, key string, v any) []any {
	if v == nil {
		return nil
	}
	l, ok := v.([]any)
	if !ok {
		d.fail("%s: %s must be a list", section, key)
		return nil
	}
	return l
}

func (d *decoder) scenario(m map[string]any) *Scenario {
	d.strictKeys("scenario", m,
		"name", "description", "seed", "duration",
		"fleet", "workload", "cluster", "events", "chaos", "assertions")
	sc := &Scenario{
		Name:        d.str("scenario", "name", m["name"]),
		Description: d.str("scenario", "description", m["description"]),
		Seed:        int64(d.intval("scenario", "seed", m["seed"])),
		Duration:    d.dur("scenario", "duration", m["duration"]),
	}
	if v, ok := m["fleet"]; ok {
		sc.Fleet = d.fleet(d.mapval("scenario", "fleet", v))
	}
	if v, ok := m["workload"]; ok {
		sc.Workload = d.workload(d.mapval("scenario", "workload", v))
	}
	if v, ok := m["cluster"]; ok {
		sc.Cluster = d.cluster(d.mapval("scenario", "cluster", v))
	}
	for i, item := range d.listval("scenario", "events", m["events"]) {
		em, ok := item.(map[string]any)
		if !ok {
			d.fail("events[%d]: must be a map", i)
			break
		}
		sc.Events = append(sc.Events, d.event(fmt.Sprintf("events[%d]", i), em))
	}
	if v, ok := m["chaos"]; ok {
		sc.Chaos = d.chaos(d.mapval("scenario", "chaos", v))
	}
	for i, item := range d.listval("scenario", "assertions", m["assertions"]) {
		am, ok := item.(map[string]any)
		if !ok {
			d.fail("assertions[%d]: must be a map", i)
			break
		}
		sc.Assertions = append(sc.Assertions, d.assertion(fmt.Sprintf("assertions[%d]", i), am))
	}
	return sc
}

func (d *decoder) fleet(m map[string]any) *Fleet {
	if m == nil {
		return nil
	}
	d.strictKeys("fleet", m, "heartbeat_every", "suspect_after", "dead_after", "nodes", "generate")
	f := &Fleet{
		HeartbeatEvery: d.dur("fleet", "heartbeat_every", m["heartbeat_every"]),
		SuspectAfter:   d.dur("fleet", "suspect_after", m["suspect_after"]),
		DeadAfter:      d.dur("fleet", "dead_after", m["dead_after"]),
	}
	for i, item := range d.listval("fleet", "nodes", m["nodes"]) {
		nm, ok := item.(map[string]any)
		if !ok {
			d.fail("fleet.nodes[%d]: must be a map with id", i)
			break
		}
		sec := fmt.Sprintf("fleet.nodes[%d]", i)
		d.strictKeys(sec, nm, "id", "capacity")
		f.Nodes = append(f.Nodes, NodeSpec{
			ID:       d.str(sec, "id", nm["id"]),
			Capacity: d.intval(sec, "capacity", nm["capacity"]),
		})
	}
	if v, ok := m["generate"]; ok {
		gm := d.mapval("fleet", "generate", v)
		if gm != nil {
			d.strictKeys("fleet.generate", gm, "count", "prefix", "templates")
			g := &Generate{
				Count:  d.intval("fleet.generate", "count", gm["count"]),
				Prefix: d.str("fleet.generate", "prefix", gm["prefix"]),
			}
			for i, item := range d.listval("fleet.generate", "templates", gm["templates"]) {
				tm, ok := item.(map[string]any)
				if !ok {
					d.fail("fleet.generate.templates[%d]: must be a map", i)
					break
				}
				sec := fmt.Sprintf("fleet.generate.templates[%d]", i)
				d.strictKeys(sec, tm, "name", "weight", "capacity")
				g.Templates = append(g.Templates, Template{
					Name:     d.str(sec, "name", tm["name"]),
					Weight:   d.intval(sec, "weight", tm["weight"]),
					Capacity: d.intval(sec, "capacity", tm["capacity"]),
				})
			}
			f.Generate = g
		}
	}
	return f
}

func (d *decoder) workload(m map[string]any) *Workload {
	if m == nil {
		return nil
	}
	d.strictKeys("workload", m, "pipeline", "model", "jobs", "epochs",
		"iters_per_epoch", "chunk_epochs", "shared_dataset", "remote_storage")
	w := &Workload{
		PipelineName:  d.str("workload", "pipeline", m["pipeline"]),
		Model:         d.str("workload", "model", m["model"]),
		Jobs:          d.intval("workload", "jobs", m["jobs"]),
		Epochs:        d.intval("workload", "epochs", m["epochs"]),
		ItersPerEpoch: d.intval("workload", "iters_per_epoch", m["iters_per_epoch"]),
		ChunkEpochs:   d.intval("workload", "chunk_epochs", m["chunk_epochs"]),
		SharedDataset: d.boolval("workload", "shared_dataset", m["shared_dataset"]),
		RemoteStorage: d.boolval("workload", "remote_storage", m["remote_storage"]),
	}
	if d.err == nil {
		p, err := trainsim.ParsePipeline(w.PipelineName)
		if err != nil {
			d.fail("workload: %v", err)
		}
		w.Pipeline = p
	}
	return w
}

func (d *decoder) cluster(m map[string]any) *Cluster {
	if m == nil {
		return nil
	}
	d.strictKeys("cluster", m, "nodes", "workers", "epochs", "chunk_epochs",
		"videos", "read_ahead", "mem_budget_mb", "demand_slo_ms", "compare_baseline",
		"workload")
	c := &Cluster{
		Nodes:       d.intval("cluster", "nodes", m["nodes"]),
		Workers:     d.intval("cluster", "workers", m["workers"]),
		Epochs:      d.intval("cluster", "epochs", m["epochs"]),
		ChunkEpochs: d.intval("cluster", "chunk_epochs", m["chunk_epochs"]),
		Videos:      d.intval("cluster", "videos", m["videos"]),
		ReadAhead:   d.intval("cluster", "read_ahead", m["read_ahead"]),
		MemBudgetMB: d.intval("cluster", "mem_budget_mb", m["mem_budget_mb"]),
		DemandSLOMS: d.floatval("cluster", "demand_slo_ms", m["demand_slo_ms"]),
		Workload:    d.str("cluster", "workload", m["workload"]),
	}
	if v, ok := m["compare_baseline"]; ok {
		b := d.boolval("cluster", "compare_baseline", v)
		c.CompareBaseline = &b
	}
	return c
}

func (d *decoder) event(sec string, m map[string]any) Event {
	d.strictKeys(sec, m, "at", "at_step", "action", "target", "targets", "factor", "duration")
	e := Event{
		At:       d.dur(sec, "at", m["at"]),
		AtStep:   -1,
		Target:   d.str(sec, "target", m["target"]),
		Factor:   d.floatval(sec, "factor", m["factor"]),
		Duration: d.dur(sec, "duration", m["duration"]),
	}
	if v, ok := m["at_step"]; ok {
		e.AtStep = d.intval(sec, "at_step", v)
	}
	for i, t := range d.listval(sec, "targets", m["targets"]) {
		s, ok := t.(string)
		if !ok {
			d.fail("%s: targets[%d] must be a string", sec, i)
			break
		}
		e.Targets = append(e.Targets, s)
	}
	e.ActionName = d.str(sec, "action", m["action"])
	if d.err == nil {
		a, err := ParseAction(e.ActionName)
		if err != nil {
			d.fail("%s: %v", sec, err)
		}
		e.Action = a
	}
	return e
}

func (d *decoder) chaos(m map[string]any) *Chaos {
	if m == nil {
		return nil
	}
	d.strictKeys("chaos", m, "enabled", "failure_rate", "recovery_mean",
		"recovery_stddev", "kinds", "slow_factor")
	c := &Chaos{
		Enabled:        d.boolval("chaos", "enabled", m["enabled"]),
		FailureRate:    d.floatval("chaos", "failure_rate", m["failure_rate"]),
		RecoveryMean:   d.dur("chaos", "recovery_mean", m["recovery_mean"]),
		RecoveryStddev: d.dur("chaos", "recovery_stddev", m["recovery_stddev"]),
		SlowFactor:     d.floatval("chaos", "slow_factor", m["slow_factor"]),
	}
	for i, k := range d.listval("chaos", "kinds", m["kinds"]) {
		s, ok := k.(string)
		if !ok {
			d.fail("chaos: kinds[%d] must be a string", i)
			break
		}
		c.Kinds = append(c.Kinds, s)
	}
	return c
}

func (d *decoder) assertion(sec string, m map[string]any) Assertion {
	d.strictKeys(sec, m, "at", "at_end", "assert", "within")
	a := Assertion{
		Expr:   d.str(sec, "assert", m["assert"]),
		Within: d.dur(sec, "within", m["within"]),
	}
	if v, ok := m["at"]; ok {
		if s, isStr := v.(string); isStr && s == "end" {
			a.AtEnd = true
		} else {
			a.At = d.dur(sec, "at", v)
		}
	}
	if v, ok := m["at_end"]; ok {
		a.AtEnd = d.boolval(sec, "at_end", v)
	}
	return a
}

// Validate checks cross-field invariants. Parse calls it; callers that
// build scenarios programmatically should too.
func (s *Scenario) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %w", s.Name, fmt.Errorf(format, args...))
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if s.Cluster != nil && s.Workload != nil {
		return fail("cluster and workload are mutually exclusive (real engines vs simulated fleet)")
	}
	if s.Cluster != nil && (s.Fleet != nil || s.Chaos != nil) {
		return fail("cluster mode takes no fleet/chaos section (the harness owns its registry; chaos is sim-only)")
	}
	if s.Cluster == nil && s.Fleet == nil {
		return fail("a sim scenario needs a fleet section")
	}

	// Node ids: known and unique (explicit + generated).
	ids := map[string]bool{}
	if s.Fleet != nil {
		for _, n := range s.Fleet.Nodes {
			if n.ID == "" {
				return fail("fleet node with empty id")
			}
			if ids[n.ID] {
				return fail("duplicate node id %q", n.ID)
			}
			ids[n.ID] = true
		}
		if g := s.Fleet.Generate; g != nil {
			if g.Count <= 0 {
				return fail("fleet.generate.count must be > 0")
			}
			if len(g.Templates) == 0 {
				return fail("fleet.generate needs at least one template")
			}
			total := 0
			for _, t := range g.Templates {
				if t.Weight <= 0 {
					return fail("fleet.generate template %q needs weight > 0", t.Name)
				}
				total += t.Weight
			}
			_ = total
		}
		for _, id := range s.Fleet.NodeIDs()[len(s.Fleet.Nodes):] {
			if ids[id] {
				return fail("duplicate node id %q (generated prefix collides with an explicit node)", id)
			}
			ids[id] = true
		}
		if len(ids) == 0 {
			return fail("fleet declares no nodes")
		}
	}
	if s.Cluster != nil {
		switch s.Cluster.Workload {
		case "", "ddp", "reuse_batch":
		default:
			return fail("cluster: unknown workload %q (want ddp | reuse_batch)", s.Cluster.Workload)
		}
		for i := 0; i < s.Cluster.nodeCount(); i++ {
			ids[fmt.Sprintf("node%d", i)] = true
		}
	}

	// Events: known targets, mode-appropriate keys, ascending order.
	prev := -1.0
	prevStep := -1
	for i, e := range s.Events {
		sec := fmt.Sprintf("events[%d] (%s)", i, e.ActionName)
		if s.Cluster != nil {
			if e.AtStep < 0 {
				return fail("%s: cluster-mode events are keyed by at_step", sec)
			}
			if e.At != 0 {
				return fail("%s: at and at_step are mutually exclusive", sec)
			}
			if e.AtStep < prevStep {
				return fail("%s: events must be in ascending at_step order (%d after %d)", sec, e.AtStep, prevStep)
			}
			prevStep = e.AtStep
			switch e.Action {
			case ActionKillNode, ActionDrainNode:
			default:
				return fail("%s: cluster mode supports kill_node and drain_node only", sec)
			}
		} else {
			if e.AtStep >= 0 {
				return fail("%s: at_step requires a cluster section", sec)
			}
			if e.At < prev {
				return fail("%s: events must be in ascending time order (%gs after %gs)", sec, e.At, prev)
			}
			prev = e.At
		}
		tgts := e.targets()
		if len(tgts) == 0 {
			return fail("%s: needs a target (or targets)", sec)
		}
		if e.Target != "" && len(e.Targets) > 0 {
			return fail("%s: target and targets are mutually exclusive", sec)
		}
		for _, t := range tgts {
			if !ids[t] {
				return fail("%s: unknown target node %q", sec, t)
			}
		}
		if e.Action == ActionSlowDisk && e.Factor <= 1 {
			return fail("%s: slow_disk needs factor > 1", sec)
		}
		if e.Action != ActionSlowDisk && e.Factor != 0 {
			return fail("%s: factor is only valid on slow_disk", sec)
		}
		if e.Duration != 0 && e.Action != ActionSlowDisk && e.Action != ActionPartition {
			return fail("%s: duration is only valid on partition / slow_disk", sec)
		}
	}

	// Workload sanity.
	if w := s.Workload; w != nil {
		if _, err := findModel(w.Model); err != nil {
			return fail("workload: %v", err)
		}
	}

	// Chaos needs an explicit horizon and a positive rate.
	if c := s.Chaos; c != nil && c.Enabled {
		if s.Duration <= 0 {
			return fail("chaos needs an explicit scenario duration")
		}
		if c.FailureRate <= 0 {
			return fail("chaos.failure_rate must be > 0")
		}
		for _, k := range c.Kinds {
			switch k {
			case "kill_node", "partition", "slow_disk":
			default:
				return fail("chaos: unknown kind %q (want kill_node | partition | slow_disk)", k)
			}
		}
	}

	// Assertions: parseable expressions, mode-appropriate timing.
	if len(s.Assertions) == 0 {
		return fail("at least one assertion is required")
	}
	for i, a := range s.Assertions {
		if a.Expr == "" {
			return fail("assertions[%d]: empty assert expression", i)
		}
		if _, err := compileExpr(a.Expr); err != nil {
			return fail("assertions[%d]: %v", i, err)
		}
		if s.Cluster != nil && !a.AtEnd {
			return fail("assertions[%d]: cluster-mode assertions are at_end only", i)
		}
		if a.AtEnd && a.At != 0 {
			return fail("assertions[%d]: at and at_end are mutually exclusive", i)
		}
		if a.Within > 0 && s.Cluster == nil {
			return fail("assertions[%d]: within is only meaningful in cluster mode", i)
		}
	}
	return nil
}

// findModel resolves a gpusim workload by its lowercase name.
func findModel(name string) (gpusim.Workload, error) {
	for _, w := range gpusim.Workloads {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
	}
	valid := make([]string, 0, len(gpusim.Workloads))
	for _, w := range gpusim.Workloads {
		valid = append(valid, strings.ToLower(w.Name))
	}
	return gpusim.Workload{}, fmt.Errorf("unknown model %q (want %s)", name, strings.Join(valid, " | "))
}
