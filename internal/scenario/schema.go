package scenario

import (
	"fmt"
	"sort"
	"strings"

	"sand/internal/trainsim"
)

// Action is one fault-injection verb a scenario event may perform.
type Action int

const (
	// ActionKillNode stops a node cold: heartbeats cease immediately and
	// (sim mode) its capacity leaves the workload's pool. The registry
	// walks it healthy → suspect → dead on deadlines.
	ActionKillNode Action = iota
	// ActionRecoverNode restarts a killed node: it re-announces, resumes
	// heartbeats, and its capacity returns.
	ActionRecoverNode
	// ActionDrainNode marks a node draining in the registry (serves
	// existing work, receives no new opens).
	ActionDrainNode
	// ActionForgetNode declares a node dead immediately (clean shutdown).
	ActionForgetNode
	// ActionPartition cuts the target nodes off from the registry for
	// Duration: their heartbeats are dropped (the nodes themselves keep
	// running). On heal they re-announce if declared dead meanwhile.
	ActionPartition
	// ActionSlowDisk inflates preprocessing work submitted while the
	// window [At, At+Duration) is open by Factor, scaled by the affected
	// fraction of fleet capacity (sim mode only).
	ActionSlowDisk
)

var actionNames = map[Action]string{
	ActionKillNode:    "kill_node",
	ActionRecoverNode: "recover_node",
	ActionDrainNode:   "drain_node",
	ActionForgetNode:  "forget_node",
	ActionPartition:   "partition",
	ActionSlowDisk:    "slow_disk",
}

// String returns the YAML spelling of the action.
func (a Action) String() string {
	if s, ok := actionNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// ParseAction maps a YAML action name to its constant.
func ParseAction(name string) (Action, error) {
	for a, s := range actionNames {
		if s == name {
			return a, nil
		}
	}
	valid := make([]string, 0, len(actionNames))
	for _, s := range actionNames {
		valid = append(valid, s)
	}
	sort.Strings(valid)
	return 0, fmt.Errorf("unknown action %q (want %s)", name, strings.Join(valid, " | "))
}

// NodeSpec declares one explicit fleet node.
type NodeSpec struct {
	// ID is the node's unique name ("node-2").
	ID string `json:"id"`
	// Capacity is the node's relative weight (<= 0 means 1).
	Capacity int `json:"capacity,omitempty"`
}

// Template is one weighted node shape for fleet generation.
type Template struct {
	// Name labels the template ("big", "a100-8x").
	Name string `json:"name"`
	// Weight is the template's selection weight (must be > 0).
	Weight int `json:"weight"`
	// Capacity is the capacity given to nodes stamped from this template.
	Capacity int `json:"capacity,omitempty"`
}

// Generate describes template-weighted fleet generation: Count nodes
// named <Prefix><index>, each assigned a template by seeded weighted
// draw — the knob that scales a scenario to hundreds or thousands of
// simulated nodes.
type Generate struct {
	Count int `json:"count"`
	// Prefix defaults to "sim-".
	Prefix    string     `json:"prefix,omitempty"`
	Templates []Template `json:"templates"`
}

// Fleet declares the simulated fleet and its failure-detector timings.
// All durations are virtual seconds.
type Fleet struct {
	// HeartbeatEvery is the node beat interval (default 0.5s).
	HeartbeatEvery float64 `json:"heartbeat_every,omitempty"`
	// SuspectAfter is the healthy→suspect deadline (default 2s).
	SuspectAfter float64 `json:"suspect_after,omitempty"`
	// DeadAfter is the →dead deadline (default 3× SuspectAfter).
	DeadAfter float64 `json:"dead_after,omitempty"`
	// Nodes are explicit members; Generate adds stamped ones.
	Nodes    []NodeSpec `json:"nodes,omitempty"`
	Generate *Generate  `json:"generate,omitempty"`
}

// NodeIDs materializes the full node id list (explicit then generated).
func (f *Fleet) NodeIDs() []string {
	if f == nil {
		return nil
	}
	out := make([]string, 0, len(f.Nodes))
	for _, n := range f.Nodes {
		out = append(out, n.ID)
	}
	if g := f.Generate; g != nil {
		prefix := g.Prefix
		if prefix == "" {
			prefix = "sim-"
		}
		for i := 0; i < g.Count; i++ {
			out = append(out, fmt.Sprintf("%s%04d", prefix, i))
		}
	}
	return out
}

// Workload declares the training job the simulated fleet carries — a
// trainsim scenario driven on the shared virtual clock.
type Workload struct {
	// Pipeline is the preprocessing strategy (trainsim.ParsePipeline
	// names: sand, on-demand-cpu, on-demand-gpu, naive-cache, ideal).
	Pipeline trainsim.Pipeline `json:"-"`
	// PipelineName carries Pipeline over JSON.
	PipelineName string `json:"pipeline"`
	// Model is the gpusim workload: slowfast | mae | hdvila | basicvsrpp.
	Model string `json:"model"`
	// Jobs is the number of concurrent training jobs (default 1).
	Jobs int `json:"jobs,omitempty"`
	// Epochs per job (default 6).
	Epochs int `json:"epochs,omitempty"`
	// ItersPerEpoch per job (default 30).
	ItersPerEpoch int `json:"iters_per_epoch,omitempty"`
	// ChunkEpochs is SAND's k (default 5).
	ChunkEpochs int `json:"chunk_epochs,omitempty"`
	// SharedDataset enables cross-job sharing (multi-job settings).
	SharedDataset bool `json:"shared_dataset,omitempty"`
	// RemoteStorage places the dataset behind the WAN link.
	RemoteStorage bool `json:"remote_storage,omitempty"`
}

// Cluster declares a real-engine run: N full SAND nodes (engine + view
// server + heartbeater) behind an in-process fleet registry, read
// through fleet routers by DDP-style workers, with every batch compared
// byte-for-byte against a single-node baseline. Events here are keyed
// by step (at_step), not virtual time — real runs have no virtual clock.
type Cluster struct {
	// Nodes is the number of serving nodes (default 3).
	Nodes int `json:"nodes,omitempty"`
	// Workers is the number of DDP readers sharing the epoch (default 1).
	Workers int `json:"workers,omitempty"`
	// Epochs to read (default 2).
	Epochs int `json:"epochs,omitempty"`
	// ChunkEpochs is the engine's k (default 3).
	ChunkEpochs int `json:"chunk_epochs,omitempty"`
	// Videos sizes the miniature dataset (default 8).
	Videos int `json:"videos,omitempty"`
	// ReadAhead is the view servers' prefetch depth (default 1).
	ReadAhead int `json:"read_ahead,omitempty"`
	// MemBudgetMB caps each engine's in-memory store (0 = engine
	// default); tight budgets force eviction storms.
	MemBudgetMB int `json:"mem_budget_mb,omitempty"`
	// DemandSLOMS arms each engine scheduler's demand-path queue-wait
	// p99 SLO in milliseconds (0 = admission control off). Tiny values
	// force premat admission to engage, exposed to assertions as
	// sched.admission.engaged_ever / released_ever.
	DemandSLOMS float64 `json:"demand_slo_ms,omitempty"`
	// Workload selects the task shape every node serves: "ddp" (the
	// default single-chain resize task) or "reuse_batch" (batches of
	// four single-chain samples whose random crops overlap inside a
	// shared window, exercising cross-sample batch-scoped reuse —
	// exposed to assertions as core.reuse.xsample_ever).
	Workload string `json:"workload,omitempty"`
	// CompareBaseline verifies every fleet-served batch byte-for-byte
	// against a single-node engine with the same (config, seed), feeding
	// the bytes_identical_to_baseline assertion metric (default true).
	CompareBaseline *bool `json:"compare_baseline,omitempty"`
}

// nodeCount resolves Nodes: the fleet size that validation names node
// ids for and the harness boots.
func (c *Cluster) nodeCount() int {
	if c.Nodes <= 0 {
		return 3
	}
	return c.Nodes
}

func (c *Cluster) compareBaseline() bool {
	return c.CompareBaseline == nil || *c.CompareBaseline
}

// Event is one timed fault injection.
type Event struct {
	// At is the firing time in virtual seconds (sim mode).
	At float64 `json:"at,omitempty"`
	// AtStep is the firing step — global batch index — in cluster mode
	// (-1 when unset).
	AtStep int `json:"at_step,omitempty"`
	// Action is the verb.
	Action Action `json:"-"`
	// ActionName carries Action over JSON.
	ActionName string `json:"action"`
	// Target is the node the action applies to; Targets names several
	// (partition). Exactly one of the two is set.
	Target  string   `json:"target,omitempty"`
	Targets []string `json:"targets,omitempty"`
	// Factor is slow_disk's work multiplier (> 1).
	Factor float64 `json:"factor,omitempty"`
	// Duration bounds partition / slow_disk windows, virtual seconds
	// (0 = until scenario end).
	Duration float64 `json:"duration,omitempty"`
}

// targets returns the event's node list regardless of spelling.
func (e *Event) targets() []string {
	if e.Target != "" {
		return []string{e.Target}
	}
	return e.Targets
}

// Chaos configures seed-deterministic random fault injection. The full
// injection timeline is pre-generated from the scenario seed before the
// clock starts, so a chaos run replays exactly from its seed.
type Chaos struct {
	Enabled bool `json:"enabled"`
	// FailureRate is the expected failures per node per virtual minute
	// (Poisson arrivals).
	FailureRate float64 `json:"failure_rate"`
	// RecoveryMean/RecoveryStddev parameterize the normal recovery-delay
	// distribution, virtual seconds (defaults 10s / 3s, floored at 0.1s).
	RecoveryMean   float64 `json:"recovery_mean,omitempty"`
	RecoveryStddev float64 `json:"recovery_stddev,omitempty"`
	// Kinds restricts the injected fault kinds (subset of kill_node,
	// partition, slow_disk; default all three).
	Kinds []string `json:"kinds,omitempty"`
	// SlowFactor is the work multiplier used for injected slow_disk
	// faults (default 4).
	SlowFactor float64 `json:"slow_factor,omitempty"`
}

// Assertion is one check against the scenario's metric snapshot.
type Assertion struct {
	// At is the evaluation time in virtual seconds; AtEnd evaluates
	// after the run completes. Exactly one is set.
	At    float64 `json:"at,omitempty"`
	AtEnd bool    `json:"at_end,omitempty"`
	// Within (cluster mode, at_end only) polls for up to this many real
	// seconds for the expression to become true — "eventually" semantics
	// for real-time failure detection.
	Within float64 `json:"within,omitempty"`
	// Expr is "metric op value" (ops: < <= > >= == !=) or a bare
	// boolean metric name ("bytes_identical_to_baseline").
	Expr string `json:"assert"`
}

// Scenario is one parsed scenario file.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random draw (fleet generation, chaos); same
	// seed, same report.
	Seed int64 `json:"seed,omitempty"`
	// Duration is the sim horizon in virtual seconds (0 = derived from
	// the last event/assertion; chaos requires it explicitly).
	Duration float64 `json:"duration,omitempty"`

	Fleet      *Fleet      `json:"fleet,omitempty"`
	Workload   *Workload   `json:"workload,omitempty"`
	Cluster    *Cluster    `json:"cluster,omitempty"`
	Events     []Event     `json:"events,omitempty"`
	Chaos      *Chaos      `json:"chaos,omitempty"`
	Assertions []Assertion `json:"assertions,omitempty"`

	// File is the source path (reports; "" for in-memory scenarios).
	File string `json:"file,omitempty"`
}

// Kind reports the execution mode: "sim" (virtual clock) or "cluster"
// (real engines).
func (s *Scenario) Kind() string {
	if s.Cluster != nil {
		return "cluster"
	}
	return "sim"
}

// horizon returns the sim-mode run horizon in virtual seconds.
func (s *Scenario) horizon() float64 {
	if s.Duration > 0 {
		return s.Duration
	}
	h := 1.0
	for _, e := range s.Events {
		if t := e.At + e.Duration; t > h {
			h = t
		}
	}
	for _, a := range s.Assertions {
		if a.At > h {
			h = a.At
		}
	}
	return h
}
