package cluster

import (
	"fmt"
	"time"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/fleet"
	"sand/internal/obs"
	"sand/internal/viewserver"
)

// FleetHarness is the scenario harness's real-engine substrate: N full
// SAND nodes — each with its own engine, view server, private obs
// registry and heartbeater — announced to an in-process fleet registry.
// Every node runs the same (config, seed), so views are byte-identical
// across nodes and any of them can serve any batch; an optional
// baseline engine with the same configuration provides the ground
// truth for byte-for-byte comparison. Unlike Cluster (which models the
// DDP consumer side), the harness's purpose is fault injection: nodes
// can be killed or drained mid-run and routers fail reads over.
type FleetHarness struct {
	opts     HarnessOptions
	registry *fleet.Registry
	nodes    []*HarnessNode
	baseline *core.Service
}

// HarnessOptions configures a FleetHarness.
type HarnessOptions struct {
	// Nodes is the fleet size (default 3).
	Nodes int
	// Task is the training task every node serves.
	Task *config.Task
	// ExtraTasks are additional tasks registered on every node (and the
	// baseline) alongside Task — never read by the harness itself, but
	// they shape shared planning state such as coordinated crop windows.
	ExtraTasks []*config.Task
	// Dataset is shared by every node (views derive from (config, seed),
	// so sharing the in-memory dataset is safe).
	Dataset *dataset.Dataset
	// ChunkEpochs / TotalEpochs / Workers / MemBudget / Seed configure
	// each node's engine identically.
	ChunkEpochs int
	TotalEpochs int
	Workers     int
	MemBudget   int64
	Seed        int64
	// ReadAhead is each node's view server prefetch depth (0 = off).
	ReadAhead int
	// DemandSLO arms each engine scheduler's demand-path queue-wait p99
	// SLO (0 = admission control off); see sched.Options.AdmissionSLO.
	DemandSLO time.Duration
	// SuspectAfter / DeadAfter tune the registry's failure detector
	// (defaults 400ms / 1200ms — fast enough for test-sized runs).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Baseline builds the single-node reference engine.
	Baseline bool
}

// HarnessNode is one serving member of the harness fleet.
type HarnessNode struct {
	Name string
	reg  *obs.Registry
	svc  *core.Service
	srv  *viewserver.Server
	hb   *fleet.Heartbeater
	down bool
}

// Down reports whether the node has been killed.
func (n *HarnessNode) Down() bool { return n.down }

// Service exposes the node's engine.
func (n *HarnessNode) Service() *core.Service { return n.svc }

// NewFleetHarness stands the fleet up: registry, N announced nodes,
// and (optionally) the baseline engine.
func NewFleetHarness(opts HarnessOptions) (*FleetHarness, error) {
	if opts.Task == nil || opts.Dataset == nil {
		return nil, fmt.Errorf("cluster: harness needs a task and a dataset")
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 400 * time.Millisecond
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = 3 * opts.SuspectAfter
	}
	h := &FleetHarness{opts: opts}
	h.registry = fleet.NewRegistry(fleet.RegistryOptions{
		SuspectAfter: opts.SuspectAfter,
		DeadAfter:    opts.DeadAfter,
	})
	ann := fleet.LocalAnnouncer{R: h.registry}
	for i := 0; i < opts.Nodes; i++ {
		n, err := h.startNode(i, ann)
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("cluster: harness node %d: %w", i, err)
		}
		h.nodes = append(h.nodes, n)
	}
	if opts.Baseline {
		svc, err := h.newService()
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("cluster: harness baseline: %w", err)
		}
		h.baseline = svc
	}
	return h, nil
}

func (h *FleetHarness) tasks() []*config.Task {
	return append([]*config.Task{h.opts.Task}, h.opts.ExtraTasks...)
}

func (h *FleetHarness) newService() (*core.Service, error) {
	return core.New(core.Options{
		Tasks:       h.tasks(),
		Dataset:     h.opts.Dataset,
		ChunkEpochs: h.opts.ChunkEpochs,
		TotalEpochs: h.opts.TotalEpochs,
		MemBudget:   h.opts.MemBudget,
		Workers:     h.opts.Workers,
		Coordinate:  true,
		Seed:        h.opts.Seed,
		DemandSLO:   h.opts.DemandSLO,
	})
}

func (h *FleetHarness) startNode(i int, ann fleet.LocalAnnouncer) (*HarnessNode, error) {
	reg := obs.New()
	svc, err := core.New(core.Options{
		Tasks:       h.tasks(),
		Dataset:     h.opts.Dataset,
		ChunkEpochs: h.opts.ChunkEpochs,
		TotalEpochs: h.opts.TotalEpochs,
		MemBudget:   h.opts.MemBudget,
		Workers:     h.opts.Workers,
		Coordinate:  true,
		Seed:        h.opts.Seed,
		DemandSLO:   h.opts.DemandSLO,
		Obs:         reg,
	})
	if err != nil {
		return nil, err
	}
	srv := viewserver.New(svc.FS(), viewserver.Options{ReadAhead: h.opts.ReadAhead, Obs: reg})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	n := &HarnessNode{
		Name: fmt.Sprintf("node%d", i),
		reg:  reg,
		svc:  svc,
		srv:  srv,
	}
	n.hb, err = fleet.StartHeartbeater(ann, fleet.NodeInfo{
		Name:        n.Name,
		Addr:        addr.String(),
		Fingerprint: svc.Fingerprint(),
		Capacity:    1,
	})
	if err != nil {
		srv.Close()
		svc.Close()
		return nil, err
	}
	return n, nil
}

// Registry exposes the harness's control plane.
func (h *FleetHarness) Registry() *fleet.Registry { return h.registry }

// Nodes returns the fleet members.
func (h *FleetHarness) Nodes() []*HarnessNode { return h.nodes }

// Baseline returns the reference engine (nil unless requested).
func (h *FleetHarness) Baseline() *core.Service { return h.baseline }

// NewRouter mounts the fleet: a health-aware router bound to the
// shared fingerprint, ready for vfs reads.
func (h *FleetHarness) NewRouter() *fleet.Router {
	return fleet.NewRouter(fleet.LocalAnnouncer{R: h.registry}, fleet.RouterOptions{
		Fingerprint:  h.nodes[0].svc.Fingerprint(),
		RefreshEvery: 50 * time.Millisecond,
	})
}

// Kill stops node i cold: heartbeats cease, the view server closes, the
// engine shuts down. The registry walks it suspect → dead on deadlines
// and routers fail its opens over to survivors.
func (h *FleetHarness) Kill(i int) error {
	if i < 0 || i >= len(h.nodes) {
		return fmt.Errorf("cluster: harness has no node %d", i)
	}
	n := h.nodes[i]
	if n.down {
		return nil
	}
	n.down = true
	n.hb.Stop()
	n.srv.Close()
	n.svc.Close()
	return nil
}

// Drain marks node i draining in the registry: it keeps serving
// existing descriptors but receives no new opens.
func (h *FleetHarness) Drain(i int) error {
	if i < 0 || i >= len(h.nodes) {
		return fmt.Errorf("cluster: harness has no node %d", i)
	}
	return h.registry.Drain(h.nodes[i].Name)
}

// Close tears everything down (idempotent, safe on partial startup).
func (h *FleetHarness) Close() {
	for _, n := range h.nodes {
		if n.down {
			continue
		}
		n.down = true
		n.hb.Stop()
		n.srv.Close()
		n.svc.Close()
	}
	if h.baseline != nil {
		h.baseline.Close()
		h.baseline = nil
	}
	if h.registry != nil {
		h.registry.Close()
	}
}
