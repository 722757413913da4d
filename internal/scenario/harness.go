package scenario

import (
	"fmt"
	"time"

	"sand/internal/core"
	"sand/internal/fleet"
	"sand/internal/obs"
	"sand/internal/viewserver"
)

// The harness registry's failure-detector deadlines: fast enough for
// test-sized runs.
const (
	harnessSuspectAfter = 400 * time.Millisecond
	harnessDeadAfter    = 1200 * time.Millisecond
)

// fleetHarness is cluster mode's real-engine substrate: N full SAND
// nodes — each with its own engine, view server, private obs registry
// and heartbeater — announced to an in-process fleet registry. Every
// node runs the same engine options, so views are byte-identical across
// nodes and any of them can serve any batch; an optional baseline
// engine with the same options is the ground truth for byte-for-byte
// comparison. Nodes can be killed or drained mid-run while routers fail
// reads over.
type fleetHarness struct {
	registry *fleet.Registry
	nodes    []*harnessNode
	baseline *core.Service // nil unless requested
}

// harnessNode is one serving member of the harness fleet.
type harnessNode struct {
	name string
	svc  *core.Service
	srv  *viewserver.Server
	hb   *fleet.Heartbeater
	down bool
}

// newFleetHarness stands the fleet up: the registry, nodes node0..node{n-1}
// announced in order (each view server prefetching readAhead views),
// then — if baseline — the single-node reference engine.
func newFleetHarness(engine core.Options, nodes, readAhead int, baseline bool) (*fleetHarness, error) {
	h := &fleetHarness{registry: fleet.NewRegistry(fleet.RegistryOptions{
		SuspectAfter: harnessSuspectAfter,
		DeadAfter:    harnessDeadAfter,
	})}
	ann := fleet.LocalAnnouncer{R: h.registry}
	for i := 0; i < nodes; i++ {
		n, err := startHarnessNode(i, engine, readAhead, ann)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("scenario: harness node %d: %w", i, err)
		}
		h.nodes = append(h.nodes, n)
	}
	if baseline {
		svc, err := core.New(engine)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("scenario: harness baseline: %w", err)
		}
		h.baseline = svc
	}
	return h, nil
}

// startHarnessNode boots node i: an engine reporting to a private obs
// registry, its view server on a loopback port, and a heartbeater
// announcing both.
func startHarnessNode(i int, engine core.Options, readAhead int, ann fleet.LocalAnnouncer) (*harnessNode, error) {
	engine.Obs = obs.New()
	svc, err := core.New(engine)
	if err != nil {
		return nil, err
	}
	srv := viewserver.New(svc.FS(), viewserver.Options{ReadAhead: readAhead, Obs: engine.Obs})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	n := &harnessNode{name: fmt.Sprintf("node%d", i), svc: svc, srv: srv}
	n.hb, err = fleet.StartHeartbeater(ann, fleet.NodeInfo{
		Name:        n.name,
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

// newRouter mounts the fleet: a health-aware router bound to the
// shared fingerprint, ready for vfs reads.
func (h *fleetHarness) newRouter() *fleet.Router {
	return fleet.NewRouter(fleet.LocalAnnouncer{R: h.registry}, fleet.RouterOptions{
		Fingerprint:  h.nodes[0].svc.Fingerprint(),
		RefreshEvery: 50 * time.Millisecond,
	})
}

// kill stops the node cold: heartbeats cease, the view server closes,
// the engine shuts down. The registry walks it suspect → dead on
// deadlines and routers fail its opens over to survivors. Killing a
// dead node is a no-op.
func (n *harnessNode) kill() {
	if n.down {
		return
	}
	n.down = true
	n.hb.Stop()
	n.srv.Close()
	n.svc.Close()
}

// close tears everything down: surviving nodes in boot order, the
// baseline, then the registry.
func (h *fleetHarness) close() {
	for _, n := range h.nodes {
		n.kill()
	}
	if h.baseline != nil {
		h.baseline.Close()
	}
	h.registry.Close()
}
