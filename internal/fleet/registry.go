package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"sand/internal/obs"
)

// Registry errors.
var (
	// ErrUnknownNode reports a heartbeat/drain for a node the registry
	// does not consider alive; the node must (re-)announce.
	ErrUnknownNode = errors.New("fleet: unknown or dead node")
	// ErrBadAnnounce reports an announcement missing name or address.
	ErrBadAnnounce = errors.New("fleet: announce needs name and addr")
)

// RegistryOptions tunes the registry's failure detector.
type RegistryOptions struct {
	// SuspectAfter is how long past the last heartbeat a healthy node
	// turns suspect (default 2s).
	SuspectAfter time.Duration
	// DeadAfter is how long past the last heartbeat (or announce) a node
	// is declared dead (default 3× SuspectAfter).
	DeadAfter time.Duration
	// HeartbeatEvery is the interval the registry advertises to nodes in
	// announce responses (default SuspectAfter/4).
	HeartbeatEvery time.Duration
	// Now overrides the clock (tests, simulated fleets). Default
	// time.Now.
	Now func() time.Time
	// DisableSweeper skips the background deadline-sweeper goroutine,
	// which checks deadlines every SuspectAfter/2. Deadlines are still
	// applied on every read, so state queries stay exact — only
	// push-style consumers lose proactive transitions. The scenario
	// harness sets this when Now is a virtual clock: with no real-time
	// ticker the registry becomes fully deterministic.
	DisableSweeper bool
	// Obs receives fleet gauges (node counts by state). Nil disables.
	Obs *obs.Registry
}

func (o *RegistryOptions) normalize() {
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 2 * time.Second
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 3 * o.SuspectAfter
	}
	if o.DeadAfter < o.SuspectAfter {
		o.DeadAfter = o.SuspectAfter
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = o.SuspectAfter / 4
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// nodeRec is the registry's mutable record of one node.
type nodeRec struct {
	info        NodeInfo
	state       NodeState
	gen         int
	announcedAt time.Time
	lastBeat    time.Time
	history     []Transition
}

// Registry tracks the fleet's nodes and drives each one's health state
// machine from heartbeat deadlines. Safe for concurrent use. It is both
// a plain Go API (in-process fleets, tests) and an HTTP service
// (Handler/Start) speaking JSON.
type Registry struct {
	opts RegistryOptions

	mu    sync.Mutex
	nodes map[string]*nodeRec

	collector *Collector

	stop     chan struct{}
	sweeping sync.WaitGroup
}

// NewRegistry creates a registry and starts its deadline sweeper.
func NewRegistry(opts RegistryOptions) *Registry {
	opts.normalize()
	r := &Registry{opts: opts, nodes: map[string]*nodeRec{}, stop: make(chan struct{})}
	if reg := opts.Obs; reg != nil {
		reg.SnapshotFunc("fleet", func() map[string]int64 {
			out := map[string]int64{}
			for _, st := range r.Nodes() {
				out["nodes."+st.State.String()]++
				out["nodes.total"]++
			}
			return out
		})
	}
	if opts.DisableSweeper {
		return r
	}
	r.sweeping.Add(1)
	go func() {
		defer r.sweeping.Done()
		t := time.NewTicker(r.opts.SuspectAfter / 2)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.mu.Lock()
				r.sweepLocked(r.opts.Now())
				r.mu.Unlock()
			}
		}
	}()
	return r
}

// Close stops the background sweeper. The registry remains readable.
func (r *Registry) Close() {
	r.mu.Lock()
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.mu.Unlock()
	r.sweeping.Wait()
}

// setStateLocked records a transition and applies it.
func (rec *nodeRec) setStateLocked(to NodeState, at time.Time) {
	if rec.state == to {
		return
	}
	rec.history = append(rec.history, Transition{
		From: rec.state, To: to, At: at,
		FromName: rec.state.String(), ToName: to.String(),
	})
	rec.state = to
}

// Announce registers a node (or re-registers one that died/restarted):
// it enters the announced state and stays unroutable until its first
// heartbeat. Re-announcing bumps the node's generation and replaces its
// advertised info.
func (r *Registry) Announce(info NodeInfo) error {
	if info.Name == "" || info.Addr == "" {
		return ErrBadAnnounce
	}
	now := r.opts.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.nodes[info.Name]
	if !ok {
		rec = &nodeRec{state: StateAnnounced, history: []Transition{{
			From: StateAnnounced, To: StateAnnounced, At: now,
			FromName: StateAnnounced.String(), ToName: StateAnnounced.String(),
		}}}
		r.nodes[info.Name] = rec
	} else {
		rec.setStateLocked(StateAnnounced, now)
	}
	rec.info = info
	rec.gen++
	rec.announcedAt = now
	rec.lastBeat = time.Time{}
	return nil
}

// Heartbeat records liveness: announced and suspect nodes recover to
// healthy, draining nodes stay draining (alive but not routable). A
// heartbeat from an unknown or dead node returns ErrUnknownNode — the
// node must re-announce.
func (r *Registry) Heartbeat(name string) error {
	now := r.opts.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	rec, ok := r.nodes[name]
	if !ok || rec.state == StateDead {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	rec.lastBeat = now
	if rec.state == StateAnnounced || rec.state == StateSuspect || rec.state == StateHealthy {
		rec.setStateLocked(StateHealthy, now)
	}
	return nil
}

// Drain marks a live node draining: it keeps its descriptors and
// heartbeats but receives no new opens; when its heartbeats stop it goes
// dead like any other node.
func (r *Registry) Drain(name string) error {
	now := r.opts.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	rec, ok := r.nodes[name]
	if !ok || rec.state == StateDead {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	rec.setStateLocked(StateDraining, now)
	return nil
}

// Forget declares a node dead immediately (clean shutdown after a
// drain). Its record and history remain visible.
func (r *Registry) Forget(name string) error {
	now := r.opts.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	rec.setStateLocked(StateDead, now)
	return nil
}

// sweepLocked applies heartbeat deadlines as of now.
func (r *Registry) sweepLocked(now time.Time) {
	for _, rec := range r.nodes {
		if rec.state == StateDead {
			continue
		}
		base := rec.lastBeat
		if base.IsZero() {
			base = rec.announcedAt
		}
		silent := now.Sub(base)
		switch {
		case silent > r.opts.DeadAfter:
			rec.setStateLocked(StateDead, now)
		case silent > r.opts.SuspectAfter && rec.state == StateHealthy:
			rec.setStateLocked(StateSuspect, now)
		}
	}
}

// snapshotLocked copies one record.
func (rec *nodeRec) snapshotLocked() NodeStatus {
	st := NodeStatus{
		Info:      rec.info,
		State:     rec.state,
		StateName: rec.state.String(),
		Gen:       rec.gen,
		LastBeat:  rec.lastBeat,
		History:   append([]Transition(nil), rec.history...),
	}
	return st
}

// Nodes returns every known node (including dead ones), deadline-swept,
// sorted by name.
func (r *Registry) Nodes() []NodeStatus {
	now := r.opts.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	out := make([]NodeStatus, 0, len(r.nodes))
	for _, rec := range r.nodes {
		out = append(out, rec.snapshotLocked())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.Name < out[j].Info.Name })
	return out
}

// Node returns one node's status.
func (r *Registry) Node(name string) (NodeStatus, bool) {
	now := r.opts.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	rec, ok := r.nodes[name]
	if !ok {
		return NodeStatus{}, false
	}
	return rec.snapshotLocked(), true
}

// AttachCollector serves the collector's merged exposition at the
// registry's /metrics (the "one scrape endpoint per fleet" shape).
func (r *Registry) AttachCollector(c *Collector) { r.collector = c }

// FleetStatus is the /fleet summary.
type FleetStatus struct {
	Nodes  []NodeStatus   `json:"nodes"`
	Counts map[string]int `json:"counts"`
	// HeartbeatEvery is the interval nodes are asked to beat at.
	HeartbeatEvery time.Duration `json:"heartbeat_every_ns"`
}

// Status returns the fleet summary served at /fleet.
func (r *Registry) Status() FleetStatus {
	nodes := r.Nodes()
	counts := map[string]int{}
	for _, n := range nodes {
		counts[n.State.String()]++
	}
	return FleetStatus{Nodes: nodes, Counts: counts, HeartbeatEvery: r.opts.HeartbeatEvery}
}

// announceResponse tells the node how often to heartbeat.
type announceResponse struct {
	OK             bool          `json:"ok"`
	HeartbeatEvery time.Duration `json:"heartbeat_every_ns"`
}

// nameRequest is the body of heartbeat/drain/forget calls.
type nameRequest struct {
	Name string `json:"name"`
}

// Handler returns the registry's HTTP surface:
//
//	POST /v1/announce   NodeInfo JSON → {ok, heartbeat_every_ns}
//	POST /v1/heartbeat  {"name": ...}; 410 Gone → re-announce
//	POST /v1/drain      {"name": ...}
//	POST /v1/forget     {"name": ...}
//	GET  /v1/nodes      [NodeStatus]
//	GET  /fleet         FleetStatus
//	GET  /metrics       merged fleet exposition (when a Collector is attached)
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/announce", func(w http.ResponseWriter, req *http.Request) {
		var info NodeInfo
		if err := json.NewDecoder(req.Body).Decode(&info); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := r.Announce(info); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, announceResponse{OK: true, HeartbeatEvery: r.opts.HeartbeatEvery})
	})
	named := func(fn func(string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, req *http.Request) {
			var body nameRequest
			if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := fn(body.Name); err != nil {
				status := http.StatusBadRequest
				if errors.Is(err, ErrUnknownNode) {
					status = http.StatusGone
				}
				http.Error(w, err.Error(), status)
				return
			}
			writeJSON(w, map[string]bool{"ok": true})
		}
	}
	mux.HandleFunc("POST /v1/heartbeat", named(r.Heartbeat))
	mux.HandleFunc("POST /v1/drain", named(r.Drain))
	mux.HandleFunc("POST /v1/forget", named(r.Forget))
	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, r.Nodes())
	})
	mux.HandleFunc("GET /fleet", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, r.Status())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		if r.collector == nil {
			http.Error(w, "fleet: no collector attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.collector.WritePrometheus(w)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Start serves the registry's Handler on addr in a background goroutine,
// returning the bound address (useful with ":0") and a shutdown func.
func (r *Registry) Start(addr string) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: r.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), srv.Close, nil
}
