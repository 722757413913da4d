package main

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/fleet"
	"sand/internal/obs"
	"sand/internal/vfs"
	"sand/internal/viewserver"
)

// tracedProvider sits between a node's view filesystem and its engine.
// It forwards both Materialize and MaterializePinned, so the zero-copy
// path is the one the real server takes, and records a core.materialize
// span around each call while the recorder is on.
type tracedProvider struct {
	svc  *core.Service
	rec  *recorder
	node int
}

var (
	_ vfs.Provider       = (*tracedProvider)(nil)
	_ vfs.PinnedProvider = (*tracedProvider)(nil)
)

func (p *tracedProvider) span(path string) func() {
	if !p.rec.enabled() {
		return func() {}
	}
	cause := "readahead"
	if p.rec.openInFlight(path) {
		cause = "demand"
	}
	start := p.rec.now()
	return func() {
		p.rec.addMat(matSpan{interval: interval{start, p.rec.now()}, path: path, node: p.node, cause: cause})
	}
}

func (p *tracedProvider) Materialize(path vfs.Path) ([]byte, map[string]string, error) {
	defer p.span(path.Raw)()
	return p.svc.Materialize(path)
}

func (p *tracedProvider) MaterializePinned(path vfs.Path) (*vfs.View, error) {
	defer p.span(path.Raw)()
	return p.svc.MaterializePinned(path)
}

func (p *tracedProvider) List(dir string) ([]string, error) { return p.svc.List(dir) }

// node is one serving member: engine, view filesystem over the traced
// provider, view server on a loopback port, heartbeater.
type node struct {
	name string
	obs  *obs.Registry
	svc  *core.Service
	fs   *vfs.FS
	srv  *viewserver.Server
	hb   *fleet.Heartbeater
}

// cluster is the system under test, booted the way cmd/sandserve boots a
// fleet member, against an in-process registry.
type cluster struct {
	registry *fleet.Registry
	nodes    []*node
	routers  []*fleet.Router
	bootNS   int64 // core.New, summed over nodes
}

func engineOptions(w *workload, ds *dataset.Dataset, planSeed int64) (core.Options, error) {
	tasks, err := w.tasks()
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Tasks:         tasks,
		Dataset:       ds,
		ChunkEpochs:   w.TotalEpochs,
		TotalEpochs:   w.TotalEpochs,
		MemBudget:     w.MemBudget,
		StorageBudget: w.StorageBudget,
		Workers:       engineWorkers,
		Coordinate:    true,
		Seed:          planSeed,
	}, nil
}

// bootCluster starts w.Nodes nodes. spillDir is the parent of the
// engines' cache directories (used only when the workload spills).
func bootCluster(w *workload, ds *dataset.Dataset, planSeed int64, rec *recorder, spillDir string) (*cluster, error) {
	c := &cluster{registry: fleet.NewRegistry(fleet.RegistryOptions{})}
	ann := fleet.LocalAnnouncer{R: c.registry}
	for i := 0; i < w.Nodes; i++ {
		opts, err := engineOptions(w, ds, planSeed)
		if err != nil {
			c.close()
			return nil, err
		}
		n := &node{name: fmt.Sprintf("node%d", i), obs: obs.New()}
		opts.Obs = n.obs
		if w.SpillDir {
			opts.CacheDir = fmt.Sprintf("%s/%s", spillDir, n.name)
		}
		start := time.Now()
		n.svc, err = core.New(opts)
		c.bootNS += time.Since(start).Nanoseconds()
		if err != nil {
			c.close()
			return nil, fmt.Errorf("boot %s: %w", n.name, err)
		}
		c.nodes = append(c.nodes, n)
		n.fs = vfs.New(&tracedProvider{svc: n.svc, rec: rec, node: i})
		n.srv = viewserver.New(n.fs, viewserver.Options{ReadAhead: viewserver.DefaultReadAhead, Obs: n.obs})
		addr, err := n.srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		n.hb, err = fleet.StartHeartbeater(ann, fleet.NodeInfo{
			Name: n.name, Addr: addr.String(), Fingerprint: n.svc.Fingerprint(), Capacity: 1,
		})
		if err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// mount gives each trainer its own router, as separate trainer
// processes would have.
func (c *cluster) mount(n int) []vfs.Mount {
	mounts := make([]vfs.Mount, n)
	for i := range mounts {
		r := fleet.NewRouter(fleet.LocalAnnouncer{R: c.registry}, fleet.RouterOptions{
			Fingerprint: c.nodes[0].svc.Fingerprint(),
		})
		c.routers = append(c.routers, r)
		mounts[i] = r
	}
	return mounts
}

// snapshots reads every node's registry.
func (c *cluster) snapshots() []snapshot {
	out := make([]snapshot, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = takeSnapshot(n.obs)
	}
	return out
}

// routerStats sums the trainers' routing counters.
func (c *cluster) routerStats() fleet.RouterStats {
	sum := fleet.RouterStats{OpensByNode: map[string]int64{}}
	for _, r := range c.routers {
		st := r.Stats()
		sum.Opens += st.Opens
		sum.Failovers += st.Failovers
		sum.Rebinds += st.Rebinds
		for name, v := range st.OpensByNode {
			sum.OpensByNode[name] += v
		}
	}
	return sum
}

// leaks is the cleanliness audit taken after the routers shut down and
// the nodes close.
type leaks struct {
	openFDs     int     // vfs descriptors + viewserver descriptors
	sessions    int     // viewserver sessions
	pinnedBytes float64 // store bytes still pin-leased
}

// close tears the cluster down in the order sandserve does and audits
// what is left. Safe on a partially booted cluster.
func (c *cluster) close() leaks {
	var l leaks
	for _, r := range c.routers {
		r.Shutdown()
	}
	// A router shutdown only closes the sockets; wait until every server
	// has reclaimed the sessions before counting them as leaked.
	deadline := time.Now().Add(2 * time.Second)
	for _, n := range c.nodes {
		for n.srv != nil && n.srv.Stats().OpenSessions > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for _, n := range c.nodes {
		if n.srv != nil {
			st := n.srv.Stats()
			l.openFDs += st.OpenFDs + n.fs.Stats().OpenFDs
			l.sessions += st.OpenSessions
		}
		if n.hb != nil {
			n.hb.Stop()
		}
		if n.srv != nil {
			n.srv.Close()
		}
		n.svc.Close()
		l.pinnedBytes += float64(n.svc.StoreStats().PinnedBytes)
	}
	c.registry.Close()
	return l
}

// reference is the oracle: an in-process engine with the workload's
// (config, seed), read through its own filesystem with no wire, no
// router and a memory tier large enough that nothing spills.
type reference struct {
	svc *core.Service

	mu      sync.Mutex
	digests map[string][sha256.Size]byte
	batch   []byte // one payload, kept for the probes
}

func newReference(w *workload, ds *dataset.Dataset, planSeed int64) (*reference, error) {
	opts, err := engineOptions(w, ds, planSeed)
	if err != nil {
		return nil, err
	}
	opts.Obs = obs.New()
	if w.SpillDir {
		opts.MemBudget = 2 << 30
	}
	svc, err := core.New(opts)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	return &reference{svc: svc, digests: map[string][sha256.Size]byte{}}, nil
}

func (r *reference) close() { r.svc.Close() }

// epoch computes the digests of one epoch's batches, two readers wide
// so the engine's pool stays busy.
func (r *reference) epoch(e, iters int) error {
	fs := r.svc.FS()
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for it := g; it < iters; it += 2 {
				path := vfs.BatchPath(taskTag, e, it)
				fd, err := fs.Open(path)
				if err != nil {
					errs <- fmt.Errorf("reference %s: %w", path, err)
					return
				}
				data, err := fs.ReadAll(fd)
				fs.Close(fd)
				if err != nil {
					errs <- fmt.Errorf("reference %s: %w", path, err)
					return
				}
				r.mu.Lock()
				r.digests[path] = sha256.Sum256(data)
				r.batch = data
				r.mu.Unlock()
			}
			errs <- nil
		}(g)
	}
	var first error
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// verify counts the reads whose payload digest differs from the
// reference's. Every path must have been computed by epoch first.
func (r *reference) verify(reads []readRecord) (mismatches int64, err error) {
	for _, rd := range reads {
		want, ok := r.digests[rd.path]
		if !ok {
			return 0, fmt.Errorf("no reference digest for %s", rd.path)
		}
		if want != rd.digest {
			mismatches++
		}
	}
	return mismatches, nil
}
