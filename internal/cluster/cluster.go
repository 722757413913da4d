// Package cluster provides the distributed substrate for SAND's
// data-parallel experiments: a bandwidth-accounted remote store (the
// Filestore/data-lake role), nodes that each run a full SAND engine over
// a locally cached copy of the dataset, and a DDP coordinator that shards
// iterations across nodes with a synchronization barrier per step —
// a minimal stand-in for the paper's Ray deployment.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/fleet"
	"sand/internal/frame"
	"sand/internal/viewserver"
)

// RemoteStore serves encoded videos and accounts every byte transferred,
// so experiments can compare network traffic across pipelines.
type RemoteStore struct {
	mu sync.Mutex
	ds *dataset.Dataset

	bytesServed int64
	fetches     int
}

// NewRemoteStore wraps a dataset as remote storage.
func NewRemoteStore(ds *dataset.Dataset) (*RemoteStore, error) {
	if ds == nil || len(ds.Videos) == 0 {
		return nil, fmt.Errorf("cluster: remote store needs a dataset")
	}
	return &RemoteStore{ds: ds}, nil
}

// Fetch transfers one encoded video, accounting its bytes.
func (r *RemoteStore) Fetch(name string) (*dataset.Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ent, ok := r.ds.Find(name)
	if !ok || ent.Video == nil {
		return nil, fmt.Errorf("cluster: remote store has no video %q", name)
	}
	r.bytesServed += int64(ent.Video.Bytes())
	r.fetches++
	return ent, nil
}

// FetchAll transfers the whole dataset (what a node does once when its
// local SSD can hold the encoded corpus).
func (r *RemoteStore) FetchAll() (*dataset.Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &dataset.Dataset{Name: r.ds.Name}
	for i := range r.ds.Videos {
		e := r.ds.Videos[i]
		if e.Video == nil {
			return nil, fmt.Errorf("cluster: video %s has no payload", e.Spec.Name)
		}
		r.bytesServed += int64(e.Video.Bytes())
		r.fetches++
		out.Videos = append(out.Videos, e)
	}
	return out, nil
}

// BytesServed returns total bytes transferred from the store.
func (r *RemoteStore) BytesServed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytesServed
}

// Fetches returns the number of fetch operations.
func (r *RemoteStore) Fetches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fetches
}

// Node is one training worker. In the default mode it runs a SAND engine
// over a local dataset copy; in RemoteViews mode it is a thin consumer
// reading batch views from the shared view server through a real socket.
type Node struct {
	ID     int
	svc    *core.Service
	ldr    *core.Loader
	cli    *viewserver.Client // non-nil in RemoteViews mode
	router *fleet.Router      // non-nil in fleet-routed RemoteViews mode

	mu      sync.Mutex
	batches int
	clips   int
}

// Service exposes the node's engine (for stats).
func (n *Node) Service() *core.Service { return n.svc }

// Router exposes the node's fleet router (nil outside fleet mode).
func (n *Node) Router() *fleet.Router { return n.router }

// Batches returns how many batches the node has consumed.
func (n *Node) Batches() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.batches
}

// Clips returns how many clips the node has consumed.
func (n *Node) Clips() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.clips
}

// Options configures a cluster.
type Options struct {
	// Nodes is the number of workers (1 GPU each in the paper's setup).
	Nodes int
	// Task is the training task every node runs (DDP: same model).
	Task *config.Task
	// Engine options applied per node (chunking, budgets, workers).
	ChunkEpochs   int
	TotalEpochs   int
	MemBudget     int64
	StorageBudget int64
	Workers       int
	Seed          int64
	// RemoteViews switches the dataplane from per-node in-process engines
	// to a real network mount: one shared engine exports its view
	// filesystem through a viewserver on loopback TCP, and every node
	// reads batch views through a viewserver.Client. Bytes on the wire
	// are then measured from real socket traffic, not simulated.
	RemoteViews bool
	// ReadAhead is the view server's sequential prefetch depth in
	// RemoteViews mode (0 = off; viewserver.DefaultReadAhead is the
	// recommended depth).
	ReadAhead int
	// FleetServers (RemoteViews mode) exports the shared engine through
	// that many viewserver replicas registered in a fleet control plane;
	// every worker then mounts through a fleet.Router (rendezvous-hashed
	// shard routing, health-aware failover) instead of one direct
	// client. 0 keeps the single direct connection.
	FleetServers int
}

// Cluster coordinates DDP training over a remote store.
type Cluster struct {
	opts  Options
	store *RemoteStore
	nodes []*Node

	// RemoteViews-mode dataplane (nil otherwise): the shared engine and
	// the server exporting its views.
	central *core.Service
	vsrv    *viewserver.Server

	// Fleet-routed RemoteViews dataplane (FleetServers > 0): replica
	// servers, their heartbeaters and the registry they announce to.
	fsrvs    []*viewserver.Server
	fhbs     []*fleet.Heartbeater
	registry *fleet.Registry

	mu       sync.Mutex
	barriers int
}

// New builds the cluster: each node fetches the dataset once from the
// remote store (SAND's fetch-once behaviour) and starts its engine.
func New(store *RemoteStore, opts Options) (*Cluster, error) {
	if store == nil {
		return nil, fmt.Errorf("cluster: remote store required")
	}
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if opts.Task == nil {
		return nil, fmt.Errorf("cluster: task required")
	}
	c := &Cluster{opts: opts, store: store}
	if opts.RemoteViews {
		if err := c.buildRemoteViews(); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
	for i := 0; i < opts.Nodes; i++ {
		local, err := store.FetchAll()
		if err != nil {
			return nil, err
		}
		svc, err := core.New(core.Options{
			Tasks:         []*config.Task{opts.Task},
			Dataset:       local,
			ChunkEpochs:   opts.ChunkEpochs,
			TotalEpochs:   opts.TotalEpochs,
			MemBudget:     opts.MemBudget,
			StorageBudget: opts.StorageBudget,
			Workers:       opts.Workers,
			Coordinate:    true,
			Seed:          opts.Seed + int64(i)*101,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		ldr, err := svc.NewLoader(opts.Task.Tag)
		if err != nil {
			svc.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, &Node{ID: i, svc: svc, ldr: ldr})
	}
	return c, nil
}

// buildRemoteViews stands up the network dataplane: the view-server node
// fetches the corpus once, runs the single shared engine, and exports its
// VFS over loopback TCP; workers mount it through viewserver.Client.
func (c *Cluster) buildRemoteViews() error {
	local, err := c.store.FetchAll()
	if err != nil {
		return err
	}
	svc, err := core.New(core.Options{
		Tasks:         []*config.Task{c.opts.Task},
		Dataset:       local,
		ChunkEpochs:   c.opts.ChunkEpochs,
		TotalEpochs:   c.opts.TotalEpochs,
		MemBudget:     c.opts.MemBudget,
		StorageBudget: c.opts.StorageBudget,
		Workers:       c.opts.Workers,
		Coordinate:    true,
		Seed:          c.opts.Seed,
	})
	if err != nil {
		return fmt.Errorf("cluster: view-server engine: %w", err)
	}
	c.central = svc
	if c.opts.FleetServers > 0 {
		return c.buildFleetViews(svc)
	}
	c.vsrv = viewserver.New(svc.FS(), viewserver.Options{ReadAhead: c.opts.ReadAhead})
	addr, err := c.vsrv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cluster: view server listen: %w", err)
	}
	for i := 0; i < c.opts.Nodes; i++ {
		cli, err := viewserver.Dial("tcp", addr.String(), viewserver.ClientOptions{})
		if err != nil {
			return fmt.Errorf("cluster: node %d dial: %w", i, err)
		}
		ldr, err := core.NewRemoteLoader(cli, c.opts.Task.Tag)
		if err != nil {
			return err
		}
		c.nodes = append(c.nodes, &Node{ID: i, svc: svc, ldr: ldr, cli: cli})
	}
	return nil
}

// buildFleetViews stands up the fleet-routed dataplane: FleetServers
// viewserver replicas over the shared engine, each announced to an
// in-process fleet registry with heartbeats; every worker mounts the
// fleet through its own router, so opens spread across replicas and a
// dying replica fails over instead of failing the epoch.
func (c *Cluster) buildFleetViews(svc *core.Service) error {
	c.registry = fleet.NewRegistry(fleet.RegistryOptions{
		SuspectAfter: 500 * time.Millisecond,
		DeadAfter:    1500 * time.Millisecond,
	})
	ann := fleet.LocalAnnouncer{R: c.registry}
	for i := 0; i < c.opts.FleetServers; i++ {
		srv := viewserver.New(svc.FS(), viewserver.Options{ReadAhead: c.opts.ReadAhead})
		addr, err := srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("cluster: replica %d listen: %w", i, err)
		}
		c.fsrvs = append(c.fsrvs, srv)
		name := fmt.Sprintf("replica%d", i)
		hb, err := fleet.StartHeartbeater(ann, fleet.NodeInfo{
			Name:        name,
			Addr:        addr.String(),
			Fingerprint: svc.Fingerprint(),
		})
		if err != nil {
			return fmt.Errorf("cluster: replica %d announce: %w", i, err)
		}
		c.fhbs = append(c.fhbs, hb)
	}
	for i := 0; i < c.opts.Nodes; i++ {
		router := fleet.NewRouter(ann, fleet.RouterOptions{
			Fingerprint:  svc.Fingerprint(),
			RefreshEvery: 100 * time.Millisecond,
		})
		ldr, err := core.NewRemoteLoader(router, c.opts.Task.Tag)
		if err != nil {
			router.Shutdown()
			return err
		}
		c.nodes = append(c.nodes, &Node{ID: i, svc: svc, ldr: ldr, router: router})
	}
	return nil
}

// Nodes returns the cluster's workers.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// ViewServer returns the RemoteViews-mode dataplane server (nil in the
// in-process and fleet modes) for stats inspection.
func (c *Cluster) ViewServer() *viewserver.Server { return c.vsrv }

// FleetServers returns the fleet-mode replica servers (nil otherwise).
func (c *Cluster) FleetServers() []*viewserver.Server { return c.fsrvs }

// Registry returns the fleet-mode control plane (nil otherwise).
func (c *Cluster) Registry() *fleet.Registry { return c.registry }

// WireBytes returns payload bytes actually moved over sockets by the
// batch dataplane — measured, not simulated. Zero unless RemoteViews.
func (c *Cluster) WireBytes() int64 {
	var total int64
	if c.vsrv != nil {
		total += c.vsrv.Stats().BytesServed
	}
	for _, srv := range c.fsrvs {
		total += srv.Stats().BytesServed
	}
	return total
}

// Barriers returns how many DDP synchronization barriers completed.
func (c *Cluster) Barriers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.barriers
}

// Close shuts every node down. In RemoteViews mode the clients, the
// server and the single shared engine are torn down in dataplane order.
func (c *Cluster) Close() {
	if c.opts.RemoteViews {
		for _, n := range c.nodes {
			if n.cli != nil {
				n.cli.Shutdown()
			}
			if n.router != nil {
				n.router.Shutdown()
			}
		}
		for _, hb := range c.fhbs {
			hb.Stop()
		}
		if c.vsrv != nil {
			c.vsrv.Close()
		}
		for _, srv := range c.fsrvs {
			srv.Close()
		}
		if c.registry != nil {
			c.registry.Close()
		}
		if c.central != nil {
			c.central.Close()
		}
		return
	}
	for _, n := range c.nodes {
		n.svc.Close()
	}
}

// StepResult is one node's contribution to a DDP step.
type StepResult struct {
	Node  int
	Batch *frame.Batch
	Meta  core.BatchMeta
}

// RunEpoch executes one DDP epoch: iterations are sharded round-robin
// across nodes; after each global step the nodes synchronize (the
// allreduce barrier). onStep, if non-nil, observes every node's batch.
func (c *Cluster) RunEpoch(epoch int, onStep func(StepResult)) error {
	iters, err := c.nodes[0].svc.ItersInEpoch(c.opts.Task.Tag, epoch)
	if err != nil {
		return err
	}
	for step := 0; step < iters; step += len(c.nodes) {
		var wg sync.WaitGroup
		errs := make([]error, len(c.nodes))
		results := make([]*StepResult, len(c.nodes))
		for ni, n := range c.nodes {
			iter := step + ni
			if iter >= iters {
				break
			}
			wg.Add(1)
			go func(ni int, n *Node, iter int) {
				defer wg.Done()
				batch, meta, err := n.ldr.Next(epoch, iter)
				if err != nil {
					errs[ni] = fmt.Errorf("cluster: node %d epoch %d iter %d: %w", n.ID, epoch, iter, err)
					return
				}
				n.mu.Lock()
				n.batches++
				n.clips += batch.Len()
				n.mu.Unlock()
				results[ni] = &StepResult{Node: n.ID, Batch: batch, Meta: meta}
			}(ni, n, iter)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		// Allreduce barrier: every node has delivered its gradient.
		c.mu.Lock()
		c.barriers++
		c.mu.Unlock()
		if onStep != nil {
			for _, r := range results {
				if r != nil {
					onStep(*r)
				}
			}
		}
	}
	return nil
}

// Run executes epochs [0, epochs).
func (c *Cluster) Run(epochs int, onStep func(StepResult)) error {
	for e := 0; e < epochs; e++ {
		if err := c.RunEpoch(e, onStep); err != nil {
			return err
		}
	}
	return nil
}
