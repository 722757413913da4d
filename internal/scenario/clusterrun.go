package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/fleet"
	"sand/internal/obs"
	"sand/internal/vfs"
)

// Cluster mode runs the scenario against real engines: a fleetHarness
// of N full nodes, read through per-worker fleet routers in DDP-style
// step groups. Events are keyed by the global batch index (at_step) and
// fire at the group boundary at or after that step. The mode's central
// check is data identity: every batch served
// through the fleet — across kills, drains and failovers — is hashed
// and (by default) compared byte-for-byte against a single-node
// baseline engine with the same (config, seed).

// clusterTask is the fixed DDP task cluster scenarios serve. Batches
// derive deterministically from (task, seed), which is what makes the
// baseline comparison meaningful.
func clusterTask() *config.Task {
	return &config.Task{
		Tag:         "ddp",
		Source:      config.SourceFile,
		DatasetPath: "/dataset/kinetics-mini",
		Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: 6, FrameStride: 2, SamplesPerVideo: 1},
		Stages: []config.Stage{{
			Name: "resize", Type: config.BranchSingle,
			Inputs: []string{"frame"}, Outputs: []string{"a0"},
			Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{48, 48}}}},
		}},
	}
}

// clusterReuseTasks is the "reuse_batch" workload: batches of four
// single-chain samples of one video whose random 48x48 crops resolve
// inside a shared coordination window — a per-sample reuse planner has
// nothing to group (each sample is one chain), so any cross-sample
// superset hit is attributable to batch-scoped planning. The helper
// task only widens the shared crop window (its tag sorts after the
// measured task's, where the chunk planner anchors window geometry;
// it is never read). The measured task keeps the "ddp" tag so batch
// paths and the baseline comparison are identical to the default
// workload's.
func clusterReuseTasks() (*config.Task, []*config.Task) {
	measured := &config.Task{
		Tag:         "ddp",
		Source:      config.SourceFile,
		DatasetPath: "/dataset/kinetics-mini",
		Sampling:    config.Sampling{VideosPerBatch: 1, FramesPerVideo: 6, FrameStride: 2, SamplesPerVideo: 4},
		Stages: []config.Stage{{
			Name: "aug", Type: config.BranchSingle,
			Inputs: []string{"frame"}, Outputs: []string{"a0"},
			Ops: []config.OpSpec{
				{Op: "resize", Params: map[string]any{"shape": []any{56, 56}}},
				{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
			},
		}},
	}
	helper := &config.Task{
		Tag:         "zwin",
		Source:      config.SourceFile,
		DatasetPath: "/dataset/kinetics-mini",
		Sampling:    config.Sampling{VideosPerBatch: 1, FramesPerVideo: 1, FrameStride: 1, SamplesPerVideo: 1},
		Stages: []config.Stage{{
			Name: "wide", Type: config.BranchSingle,
			Inputs: []string{"frame"}, Outputs: []string{"a0"},
			Ops: []config.OpSpec{
				{Op: "resize", Params: map[string]any{"shape": []any{56, 56}}},
				{Op: "random_crop", Params: map[string]any{"shape": []any{52, 52}}},
			},
		}},
	}
	return measured, []*config.Task{helper}
}

// runCluster executes a cluster-mode scenario.
func runCluster(sc *Scenario, tracer *obs.Tracer) (*Report, error) {
	c := sc.Cluster
	nodes := c.nodeCount()
	workers := c.Workers
	if workers <= 0 {
		workers = 1
	}
	epochs := c.Epochs
	if epochs <= 0 {
		epochs = 2
	}
	chunkEpochs := c.ChunkEpochs
	if chunkEpochs <= 0 {
		chunkEpochs = 3
	}
	videos := c.Videos
	if videos <= 0 {
		videos = 8
	}
	readAhead := c.ReadAhead
	if readAhead <= 0 {
		readAhead = 1
	}
	seed := sc.Seed
	if seed == 0 {
		seed = 33
	}

	ds, err := dataset.Kinetics400.Miniature(videos, 64, 64, 60, seed)
	if err != nil {
		return nil, err
	}
	task := clusterTask()
	var extraTasks []*config.Task
	if c.Workload == "reuse_batch" {
		task, extraTasks = clusterReuseTasks()
	}
	h, err := newFleetHarness(core.Options{
		Tasks:       append([]*config.Task{task}, extraTasks...),
		Dataset:     ds,
		ChunkEpochs: chunkEpochs,
		TotalEpochs: epochs,
		MemBudget:   int64(c.MemBudgetMB) << 20,
		Workers:     2,
		Coordinate:  true,
		Seed:        seed,
		DemandSLO:   time.Duration(c.DemandSLOMS * float64(time.Millisecond)),
	}, nodes, readAhead, c.compareBaseline())
	if err != nil {
		return nil, err
	}
	defer h.close()

	// Per-epoch iteration counts, resolved before any fault fires (a
	// killed node's engine cannot answer afterwards).
	itersBy := make([]int, epochs)
	totalSteps := 0
	for e := 0; e < epochs; e++ {
		n, err := h.nodes[0].svc.ItersInEpoch(task.Tag, e)
		if err != nil {
			return nil, err
		}
		itersBy[e] = n
		totalSteps += n
	}

	routers := make([]*fleet.Router, workers)
	for i := range routers {
		routers[i] = h.newRouter()
		defer routers[i].Shutdown()
	}

	// Events fire at the first step-group boundary at or after at_step.
	pending := make([]Event, len(sc.Events))
	copy(pending, sc.Events)

	crep := &ClusterReport{
		Nodes:          nodes,
		Workers:        workers,
		BytesIdentical: c.compareBaseline(),
	}
	eventsFired := 0
	var hashes []byte
	var mismatch error

	node := func(target string) (*harnessNode, error) {
		var i int
		if _, err := fmt.Sscanf(target, "node%d", &i); err != nil || i < 0 || i >= len(h.nodes) {
			return nil, fmt.Errorf("scenario: bad cluster node id %q", target)
		}
		return h.nodes[i], nil
	}

	global := 0
	for e := 0; e < epochs && mismatch == nil; e++ {
		for i := 0; i < itersBy[e] && mismatch == nil; i += workers {
			// Fire due events at this group boundary.
			for len(pending) > 0 && pending[0].AtStep <= global {
				ev := pending[0]
				pending = pending[1:]
				eventsFired++
				for _, t := range ev.targets() {
					n, err := node(t)
					if err != nil {
						return nil, err
					}
					switch ev.Action {
					case ActionKillNode:
						tracer.Instant("scenario", "kill_node", 0, t)
						n.kill()
					case ActionDrainNode:
						tracer.Instant("scenario", "drain_node", 0, t)
						if err := h.registry.Drain(n.name); err != nil {
							return nil, err
						}
					}
				}
			}
			// One DDP step group: workers read consecutive iterations in
			// parallel, then barrier.
			n := workers
			if i+n > itersBy[e] {
				n = itersBy[e] - i
			}
			type got struct {
				iter int
				sum  [32]byte
				err  error
			}
			outs := make([]got, n)
			var wg sync.WaitGroup
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					iter := i + w
					path := vfs.BatchPath(task.Tag, e, iter)
					b, err := readAll(routers[w], path)
					if err != nil {
						outs[w] = got{iter: iter, err: fmt.Errorf("epoch %d iter %d through fleet: %w", e, iter, err)}
						return
					}
					outs[w] = got{iter: iter, sum: sha256.Sum256(b)}
				}(w)
			}
			wg.Wait()
			for w := 0; w < n; w++ {
				if outs[w].err != nil {
					return nil, outs[w].err
				}
				crep.Batches++
				hashes = append(hashes, outs[w].sum[:]...)
				if h.baseline != nil {
					path := vfs.BatchPath(task.Tag, e, outs[w].iter)
					want, err := readAll(h.baseline.FS(), path)
					if err != nil {
						return nil, err
					}
					crep.Compared++
					if sha256.Sum256(want) != outs[w].sum {
						crep.BytesIdentical = false
						mismatch = fmt.Errorf("batch %s differs from single-node baseline", path)
						tracer.Instant("scenario", "mismatch", 0, path)
					}
				}
			}
			global += n
		}
	}
	sum := sha256.Sum256(hashes)
	crep.Digest = hex.EncodeToString(sum[:])

	snapshot := func() *obs.Snapshot {
		snap := (*obs.Registry)(nil).Snapshot()
		total := 0
		census := map[string]int{}
		for _, st := range h.registry.Nodes() {
			census[st.State.String()]++
			total++
		}
		for _, state := range []string{"announced", "healthy", "suspect", "dead", "draining"} {
			snap.Set("nodes."+state, float64(census[state]))
		}
		snap.Set("nodes.total", float64(total))
		snap.Set("cluster.batches", float64(crep.Batches))
		snap.Set("cluster.compared", float64(crep.Compared))
		snap.Set("events.fired", float64(eventsFired))
		b := 0.0
		if crep.BytesIdentical && crep.Compared > 0 {
			b = 1
		}
		snap.Set("bytes_identical_to_baseline", b)
		var failovers int64
		for _, r := range routers {
			failovers += r.Stats().Failovers
		}
		snap.Set("fleet.failovers", float64(failovers))
		// Admission control across the fleet, booleans only: engage and
		// release counts depend on wall-clock queue waits, but with a
		// scenario SLO armed the "did it ever engage" bit is
		// deterministic, so it is safe for the run-twice report diff.
		engagedEver, releasedEver := 0.0, 0.0
		for _, n := range h.nodes {
			st := n.svc.SchedStats()
			if st.AdmissionEngages > 0 {
				engagedEver = 1
			}
			if st.AdmissionReleases > 0 {
				releasedEver = 1
			}
		}
		snap.Set("sched.admission.engaged_ever", engagedEver)
		snap.Set("sched.admission.released_ever", releasedEver)
		// Cross-sample reuse across the fleet, boolean for the same
		// reason: which node serves which batch depends on router health
		// races, so per-node hit counts are nondeterministic — but with
		// the reuse_batch workload some node always materializes a
		// multi-sample batch, so "did batch-scoped planning ever share
		// across samples" is safe for the run-twice report diff.
		xsampleEver := 0.0
		for _, n := range h.nodes {
			if n.svc.ReuseStats().XSampleHits > 0 {
				xsampleEver = 1
			}
		}
		snap.Set("core.reuse.xsample_ever", xsampleEver)
		return snap
	}

	var results []AssertionResult
	for _, a := range sc.Assertions {
		ce, err := compileExpr(a.Expr)
		res := AssertionResult{Expr: a.Expr, AtEnd: true}
		if err != nil {
			res.Err = err.Error()
			results = append(results, res)
			continue
		}
		// within: poll real time for eventually-true conditions (failure
		// detection runs on wall-clock deadlines in cluster mode).
		deadline := time.Now().Add(secs(a.Within))
		for {
			res.OK, res.Observed, err = ce.Eval(snapshot())
			if err != nil {
				res.Err = err.Error()
				res.OK = false
				break
			}
			if res.OK || a.Within <= 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		results = append(results, res)
	}

	rep := &Report{
		Scenario:    sc.Name,
		Description: sc.Description,
		File:        sc.File,
		Kind:        "cluster",
		Seed:        sc.Seed,
		EventsFired: eventsFired,
		Cluster:     crep,
		Assertions:  results,
	}
	rep.finishAssertions()
	// Deliberately no NodeStates / Metrics here: registry state at exit
	// depends on wall-clock deadline races, and the report must stay
	// byte-identical across runs.
	return rep, nil
}

// readAll runs the open/read-all/close cycle on any mount.
func readAll(m vfs.Mount, path string) ([]byte, error) {
	fd, err := m.Open(path)
	if err != nil {
		return nil, err
	}
	defer m.Close(fd)
	return m.ReadAll(fd)
}
