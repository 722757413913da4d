package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sand/internal/config"
	"sand/internal/dataset"
	"sand/internal/graph"
	"sand/internal/obs"
	"sand/internal/sched"
	"sand/internal/storage"
	"sand/internal/vfs"
)

// Options configures a SAND service.
type Options struct {
	// Tasks are the validated task configurations sharing this service
	// (one for single-task training; several for multi-task or
	// hyperparameter-search scenarios).
	Tasks []*config.Task
	// Dataset is the video corpus all tasks read.
	Dataset *dataset.Dataset
	// ChunkEpochs is k: videos are decoded once and their objects cached
	// for k epochs before the plan refreshes.
	ChunkEpochs int
	// TotalEpochs bounds the training run.
	TotalEpochs int
	// StorageBudget caps cached-object bytes per chunk (Algorithm 1).
	StorageBudget int64
	// MemBudget caps the in-memory object tier.
	MemBudget int64
	// CacheDir enables the persistent disk tier ("" = memory only).
	CacheDir string
	// Workers sizes the preprocessing pool (the paper's 12 vCPUs).
	Workers int
	// Coordinate enables shared-pool/shared-window planning; disable to
	// reproduce the uncoordinated baseline.
	Coordinate bool
	// Lookahead is how many iterations ahead pre-materialization runs.
	Lookahead int
	// Seed drives all planning randomness.
	Seed int64
	// GOPCacheBudget caps the decoded-GOP cache (bytes of reconstructed
	// frames shared across samples). 0 defaults to MemBudget/4. The
	// budget is fixed: memory pressure does not shrink it.
	GOPCacheBudget int64
	// DemandSLO is the demand-path queue-wait p99 SLO handed to the
	// scheduler's admission control: past it, pre-materialization stops
	// being admitted until the demand path recovers (DESIGN.md §11).
	// 0 disables admission control.
	DemandSLO time.Duration
	// Obs is the observability registry receiving the engine's traces,
	// gauges and histograms. Nil uses obs.Default(), so binaries that
	// never touch observability still aggregate into the process-wide
	// registry.
	Obs *obs.Registry
}

func (o *Options) normalize() error {
	if len(o.Tasks) == 0 {
		return fmt.Errorf("core: at least one task required")
	}
	if o.Dataset == nil || len(o.Dataset.Videos) == 0 {
		return fmt.Errorf("core: dataset required")
	}
	for _, t := range o.Tasks {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	if o.ChunkEpochs <= 0 {
		o.ChunkEpochs = 3
	}
	if o.TotalEpochs <= 0 {
		o.TotalEpochs = o.ChunkEpochs
	}
	if o.MemBudget <= 0 {
		o.MemBudget = 256 << 20
	}
	if o.StorageBudget <= 0 {
		o.StorageBudget = o.MemBudget
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Lookahead <= 0 {
		o.Lookahead = 4
	}
	if o.GOPCacheBudget <= 0 {
		o.GOPCacheBudget = o.MemBudget / 4
	}
	return nil
}

// iterationKey addresses one training iteration of one task.
type iterationKey struct {
	task  string
	epoch int
	iter  int
}

// Service is the SAND engine.
type Service struct {
	opts  Options
	tasks map[string]*config.Task
	ds    *dataset.Dataset
	store *storage.Store
	pool  *sched.Pool
	gops  *gopCache
	fs    *vfs.FS

	reg      *obs.Registry
	tr       *obs.Tracer
	histView *obs.Histogram // view-read latency (ns), demand + premat-hit

	// Event counters, exposed only through the "core" and "core.reuse"
	// obs snapshots. Atomic: readers and workers bump them concurrently.
	chunksPlanned  atomic.Int64
	demandMisses   atomic.Int64 // reads that found their batch unbuilt and waited for it
	prematHits     atomic.Int64 // batches already materialized when read
	flightJoins    atomic.Int64 // demand reads that waited on a build running or owned by an earlier read
	objectsReused  atomic.Int64 // frames served from a cached store object
	unstored       atomic.Int64 // frame objects and batches too large for the memory tier
	streamedVideos atomic.Int64
	supersetHits   atomic.Int64 // views served from a shared superset region
	supersetMisses atomic.Int64 // superset regions computed fresh
	xsampleHits    atomic.Int64 // superset hits served through a cross-sample group
	xsampleGroups  atomic.Int64 // planned groups spanning more than one sample

	mu sync.Mutex
	// chunk state
	chunkStart int // first epoch of the active chunk
	plan       *graph.ChunkPlan
	pruneRes   graph.PruneResult
	// schedule maps iterations to the samples that form their batch.
	schedule map[iterationKey][]*graph.Sample
	// itersByChunk maps a chunk start epoch to each task's iteration
	// count within that chunk (datasets can grow between chunks).
	itersByChunk map[int]map[string]int
	// currentPos tracks demand progress per task (epoch, iter) for
	// deadline math and streaming invalidation.
	currentPos map[string]iterationKey
	// prematSubmitted dedupes pre-materialization submissions.
	prematSubmitted map[iterationKey]bool
	// plannedChunks records chunk start epochs already planned.
	plannedChunks map[int]bool
	// flights holds the one queued or running build of each batch, so a
	// demand read joins or promotes it instead of building it again.
	flights map[iterationKey]*batchFlight
	// buildStarted, when set (tests only), is called by the goroutine
	// that claims a flight, before it builds.
	buildStarted func(iterationKey)
	// cachedFingerprint is the configuration hash used by the plan
	// manifest (fault-tolerance checkpointing).
	cachedFingerprint string
}

// New creates and starts a service.
func New(opts Options) (*Service, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	s := &Service{
		opts:            opts,
		tasks:           map[string]*config.Task{},
		ds:              opts.Dataset,
		schedule:        map[iterationKey][]*graph.Sample{},
		itersByChunk:    map[int]map[string]int{},
		currentPos:      map[string]iterationKey{},
		prematSubmitted: map[iterationKey]bool{},
		plannedChunks:   map[int]bool{},
		flights:         map[iterationKey]*batchFlight{},
	}
	for _, t := range opts.Tasks {
		if _, dup := s.tasks[t.Tag]; dup {
			return nil, fmt.Errorf("core: duplicate task tag %q", t.Tag)
		}
		s.tasks[t.Tag] = t
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	s.reg = reg
	s.tr = reg.Trace()
	s.histView = reg.Histogram("core.view_read_ns")
	st, err := storage.Open(storage.Options{
		MemBudget:    opts.MemBudget,
		Dir:          opts.CacheDir,
		ColdCompress: true, // spills deflate when that shrinks them
		Obs:          reg,
	})
	if err != nil {
		return nil, err
	}
	s.store = st
	// Fault tolerance (§5.5): refuse to reuse a cache directory written
	// by an incompatible configuration — the persisted objects would not
	// match this run's plans.
	s.cachedFingerprint = s.fingerprint()
	if err := s.validateManifest(); err != nil {
		return nil, err
	}
	// The GOP cache must exist before the pool: workers sample
	// memPressure, which reads it.
	s.gops = newGOPCache(opts.GOPCacheBudget)
	s.gops.tr = s.tr
	// The scheduler sees the engine's combined footprint (object store +
	// decoded-GOP cache against the same budget), so the SJF switch
	// reflects total memory, not just the store tier — the store alone
	// evicts back below 75% and would never cross the 80% threshold.
	pool, err := sched.NewPool(sched.Options{
		Workers:      opts.Workers,
		MemPressure:  s.memPressure,
		OnError:      s.onTaskError,
		AdmissionSLO: opts.DemandSLO,
		Obs:          reg,
	})
	if err != nil {
		return nil, err
	}
	s.pool = pool
	reg.Gauge("core.mem_pressure", s.memPressure)
	reg.SnapshotFunc("core", func() map[string]int64 {
		return map[string]int64{
			"chunks_planned":     s.chunksPlanned.Load(),
			"demand_misses":      s.demandMisses.Load(),
			"premat_hits":        s.prematHits.Load(),
			"flight_joins":       s.flightJoins.Load(),
			"objects_reused":     s.objectsReused.Load(),
			"unstored_objects":   s.unstored.Load(),
			"streamed_videos":    s.streamedVideos.Load(),
			"gop_hits":           s.gops.hits.Load(),
			"gop_misses":         s.gops.misses.Load(),
			"gop_evictions":      s.gops.evictions.Load(),
			"gop_frames_decoded": s.gops.framesDecoded.Load(),
		}
	})
	reg.SnapshotFunc("core.reuse", func() map[string]int64 {
		return map[string]int64{
			"superset_hits":   s.supersetHits.Load(),
			"superset_misses": s.supersetMisses.Load(),
			"xsample_hits":    s.xsampleHits.Load(),
			"xsample_groups":  s.xsampleGroups.Load(),
		}
	})
	s.fs = vfs.New(s)
	if err := s.planChunk(0); err != nil {
		pool.Abort()
		return nil, err
	}
	if err := s.checkpointManifest(); err != nil {
		pool.Abort()
		return nil, err
	}
	return s, nil
}

// FS returns the view filesystem.
func (s *Service) FS() *vfs.FS { return s.fs }

// Obs returns the service's observability registry.
func (s *Service) Obs() *obs.Registry { return s.reg }

// Fingerprint returns the configuration hash covering task configs,
// dataset identity and seed — the same value the plan manifest checks.
// Fleet nodes announce it so a router only spreads view opens across
// nodes that would serve byte-identical views.
func (s *Service) Fingerprint() string { return s.cachedFingerprint }

// memPressure is the engine-wide memory signal fed to the scheduler: the
// object store's fill plus the decoded-GOP cache's footprint, both
// against the configured memory budget. The store alone self-limits at
// the 75% eviction threshold, so only the combined value can cross the
// scheduler's 80% SJF switch.
func (s *Service) memPressure() float64 {
	p := s.store.MemPressure()
	if s.gops != nil {
		p += float64(s.gops.bytesNow()) / float64(s.opts.MemBudget)
	}
	return p
}

// StoreStats returns the storage tier's counters. Only bench/ reads them
// this way; everything else reads the "storage" obs snapshot.
func (s *Service) StoreStats() storage.Stats { return s.store.Stats() }

// PruneResult returns the active chunk's pruning summary.
func (s *Service) PruneResult() graph.PruneResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pruneRes
}

// ItersInEpoch returns the iteration count of one epoch for a task,
// planning the epoch's chunk if necessary. With a static dataset every
// epoch has the same count; under streaming ingest later chunks grow.
func (s *Service) ItersInEpoch(task string, epoch int) (int, error) {
	if _, ok := s.tasks[task]; !ok {
		return 0, fmt.Errorf("core: unknown task %q", task)
	}
	if epoch < 0 || epoch >= s.opts.TotalEpochs {
		return 0, fmt.Errorf("core: epoch %d outside training (%d epochs)", epoch, s.opts.TotalEpochs)
	}
	start := (epoch / s.opts.ChunkEpochs) * s.opts.ChunkEpochs
	s.mu.Lock()
	planned := s.plannedChunks[start]
	s.mu.Unlock()
	if !planned {
		if err := s.planChunk(start); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	byTask, ok := s.itersByChunk[start]
	if !ok {
		return 0, fmt.Errorf("core: chunk %d not planned", start)
	}
	return byTask[task], nil
}

// ItersPerEpoch returns the iteration count of the first epoch — the
// stable value for static datasets. Prefer ItersInEpoch under streaming.
func (s *Service) ItersPerEpoch(task string) (int, error) {
	return s.ItersInEpoch(task, 0)
}

// Close shuts the engine down, draining in-flight work.
func (s *Service) Close() {
	s.pool.Abort()
}

// snapshot returns the current dataset under the service lock. The
// returned value is immutable by convention: ExtendDataset replaces the
// whole *dataset.Dataset rather than mutating it, so holders of a
// snapshot can read it without further locking.
func (s *Service) snapshot() *dataset.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ds
}

// ExtendDataset appends freshly ingested videos (the streaming input
// source, §5.1's "input_source: streaming"): the new entries become part
// of every epoch planned from the next chunk boundary onward. Entries
// must have distinct names and encoded payloads.
func (s *Service) ExtendDataset(entries []dataset.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := &dataset.Dataset{Name: s.ds.Name}
	next.Videos = append(next.Videos, s.ds.Videos...)
	for _, e := range entries {
		if e.Video == nil {
			return fmt.Errorf("core: streamed video %q has no payload", e.Spec.Name)
		}
		if _, dup := next.Find(e.Spec.Name); dup {
			return fmt.Errorf("core: streamed video %q already in dataset", e.Spec.Name)
		}
		next.Videos = append(next.Videos, e)
	}
	s.ds = next
	s.streamedVideos.Add(int64(len(entries)))

	// Invalidate plans for chunks that have not started yet (lookahead
	// pre-materialization may have planned them against the old dataset):
	// their schedules, dedupe marks and any already-built batches are
	// dropped so the next access re-plans over the extended dataset.
	maxEpoch := 0
	for _, pos := range s.currentPos {
		if pos.epoch > maxEpoch {
			maxEpoch = pos.epoch
		}
	}
	activeStart := (maxEpoch / s.opts.ChunkEpochs) * s.opts.ChunkEpochs
	for start := range s.plannedChunks {
		if start <= activeStart {
			continue
		}
		delete(s.plannedChunks, start)
		delete(s.itersByChunk, start)
		end := start + s.opts.ChunkEpochs
		for key := range s.schedule {
			if key.epoch >= start && key.epoch < end {
				delete(s.schedule, key)
			}
		}
		for key := range s.prematSubmitted {
			if key.epoch >= start && key.epoch < end {
				delete(s.prematSubmitted, key)
			}
		}
		for tag := range s.tasks {
			for e := start; e < end; e++ {
				for _, k := range s.store.Keys(fmt.Sprintf("/batch/%s/%d/", tag, e)) {
					_ = s.store.Delete(k)
				}
			}
		}
	}
	return nil
}

// planChunk builds the concrete plan for the k epochs starting at
// startEpoch, prunes it to the storage budget, and lays out the iteration
// schedule (which samples form which batch).
func (s *Service) planChunk(startEpoch int) error {
	epochs := s.opts.ChunkEpochs
	if startEpoch+epochs > s.opts.TotalEpochs {
		epochs = s.opts.TotalEpochs - startEpoch
	}
	if epochs <= 0 {
		return fmt.Errorf("core: no epochs left to plan at %d", startEpoch)
	}
	specs := make([]graph.TaskSpec, 0, len(s.tasks))
	tags := make([]string, 0, len(s.tasks))
	for tag := range s.tasks {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		specs = append(specs, graph.TaskSpec{Task: s.tasks[tag]})
	}
	ds := s.snapshot()
	metas := make([]graph.VideoMeta, len(ds.Videos))
	for i := range ds.Videos {
		e := &ds.Videos[i]
		metas[i] = graph.VideoMeta{
			Name:   e.Spec.Name,
			Frames: e.Spec.Frames,
			W:      e.Spec.W, H: e.Spec.H, C: e.Spec.C,
			GOP: e.Spec.GOP,
		}
		if e.Video != nil {
			metas[i].EncodedBytes = int64(e.Video.Bytes())
		}
	}
	plan, err := graph.BuildChunkPlan(specs, metas, graph.PlanParams{
		StartEpoch: startEpoch,
		Epochs:     epochs,
		Coordinate: s.opts.Coordinate,
		Seed:       s.opts.Seed + int64(startEpoch)*7919,
	})
	if err != nil {
		return err
	}
	res, err := graph.PrunePlan(plan, s.opts.StorageBudget)
	if err != nil {
		return err
	}

	// Index samples by (task, epoch, video, sampleIdx).
	type sampleKey struct {
		task   string
		epoch  int
		video  string
		sample int
	}
	byKey := make(map[sampleKey]*graph.Sample, len(plan.Samples))
	for _, sm := range plan.Samples {
		byKey[sampleKey{sm.Task, sm.Epoch, sm.Video, sm.SampleIdx}] = sm
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plannedChunks[startEpoch] {
		return nil // another goroutine planned this chunk already
	}
	s.plannedChunks[startEpoch] = true
	s.chunkStart = startEpoch
	s.plan = plan
	s.pruneRes = res
	s.chunksPlanned.Add(1)

	// Per task and epoch: shuffle videos (each task independently — the
	// once-per-epoch coverage rule holds per task) and group them into
	// batches.
	for _, tag := range tags {
		t := s.tasks[tag]
		vpb := t.Sampling.VideosPerBatch
		nVideos := len(ds.Videos)
		iters := (nVideos + vpb - 1) / vpb
		if s.itersByChunk[startEpoch] == nil {
			s.itersByChunk[startEpoch] = map[string]int{}
		}
		s.itersByChunk[startEpoch][tag] = iters
		for e := startEpoch; e < startEpoch+epochs; e++ {
			order := rand.New(rand.NewSource(s.opts.Seed ^ int64(e)<<16 ^ int64(len(tag))*31)).Perm(nVideos)
			for it := 0; it < iters; it++ {
				key := iterationKey{tag, e, it}
				for v := it * vpb; v < (it+1)*vpb && v < nVideos; v++ {
					video := ds.Videos[order[v]].Spec.Name
					for sIdx := 0; sIdx < t.Sampling.SamplesPerVideo; sIdx++ {
						sm, ok := byKey[sampleKey{tag, e, video, sIdx}]
						if !ok {
							return fmt.Errorf("core: plan missing sample %s/%d/%s/%d", tag, e, video, sIdx)
						}
						s.schedule[key] = append(s.schedule[key], sm)
					}
				}
			}
		}
	}
	return nil
}

// scheduleFor returns the samples of one iteration, planning the next
// chunk transparently when the epoch crosses the chunk boundary.
func (s *Service) scheduleFor(key iterationKey) ([]*graph.Sample, error) {
	if _, ok := s.tasks[key.task]; !ok {
		return nil, fmt.Errorf("%w: unknown task %q", vfs.ErrNotExist, key.task)
	}
	if key.epoch >= s.opts.TotalEpochs {
		return nil, fmt.Errorf("%w: epoch %d beyond training (%d epochs)", vfs.ErrNotExist, key.epoch, s.opts.TotalEpochs)
	}
	start := (key.epoch / s.opts.ChunkEpochs) * s.opts.ChunkEpochs
	s.mu.Lock()
	samples, ok := s.schedule[key]
	planned := s.plannedChunks[start]
	s.mu.Unlock()
	if !ok && !planned {
		// The epoch's chunk has not been planned (or was invalidated by a
		// dataset extension): plan it now. planChunk is idempotent per chunk.
		if err := s.planChunk(start); err != nil {
			return nil, err
		}
		// Best-effort checkpoint: recovery replans deterministically anyway.
		_ = s.checkpointManifest()
		s.mu.Lock()
		samples, ok = s.schedule[key]
		s.mu.Unlock()
	}
	if !ok {
		// A planned chunk without this key: the iteration is past the end
		// of its epoch, and replanning would not add it.
		return nil, fmt.Errorf("%w: iteration %v not in plan", vfs.ErrNotExist, key)
	}
	return samples, nil
}
