package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"sand/internal/codec"
	"sand/internal/config"
	"sand/internal/dataset"
	"sand/internal/frame"
	"sand/internal/graph"
	"sand/internal/obs"
)

// oracleBatch materializes one iteration the slow, obviously correct way:
// every frame of every sample is decoded by a fresh decoder (so it rolls
// forward from its keyframe) and run through each chain's resolved ops
// with Apply — no fusion, GOP cache, object store or reuse plan. It
// shares only the engine's schedule, so it checks materialization, not
// planning.
func oracleBatch(s *Service, key iterationKey) ([]byte, error) {
	samples, err := s.scheduleFor(key)
	if err != nil {
		return nil, err
	}
	return oracleSamples(s, key, samples)
}

// oracleSamples is oracleBatch over an already scheduled iteration.
func oracleSamples(s *Service, key iterationKey, samples []*graph.Sample) ([]byte, error) {
	var err error
	batch := &frame.Batch{Epoch: key.epoch, Iteration: key.iter}
	for _, sm := range samples {
		ent, ok := s.snapshot().Find(sm.Video)
		if !ok {
			return nil, fmt.Errorf("oracle: video %q not in dataset", sm.Video)
		}
		// Apply leaves its input untouched, so chains share the sources.
		src := make([]*frame.Frame, len(sm.FrameIndices))
		for pos, idx := range sm.FrameIndices {
			dec := codec.NewDecoder(ent.Video, nil)
			src[pos], err = dec.Frame(idx)
			if err != nil {
				return nil, err
			}
		}
		var frames []*frame.Frame
		for _, chain := range sm.Chains {
			clip := make([]*frame.Frame, len(sm.FrameIndices))
			for pos, idx := range sm.FrameIndices {
				f := src[pos]
				for _, rop := range chain.Ops {
					out, err := rop.Op.Apply(&frame.Clip{Frames: []*frame.Frame{f}}, nil)
					if err != nil {
						return nil, err
					}
					f = out.Frames[0]
				}
				f.Index = idx
				clip[pos] = f
			}
			if chain.Reversed {
				for i, j := 0, len(clip)-1; i < j; i, j = i+1, j-1 {
					clip[i], clip[j] = clip[j], clip[i]
				}
			}
			frames = append(frames, clip...)
		}
		c, err := frame.NewClip(frames)
		if err != nil {
			return nil, err
		}
		batch.Clips = append(batch.Clips, c)
		batch.Labels = append(batch.Labels, ent.Spec.Label)
	}
	return EncodeBatch(batch)
}

// oracleMemo shares the oracle's bytes among the engines of one fixture.
// Every oracleEnv plans from the same tasks, dataset and seed, so their
// schedules agree and the reference is computed once per batch instead
// of once per engine. Entries are keyed by the batch and its whole
// schedule, every op's concrete type and fields included, so an engine
// whose schedule differs gets its own reference.
type oracleMemo struct {
	mu    sync.Mutex
	bytes map[string][]byte
}

// batch returns the oracle's bytes for key; a nil memo computes them
// afresh.
func (m *oracleMemo) batch(s *Service, key iterationKey) ([]byte, error) {
	if m == nil {
		return oracleBatch(s, key)
	}
	samples, err := s.scheduleFor(key)
	if err != nil {
		return nil, err
	}
	var id strings.Builder
	fmt.Fprintf(&id, "%v", key)
	for _, sm := range samples {
		fmt.Fprintf(&id, "|%s %v", sm.Video, sm.FrameIndices)
		for _, ch := range sm.Chains {
			fmt.Fprintf(&id, " %v", ch.Reversed)
			for _, op := range ch.Ops {
				fmt.Fprintf(&id, " %T%+v", op.Op, op.Op)
			}
		}
	}
	m.mu.Lock()
	want, ok := m.bytes[id.String()]
	m.mu.Unlock()
	if ok {
		return want, nil
	}
	if want, err = oracleSamples(s, key, samples); err == nil {
		m.mu.Lock()
		m.bytes[id.String()] = want
		m.mu.Unlock()
	}
	return want, err
}

// checkOracle reads every iteration of every task and epoch through the
// engine's demand path and fails on the first batch whose bytes differ
// from the oracle's (taken from memo when it is non-nil).
func checkOracle(t testing.TB, s *Service, memo *oracleMemo) {
	t.Helper()
	tags := make([]string, 0, len(s.tasks))
	for tag := range s.tasks {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		for epoch := 0; epoch < s.opts.TotalEpochs; epoch++ {
			iters, err := s.ItersInEpoch(tag, epoch)
			if err != nil {
				t.Fatal(err)
			}
			for it := 0; it < iters; it++ {
				key := iterationKey{tag, epoch, it}
				got, err := s.ensureBatch(key)
				if err != nil {
					t.Fatalf("engine %v: %v", key, err)
				}
				want, err := memo.batch(s, key)
				if err != nil {
					t.Fatalf("oracle %v: %v", key, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v: engine batch (%d bytes) differs from the oracle's (%d bytes)", key, len(got), len(want))
				}
			}
		}
	}
}

// oracleEnv is one engine configuration a fixture runs under.
type oracleEnv struct {
	name          string
	workers       int
	memBudget     int64
	storageBudget int64 // 0 = default (MemBudget)
	cacheDir      bool
}

// oracleEnvs crosses one worker (batches build one at a time) and eight
// (batches build concurrently, sharing GOP-cache entries and derived
// frames) with three stores: a roomy memory tier with store-tier caching pruned away or
// planned in full, and one so tight that fresh batches are evicted
// before they are read and objects spill to a disk tier.
var oracleEnvs = []oracleEnv{
	{"w1-nostore", 1, 64 << 20, 1, false},
	{"w8-nostore", 8, 64 << 20, 1, false},
	{"w1-roomy", 1, 64 << 20, 0, false},
	{"w8-roomy", 8, 64 << 20, 0, false},
	{"w1-tight", 1, 160 << 10, 0, true},
	{"w8-tight", 8, 160 << 10, 0, true},
}

// oracleRows runs one fixture under every oracleEnv: all batches must
// equal the oracle's, then expect (when non-nil) checks the service's
// reuse counters; roomy reports a 64 MiB memory tier, where derived
// frames stay cached long enough for hit counts to be meaningful.
func oracleRows(t *testing.T, tasks []*config.Task, ds *dataset.Dataset, expect func(t *testing.T, s *Service, roomy bool)) {
	memo := &oracleMemo{bytes: map[string][]byte{}}
	for _, env := range oracleEnvs {
		t.Run(env.name, func(t *testing.T) {
			t.Parallel()
			opts := Options{
				Tasks:         tasks,
				Dataset:       ds,
				ChunkEpochs:   2,
				TotalEpochs:   2,
				MemBudget:     env.memBudget,
				StorageBudget: env.storageBudget,
				Workers:       env.workers,
				Coordinate:    true,
				Seed:          11,
				Obs:           obs.New(),
			}
			if env.cacheDir {
				opts.CacheDir = t.TempDir()
			}
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkOracle(t, s, memo)
			if expect != nil {
				expect(t, s, env.memBudget >= 64<<20)
			}
		})
	}
}

// oracleDataset is one fixture corpus; prefix tags subtest names.
type oracleDataset struct {
	name, prefix string
	ds           *dataset.Dataset
}

// oracleDatasets returns the moving, perfectly static and spatially
// partial motion corpora every fixture runs over.
func oracleDatasets(t testing.TB) []oracleDataset {
	return []oracleDataset{
		{"moving", "", miniDataset(t, 4)},
		{"static", "static-", staticMiniDataset(t, 4)},
		{"partial", "partial-", partialMotionDataset(t, 3)},
	}
}

// TestOracleGenerated checks the engine against the oracle over seeded
// random configurations: datasets, one or two tasks of random ops in
// single or multi/merge stages, sampling, worker counts, memory, storage
// and GOP-cache budgets and chunk boundaries. The generator
// is deterministic, so -run TestOracleGenerated/seed-N replays a failure.
func TestOracleGenerated(t *testing.T) {
	corpora := map[string]*dataset.Dataset{}
	for seed := int64(1); seed <= 64; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			opts := genOracleOptions(t, seed, corpora)
			t.Parallel()
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkOracle(t, s, nil)
		})
	}
}

// genOracleOptions draws one engine configuration from seed, reusing
// corpora across seeds. Two shapes the chunk planner cannot serve are
// excluded by construction (DESIGN.md §9): a random_crop after another
// crop, and coordinated tasks whose random crops see different pre-crop
// geometry — the shared crop window is placed in the first task's frame
// geometry as it stands after its resizes, so in either shape resolved
// windows fall outside the frame. A config with random crops therefore
// resizes only once, to a square every task leads with, and draws a
// random_crop only while no crop-family op has run in its chain.
func genOracleOptions(t testing.TB, seed int64, corpora map[string]*dataset.Dataset) Options {
	r := rand.New(rand.NewSource(seed))
	g := &opGen{r: r, randomCrops: r.Intn(2) == 0, side: 48}
	if r.Intn(3) > 0 {
		g.side = 24 + 8*r.Intn(5)
	}
	kind, n := []string{"moving", "static", "partial"}[r.Intn(3)], 2+r.Intn(4)
	name := fmt.Sprintf("%s-%d", kind, n)
	if corpora[name] == nil {
		switch kind {
		case "moving":
			corpora[name] = miniDataset(t, n)
		case "static":
			corpora[name] = staticMiniDataset(t, n)
		default:
			corpora[name] = partialMotionDataset(t, n)
		}
	}
	var tasks []*config.Task
	maxBatch := 0
	for i := 1 + r.Intn(2); i > 0; i-- {
		task, size := g.task(fmt.Sprintf("g%d", i))
		if err := task.Validate(); err != nil {
			t.Fatalf("generated an invalid task: %v", err)
		}
		tasks = append(tasks, task)
		maxBatch = max(maxBatch, size)
	}
	opts := Options{
		Tasks:          tasks,
		Dataset:        corpora[name],
		ChunkEpochs:    1 + r.Intn(2),
		TotalEpochs:    1 + r.Intn(3),
		Workers:        []int{1, 2, 4, 8}[r.Intn(4)],
		Coordinate:     r.Intn(4) > 0,
		Seed:           r.Int63n(1 << 20),
		MemBudget:      64 << 20,
		StorageBudget:  []int64{0, 1, 64 << 10}[r.Intn(3)],
		GOPCacheBudget: []int64{0, 32 << 10, 1 << 20}[r.Intn(3)],
	}
	// A tight memory tier spilling to disk, but only one that holds the
	// largest raw batch: the store refuses any object over its budget.
	if tight := int64(96<<10 + r.Intn(160<<10)); r.Intn(2) == 0 && int64(maxBatch)+4<<10 <= tight {
		opts.MemBudget = tight
		opts.CacheDir = t.TempDir()
	}
	return opts
}

// opGen draws random ops. randomCrops admits random_crop (and then
// resize only as every task's leading resize to side x side; side 48 is
// the source size, i.e. no resize).
type opGen struct {
	r           *rand.Rand
	randomCrops bool
	side        int
}

// geom is a chain's frame geometry while generating; free reports that
// no crop-family op has run, so a random_crop may still follow.
type geom struct {
	w, h, c int
	free    bool
}

func spec(op string, kv ...any) config.OpSpec {
	p := map[string]any{}
	for i := 0; i < len(kv); i += 2 {
		p[kv[i].(string)] = kv[i+1]
	}
	return config.OpSpec{Op: op, Params: p}
}

// task draws one task: a single stage of random ops, optionally forked
// into square views of one size and merged again. It also returns the
// task's raw batch size in bytes.
func (o *opGen) task(tag string) (*config.Task, int) {
	r := o.r
	g := geom{48, 48, 3, true}
	var pre []config.OpSpec
	if o.side != 48 {
		pre = append(pre, spec("resize", "shape", []any{o.side, o.side}))
		g.w, g.h = o.side, o.side
	}
	for n := r.Intn(4); n > 0 || len(pre) == 0; n-- {
		pre = append(pre, o.op(&g))
	}
	stages := []config.Stage{{Name: "pre", Type: config.BranchSingle, Inputs: []string{"frame"}, Outputs: []string{"pre"}, Ops: pre}}
	chains := 1
	if r.Intn(2) == 0 {
		chains = 2 + r.Intn(2)
		side := 8 + r.Intn(min(g.w, g.h)-7)
		outs := make([]string, chains)
		subs := make([]config.SubBranch, chains)
		for i := range subs {
			outs[i] = fmt.Sprintf("v%d", i)
			subs[i].Ops = o.view(g, side)
			if r.Intn(2) == 0 {
				subs[i].Ops = append(subs[i].Ops, o.tail())
			}
		}
		stages = append(stages,
			config.Stage{Name: "views", Type: config.BranchMulti, Inputs: []string{"pre"}, Outputs: outs, Branches: subs},
			config.Stage{Name: "join", Type: config.BranchMerge, Inputs: outs, Outputs: []string{"merged"}})
		g.w, g.h = side, side
	}
	sampling := config.Sampling{VideosPerBatch: 1 + r.Intn(3), FramesPerVideo: 1 + r.Intn(5), FrameStride: 1 + r.Intn(3), SamplesPerVideo: 1 + r.Intn(3)}
	task := &config.Task{Tag: tag, Source: config.SourceFile, DatasetPath: "/data/gen", Sampling: sampling, Stages: stages}
	return task, sampling.VideosPerBatch * sampling.SamplesPerVideo * chains * sampling.FramesPerVideo * g.w * g.h * g.c
}

// op draws any op valid on g and advances g past it.
func (o *opGen) op(g *geom) config.OpSpec {
	r := o.r
	for {
		switch r.Intn(11) {
		case 0:
			if o.randomCrops {
				continue
			}
			g.w, g.h = 16+r.Intn(41), 16+r.Intn(41)
			return spec("resize", "shape", []any{g.h, g.w})
		case 1:
			if !o.randomCrops || !g.free {
				continue
			}
			h, w := 8+r.Intn(o.side-7), 8+r.Intn(o.side-7)
			g.w, g.h, g.free = w, h, false
			return spec("random_crop", "shape", []any{h, w})
		case 2:
			h, w := 8+r.Intn(g.h-7), 8+r.Intn(g.w-7)
			g.w, g.h, g.free = w, h, false
			return spec("center_crop", "shape", []any{h, w})
		case 3:
			h, w := 8+r.Intn(g.h-7), 8+r.Intn(g.w-7)
			op := crop(h, w, r.Intn(g.w-w+1), r.Intn(g.h-h+1))
			g.w, g.h, g.free = w, h, false
			return op
		case 4:
			if g.w > 72 || g.h > 72 {
				continue
			}
			l, t, rt, b := r.Intn(7), r.Intn(7), r.Intn(7), r.Intn(7)
			g.w, g.h = g.w+l+rt, g.h+t+b
			return spec("pad", "left", l, "top", t, "right", rt, "bottom", b, "value", r.Intn(256))
		case 5:
			g.c = 1
			return spec("grayscale")
		case 6:
			turns := r.Intn(4)
			if turns%2 == 1 {
				g.w, g.h = g.h, g.w
			}
			return spec("rotate90", "turns", turns)
		default:
			return o.tail()
		}
	}
}

// tail draws an op that keeps a square frame's geometry, so merged views
// still agree after it.
func (o *opGen) tail() config.OpSpec {
	r := o.r
	switch r.Intn(5) {
	case 0:
		return spec("flip", "flip_prob", []float64{0.5, 1}[r.Intn(2)])
	case 1:
		return spec("vflip", "flip_prob", []float64{0.5, 1}[r.Intn(2)])
	case 2:
		return spec("rotate90", "turns", r.Intn(4))
	case 3:
		return spec("color_jitter", "brightness", 0.4*r.Float64(), "contrast", 0.4*r.Float64())
	default:
		return spec("normalize", "mean", 64+r.Intn(129))
	}
}

// view draws a branch head that turns g into a side x side view.
func (o *opGen) view(g geom, side int) []config.OpSpec {
	r := o.r
	switch r.Intn(4) {
	case 0:
		return []config.OpSpec{spec("center_crop", "shape", []any{side, side})}
	case 1:
		if o.randomCrops && g.free && side <= o.side {
			return []config.OpSpec{spec("random_crop", "shape", []any{side, side})}
		}
	case 2:
		p := 1 + r.Intn(4)
		w, h := g.w+2*p, g.h+2*p
		return []config.OpSpec{spec("pad", "all", p), crop(side, side, r.Intn(w-side+1), r.Intn(h-side+1))}
	}
	return []config.OpSpec{crop(side, side, r.Intn(g.w-side+1), r.Intn(g.h-side+1))}
}
