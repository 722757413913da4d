package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"sand/internal/codec"
	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/frame"
	"sand/internal/graph"
	"sand/internal/storage"
)

// probes are unit costs of single layers, measured in isolation on the
// workload's own corpus, chain and object sizes after the timed window.
// They turn the engine's counts into the *.est_busy_share estimates and
// map onto the repo's older micro-benchmarks (see README.md).
type probes struct {
	codecSeqUS     float64 // sequential decode, per frame
	codecRandomMS  float64 // fresh decoder, one strided clip
	augmentUS      float64 // the workload's resolved chain, per frame
	frameEncodeUS  float64
	frameEncFastUS float64
	frameDecodeUS  float64
	encodeBatchMS  float64
	storePutUS     float64
	storeGetPinUS  float64
	storePromoteUS float64
}

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds)), nil
}

func runProbes(w *workload, ds *dataset.Dataset, payload []byte, tmpDir string) (*probes, error) {
	p := &probes{}
	v := ds.Videos[0].Video

	// codec: whole-video sequential decode, and the sparse-sampling shape
	// of BenchmarkCodecRandomAccess with the workload's clip geometry.
	var src *frame.Frame
	d, err := timeMedian(3, func() error {
		clip, err := codec.NewDecoder(v, nil).DecodeAll()
		if err == nil {
			src = clip.Frames[0]
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("codec probe: %w", err)
	}
	p.codecSeqUS = float64(d.Microseconds()) / float64(v.FrameCount)
	indices := make([]int, 0, w.FramesPerVideo)
	for i, idx := 0, v.GOP/2; i < w.FramesPerVideo && idx < v.FrameCount; i, idx = i+1, idx+w.Stride {
		indices = append(indices, idx)
	}
	d, err = timeMedian(9, func() error {
		_, err := codec.NewDecoder(v, nil).Frames(indices)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("codec probe: %w", err)
	}
	p.codecRandomMS = float64(d.Nanoseconds()) / 1e6

	// augment: the read task's chain, resolved as the planner resolves it.
	tasks, err := w.tasks()
	if err != nil {
		return nil, err
	}
	ops, _, err := graph.ResolveStages(tasks[0], config.TrainState{}, v.W, v.H, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, fmt.Errorf("augment probe: %w", err)
	}
	var out *frame.Frame
	d, err = timeMedian(51, func() error {
		clip := &frame.Clip{Frames: []*frame.Frame{src}}
		for _, op := range ops {
			if clip, err = op.Op.Apply(clip, nil); err != nil {
				return err
			}
		}
		out = clip.Frames[0]
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("augment probe: %w", err)
	}
	p.augmentUS = float64(d.Nanoseconds()) / 1e3

	// frame: serialize and inflate one output-sized frame.
	var enc []byte
	if d, err = timeMedian(51, func() error { enc, err = frame.EncodeFrame(out); return err }); err != nil {
		return nil, fmt.Errorf("frame probe: %w", err)
	}
	p.frameEncodeUS = float64(d.Nanoseconds()) / 1e3
	if d, err = timeMedian(51, func() error { _, err := frame.EncodeFrameFast(out); return err }); err != nil {
		return nil, fmt.Errorf("frame probe: %w", err)
	}
	p.frameEncFastUS = float64(d.Nanoseconds()) / 1e3
	if d, err = timeMedian(51, func() error { _, err := frame.DecodeFrame(enc); return err }); err != nil {
		return nil, fmt.Errorf("frame probe: %w", err)
	}
	p.frameDecodeUS = float64(d.Nanoseconds()) / 1e3

	// core: serialize one of the workload's batches.
	batch, err := core.DecodeBatch(payload)
	if err != nil {
		return nil, fmt.Errorf("encode_batch probe: %w", err)
	}
	if d, err = timeMedian(5, func() error { _, err := core.EncodeBatch(batch); return err }); err != nil {
		return nil, fmt.Errorf("encode_batch probe: %w", err)
	}
	p.encodeBatchMS = float64(d.Nanoseconds()) / 1e6

	if err := p.storage(enc, tmpDir); err != nil {
		return nil, fmt.Errorf("storage probe: %w", err)
	}
	return p, nil
}

// storage times the store on objects the size of the workload's cached
// frames: Put and GetPinned in a memory tier that fits them all, and Get
// of a spilled object (a promotion) in one that does not.
func (p *probes) storage(obj []byte, tmpDir string) error {
	const n = 256
	key := func(i int) string { return fmt.Sprintf("/obj/probe/f%d", i) }
	// perOp times n calls together: one call is shorter than the clock.
	perOp := func(n int, fn func(i int) error) (float64, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n), nil
	}
	roomy, err := storage.Open(storage.Options{MemBudget: int64(4*n*len(obj)) + 1<<20})
	if err != nil {
		return err
	}
	if p.storePutUS, err = perOp(n, func(i int) error {
		return roomy.Put(&storage.Object{Key: key(i), Data: obj})
	}); err != nil {
		return err
	}
	if p.storeGetPinUS, err = perOp(n, func(i int) error {
		_, pin, err := roomy.GetPinned(key(i))
		pin.Release()
		return err
	}); err != nil {
		return err
	}

	dir, err := os.MkdirTemp(tmpDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tight, err := storage.Open(storage.Options{MemBudget: int64(8 * len(obj)), Dir: dir, ColdCompress: true})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := tight.Put(&storage.Object{Key: key(i), Data: obj, Deadline: int64(n - i)}); err != nil {
			return err
		}
	}
	before := tight.Stats().Promotions
	const promos = 64
	if p.storePromoteUS, err = perOp(promos, func(i int) error {
		_, err := tight.Get(key(i))
		return err
	}); err != nil {
		return err
	}
	if got := tight.Stats().Promotions - before; got < promos/2 {
		return fmt.Errorf("promotion probe promoted only %d of %d reads", got, promos)
	}
	return nil
}
