package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"sand/internal/augment"
	"sand/internal/dataset"
	"sand/internal/frame"
	"sand/internal/graph"
	"sand/internal/obs"
	"sand/internal/sched"
	"sand/internal/storage"
	"sand/internal/vfs"
)

// Object-key scheme for the storage tier. Object keys are task-agnostic
// on purpose: identical objects requested by different tasks share one
// entry, which is where cross-task reuse materializes.
func frameKey(video string, idx int) string {
	return fmt.Sprintf("/obj/%s/f%d", video, idx)
}

func augKey(video string, idx int, sig string) string {
	return fmt.Sprintf("/obj/%s/f%d/%s", video, idx, sanitizeSig(sig))
}

func batchKey(task string, epoch, iter int) string {
	return fmt.Sprintf("/batch/%s/%d/%d", task, epoch, iter)
}

// sigReplacer is shared: strings.Replacer is safe for concurrent use and
// building one per call dominated the sanitize cost on the hot path.
var sigReplacer = strings.NewReplacer("/", "_", "|", "+", "(", "", ")", "", ",", ".")

// sanitizeSig makes an op signature safe as a single path segment.
func sanitizeSig(sig string) string {
	return sigReplacer.Replace(sig)
}

// cumulativeSig renders the signature prefix of ops[:d].
func cumulativeSig(ops []graph.ResolvedOp, d int) string {
	parts := make([]string, d)
	for i := 0; i < d; i++ {
		parts[i] = ops[i].Sig
	}
	return strings.Join(parts, "|")
}

// nodeAtDepth walks up from the sample's leaf for the given frame to the
// node at op-depth d (0 = decoded frame). Returns nil when the chain is
// shorter than expected (defensive).
func nodeAtDepth(leaf *graph.Node, total, d int) *graph.Node {
	n := leaf
	for i := total; i > d && n != nil; i-- {
		n = n.Parent
	}
	return n
}

// materializeSampleClip produces the final clip for one planned sample,
// reusing every cached object it can find. A sample with several chains
// (a multi/merge pipeline) yields the ordered concatenation of its
// chains' clips; decoded source frames are shared across chains — and
// across concurrent samples — through the engine's decoded-GOP cache,
// pinned for the duration of the call by a lease. deadline is the
// scheduling deadline attached to objects it stores; tid correlates the
// emitted spans with the batch that requested the sample.
func (s *Service) materializeSampleClip(sm *graph.Sample, deadline int64, tid obs.TraceID) (*frame.Clip, error) {
	// Standalone samples plan as a batch of one — the degenerate form of
	// the batch planner, equivalent to the old per-sample plan.
	return s.materializeSampleAt(sm, 0, s.buildBatchReusePlan([]*graph.Sample{sm}), deadline, tid)
}

// materializeSampleAt is materializeSampleClip under an externally built
// (batch-scoped) reuse plan; si is the sample's index within the plan.
func (s *Service) materializeSampleAt(sm *graph.Sample, si int, plan *reusePlan, deadline int64, tid obs.TraceID) (*frame.Clip, error) {
	var spanStart int64
	if traced := s.tr.Enabled(); traced {
		spanStart = s.tr.Now()
		defer func() {
			s.tr.Span("core", "sample", tid, spanStart, fmt.Sprintf("%s/%d/%d", sm.Video, sm.Epoch, sm.SampleIdx))
		}()
	}
	ent, ok := s.snapshot().Find(sm.Video)
	if !ok || ent.Video == nil {
		return nil, fmt.Errorf("core: video %q not in dataset", sm.Video)
	}
	lease := s.gops.lease()
	defer lease.release()

	var out []*frame.Frame
	for ci, chain := range sm.Chains {
		clipFrames, err := s.materializeChain(sm, si, ci, chain, ent, lease, plan, deadline, tid)
		if err != nil {
			return nil, err
		}
		if chain.Reversed {
			for i, j := 0, len(clipFrames)-1; i < j; i, j = i+1, j-1 {
				clipFrames[i], clipFrames[j] = clipFrames[j], clipFrames[i]
			}
		}
		out = append(out, clipFrames...)
	}
	return frame.NewClip(out)
}

// materializeChain produces one chain's frames for a sample, walking its
// frame positions in order on the calling goroutine, so the GOP cache
// rolls each GOP forward once per sample.
func (s *Service) materializeChain(sm *graph.Sample, si, ci int, chain *graph.ResolvedChain,
	ent *dataset.Entry, lease *gopLease, plan *reusePlan, deadline int64, tid obs.TraceID) ([]*frame.Frame, error) {

	total := len(chain.Ops)
	out := make([]*frame.Frame, len(sm.FrameIndices))
	// One Enabled() check per chain: the off path adds a single bool test
	// per frame, no defers, no formatting.
	traced := s.tr.Enabled()
	grp := plan.groupFor(si, ci)
	// Grouped chains skip shallow cached prefixes: anything at or above
	// the crop depth is served better through the shared superset.
	stopDepth := -1
	if grp != nil {
		stopDepth = grp.depth
	}

	work := func(pos, idx int) error {
		if traced {
			frameStart := s.tr.Now()
			defer func() {
				s.tr.Span("core", "frame", tid, frameStart, fmt.Sprintf("%s f%d", sm.Video, idx))
			}()
		}
		// Deepest cached augmentation prefix in the object store wins.
		f, fromDepth := s.loadBestCached(sm, chain, idx, total, stopDepth)
		var err error
		switch {
		case f != nil:
			s.objectsReused.Add(1)
		case grp != nil:
			// Overlapping-view fast path: slice this chain's crop out of
			// the group's shared superset region, then run the suffix.
			f, err = s.supersetView(sm, si, ci, chain, grp, ent, lease, idx, deadline)
			if err != nil {
				return err
			}
			fromDepth = grp.depth + 1
			if err := s.storeIfCached(sm, chain, findLeaf(sm, ci, idx), total, fromDepth, idx, f, deadline); err != nil {
				return err
			}
		default:
			// Raw decode through the shared GOP cache: the frame is
			// shared read-only with other samples.
			f, err = lease.frame(ent, idx)
			if err != nil {
				return fmt.Errorf("core: decode %s: %w", sm.Video, err)
			}
			fromDepth = 0
			// Cache the decoded frame if the plan says so.
			if cachedAt(sm.Leaves[ci][pos], total, 0) {
				if err := s.storeFrame(frameKey(sm.Video, idx), f, deadline); err != nil {
					return err
				}
			}
		}
		g, err := s.applyOps(sm, ci, chain, f, fromDepth, idx, deadline)
		if err != nil {
			return err
		}
		out[pos] = g
		return nil
	}

	for pos, idx := range sm.FrameIndices {
		if err := work(pos, idx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loadBestCached searches the store for the deepest cached prefix of one
// chain for one frame: the leaf first, then shallower aug objects, then
// the decoded frame. Returns the loaded frame and the depth it corresponds
// to, or (nil, 0) when nothing usable is cached. A raw object comes back
// as a view of the stored bytes (frame.ViewFrame); no op writes its
// input, so the view is only read. Depths at or below stopDepth are not
// consulted (-1 searches all the way down to the decoded frame);
// superset-grouped chains stop at the crop depth, where the shared region
// is the cheaper source.
func (s *Service) loadBestCached(sm *graph.Sample, chain *graph.ResolvedChain, idx, total, stopDepth int) (*frame.Frame, int) {
	for d := total; d > stopDepth; d-- {
		var key string
		if d == 0 {
			key = frameKey(sm.Video, idx)
		} else {
			key = augKey(sm.Video, idx, cumulativeSig(chain.Ops, d))
		}
		obj, err := s.store.Get(key)
		if errors.Is(err, storage.ErrNotFound) {
			continue
		}
		var f *frame.Frame
		if err == nil {
			f, _, err = frame.ViewFrame(obj.Data)
		}
		if err != nil {
			// An unreadable or garbled object (a damaged spill file, or
			// raw pixels failing their CRC) is dropped, so this frame is
			// recomputed from a shallower depth instead of failing every
			// later read of it. A file Delete cannot remove is already out
			// of the store's index.
			_ = s.store.Delete(key)
			continue
		}
		s.store.MarkUsed(key)
		return f, d
	}
	return nil, 0
}

// applyOps runs chain.Ops[fromDepth:] on f, storing intermediate objects
// whose plan nodes are cached. f may be shared (a GOP-cache frame or a
// stored view): every op writes fresh frames and identity ops pass f
// through, so f is only read.
func (s *Service) applyOps(sm *graph.Sample, ci int, chain *graph.ResolvedChain,
	f *frame.Frame, fromDepth, idx int, deadline int64) (*frame.Frame, error) {
	return s.applyOpsRange(sm, ci, chain, f, fromDepth, len(chain.Ops), idx, deadline)
}

// applyOpsRange is applyOps over the half-open depth range
// [fromDepth, until) — the superset path uses it to run just the shared
// prefix of a grouped chain.
func (s *Service) applyOpsRange(sm *graph.Sample, ci int, chain *graph.ResolvedChain,
	f *frame.Frame, fromDepth, until, idx int, deadline int64) (*frame.Frame, error) {
	total := len(chain.Ops)
	leaf := findLeaf(sm, ci, idx)
	cur := f
	// One reusable single-frame wrapper: ops treat the clip as read-only
	// input, so rebinding Frames[0] each depth is safe and allocation-free.
	wrapper := &frame.Clip{Frames: []*frame.Frame{nil}}
	for d := fromDepth; d < until; d++ {
		op := chain.Ops[d].Op
		wrapper.Frames[0] = cur
		// A bilinear resize whose output the plan does not cache, followed
		// by a crop, runs as one kernel over only the pixels the crop
		// keeps (DESIGN.md §9). Resolved crops draw no randomness.
		var res *frame.Clip
		fused := false
		if d+1 < until && !cachedAt(leaf, total, d+1) {
			res, fused = augment.ResizeCrop(op, chain.Ops[d+1].Op, wrapper, nil)
		}
		if fused {
			d++ // the crop is folded into the resize
		} else {
			var err error
			res, err = op.Apply(wrapper, nil)
			if err != nil {
				return nil, fmt.Errorf("core: op %s on %s frame %d: %w", op.Name(), sm.Video, idx, err)
			}
		}
		cur = res.Frames[0]
		// Shared frames already carry the right index (they were decoded
		// as frame idx); skipping the redundant write keeps them strictly
		// read-only across concurrent samples.
		if cur.Index != idx {
			cur.Index = idx
		}
		if err := s.storeIfCached(sm, chain, leaf, total, d+1, idx, cur, deadline); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// cachedAt reports whether the plan caches the chain's output at op
// depth d for the frame whose leaf node is leaf.
func cachedAt(leaf *graph.Node, total, d int) bool {
	n := nodeAtDepth(leaf, total, d)
	return n != nil && n.Cached
}

// storeIfCached stores f as the chain's depth-d object for frame idx
// when the plan caches that node.
func (s *Service) storeIfCached(sm *graph.Sample, chain *graph.ResolvedChain, leaf *graph.Node,
	total, d, idx int, f *frame.Frame, deadline int64) error {
	if !cachedAt(leaf, total, d) {
		return nil
	}
	return s.storeFrame(augKey(sm.Video, idx, cumulativeSig(chain.Ops, d)), f, deadline)
}

// findLeaf returns the sample's leaf node of chain ci for the given
// source frame.
func findLeaf(sm *graph.Sample, ci int, idx int) *graph.Node {
	for pos, fi := range sm.FrameIndices {
		if fi == idx && ci < len(sm.Leaves) && pos < len(sm.Leaves[ci]) {
			return sm.Leaves[ci][pos]
		}
	}
	return nil
}

// storeFrame stores a frame object, persisting it when a disk tier
// exists (fault tolerance for unpruned objects). Frame objects are read
// back on every reuse, so they are raw pixels behind a CRC
// (frame.EncodeFrameFast: one copy to write, none to read); the store
// compresses them only when they spill to disk. An object larger than
// the whole memory tier is not stored, and its next use recomputes it.
func (s *Service) storeFrame(key string, f *frame.Frame, deadline int64) error {
	data, err := frame.EncodeFrameFast(f)
	if err != nil {
		return err
	}
	err = s.store.Put(&storage.Object{Key: key, Data: data, Deadline: deadline})
	if errors.Is(err, storage.ErrTooLarge) {
		s.unstored.Add(1)
		return nil
	}
	if err != nil {
		return err
	}
	if s.opts.CacheDir != "" {
		// Best-effort persistence: the memory-tier copy serves this read,
		// and recovery recomputes an object that never reached the disk
		// (already evicted again, or the write failed).
		_ = s.store.Persist(key)
	}
	return nil
}

// materializeBatch builds the full batch payload for one iteration,
// stores it under the batch key and returns it, so a caller can serve
// the bytes even if the store evicts the object right away, or cannot
// hold it at all: a batch larger than the memory tier is served from the
// flight, unstored.
func (s *Service) materializeBatch(key iterationKey, deadline int64, tid obs.TraceID) ([]byte, error) {
	if traced := s.tr.Enabled(); traced {
		spanStart := s.tr.Now()
		defer func() {
			// Arg distinguishes demand (deadline 0) from pre-materialized
			// batches while keeping the event kind ("core.batch") stable.
			kind := "premat"
			if deadline == 0 {
				kind = "demand"
			}
			s.tr.Span("core", "batch", tid, spanStart, kind+" "+batchKey(key.task, key.epoch, key.iter))
		}()
	}
	samples, err := s.scheduleFor(key)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%w: empty iteration %v", vfs.ErrNotExist, key)
	}
	// Batch-scoped reuse planning: one pass over every sample of the
	// iteration, so overlapping views group across samples and the first
	// sample's superset feeds its siblings through the derived store.
	plan := s.buildBatchReusePlan(samples)
	batch := &frame.Batch{Epoch: key.epoch, Iteration: key.iter}
	for si, sm := range samples {
		clip, err := s.materializeSampleAt(sm, si, plan, deadline, tid)
		if err != nil {
			return nil, err
		}
		label := ""
		if ent, ok := s.snapshot().Find(sm.Video); ok {
			label = ent.Spec.Label
		}
		batch.Clips = append(batch.Clips, clip)
		batch.Labels = append(batch.Labels, label)
	}
	data, err := EncodeBatch(batch)
	if err != nil {
		return nil, err
	}
	obj := &storage.Object{
		Key:       batchKey(key.task, key.epoch, key.iter),
		Data:      data,
		Deadline:  deadline,
		Ephemeral: true, // a batch is consumed once, then evictable
	}
	err = s.store.Put(obj)
	if errors.Is(err, storage.ErrTooLarge) {
		s.unstored.Add(1)
		return data, nil
	}
	return data, err
}

// ensureBatch returns the serialized batch for an iteration, producing it
// on the demand path when pre-materialization has not finished. It also
// schedules pre-materialization for the lookahead window.
func (s *Service) ensureBatch(key iterationKey) ([]byte, error) {
	data, pin, err := s.ensureBatchPin(key)
	// Local callers hold the bytes through the GC, not through cache
	// residency, so the pin can lapse immediately.
	pin.Release()
	return data, err
}

// batchFlight is the one build of a batch that is queued or running.
// Every field is guarded by Service.mu except done, which closes once
// data and err are final.
type batchFlight struct {
	// started is set by the goroutine that claims the build; a demand
	// read that finds it set waits on done instead of building.
	started bool
	// demand is set once a demand read owns the build: it promoted the
	// queued premat task or submitted demand work of its own. Later
	// reads wait, and admission control's shed leaves the flight alone.
	demand bool
	done   chan struct{}
	data   []byte
	err    error
}

// runFlight builds key's batch for f unless another task claimed f
// first. Premat and demand tasks share it, so whichever runs first
// builds and the other returns at once. deadline is 0 on the demand
// path.
func (s *Service) runFlight(key iterationKey, f *batchFlight, deadline int64, tid obs.TraceID) error {
	if !s.claimFlight(f) {
		return nil
	}
	if s.buildStarted != nil {
		s.buildStarted(key)
	}
	var data []byte
	var err error
	if deadline == 0 {
		data, err = s.materializeBatch(key, deadline, tid)
	} else if data, _, err = s.peekBatch(key); err != nil {
		data, err = s.materializeBatch(key, deadline, tid)
	}
	s.finishFlight(key, f, data, err)
	return err
}

// claimFlight marks f started; it reports false if it already was.
func (s *Service) claimFlight(f *batchFlight) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.started {
		return false
	}
	f.started = true
	return true
}

// finishFlight publishes a claimed flight's result, retires it and
// wakes its waiters.
func (s *Service) finishFlight(key iterationKey, f *batchFlight, data []byte, err error) {
	s.mu.Lock()
	f.data, f.err = data, err
	if s.flights[key] == f {
		delete(s.flights, key)
	}
	s.mu.Unlock()
	close(f.done)
}

// onTaskError is the pool's error callback. A premat task shed by
// admission control never ran: its dedupe mark is cleared so a later
// planning point submits the iteration again, and its flight, unless a
// demand read already owns it, is dropped.
func (s *Service) onTaskError(t *sched.Task, err error) {
	if !errors.Is(err, sched.ErrAdmission) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, f := range s.flights {
		if batchKey(key.task, key.epoch, key.iter) != t.Key {
			continue
		}
		delete(s.prematSubmitted, key)
		if !f.started && !f.demand {
			delete(s.flights, key)
		}
	}
}

// ensureBatchPin is ensureBatch returning the payload as a pinned
// reference: while the (possibly nil) pin is held the batch object
// stays cache-resident, so network servers can write the bytes to a
// socket without copying them first. A nil pin with a nil error means
// the payload is valid but not cache-resident (copy-fallback).
func (s *Service) ensureBatchPin(key iterationKey) ([]byte, *storage.Pin, error) {
	readStart := time.Now()
	// A read outside the plan (read-ahead past the end of an epoch, say)
	// fails here, before it moves the read position or takes a worker.
	samples, err := s.scheduleFor(key)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.currentPos[key.task] = key
	s.mu.Unlock()

	bk := batchKey(key.task, key.epoch, key.iter)
	if obj, pin, err := s.store.GetPinned(bk); err == nil {
		s.store.MarkUsed(bk)
		s.prematHits.Add(1)
		s.histView.Observe(time.Since(readStart).Nanoseconds())
		s.schedulePremat(key)
		return obj.Data, pin, nil
	}

	// Demand path: wait for the batch's one build. A build this read
	// only joined may have failed where a build of its own would not (a
	// premat build's spill hit a disk error, say), so that read tries
	// once more before it reports the error.
	f, joined := s.awaitBuild(key, bk, samples)
	if f.err != nil && joined {
		f, _ = s.awaitBuild(key, bk, samples)
	}
	if f.err != nil {
		return nil, nil, f.err
	}
	// Under a tight budget the store may already have evicted the fresh
	// batch; the flight's bytes are still valid, served without a pin.
	data := f.data
	var pin *storage.Pin
	if obj, p, err := s.store.GetPinned(bk); err == nil {
		data, pin = obj.Data, p
		s.store.MarkUsed(bk)
	}
	s.demandMisses.Add(1)
	s.histView.Observe(time.Since(readStart).Nanoseconds())
	s.schedulePremat(key)
	return data, pin, nil
}

// awaitBuild waits for the one build of key's batch and returns its
// finished flight. It joins the build if it runs or a demand read
// already owns it (joined is then true), promotes its premat task if it
// is queued, and submits a demand task only when there is no flight or
// the promotion found no task (shed or refused). The wait happens on
// the caller's goroutine, never inside a worker.
func (s *Service) awaitBuild(key iterationKey, bk string, samples []*graph.Sample) (f *batchFlight, joined bool) {
	s.mu.Lock()
	f = s.flights[key]
	joined = f != nil && (f.started || f.demand)
	promote := f != nil && !joined
	if f == nil {
		f = &batchFlight{done: make(chan struct{})}
		s.flights[key] = f
	}
	f.demand = true
	s.mu.Unlock()
	if joined {
		s.flightJoins.Add(1)
	} else if !promote || !s.pool.Promote(bk) {
		// The trace ID correlates the scheduler's events with the
		// build's spans.
		tid := obs.NextTraceID()
		err := s.pool.Submit(&sched.Task{
			Key:       bk,
			Kind:      sched.Demand,
			Remaining: planEdges(samples),
			Trace:     tid,
			Run:       func() error { return s.runFlight(key, f, 0, tid) },
		})
		if err != nil && s.claimFlight(f) {
			// The pool is closing: fail this read and any that joined it.
			s.finishFlight(key, f, nil, err)
		}
	}
	<-f.done
	return f, joined
}

// schedulePremat submits pre-materialization tasks for the next Lookahead
// iterations of the task, with EDF deadlines and SJF remaining-work
// estimates. Each submission registers the batch's flight, so a demand
// read arriving before the build finishes promotes or joins it.
// Iteration advancement consults per-epoch iteration counts, which can
// differ across chunks under streaming ingest.
func (s *Service) schedulePremat(after iterationKey) {
	epoch, iter := after.epoch, after.iter
	for ahead := 1; ahead <= s.opts.Lookahead; ahead++ {
		itersHere, err := s.ItersInEpoch(after.task, epoch)
		if err != nil {
			return
		}
		iter++
		if iter >= itersHere {
			epoch++
			iter = 0
		}
		if epoch >= s.opts.TotalEpochs {
			return
		}
		key := iterationKey{after.task, epoch, iter}
		s.mu.Lock()
		if s.prematSubmitted[key] {
			s.mu.Unlock()
			continue
		}
		s.prematSubmitted[key] = true
		s.mu.Unlock()
		if _, _, err := s.peekBatch(key); err == nil {
			continue // already materialized
		}
		samples, err := s.scheduleFor(key)
		if err != nil {
			// Unplannable: let a demand read report the error.
			s.mu.Lock()
			delete(s.prematSubmitted, key)
			s.mu.Unlock()
			return
		}
		deadline := int64(ahead)
		k := key
		tid := obs.NextTraceID()
		s.mu.Lock()
		if s.flights[key] != nil {
			s.mu.Unlock()
			continue // a demand read is building it
		}
		f := &batchFlight{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()
		err = s.pool.Submit(&sched.Task{
			Key:       batchKey(k.task, k.epoch, k.iter),
			Kind:      sched.Premat,
			Deadline:  deadline,
			Remaining: planEdges(samples),
			Trace:     tid,
			Run:       func() error { return s.runFlight(k, f, deadline, tid) },
		})
		if err != nil {
			// Refused (admission control engaged, or the pool is shutting
			// down): clear the dedupe mark and the unclaimed flight so a
			// later planning point can resubmit the iteration, and stop
			// planning further ahead — deeper lookahead would only be
			// refused too. A demand read that found the flight queued
			// fails to promote it and submits its own build.
			s.mu.Lock()
			delete(s.prematSubmitted, key)
			if s.flights[key] == f && !f.started && !f.demand {
				delete(s.flights, key)
			}
			s.mu.Unlock()
			return
		}
	}
}

// peekBatch checks (without materializing) whether an iteration's batch
// exists in the store.
func (s *Service) peekBatch(key iterationKey) ([]byte, bool, error) {
	obj, err := s.store.Get(batchKey(key.task, key.epoch, key.iter))
	if err != nil {
		return nil, false, err
	}
	return obj.Data, true, nil
}

// planEdges counts an iteration's unprocessed edges, the scheduler's SJF
// key: each chain decodes its sample's frames and then applies its ops to
// every one of them.
func planEdges(samples []*graph.Sample) int {
	n := 0
	for _, sm := range samples {
		for _, chain := range sm.Chains {
			n += len(sm.FrameIndices) * (1 + len(chain.Ops))
		}
	}
	return n
}
