package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// materializeChain produces one chain's frames for a sample. Each frame
// position is independent (ops are resolved at plan time, so there is no
// cross-frame randomness), which lets the chain fan positions out across
// a bounded worker group when the scheduling pool has idle capacity.
// Output order is deterministic regardless of worker count: workers write
// only their own out[pos] slot.
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
		// Deepest cached augmentation prefix in the object store wins;
		// DecodeFrame hands us an exclusively owned frame.
		f, fromDepth, err := s.loadBestCached(sm, chain, idx, total, stopDepth)
		owned := true
		if err != nil {
			return err
		}
		switch {
		case f != nil:
			s.countReuse()
		case grp != nil:
			// Overlapping-view fast path: slice this chain's crop out of
			// the group's shared superset region, then run the suffix.
			f, err = s.supersetView(sm, si, ci, chain, grp, ent, lease, idx, deadline)
			if err != nil {
				return err
			}
			fromDepth = grp.depth + 1
			if node := nodeAtDepth(findLeaf(sm, ci, idx), total, fromDepth); node != nil && node.Cached {
				key := augKey(sm.Video, idx, cumulativeSig(chain.Ops, fromDepth))
				if err := s.storeFrame(key, f, deadline, false, lease.heat(ent, idx)); err != nil {
					return err
				}
			}
		default:
			// Raw decode through the shared GOP cache: the frame is
			// shared read-only with other samples, never recycled.
			f, err = lease.frame(ent, idx)
			if err != nil {
				return fmt.Errorf("core: decode %s: %w", sm.Video, err)
			}
			owned = false
			fromDepth = 0
			// Cache the decoded frame if the plan says so.
			if fn := nodeAtDepth(sm.Leaves[ci][pos], total, 0); fn != nil && fn.Cached {
				if err := s.storeFrame(frameKey(sm.Video, idx), f, deadline, false, lease.heat(ent, idx)); err != nil {
					return err
				}
			}
		}
		g, err := s.applyOps(sm, ci, chain, f, owned, fromDepth, idx, deadline)
		if err != nil {
			return err
		}
		out[pos] = g
		return nil
	}

	workers := s.intraSampleWorkers(len(sm.FrameIndices))
	if workers <= 1 {
		for pos, idx := range sm.FrameIndices {
			if err := work(pos, idx); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	var (
		wg      sync.WaitGroup
		nextPos int64
		errMu   sync.Mutex
		firstAt = -1 // position of the earliest-position error
		fanErr  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(atomic.AddInt64(&nextPos, 1)) - 1
				if pos >= len(sm.FrameIndices) {
					return
				}
				errMu.Lock()
				bail := fanErr != nil
				errMu.Unlock()
				if bail {
					return
				}
				if err := work(pos, sm.FrameIndices[pos]); err != nil {
					errMu.Lock()
					if fanErr == nil || pos < firstAt {
						fanErr, firstAt = err, pos
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if fanErr != nil {
		return nil, fanErr
	}
	return out, nil
}

// intraSampleWorkers sizes the worker group for one chain: the calling
// goroutine plus however many pool workers are idle, capped at the number
// of frame positions. Queued pool tasks always win the idle workers — the
// fan-out only borrows capacity nobody else wants.
func (s *Service) intraSampleWorkers(n int) int {
	if n <= 1 || s.pool == nil {
		return 1
	}
	w := s.pool.Idle() + 1
	if w > n {
		w = n
	}
	return w
}

// loadBestCached searches the store for the deepest cached prefix of one
// chain for one frame: the leaf first, then shallower aug objects, then
// the decoded frame. Returns the loaded frame and the depth it
// corresponds to, or (nil, 0, nil) when nothing is cached. Depths at or
// below stopDepth are not consulted (-1 searches all the way down to the
// decoded frame); superset-grouped chains stop at the crop depth, where
// the shared region is the cheaper source.
func (s *Service) loadBestCached(sm *graph.Sample, chain *graph.ResolvedChain, idx, total, stopDepth int) (*frame.Frame, int, error) {
	for d := total; d > stopDepth; d-- {
		var key string
		if d == 0 {
			key = frameKey(sm.Video, idx)
		} else {
			key = augKey(sm.Video, idx, cumulativeSig(chain.Ops, d))
		}
		obj, err := s.store.Get(key)
		if err != nil {
			continue
		}
		f, err := frame.DecodeFrame(obj.Data)
		if err != nil {
			return nil, 0, fmt.Errorf("core: corrupt cached object %s: %w", key, err)
		}
		s.store.MarkUsed(key)
		return f, d, nil
	}
	return nil, 0, nil
}

// applyOps runs chain.Ops[fromDepth:] on f, storing intermediate objects
// whose plan nodes are cached. owned reports whether f is exclusively
// ours: owned intermediates mutate in place when the op supports it (or
// are recycled into the frame pool as soon as the next op replaces
// them), while shared frames (GOP-cache hits, which identity ops pass
// through untouched) are left alone.
func (s *Service) applyOps(sm *graph.Sample, ci int, chain *graph.ResolvedChain,
	f *frame.Frame, owned bool, fromDepth, idx int, deadline int64) (*frame.Frame, error) {
	return s.applyOpsRange(sm, ci, chain, f, owned, fromDepth, len(chain.Ops), idx, deadline)
}

// applyOpsRange is applyOps over the half-open depth range
// [fromDepth, until) — the superset path uses it to run just the shared
// prefix of a grouped chain.
func (s *Service) applyOpsRange(sm *graph.Sample, ci int, chain *graph.ResolvedChain,
	f *frame.Frame, owned bool, fromDepth, until, idx int, deadline int64) (*frame.Frame, error) {
	total := len(chain.Ops)
	cur := f
	// One reusable single-frame wrapper: ops treat the clip as read-only
	// input, so rebinding Frames[0] each depth is safe and allocation-free.
	wrapper := &frame.Clip{Frames: []*frame.Frame{nil}}
	for d := fromDepth; d < until; d++ {
		op := chain.Ops[d].Op
		wrapper.Frames[0] = cur
		// Owned frames take the in-place path when the op offers one:
		// resolved ops draw no randomness, so rng parity is trivial and
		// the output is byte-identical to Apply.
		mutated := false
		if owned {
			if ip, ok := op.(augment.InPlacer); ok {
				done, err := ip.ApplyInPlace(wrapper, nil)
				if err != nil {
					return nil, fmt.Errorf("core: op %s on %s frame %d: %w", op.Name(), sm.Video, idx, err)
				}
				mutated = done
			}
		}
		if !mutated {
			res, err := op.Apply(wrapper, nil)
			if err != nil {
				return nil, fmt.Errorf("core: op %s on %s frame %d: %w", op.Name(), sm.Video, idx, err)
			}
			nxt := res.Frames[0]
			if nxt != cur {
				if owned {
					frame.Recycle(cur)
				}
				owned = true // freshly produced by the op: exclusively ours
			}
			cur = nxt
		}
		// Shared frames already carry the right index (they were decoded
		// as frame idx); skipping the redundant write keeps them strictly
		// read-only across concurrent samples.
		if cur.Index != idx {
			cur.Index = idx
		}
		if node := nodeAtDepth(findLeaf(sm, ci, idx), total, d+1); node != nil && node.Cached {
			key := augKey(sm.Video, idx, cumulativeSig(chain.Ops, d+1))
			if err := s.storeFrame(key, cur, deadline, false, 0); err != nil {
				return nil, err
			}
		}
	}
	return cur, nil
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

// hotHeat is the GOP acquire count at which a stored object counts as
// hot: frames derived from a GOP this popular are encoded decode-cheap
// (stored zlib blocks) and tagged so the store keeps them in memory in
// preference to cold objects, which spill to disk compressed.
const hotHeat = 2

// storeFrame serializes and stores a frame object, persisting it when a
// disk tier exists (fault tolerance for unpruned objects). heat is the
// popularity of the source GOP the frame derives from (0 when unknown):
// hot objects trade bytes for read speed and outrank cold ones in the
// store's eviction order.
func (s *Service) storeFrame(key string, f *frame.Frame, deadline int64, ephemeral bool, heat int64) error {
	var data []byte
	var err error
	tier := int64(0)
	if heat >= hotHeat {
		data, err = frame.EncodeFrameFast(f)
		tier = heat
	} else {
		data, err = frame.EncodeFrame(f)
	}
	if err != nil {
		return err
	}
	obj := &storage.Object{Key: key, Data: data, Deadline: deadline, Ephemeral: ephemeral, Heat: tier}
	if err := s.store.Put(obj); err != nil {
		return err
	}
	if s.opts.CacheDir != "" && !ephemeral {
		// Best-effort persistence; memory-tier copy remains authoritative.
		// The object may already be evicted again, or the disk full.
		err := s.store.Persist(key)
		if err != nil && !errors.Is(err, storage.ErrNotFound) && !errors.Is(err, storage.ErrDiskBudget) {
			return err
		}
	}
	return nil
}

// countReuse bumps the reuse counter.
func (s *Service) countReuse() {
	s.mu.Lock()
	s.stats.ObjectsReused++
	s.mu.Unlock()
}

// materializeBatch builds the full batch payload for one iteration,
// stores it under the batch key and returns it, so a caller can serve
// the bytes even if the store evicts the object right away.
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
	return data, s.store.Put(obj)
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

// ensureBatchPin is ensureBatch returning the payload as a pinned
// reference: while the (possibly nil) pin is held the batch object
// stays cache-resident, so network servers can write the bytes to a
// socket without copying them first. A nil pin with a nil error means
// the payload is valid but not cache-resident (copy-fallback).
func (s *Service) ensureBatchPin(key iterationKey) ([]byte, *storage.Pin, error) {
	readStart := time.Now()
	s.mu.Lock()
	s.currentPos[key.task] = key
	s.mu.Unlock()

	bk := batchKey(key.task, key.epoch, key.iter)
	if obj, pin, err := s.store.GetPinned(bk); err == nil {
		s.store.MarkUsed(bk)
		s.mu.Lock()
		s.stats.BatchesServed++
		s.stats.PrematHits++
		s.mu.Unlock()
		s.tr.Instant("core", "premat_hit", 0, bk)
		s.histView.Observe(time.Since(readStart).Nanoseconds())
		s.schedulePremat(key)
		return obj.Data, pin, nil
	}

	// Demand path: run at top priority and wait. The trace ID correlates
	// the scheduler's enqueue/dequeue events with the batch/sample/frame
	// spans materialization emits. Carrying the op signature and edge
	// count means demand runs train the scheduler's cost model too — the
	// SJF estimates stay fresh even when pre-materialization is gated off.
	tid := obs.NextTraceID()
	remaining, sig := s.planEstimate(key)
	var built []byte // written before done is signalled
	done := make(chan error, 1)
	err := s.pool.Submit(&sched.Task{
		Key:       bk,
		Kind:      sched.Demand,
		Sig:       sig,
		Remaining: remaining,
		Trace:     tid,
		Run: func() error {
			var err error
			built, err = s.materializeBatch(key, 0, tid)
			done <- err
			return err
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := <-done; err != nil {
		return nil, nil, err
	}
	// Under a tight budget the store may already have evicted the fresh
	// batch; the bytes just built are still valid, served without a pin.
	data := built
	var pin *storage.Pin
	if obj, p, err := s.store.GetPinned(bk); err == nil {
		data, pin = obj.Data, p
		s.store.MarkUsed(bk)
	}
	s.mu.Lock()
	s.stats.BatchesServed++
	s.stats.DemandMisses++
	s.mu.Unlock()
	s.histView.Observe(time.Since(readStart).Nanoseconds())
	s.schedulePremat(key)
	return data, pin, nil
}

// schedulePremat submits pre-materialization tasks for the next Lookahead
// iterations of the task, with EDF deadlines and SJF remaining-work
// estimates. Iteration advancement consults per-epoch iteration counts,
// which can differ across chunks under streaming ingest.
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
		remaining, sig := s.planEstimate(key)
		deadline := int64(ahead)
		k := key
		tid := obs.NextTraceID()
		err = s.pool.Submit(&sched.Task{
			Key:       batchKey(k.task, k.epoch, k.iter),
			Kind:      sched.Premat,
			Deadline:  deadline,
			Remaining: remaining,
			Sig:       sig,
			Trace:     tid,
			Run: func() error {
				// Skip if a demand read already produced it.
				if _, _, err := s.peekBatch(k); err == nil {
					return nil
				}
				_, err := s.materializeBatch(k, deadline, tid)
				return err
			},
		})
		if err != nil {
			// Refused (admission control engaged, or the pool is shutting
			// down): clear the dedupe mark so a later planning point can
			// resubmit the iteration, and stop planning further ahead —
			// deeper lookahead would only be refused too.
			s.mu.Lock()
			delete(s.prematSubmitted, key)
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

// planEstimate derives both scheduler planning inputs for an iteration
// from one schedule lookup: the unprocessed-edge count (the cold SJF
// key) and the op signature (the cost model's learning key). The
// signature is the sorted set of distinct full-chain op signatures
// across the iteration's samples — the same per-op Sig strings the
// reuse planner keys on — so iterations running the same pipeline shape
// share run-time estimates across epochs, chunks and tasks. An
// unplannable iteration reports a huge edge count and no signature.
func (s *Service) planEstimate(key iterationKey) (remaining int, sig string) {
	samples, err := s.scheduleFor(key)
	if err != nil {
		return 1 << 20, ""
	}
	n := 0
	seen := map[string]struct{}{}
	var sigs []string
	for _, sm := range samples {
		for _, chain := range sm.Chains {
			n += len(sm.FrameIndices) * (1 + len(chain.Ops))
			cs := cumulativeSig(chain.Ops, len(chain.Ops))
			if _, dup := seen[cs]; !dup {
				seen[cs] = struct{}{}
				sigs = append(sigs, cs)
			}
		}
	}
	sort.Strings(sigs)
	return n, strings.Join(sigs, ";")
}
