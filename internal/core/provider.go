package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"sand/internal/codec"
	"sand/internal/config"
	"sand/internal/frame"
	"sand/internal/graph"
	"sand/internal/vfs"
)

// Materialize implements vfs.Provider: it resolves any Table 1 view path
// into bytes plus xattr metadata, blocking until the object is ready.
func (s *Service) Materialize(p vfs.Path) ([]byte, map[string]string, error) {
	switch p.Kind {
	case vfs.KindBatchView:
		return s.materializeBatchView(p)
	case vfs.KindVideo:
		return s.materializeVideoView(p)
	case vfs.KindFrame:
		return s.materializeFrameView(p)
	case vfs.KindAugFrame:
		return s.materializeAugFrameView(p)
	}
	return nil, nil, fmt.Errorf("%w: %s", vfs.ErrInvalidPath, p.Raw)
}

func (s *Service) materializeBatchView(p vfs.Path) ([]byte, map[string]string, error) {
	key := iterationKey{p.Task, p.Epoch, p.Iteration}
	data, err := s.ensureBatch(key)
	if err != nil {
		return nil, nil, err
	}
	xattrs, err := batchXattrs(p, data)
	if err != nil {
		return nil, nil, err
	}
	return data, xattrs, nil
}

// MaterializePinned implements vfs.PinnedProvider: batch views — the
// remote training hot path — are served as pinned references into the
// object store, so the network tier can write them straight to a socket
// while eviction passes skip the bytes. Other view kinds (and batches
// that lost cache residency) fall back to an owned, unpinned payload.
func (s *Service) MaterializePinned(p vfs.Path) (*vfs.View, error) {
	if p.Kind != vfs.KindBatchView {
		data, xattrs, err := s.Materialize(p)
		if err != nil {
			return nil, err
		}
		return vfs.NewView(data, xattrs), nil
	}
	key := iterationKey{p.Task, p.Epoch, p.Iteration}
	data, pin, err := s.ensureBatchPin(key)
	if err != nil {
		return nil, err
	}
	xattrs, err := batchXattrs(p, data)
	if err != nil {
		pin.Release()
		return nil, err
	}
	if pin == nil {
		return vfs.NewView(data, xattrs), nil
	}
	return vfs.NewPinnedView(data, xattrs, pin.Release), nil
}

// batchXattrs publishes a serialized batch's metadata attributes from its
// headers alone: the batch framing gives the clip count and labels, and
// clip 0's frame headers give the timestamps and geometry. No pixel is
// inflated; a batch object is only ever bytes this process encoded, and
// the pixel checksums are verified where the bytes are consumed
// (DecodeBatch).
func batchXattrs(p vfs.Path, data []byte) (map[string]string, error) {
	b, err := walkBatch(data)
	if err != nil {
		return nil, err
	}
	frames, err := frame.ClipFrames(b.clips[0])
	if err != nil {
		return nil, fmt.Errorf("core: batch clip 0: %w", err)
	}
	ts := make([]string, len(frames))
	var first frame.FrameHeader
	for i, enc := range frames {
		h, err := frame.ParseFrameHeader(enc)
		if err != nil {
			return nil, fmt.Errorf("core: batch clip 0 frame %d: %w", i, err)
		}
		if i == 0 {
			first = h
		}
		ts[i] = strconv.FormatInt(h.PTS, 10)
	}
	return map[string]string{
		"user.sand.clips":           strconv.Itoa(len(b.clips)),
		"user.sand.epoch":           strconv.Itoa(p.Epoch),
		"user.sand.iter":            strconv.Itoa(p.Iteration),
		"user.sand.labels":          strings.Join(b.labels, ","),
		"user.sand.timestamps":      strings.Join(ts, ","),
		"user.sand.geometry":        fmt.Sprintf("%dx%dx%d", first.W, first.H, first.C),
		"user.sand.frames_per_clip": strconv.Itoa(len(frames)),
	}, nil
}

func (s *Service) materializeVideoView(p vfs.Path) ([]byte, map[string]string, error) {
	ent, ok := s.snapshot().Find(p.Video)
	if !ok || ent.Video == nil {
		return nil, nil, fmt.Errorf("%w: video %s", vfs.ErrNotExist, p.Video)
	}
	xattrs := map[string]string{
		"user.sand.frames":   strconv.Itoa(ent.Video.FrameCount),
		"user.sand.fps":      strconv.Itoa(ent.Video.FPS),
		"user.sand.gop":      strconv.Itoa(ent.Video.GOP),
		"user.sand.geometry": fmt.Sprintf("%dx%dx%d", ent.Video.W, ent.Video.H, ent.Video.C),
		"user.sand.label":    ent.Spec.Label,
	}
	return ent.Video.Data, xattrs, nil
}

func (s *Service) materializeFrameView(p vfs.Path) ([]byte, map[string]string, error) {
	ent, ok := s.snapshot().Find(p.Video)
	if !ok || ent.Video == nil {
		return nil, nil, fmt.Errorf("%w: video %s", vfs.ErrNotExist, p.Video)
	}
	if p.Frame >= ent.Video.FrameCount {
		return nil, nil, fmt.Errorf("%w: frame %d of %d", vfs.ErrNotExist, p.Frame, ent.Video.FrameCount)
	}
	// Serve from the object cache when the planner materialized it: a
	// raw object whose CRC holds is the view's bytes as they are.
	key := frameKey(p.Video, p.Frame)
	if obj, err := s.store.Get(key); err == nil {
		if _, owned, err := frame.ViewFrame(obj.Data); err == nil && !owned {
			s.store.MarkUsed(key)
			return obj.Data, frameXattrs(p, ent.Video), nil
		}
	}
	// Decode through the shared GOP cache: repeated frame views of one
	// GOP reuse the same reconstruction. The encoding is the stored
	// object's (raw), so a view's bytes do not depend on whether it was
	// cached.
	f, err := s.gops.frameOnce(ent, p.Frame)
	if err != nil {
		return nil, nil, err
	}
	data, err := frame.EncodeFrameFast(f)
	if err != nil {
		return nil, nil, err
	}
	return data, frameXattrs(p, ent.Video), nil
}

func frameXattrs(p vfs.Path, v *codec.Video) map[string]string {
	ft, _ := v.Type(p.Frame)
	cost, _ := v.DecodeCost(p.Frame)
	return map[string]string{
		"user.sand.pts":         strconv.FormatInt(int64(p.Frame)*1000/int64(v.FPS), 10),
		"user.sand.frame_type":  ft.String(),
		"user.sand.decode_cost": strconv.Itoa(cost),
		"user.sand.geometry":    fmt.Sprintf("%dx%dx%d", v.W, v.H, v.C),
	}
}

// materializeAugFrameView serves /{task}/{video}/frame{i}/aug{d}: the
// frame after the first d deterministic resolved ops of the task's
// pipeline. Stochastic draws use a path-derived seed so repeated reads of
// the same view return identical bytes.
func (s *Service) materializeAugFrameView(p vfs.Path) ([]byte, map[string]string, error) {
	t, ok := s.tasks[p.Task]
	if !ok {
		return nil, nil, fmt.Errorf("%w: task %s", vfs.ErrNotExist, p.Task)
	}
	ent, ok := s.snapshot().Find(p.Video)
	if !ok || ent.Video == nil {
		return nil, nil, fmt.Errorf("%w: video %s", vfs.ErrNotExist, p.Video)
	}
	if p.Frame >= ent.Video.FrameCount {
		return nil, nil, fmt.Errorf("%w: frame %d", vfs.ErrNotExist, p.Frame)
	}
	seed := int64(p.Frame)*1000003 ^ int64(len(p.Video))<<32 ^ s.opts.Seed
	rng := rand.New(rand.NewSource(seed))
	ops, _, err := graph.ResolveStages(t, config.TrainState{}, ent.Video.W, ent.Video.H, nil, rng)
	if err != nil {
		return nil, nil, err
	}
	if p.AugDepth > len(ops) {
		return nil, nil, fmt.Errorf("%w: aug depth %d beyond pipeline length %d", vfs.ErrNotExist, p.AugDepth, len(ops))
	}
	f, err := s.gops.frameOnce(ent, p.Frame)
	if err != nil {
		return nil, nil, err
	}
	clip, err := frame.NewClip([]*frame.Frame{f})
	if err != nil {
		return nil, nil, err
	}
	sigs := make([]string, 0, p.AugDepth)
	for d := 0; d < p.AugDepth; d++ {
		clip, err = ops[d].Op.Apply(clip, nil)
		if err != nil {
			return nil, nil, err
		}
		sigs = append(sigs, ops[d].Sig)
	}
	data, err := frame.EncodeFrame(clip.Frames[0])
	if err != nil {
		return nil, nil, err
	}
	out := clip.Frames[0]
	return data, map[string]string{
		"user.sand.pipeline": strings.Join(sigs, "|"),
		"user.sand.geometry": fmt.Sprintf("%dx%dx%d", out.W, out.H, out.C),
	}, nil
}

// List implements vfs.Provider for directory browsing: tasks at the root,
// videos below a task, and view entries below a video.
func (s *Service) List(dir string) ([]string, error) {
	dir = strings.Trim(dir, "/")
	switch {
	case dir == "":
		var out []string
		for tag := range s.tasks {
			out = append(out, tag)
		}
		sort.Strings(out)
		return out, nil
	default:
		parts := strings.Split(dir, "/")
		if _, ok := s.tasks[parts[0]]; !ok {
			return nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, dir)
		}
		if len(parts) == 1 {
			ds := s.snapshot()
			out := make([]string, 0, len(ds.Videos))
			for i := range ds.Videos {
				out = append(out, ds.Videos[i].Spec.Name+".mp4")
			}
			sort.Strings(out)
			return out, nil
		}
		if len(parts) == 2 {
			video := strings.TrimSuffix(parts[1], ".mp4")
			ent, ok := s.snapshot().Find(video)
			if !ok {
				return nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, dir)
			}
			out := make([]string, 0, ent.Spec.Frames)
			for i := 0; i < ent.Spec.Frames; i++ {
				out = append(out, fmt.Sprintf("frame%d", i))
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, dir)
}
