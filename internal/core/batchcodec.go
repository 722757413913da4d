// Package core implements the SAND service: it compiles task configs into
// materialization plans (internal/graph), executes them with a
// priority-scheduled worker pool (internal/sched) over the real codec and
// augmentation library (a batch is one pool task whose samples and frames
// materialize in order on that worker; parallelism is across batches),
// manages training objects in the storage tier (internal/storage), and
// exposes every intermediate as a view through the POSIX-shaped
// filesystem (internal/vfs). Every service reports into an
// observability registry (internal/obs) — its own via Options.Obs, or
// the process-wide default — covering batch/sample/frame trace spans,
// view-read latency histograms and GOP-cache/engine counters.
package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"sand/internal/frame"
)

// batchMagic is "SBA" under encoding tag '1', the original layout, in
// the one tag scheme of frame, clip and batch headers (see
// internal/frame's serialization): a new batch encoding adds a tag.
const batchMagic = 0x53424100 | '1' // "SBA1"

// batchBufs pools EncodeBatch's scratch buffer: a batch is encoded into
// one and copied out once at its exact size.
var batchBufs = sync.Pool{New: func() any { return new([]byte) }}

// EncodeBatch serializes a training batch: a count header followed by
// length-prefixed clip payloads and their labels. This is the byte stream
// a read() on a batch view returns. Every clip is appended into one
// pooled buffer, and the result is one exact-size copy of it, so its
// capacity is its length.
func EncodeBatch(b *frame.Batch) ([]byte, error) {
	if len(b.Clips) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if len(b.Labels) != 0 && len(b.Labels) != len(b.Clips) {
		return nil, fmt.Errorf("core: %d labels for %d clips", len(b.Labels), len(b.Clips))
	}
	buf := batchBufs.Get().(*[]byte)
	out := binary.LittleEndian.AppendUint32((*buf)[:0], batchMagic)
	defer func() {
		*buf = out
		batchBufs.Put(buf)
	}()
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Clips)))
	out = binary.LittleEndian.AppendUint32(out, uint32(b.Epoch))
	out = binary.LittleEndian.AppendUint32(out, uint32(b.Iteration))
	for i, clip := range b.Clips {
		label := ""
		if len(b.Labels) > 0 {
			label = b.Labels[i]
		}
		at := len(out)
		var err error
		// The clip's length prefix is patched in once it is written.
		out, err = frame.AppendClip(append(out, 0, 0, 0, 0, 0, 0, 0, 0), clip)
		if err != nil {
			return nil, fmt.Errorf("core: clip %d: %w", i, err)
		}
		binary.LittleEndian.PutUint32(out[at:], uint32(len(out)-at-8))
		binary.LittleEndian.PutUint32(out[at+4:], uint32(len(label)))
		out = append(out, label...)
	}
	return append(make([]byte, 0, len(out)), out...), nil
}

// batchFraming is a serialized batch's framing, read without decoding
// any pixels: the header's epoch and iteration, and per clip its
// EncodeClip bytes (subslices of the batch) and its label.
type batchFraming struct {
	epoch, iter int
	clips       [][]byte
	labels      []string
}

// walkBatch reads a serialized batch's framing: the header, then per clip
// an 8-byte length prefix, the clip and the label. It is the one parser
// of the format — DecodeBatch decodes the clips it returns, batchXattrs
// reads only their headers. The header may not claim more clips than the
// bytes behind it can hold prefixes for.
func walkBatch(data []byte) (batchFraming, error) {
	if len(data) < 16 || binary.LittleEndian.Uint32(data[0:]) != batchMagic {
		return batchFraming{}, fmt.Errorf("core: bad batch header")
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if n <= 0 || n > 1<<16 || n > (len(data)-16)/8 {
		return batchFraming{}, fmt.Errorf("core: implausible clip count %d", n)
	}
	b := batchFraming{
		epoch:  int(binary.LittleEndian.Uint32(data[8:])),
		iter:   int(binary.LittleEndian.Uint32(data[12:])),
		clips:  make([][]byte, n),
		labels: make([]string, n),
	}
	off := 16
	for i := 0; i < n; i++ {
		if off+8 > len(data) {
			return batchFraming{}, fmt.Errorf("core: batch truncated at clip %d", i)
		}
		clipLen := int(binary.LittleEndian.Uint32(data[off:]))
		labelLen := int(binary.LittleEndian.Uint32(data[off+4:]))
		off += 8
		if off+clipLen+labelLen > len(data) {
			return batchFraming{}, fmt.Errorf("core: batch clip %d payload truncated", i)
		}
		b.clips[i] = data[off : off+clipLen]
		off += clipLen
		b.labels[i] = string(data[off : off+labelLen])
		off += labelLen
	}
	return b, nil
}

// DecodeBatch reverses EncodeBatch. It verifies every frame's checksum.
func DecodeBatch(data []byte) (*frame.Batch, error) {
	fr, err := walkBatch(data)
	if err != nil {
		return nil, err
	}
	b := &frame.Batch{
		Epoch:     fr.epoch,
		Iteration: fr.iter,
		Clips:     make([]*frame.Clip, len(fr.clips)),
		Labels:    fr.labels,
	}
	for i, enc := range fr.clips {
		if b.Clips[i], err = frame.DecodeClip(enc); err != nil {
			return nil, fmt.Errorf("core: batch clip %d: %w", i, err)
		}
	}
	return b, nil
}
