package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"sand/internal/frame"
)

// writerLevels are the five flate writer levels a TVC payload can carry.
var writerLevels = []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression}

// patched returns a copy of v's container with the little-endian u32 at
// header offset off set to val.
func patched(v *Video, off int, val uint32) []byte {
	data := append([]byte(nil), v.Data...)
	binary.LittleEndian.PutUint32(data[off:], val)
	return data
}

func TestParseRejectsZeroFPS(t *testing.T) {
	v := encodeHelper(t, syntheticClip(rand.New(rand.NewSource(31)), 4, 8, 8, 1), 2)
	if _, err := Parse(patched(v, 16, 0)); err == nil {
		t.Fatal("accepted FPS 0 (the first Frame would divide by zero)")
	}
}

func TestParseRejectsOversizedDimension(t *testing.T) {
	v := encodeHelper(t, syntheticClip(rand.New(rand.NewSource(32)), 4, 16, 16, 3), 2)
	// One sample per row keeps W·H·C within what frame 0's payload can
	// hold, so only the dimension limit can refuse it.
	data := patched(v, 4, maxDimension+1)
	binary.LittleEndian.PutUint32(data[8:], 1)
	binary.LittleEndian.PutUint32(data[12:], 1)
	if _, err := Parse(data); err == nil {
		t.Fatalf("accepted width %d", maxDimension+1)
	}
}

func TestParseRejectsSamplesBeyondPayload(t *testing.T) {
	v := encodeHelper(t, syntheticClip(rand.New(rand.NewSource(33)), 4, 8, 8, 1), 2)
	// 65536×65536×3 is within the dimension limits, but would size a
	// 12 GiB decoder buffer from a payload of a few dozen bytes.
	data := patched(v, 4, maxDimension)
	binary.LittleEndian.PutUint32(data[8:], maxDimension)
	binary.LittleEndian.PutUint32(data[12:], 3)
	if _, err := Parse(data); err == nil {
		t.Fatal("accepted a geometry frame 0's payload cannot inflate to")
	}
}

// referenceFrame reconstructs frame i of v from prev, the reference's
// frame i-1 (nil for frame 0), the slow way: compress/flate's streaming
// reader inflates the payload, which must fill the frame exactly and end
// with the stream, and byte loops undo the prediction.
func referenceFrame(v *Video, i int, prev *frame.Frame) (*frame.Frame, error) {
	e := v.index[i]
	sz := uint64(binary.LittleEndian.Uint32(v.Data[e.offset:]))
	if sz > uint64(len(v.Data))-e.offset-4 {
		return nil, errors.New("payload truncated")
	}
	r := bytes.NewReader(v.Data[e.offset+4 : e.offset+4+sz])
	f := frame.New(v.W, v.H, v.C)
	residual, err := io.ReadAll(io.LimitReader(flate.NewReader(r), int64(len(f.Pix))+1))
	switch {
	case err != nil:
		return nil, err
	case len(residual) != len(f.Pix) || r.Len() != 0:
		return nil, errors.New("payload does not inflate to exactly one frame")
	case e.ftype == IFrame:
		for row := 0; row < v.H*v.C; row++ {
			left := byte(0)
			for x := row * v.W; x < (row+1)*v.W; x++ {
				f.Pix[x] = residual[x] + left
				left = f.Pix[x]
			}
		}
	case prev == nil:
		return nil, errors.New("P-frame without reference")
	default:
		for j := range f.Pix {
			f.Pix[j] = residual[j] + prev.Pix[j]
		}
	}
	return f, nil
}

// referenceDecode reconstructs every frame of v with referenceFrame.
func referenceDecode(t *testing.T, v *Video) []*frame.Frame {
	t.Helper()
	out := make([]*frame.Frame, v.FrameCount)
	var prev *frame.Frame
	for i := range out {
		f, err := referenceFrame(v, i, prev)
		if err != nil {
			t.Fatalf("reference decode of frame %d: %v", i, err)
		}
		out[i], prev = f, f
	}
	return out
}

func TestDecodeMatchesFlateReferenceAtEveryLevel(t *testing.T) {
	// 13·7·3 = 273 samples is not a multiple of 8, so the P-frame add
	// runs its byte tail.
	for _, geo := range [][3]int{{48, 32, 3}, {13, 7, 3}, {5, 1, 1}} {
		clip := syntheticClip(rand.New(rand.NewSource(34)), 12, geo[0], geo[1], geo[2])
		for _, level := range writerLevels {
			v, err := encode(clip, EncodeParams{GOP: 5, FPS: 30, Level: level})
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceDecode(t, v)
			check := func(path string, i int, f *frame.Frame) {
				t.Helper()
				if !f.Equal(ref[i]) || !f.Equal(clip.Frames[i]) || f.Index != i {
					t.Fatalf("%v level %d %s: frame %d differs from the compress/flate reference", geo, level, path, i)
				}
			}
			all, err := NewDecoder(v, nil).DecodeAll()
			if err != nil {
				t.Fatalf("%v level %d: %v", geo, level, err)
			}
			for i, f := range all.Frames {
				check("DecodeAll", i, f)
			}
			// DecodeNext ping-pongs between two caller-owned frames.
			d := NewDecoder(v, nil)
			bufs := [2]*frame.Frame{frame.New(v.W, v.H, v.C), frame.New(v.W, v.H, v.C)}
			for i := 0; i < v.FrameCount; i++ {
				if err := d.DecodeNext(i, bufs[i%2]); err != nil {
					t.Fatalf("%v level %d DecodeNext(%d): %v", geo, level, i, err)
				}
				check("DecodeNext", i, bufs[i%2])
			}
			// Random access: every frame once, in a shuffled order.
			d = NewDecoder(v, nil)
			for _, i := range rand.New(rand.NewSource(int64(level))).Perm(v.FrameCount) {
				f, err := d.Frame(i)
				if err != nil {
					t.Fatalf("%v level %d Frame(%d): %v", geo, level, i, err)
				}
				check("Frame", i, f)
			}
		}
	}
}

func TestDecodeNextRefusals(t *testing.T) {
	v := encodeHelper(t, syntheticClip(rand.New(rand.NewSource(36)), 6, 8, 8, 3), 3)
	ref := referenceDecode(t, v)
	for _, tc := range []struct {
		name string
		// setup primes d and returns the destination and the frame to
		// decode into it.
		setup func(d *Decoder) (*frame.Frame, int)
	}{
		{"wrong geometry", func(d *Decoder) (*frame.Frame, int) {
			return frame.New(8, 8, 1), 0
		}},
		{"nil destination", func(d *Decoder) (*frame.Frame, int) {
			return nil, 0
		}},
		{"destination is the reference", func(d *Decoder) (*frame.Frame, int) {
			f := frame.New(8, 8, 3)
			if err := d.DecodeNext(0, f); err != nil {
				t.Fatal(err)
			}
			return f, 1
		}},
		{"destination shares the reference's pixels", func(d *Decoder) (*frame.Frame, int) {
			f := frame.New(8, 8, 3)
			if err := d.DecodeNext(0, f); err != nil {
				t.Fatal(err)
			}
			return &frame.Frame{W: 8, H: 8, C: 3, Pix: f.Pix}, 1
		}},
		{"P-frame without a reference", func(d *Decoder) (*frame.Frame, int) {
			return frame.New(8, 8, 3), 1
		}},
		{"P-frame whose predecessor is not the reference", func(d *Decoder) (*frame.Frame, int) {
			if err := d.Prime(ref[0], 0); err != nil {
				t.Fatal(err)
			}
			return frame.New(8, 8, 3), 2
		}},
		{"index out of range", func(d *Decoder) (*frame.Frame, int) {
			return frame.New(8, 8, 3), v.FrameCount
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(v, nil)
			dst, i := tc.setup(d)
			before, beforeIdx := d.last, d.lastIdx
			var pix []byte
			if before != nil {
				pix = append(pix, before.Pix...)
			}
			if err := d.DecodeNext(i, dst); err == nil {
				t.Fatalf("DecodeNext(%d) accepted", i)
			}
			if d.last != before || d.lastIdx != beforeIdx || (before != nil && !bytes.Equal(before.Pix, pix)) {
				t.Fatal("a refused DecodeNext changed the reference")
			}
			// The decoder still works: an I-frame needs no reference.
			f := frame.New(8, 8, 3)
			if err := d.DecodeNext(3, f); err != nil || !f.Equal(ref[3]) {
				t.Fatalf("decoder unusable after a refusal: %v", err)
			}
		})
	}
}

// parseSeeds is the FuzzParseVideo corpus: videos at every writer level,
// truncated and bit-flipped copies, and the three headers Parse refuses.
func parseSeeds(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(35))
	clip := syntheticClip(rng, 6, 8, 8, 3)
	var seeds [][]byte
	for _, level := range writerLevels {
		v, err := encode(clip, EncodeParams{GOP: 3, FPS: 30, Level: level})
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, v.Data, v.Data[:headerSize], v.Data[:len(v.Data)/2])
		for i := 0; i < 4; i++ {
			flipped := append([]byte(nil), v.Data...)
			bit := rng.Intn(8 * len(flipped))
			flipped[bit/8] ^= 1 << (bit % 8)
			seeds = append(seeds, flipped)
		}
		if level == flate.DefaultCompression {
			huge := patched(v, 4, maxDimension)
			binary.LittleEndian.PutUint32(huge[8:], maxDimension)
			seeds = append(seeds, patched(v, 16, 0), patched(v, 4, maxDimension+1), huge)
		}
	}
	return seeds
}

// FuzzParseVideo asserts that no container, however hostile, makes Parse
// or the decoder panic, and that wherever referenceFrame decodes frame i
// (from its own frame i-1 for a P-frame), the decoder's frame i equals it
// byte for byte, through random-access Frame and through DecodeNext alike.
func FuzzParseVideo(f *testing.F) {
	for _, seed := range parseSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Parse(data)
		if err != nil {
			return
		}
		d := NewDecoder(v, nil)
		next := NewDecoder(v, nil)
		bufs := [2]*frame.Frame{frame.New(v.W, v.H, v.C), frame.New(v.W, v.H, v.C)}
		var ref *frame.Frame
		for i := 0; i < v.FrameCount; i++ {
			got, err := d.Frame(i) // errors are expected; panics are not
			if ref, _ = referenceFrame(v, i, ref); ref == nil {
				continue // frame i or its reference is corrupt
			}
			if err != nil || !got.Equal(ref) {
				t.Fatalf("Frame(%d) = %v, differs from the reference", i, err)
			}
			dst := bufs[0]
			if next.last == dst {
				dst = bufs[1]
			}
			if err := next.DecodeNext(i, dst); err != nil || !dst.Equal(ref) {
				t.Fatalf("DecodeNext(%d) = %v, differs from the reference", i, err)
			}
		}
	})
}
