package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
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

// referenceDecode reconstructs every frame of v with compress/flate's
// streaming reader doing the inflate.
func referenceDecode(t *testing.T, v *Video) []*frame.Frame {
	t.Helper()
	out := make([]*frame.Frame, v.FrameCount)
	residual := make([]byte, v.W*v.H*v.C)
	for i, e := range v.index {
		sz := binary.LittleEndian.Uint32(v.Data[e.offset:])
		payload := v.Data[e.offset+4 : e.offset+4+uint64(sz)]
		if _, err := io.ReadFull(flate.NewReader(bytes.NewReader(payload)), residual); err != nil {
			t.Fatalf("reference inflate of frame %d: %v", i, err)
		}
		f := frame.New(v.W, v.H, v.C)
		if e.ftype == IFrame {
			reconstructIntra(f, residual)
		} else {
			for j := range f.Pix {
				f.Pix[j] = residual[j] + out[i-1].Pix[j]
			}
		}
		out[i] = f
	}
	return out
}

func TestDecodeMatchesFlateReferenceAtEveryLevel(t *testing.T) {
	clip := syntheticClip(rand.New(rand.NewSource(34)), 12, 48, 32, 3)
	for _, level := range writerLevels {
		v, err := encode(clip, EncodeParams{GOP: 5, FPS: 30, Level: level})
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceDecode(t, v)
		got, err := NewDecoder(v, nil).DecodeAll()
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		for i, f := range got.Frames {
			if !f.Equal(ref[i]) || !f.Equal(clip.Frames[i]) {
				t.Fatalf("level %d: frame %d differs from the compress/flate reference", level, i)
			}
		}
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
// or the decoder panic: every frame of an accepted container is decoded.
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
		defer d.Close()
		for i := 0; i < v.FrameCount; i++ {
			d.Frame(i) // errors are expected; panics are not
		}
	})
}
