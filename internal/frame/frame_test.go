package frame

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randomFrame(rng *rand.Rand, w, h, c int) *Frame {
	f := New(w, h, c)
	rng.Read(f.Pix)
	f.Index = rng.Intn(1000)
	f.PTS = int64(rng.Intn(100000))
	return f
}

func smoothFrame(rng *rand.Rand, w, h, c int) *Frame {
	f := New(w, h, c)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Set(x, y, ch, byte((x+y+ch*10)%256))
			}
		}
	}
	return f
}

func TestNewGeometry(t *testing.T) {
	f := New(4, 3, 2)
	if len(f.Pix) != 24 {
		t.Fatalf("pix len = %d, want 24", len(f.Pix))
	}
	if f.Index != -1 {
		t.Fatalf("fresh frame index = %d, want -1", f.Index)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,1,1) did not panic")
		}
	}()
	New(0, 1, 1)
}

func TestSetAtRoundTrip(t *testing.T) {
	f := New(5, 4, 3)
	f.Set(2, 3, 1, 77)
	if got := f.At(2, 3, 1); got != 77 {
		t.Fatalf("At = %d, want 77", got)
	}
	// Plane addressing must agree with At.
	if f.Plane(1)[3*5+2] != 77 {
		t.Fatal("Plane addressing disagrees with At")
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := randomFrame(rng, 8, 8, 3)
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal")
	}
	g.Pix[0]++
	if f.Equal(g) {
		t.Fatal("clone shares storage")
	}
}

func TestSubRect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := randomFrame(rng, 16, 12, 3)
	r, err := f.SubRect(4, 2, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.W != 8 || r.H != 6 || r.C != 3 {
		t.Fatalf("rect geometry = %dx%dx%d", r.W, r.H, r.C)
	}
	for c := 0; c < 3; c++ {
		for y := 0; y < 6; y++ {
			for x := 0; x < 8; x++ {
				if r.At(x, y, c) != f.At(x+4, y+2, c) {
					t.Fatalf("rect pixel (%d,%d,%d) mismatch", x, y, c)
				}
			}
		}
	}
}

func TestSubRectBounds(t *testing.T) {
	f := New(8, 8, 1)
	cases := [][4]int{{-1, 0, 4, 4}, {0, -1, 4, 4}, {5, 0, 4, 4}, {0, 5, 4, 4}, {0, 0, 0, 4}, {0, 0, 9, 1}}
	for _, c := range cases {
		if _, err := f.SubRect(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("SubRect%v accepted out-of-bounds rect", c)
		}
	}
}

func TestClipValidation(t *testing.T) {
	if _, err := NewClip(nil); err == nil {
		t.Fatal("NewClip(nil) accepted")
	}
	a, b := New(4, 4, 1), New(4, 5, 1)
	if _, err := NewClip([]*Frame{a, b}); err == nil {
		t.Fatal("NewClip accepted mixed geometry")
	}
	c, err := NewClip([]*Frame{a, a.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.Bytes() != 32 {
		t.Fatalf("clip len=%d bytes=%d", c.Len(), c.Bytes())
	}
	w, h, ch := c.Geometry()
	if w != 4 || h != 4 || ch != 1 {
		t.Fatalf("geometry = %d,%d,%d", w, h, ch)
	}
}

func TestClipCloneDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, _ := NewClip([]*Frame{randomFrame(rng, 4, 4, 1), randomFrame(rng, 4, 4, 1)})
	d := c.Clone()
	d.Frames[0].Pix[0]++
	if c.Frames[0].Equal(d.Frames[0]) {
		t.Fatal("clip clone shares frame storage")
	}
}

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, geom := range [][3]int{{1, 1, 1}, {7, 5, 3}, {64, 48, 3}, {33, 17, 1}} {
		f := randomFrame(rng, geom[0], geom[1], geom[2])
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		g, err := DecodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(g) || f.Index != g.Index || f.PTS != g.PTS {
			t.Fatalf("round trip mismatch for %v", geom)
		}
	}
}

func TestSmoothFrameCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := smoothFrame(rng, 128, 128, 3)
	enc, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= f.Bytes()/4 {
		t.Fatalf("smooth frame compressed to %d of %d bytes; expected <25%%", len(enc), f.Bytes())
	}
}

func TestDecodeFrameRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := randomFrame(rng, 8, 8, 1)
	enc, _ := EncodeFrame(f)
	if _, err := DecodeFrame(enc[:10]); err == nil {
		t.Error("accepted truncated header")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := DecodeFrame(bad); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := DecodeFrame(enc[:len(enc)-8]); err == nil {
		t.Error("accepted truncated payload")
	}
}

func TestClipEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frames := make([]*Frame, 5)
	for i := range frames {
		frames[i] = randomFrame(rng, 16, 12, 3)
	}
	c, _ := NewClip(frames)
	enc, err := EncodeClip(c)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeClip(enc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != c.Len() {
		t.Fatalf("len %d != %d", d.Len(), c.Len())
	}
	for i := range frames {
		if !c.Frames[i].Equal(d.Frames[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

// TestEncodeClipRefusesWhatDecodeClipRejects: the clip writer refuses
// the clips its reader refuses — no frames, or frames of two geometries —
// instead of writing bytes DecodeClip cannot read back. AppendClip leaves
// its destination as it was. The frame writers refuse a geometry
// ParseFrameHeader refuses, and a pixel buffer of the wrong length.
func TestEncodeClipRefusesWhatDecodeClipRejects(t *testing.T) {
	for name, f := range map[string]*Frame{
		"17 channels": {W: 2, H: 2, C: 17, Pix: make([]byte, 2*2*17)},
		"short Pix":   {W: 4, H: 4, C: 3, Pix: make([]byte, 47)},
	} {
		for enc, encode := range map[string]func(*Frame) ([]byte, error){"EncodeFrame": EncodeFrame, "EncodeFrameFast": EncodeFrameFast} {
			if _, err := encode(f); err == nil {
				t.Fatalf("%s: %s accepted a frame no decoder reads back", name, enc)
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	mixed := &Clip{Frames: []*Frame{randomFrame(rng, 8, 8, 3), randomFrame(rng, 8, 6, 3)}}
	for name, c := range map[string]*Clip{"empty": {}, "mixed geometry": mixed} {
		if data, err := EncodeClip(c); err == nil {
			_, derr := DecodeClip(data)
			t.Fatalf("%s: EncodeClip wrote %d bytes that DecodeClip rejects: %v", name, len(data), derr)
		}
		if out, err := AppendClip([]byte("dst"), c); err == nil || string(out) != "dst" {
			t.Fatalf("%s: AppendClip returned %q, %v; want dst unchanged and an error", name, out, err)
		}
	}
}

func TestDecodeClipRejectsCorruption(t *testing.T) {
	if _, err := DecodeClip([]byte{1, 2, 3}); err == nil {
		t.Error("accepted tiny buffer")
	}
	c, _ := NewClip([]*Frame{New(4, 4, 1)})
	enc, _ := EncodeClip(c)
	if _, err := DecodeClip(enc[:len(enc)-2]); err == nil {
		t.Error("accepted truncated clip")
	}
}

// TestDecodeClipHeaderCannotSizeAllocation: an 8-byte clip whose header
// claims 1<<20 frames is rejected before anything is sized by that count.
func TestDecodeClipHeaderCannotSizeAllocation(t *testing.T) {
	in := make([]byte, 8)
	binary.LittleEndian.PutUint32(in[0:], clipMagic)
	binary.LittleEndian.PutUint32(in[4:], 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeClip(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a clip header claiming 1<<20 frames over no payload")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("rejecting an 8-byte clip allocated %d bytes, want < 64 KiB", got)
	}
}

// noisyFrame is a smooth gradient with 4 bits of noise per sample: after
// the Sub filter it has little redundancy beyond its symbol statistics,
// like an augmented video frame.
func noisyFrame(rng *rand.Rand, w, h, c int) *Frame {
	f := New(w, h, c)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Set(x, y, ch, byte(x+2*y+40*ch+rng.Intn(16)))
			}
		}
	}
	return f
}

// subFiltered is the byte stream EncodeFrame compresses: every row
// delta-coded against the sample to its left.
func subFiltered(f *Frame) []byte {
	out := make([]byte, 0, len(f.Pix))
	for i, v := range f.Pix {
		if i%f.W == 0 {
			out = append(out, v)
		} else {
			out = append(out, v-f.Pix[i-1])
		}
	}
	return out
}

// TestEncodeFrameStaysCompressed guards the batch payload encoding: on a
// Sub-filtered noisy frame EncodeFrame's stream is within 2 % of zlib's
// default level on the same bytes, and plain compress/zlib inflates it.
// A raw or stored-block payload fails the size bound.
func TestEncodeFrameStaysCompressed(t *testing.T) {
	f := noisyFrame(rand.New(rand.NewSource(12)), 112, 112, 3)
	enc, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	filtered := subFiltered(f)
	var ref bytes.Buffer
	zw, err := zlib.NewWriterLevel(&ref, 6)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(filtered)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	stream := enc[frameHeaderLen:]
	if limit := ref.Len() * 102 / 100; len(stream) > limit {
		t.Fatalf("EncodeFrame stream is %d bytes, want <= %d (1.02x zlib level 6's %d)", len(stream), limit, ref.Len())
	}
	zr, err := zlib.NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, filtered) {
		t.Fatal("compress/zlib inflates EncodeFrame's stream to bytes other than the Sub-filtered planes")
	}
}

// Property: serialization round-trips for arbitrary pixel content.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(seed int64, wRaw, hRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := int(wRaw%32) + 1
		h := int(hRaw%32) + 1
		fr := randomFrame(rng, w, h, 3)
		enc, err := EncodeFrame(fr)
		if err != nil {
			return false
		}
		dec, err := DecodeFrame(enc)
		if err != nil {
			return false
		}
		return fr.Equal(dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SubRect of SubRect equals a single SubRect with summed offsets.
func TestQuickSubRectCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(x1Raw, y1Raw, x2Raw, y2Raw uint8) bool {
		base := randomFrame(rng, 32, 32, 2)
		x1, y1 := int(x1Raw%8), int(y1Raw%8)
		x2, y2 := int(x2Raw%8), int(y2Raw%8)
		mid, err := base.SubRect(x1, y1, 16, 16)
		if err != nil {
			return false
		}
		inner, err := mid.SubRect(x2, y2, 8, 8)
		if err != nil {
			return false
		}
		direct, err := base.SubRect(x1+x2, y1+y2, 8, 8)
		if err != nil {
			return false
		}
		return inner.Equal(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

var encodeSink []byte

// stdlibEncodeFrame is EncodeFrame as compress/zlib's HuffmanOnly writer
// wrote it, the reference BenchmarkEncodeFrame holds it to: zw is
// Reset-reused and takes one Write per Sub-filtered row.
func stdlibEncodeFrame(zw *zlib.Writer, f *Frame) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(appendFrameHeader(nil, frameMagic, f))
	zw.Reset(&buf)
	filtered := make([]byte, f.W)
	for off := 0; off < len(f.Pix); off += f.W {
		prev := byte(0)
		for x, v := range f.Pix[off : off+f.W] {
			filtered[x] = v - prev
			prev = v
		}
		if _, err := zw.Write(filtered); err != nil {
			return nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// BenchmarkEncodeFrame times EncodeFrame, and the compress/zlib writer it
// replaced, so the ratio stays visible: "112x112x3-noisy" is shaped like
// a batch frame, "256x256x3-smooth" is a gradient of a handful of
// symbols that spans three blocks.
func BenchmarkEncodeFrame(b *testing.B) {
	cases := []struct {
		name string
		f    *Frame
	}{
		{"112x112x3-noisy", noisyFrame(rand.New(rand.NewSource(9)), 112, 112, 3)},
		{"256x256x3-smooth", smoothFrame(rand.New(rand.NewSource(9)), 256, 256, 3)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.Run("encode", func(b *testing.B) {
				b.SetBytes(int64(c.f.Bytes()))
				for i := 0; i < b.N; i++ {
					enc, err := EncodeFrame(c.f)
					if err != nil {
						b.Fatal(err)
					}
					encodeSink = enc
				}
			})
			b.Run("stdlib", func(b *testing.B) {
				zw, err := zlib.NewWriterLevel(io.Discard, zlib.HuffmanOnly)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(c.f.Bytes()))
				for i := 0; i < b.N; i++ {
					enc, err := stdlibEncodeFrame(zw, c.f)
					if err != nil {
						b.Fatal(err)
					}
					encodeSink = enc
				}
			})
		})
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	f := smoothFrame(rng, 256, 256, 3)
	enc, _ := EncodeFrame(f)
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEncodeFrameFastRoundTrip(t *testing.T) {
	f := New(33, 17, 3)
	for i := range f.Pix {
		f.Pix[i] = byte((i*31 + 7) % 251)
	}
	f.Index = 9
	f.PTS = 1234
	fast, err := EncodeFrameFast(f)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	// The raw form trades size for decode speed; both must decode to the
	// same frame through DecodeFrame.
	for name, data := range map[string][]byte{"fast": fast, "slow": slow} {
		got, err := DecodeFrame(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.W != f.W || got.H != f.H || got.C != f.C || got.Index != f.Index || got.PTS != f.PTS {
			t.Fatalf("%s: header mismatch: %+v", name, got)
		}
		if !bytes.Equal(got.Pix, f.Pix) {
			t.Fatalf("%s: pixel bytes differ after round trip", name)
		}
	}
}

// v1Objects are byte strings the SFM1/SCL1 writers produced before the
// raw frame form existed: a Huffman-coded frame (32x4x1, index 4, PTS
// 160), a frame object of the memory tier in stored zlib blocks (3x2x2,
// index 7, PTS 280), and a clip of two 2x2x1 frames. They must stay
// decodable: recovered spills and old payloads carry them.
var v1Objects = map[string]string{
	"huffman frame": "314d465320000000040000000100000004000000a000000000000000780104c0811000000800b1dd33441145fe540d111111119189888888886845444444441c11111111910f0000ffff2f1600d1",
	"stored frame":  "314d46530300000002000000020000000700000018010000000000007801000c00f3ff052525742525e32525522525010000ffff119402d7",
	"clip":          "314c43530200000030000000314d46530200000002000000010000000000000000000000000000007801000400fbff01254b25010000ffff0132009730000000314d46530200000002000000010000000200000050000000000000007801000400fbff09255325010000ffff016200a7",
}

// v1Frame is the frame with v1Objects' pixel pattern: sample i is
// seed + 37*i.
func v1Frame(w, h, c, index int, pts int64, seed byte) *Frame {
	f := New(w, h, c)
	for i := range f.Pix {
		f.Pix[i] = seed + byte(i*37)
	}
	f.Index, f.PTS = index, pts
	return f
}

// TestDecodeV1Objects decodes the checked-in v1 byte strings.
func TestDecodeV1Objects(t *testing.T) {
	raw := func(name string) []byte {
		b, err := hex.DecodeString(v1Objects[name])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	huffWant := New(32, 4, 1)
	for i := range huffWant.Pix {
		huffWant.Pix[i] = byte(i/3) * 2
	}
	huffWant.Index, huffWant.PTS = 4, 160
	for name, want := range map[string]*Frame{"huffman frame": huffWant, "stored frame": v1Frame(3, 2, 2, 7, 280, 5)} {
		for _, decode := range []func([]byte) (*Frame, error){DecodeFrame, func(b []byte) (*Frame, error) {
			f, owned, err := ViewFrame(b)
			if err == nil && !owned {
				t.Fatalf("%s: ViewFrame returned a v1 frame unowned", name)
			}
			return f, err
		}} {
			got, err := decode(raw(name))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.Equal(want) || got.Index != want.Index || got.PTS != want.PTS {
				t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
			}
		}
	}
	c, err := DecodeClip(raw("clip"))
	if err != nil {
		t.Fatal(err)
	}
	want := []*Frame{v1Frame(2, 2, 1, 0, 0, 1), v1Frame(2, 2, 1, 2, 80, 9)}
	if c.Len() != len(want) {
		t.Fatalf("clip has %d frames, want %d", c.Len(), len(want))
	}
	for i, f := range c.Frames {
		if !f.Equal(want[i]) || f.Index != want[i].Index || f.PTS != want[i].PTS {
			t.Fatalf("clip frame %d: decoded %+v, want %+v", i, f, want[i])
		}
	}
}

// TestViewFrameAliasesRawPixels: a raw frame comes back unowned, its Pix
// a window of the encoded bytes with cap == len; DecodeFrame copies it.
// Flipping any pixel byte, or the CRC, makes both refuse the frame.
func TestViewFrameAliasesRawPixels(t *testing.T) {
	f := randomFrame(rand.New(rand.NewSource(15)), 9, 7, 3)
	f.Index, f.PTS = 3, 99
	enc, err := EncodeFrameFast(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := frameHeaderLen + crcLen + len(f.Pix); len(enc) != want || cap(enc) != want {
		t.Fatalf("raw frame is %d bytes (cap %d), want %d", len(enc), cap(enc), want)
	}
	v, owned, err := ViewFrame(enc)
	if err != nil || owned {
		t.Fatalf("ViewFrame: owned %v, %v; want a view", owned, err)
	}
	if &v.Pix[0] != &enc[frameHeaderLen+crcLen] || cap(v.Pix) != len(v.Pix) {
		t.Fatal("the view's Pix is not the encoded pixels cut at their length")
	}
	if !v.Equal(f) || v.Index != f.Index || v.PTS != f.PTS {
		t.Fatal("the view differs from the encoded frame")
	}
	d, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if &d.Pix[0] == &v.Pix[0] || !d.Equal(f) {
		t.Fatal("DecodeFrame did not return an equal copy")
	}
	for _, at := range []int{frameHeaderLen, frameHeaderLen + crcLen, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[at] ^= 0x10
		if _, _, err := ViewFrame(bad); err == nil {
			t.Fatalf("ViewFrame accepted a flipped byte at %d", at)
		}
		if _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("DecodeFrame accepted a flipped byte at %d", at)
		}
	}
}
