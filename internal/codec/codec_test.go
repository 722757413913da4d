package codec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sand/internal/frame"
)

// syntheticClip builds a temporally coherent clip: a static, spatially
// detailed texture (which only intra prediction must pay for once per GOP)
// overlaid with a small moving bright square, so temporal prediction has
// near-zero residuals while intra prediction does real work.
func syntheticClip(rng *rand.Rand, n, w, h, c int) *frame.Clip {
	texture := frame.New(w, h, c)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				texture.Set(x, y, ch, byte((x*7+y*13+ch*31)%64+rng.Intn(8)))
			}
		}
	}
	frames := make([]*frame.Frame, n)
	for i := range frames {
		f := texture.Clone()
		// Moving bright square, 1/8 of the frame.
		bx, by := (i*3)%(w-w/8), (i*2)%(h-h/8)
		for ch := 0; ch < c; ch++ {
			for y := by; y < by+h/8; y++ {
				for x := bx; x < bx+w/8; x++ {
					f.Set(x, y, ch, 250)
				}
			}
		}
		frames[i] = f
	}
	clip, err := frame.NewClip(frames)
	if err != nil {
		panic(err)
	}
	return clip
}

func encodeHelper(t testing.TB, clip *frame.Clip, gop int) *Video {
	t.Helper()
	v, err := Encode(clip, EncodeParams{GOP: gop, FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEncodeRejectsEmpty(t *testing.T) {
	if _, err := Encode(nil, EncodeParams{}); err == nil {
		t.Fatal("Encode(nil) accepted")
	}
}

func TestEncodeRejectsBadLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clip := syntheticClip(rng, 2, 8, 8, 1)
	if _, err := Encode(clip, EncodeParams{Level: 42}); err == nil {
		t.Fatal("Encode accepted flate level 42")
	}
}

func TestRoundTripLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	clip := syntheticClip(rng, 25, 32, 24, 3)
	v := encodeHelper(t, clip, 10)
	dec := NewDecoder(v, nil)
	out, err := dec.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != clip.Len() {
		t.Fatalf("decoded %d frames, want %d", out.Len(), clip.Len())
	}
	for i := range clip.Frames {
		if !clip.Frames[i].Equal(out.Frames[i]) {
			t.Fatalf("frame %d not bit-exact", i)
		}
	}
}

func TestGOPStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	clip := syntheticClip(rng, 23, 16, 16, 1)
	v := encodeHelper(t, clip, 7)
	for i := 0; i < 23; i++ {
		ft, err := v.Type(i)
		if err != nil {
			t.Fatal(err)
		}
		want := PFrame
		if i%7 == 0 {
			want = IFrame
		}
		if ft != want {
			t.Fatalf("frame %d type = %v, want %v", i, ft, want)
		}
	}
	if _, err := v.Type(23); err == nil {
		t.Fatal("Type accepted out-of-range index")
	}
}

func TestKeyframeBeforeAndDecodeCost(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	clip := syntheticClip(rng, 30, 8, 8, 1)
	v := encodeHelper(t, clip, 10)
	cases := []struct{ frame, key, cost int }{
		{0, 0, 1}, {5, 0, 6}, {9, 0, 10}, {10, 10, 1}, {19, 10, 10}, {29, 20, 10},
	}
	for _, c := range cases {
		k, err := v.KeyframeBefore(c.frame)
		if err != nil || k != c.key {
			t.Fatalf("KeyframeBefore(%d) = %d, %v; want %d", c.frame, k, err, c.key)
		}
		cost, err := v.DecodeCost(c.frame)
		if err != nil || cost != c.cost {
			t.Fatalf("DecodeCost(%d) = %d, %v; want %d", c.frame, cost, err, c.cost)
		}
	}
}

func TestRandomAccessMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	clip := syntheticClip(rng, 40, 16, 12, 3)
	v := encodeHelper(t, clip, 8)
	seq := NewDecoder(v, nil)
	full, err := seq.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	// Access frames in a scrambled order with a fresh/reused decoder.
	ra := NewDecoder(v, nil)
	order := rng.Perm(40)
	for _, i := range order {
		f, err := ra.Frame(i)
		if err != nil {
			t.Fatalf("Frame(%d): %v", i, err)
		}
		if !f.Equal(full.Frames[i]) {
			t.Fatalf("random access frame %d differs from sequential", i)
		}
		if f.Index != i {
			t.Fatalf("frame %d has Index %d", i, f.Index)
		}
	}
}

func TestDecodeAmplificationAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	clip := syntheticClip(rng, 30, 8, 8, 1)
	v := encodeHelper(t, clip, 10)
	var st Stats
	dec := NewDecoder(v, &st)
	// Request frame 9: must decode 0..9 (10 frames).
	if _, err := dec.Frame(9); err != nil {
		t.Fatal(err)
	}
	if got := st.FramesDecoded.Load(); got != 10 {
		t.Fatalf("decoded %d frames for frame 9, want 10", got)
	}
	if st.FramesRequested.Load() != 1 {
		t.Fatalf("requested = %d, want 1", st.FramesRequested.Load())
	}
	if amp := st.Amplification(); amp != 10 {
		t.Fatalf("amplification = %v, want 10", amp)
	}
	// Request frame 12 next: seek to keyframe 10, decode 10..12 (3 more).
	if _, err := dec.Frame(12); err != nil {
		t.Fatal(err)
	}
	if got := st.FramesDecoded.Load(); got != 13 {
		t.Fatalf("total decoded = %d, want 13", got)
	}
	st.Reset()
	if st.FramesDecoded.Load() != 0 || st.Amplification() != 0 {
		t.Fatal("Reset did not zero stats")
	}
}

func TestSequentialAccessIsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clip := syntheticClip(rng, 20, 8, 8, 1)
	v := encodeHelper(t, clip, 5)
	var st Stats
	dec := NewDecoder(v, &st)
	for i := 0; i < 20; i++ {
		if _, err := dec.Frame(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.FramesDecoded.Load(); got != 20 {
		t.Fatalf("sequential decode of 20 frames performed %d decodes", got)
	}
}

func TestRepeatedFrameIsCached(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	clip := syntheticClip(rng, 10, 8, 8, 1)
	v := encodeHelper(t, clip, 5)
	var st Stats
	dec := NewDecoder(v, &st)
	a, err := dec.Frame(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dec.Frame(3)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("repeat access returned different pixels")
	}
	if got := st.FramesDecoded.Load(); got != 4 {
		t.Fatalf("repeat access decoded %d frames, want 4", got)
	}
	// Mutating the returned frame must not corrupt decoder state.
	a.Pix[0] ^= 0xff
	c, _ := dec.Frame(3)
	if !b.Equal(c) {
		t.Fatal("caller mutation corrupted decoder state")
	}
}

func TestFramesBulkAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	clip := syntheticClip(rng, 30, 8, 8, 1)
	v := encodeHelper(t, clip, 10)
	dec := NewDecoder(v, nil)
	fs, err := dec.Frames([]int{2, 5, 11, 29})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 4 || fs[0].Index != 2 || fs[3].Index != 29 {
		t.Fatalf("bulk decode wrong frames: %v", []int{fs[0].Index, fs[1].Index, fs[2].Index, fs[3].Index})
	}
	if _, err := dec.Frames([]int{5, 5}); err == nil {
		t.Fatal("Frames accepted non-ascending indices")
	}
	if _, err := dec.Frames([]int{7, 3}); err == nil {
		t.Fatal("Frames accepted descending indices")
	}
}

func TestPlanCostMatchesRealDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	clip := syntheticClip(rng, 60, 8, 8, 1)
	v := encodeHelper(t, clip, 12)
	for trial := 0; trial < 25; trial++ {
		// Random ascending subset.
		var idx []int
		for i := 0; i < 60; i++ {
			if rng.Intn(4) == 0 {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		want, err := PlanCost(v, idx)
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		dec := NewDecoder(v, &st)
		if _, err := dec.Frames(idx); err != nil {
			t.Fatal(err)
		}
		if got := int(st.FramesDecoded.Load()); got != want {
			t.Fatalf("trial %d: PlanCost=%d, real decoder=%d (indices %v)", trial, want, got, idx)
		}
	}
}

func TestPlanCostValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	clip := syntheticClip(rng, 10, 8, 8, 1)
	v := encodeHelper(t, clip, 5)
	if _, err := PlanCost(v, []int{3, 2}); err == nil {
		t.Fatal("PlanCost accepted descending indices")
	}
	if _, err := PlanCost(v, []int{100}); err == nil {
		t.Fatal("PlanCost accepted out-of-range index")
	}
}

func TestParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	clip := syntheticClip(rng, 15, 16, 16, 3)
	v := encodeHelper(t, clip, 6)
	p, err := Parse(v.Data)
	if err != nil {
		t.Fatal(err)
	}
	if p.W != v.W || p.H != v.H || p.C != v.C || p.FrameCount != v.FrameCount || p.GOP != v.GOP || p.FPS != v.FPS {
		t.Fatalf("parsed metadata %+v != encoded %+v", p, v)
	}
	out, err := NewDecoder(p, nil).DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range clip.Frames {
		if !clip.Frames[i].Equal(out.Frames[i]) {
			t.Fatalf("parsed container frame %d differs", i)
		}
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	clip := syntheticClip(rng, 5, 8, 8, 1)
	v := encodeHelper(t, clip, 5)
	if _, err := Parse(v.Data[:10]); err == nil {
		t.Error("accepted truncated container")
	}
	bad := append([]byte(nil), v.Data...)
	bad[0] ^= 0xff
	if _, err := Parse(bad); err == nil {
		t.Error("accepted bad magic")
	}
	short := append([]byte(nil), v.Data[:len(v.Data)-3]...)
	if _, err := Parse(short); err == nil {
		t.Error("accepted size mismatch")
	}
}

func TestCompressionIsEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	clip := syntheticClip(rng, 30, 64, 48, 3)
	v := encodeHelper(t, clip, 10)
	raw := clip.Bytes()
	if v.Bytes() >= raw/3 {
		t.Fatalf("encoded %d bytes of %d raw; expected >3x compression on smooth content", v.Bytes(), raw)
	}
}

func TestPFramesSmallerThanIFrames(t *testing.T) {
	// On temporally coherent content, temporal prediction should beat
	// intra prediction, making P payloads smaller on average.
	rng := rand.New(rand.NewSource(15))
	clip := syntheticClip(rng, 20, 64, 48, 1)
	v := encodeHelper(t, clip, 10)
	var iBytes, pBytes, iN, pN int
	for i := 0; i < v.FrameCount; i++ {
		start := v.index[i].offset
		sz := int(uint32(v.Data[start]) | uint32(v.Data[start+1])<<8 | uint32(v.Data[start+2])<<16 | uint32(v.Data[start+3])<<24)
		if v.index[i].ftype == IFrame {
			iBytes += sz
			iN++
		} else {
			pBytes += sz
			pN++
		}
	}
	if iN == 0 || pN == 0 {
		t.Fatal("missing frame types")
	}
	if float64(pBytes)/float64(pN) >= float64(iBytes)/float64(iN) {
		t.Fatalf("avg P payload %d >= avg I payload %d; temporal prediction ineffective", pBytes/pN, iBytes/iN)
	}
}

func TestFrameTypeString(t *testing.T) {
	if IFrame.String() != "I" || PFrame.String() != "P" {
		t.Fatal("FrameType String mismatch")
	}
	if FrameType(9).String() == "I" {
		t.Fatal("unknown FrameType stringifies as I")
	}
}

// Property: for any GOP size and target frame, DecodeCost is between 1 and
// GOP, and PlanCost of a singleton equals DecodeCost.
func TestQuickDecodeCostBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	clip := syntheticClip(rng, 48, 8, 8, 1)
	f := func(gopRaw, idxRaw uint8) bool {
		gop := int(gopRaw%15) + 1
		idx := int(idxRaw) % 48
		v, err := Encode(clip, EncodeParams{GOP: gop, FPS: 30})
		if err != nil {
			return false
		}
		cost, err := v.DecodeCost(idx)
		if err != nil || cost < 1 || cost > gop {
			return false
		}
		pc, err := PlanCost(v, []int{idx})
		return err == nil && pc == cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: round trip is lossless for arbitrary noise content too.
func TestQuickRoundTripNoise(t *testing.T) {
	f := func(seed int64, gopRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		gop := int(gopRaw%8) + 1
		frames := make([]*frame.Frame, 6)
		for i := range frames {
			fr := frame.New(12, 10, 2)
			rng.Read(fr.Pix)
			frames[i] = fr
		}
		clip, _ := frame.NewClip(frames)
		v, err := Encode(clip, EncodeParams{GOP: gop, FPS: 24})
		if err != nil {
			return false
		}
		out, err := NewDecoder(v, nil).DecodeAll()
		if err != nil {
			return false
		}
		for i := range frames {
			if !frames[i].Equal(out.Frames[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	clip := syntheticClip(rng, 30, 128, 96, 3)
	b.SetBytes(int64(clip.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(clip, EncodeParams{GOP: 10, FPS: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSequential(b *testing.B) {
	// 192x108x3-gop30 is the geometry of the bench/ corpus that
	// cold_decode decodes.
	for _, bc := range []struct {
		name         string
		frames, w, h int
		gop          int
	}{
		{"128x96x3-gop10", 30, 128, 96, 10},
		{"192x108x3-gop30", 30, 192, 108, 30},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(18))
			clip := syntheticClip(rng, bc.frames, bc.w, bc.h, 3)
			v, _ := Encode(clip, EncodeParams{GOP: bc.gop, FPS: 30})
			b.SetBytes(int64(clip.Bytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewDecoder(v, nil).DecodeAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRandomAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	clip := syntheticClip(rng, 60, 128, 96, 3)
	v, _ := Encode(clip, EncodeParams{GOP: 15, FPS: 30})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := NewDecoder(v, nil)
		if _, err := dec.Frame(rng.Intn(60)); err != nil {
			b.Fatal(err)
		}
	}
}
