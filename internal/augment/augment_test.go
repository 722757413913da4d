package augment

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sand/internal/frame"
)

func testClip(t testing.TB, n, w, h, c int) *frame.Clip {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	frames := make([]*frame.Frame, n)
	for i := range frames {
		f := frame.New(w, h, c)
		rng.Read(f.Pix)
		f.Index = i
		frames[i] = f
	}
	clip, err := frame.NewClip(frames)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func gradientClip(t testing.TB, n, w, h, c int) *frame.Clip {
	t.Helper()
	frames := make([]*frame.Frame, n)
	for i := range frames {
		f := frame.New(w, h, c)
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := x*200/(w-1) + y
					if v > 255 {
						v = 255
					}
					f.Set(x, y, ch, byte(v))
				}
			}
		}
		f.Index = i
		frames[i] = f
	}
	clip, err := frame.NewClip(frames)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func TestResizeNearestGeometry(t *testing.T) {
	clip := testClip(t, 3, 16, 12, 3)
	op := &Resize{W: 8, H: 6, Interpolation: "nearest"}
	out, err := op.Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, h, c := out.Geometry()
	if w != 8 || h != 6 || c != 3 {
		t.Fatalf("resized geometry %dx%dx%d", w, h, c)
	}
	// Nearest 2:1 downscale picks every other sample.
	if out.Frames[0].At(0, 0, 0) != clip.Frames[0].At(0, 0, 0) {
		t.Fatal("nearest resize corner mismatch")
	}
}

func TestResizeBilinearIdentity(t *testing.T) {
	clip := gradientClip(t, 2, 16, 12, 1)
	op := &Resize{W: 16, H: 12}
	out, err := op.Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clip.Frames {
		if !clip.Frames[i].Equal(out.Frames[i]) {
			t.Fatalf("identity bilinear resize altered frame %d", i)
		}
	}
}

func TestResizeBilinearSmooth(t *testing.T) {
	// Upscaling a gradient must stay monotone along x.
	clip := gradientClip(t, 1, 8, 8, 1)
	op := &Resize{W: 32, H: 8}
	out, err := op.Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := out.Frames[0]
	for x := 1; x < f.W; x++ {
		if f.At(x, 4, 0) < f.At(x-1, 4, 0) {
			t.Fatalf("bilinear upscale not monotone at x=%d: %d < %d", x, f.At(x, 4, 0), f.At(x-1, 4, 0))
		}
	}
}

func TestResizeValidation(t *testing.T) {
	clip := testClip(t, 1, 8, 8, 1)
	if _, err := (&Resize{W: 0, H: 4}).Apply(clip, nil); err == nil {
		t.Fatal("resize accepted zero width")
	}
	if _, err := (&Resize{W: 4, H: 4, Interpolation: "bicubic"}).Apply(clip, nil); err == nil {
		t.Fatal("resize accepted unknown interpolation")
	}
}

func TestCropMatchesSubRect(t *testing.T) {
	clip := testClip(t, 2, 16, 16, 2)
	op := &Crop{X: 3, Y: 4, W: 8, H: 6}
	out, err := op.Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := clip.Frames[1].SubRect(3, 4, 8, 6)
	if !out.Frames[1].Equal(want) {
		t.Fatal("crop mismatch vs SubRect")
	}
	if out.Frames[1].Index != 1 {
		t.Fatal("crop lost frame index")
	}
}

func TestCenterCrop(t *testing.T) {
	clip := testClip(t, 1, 16, 16, 1)
	out, err := (&CenterCrop{W: 8, H: 8}).Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := clip.Frames[0].SubRect(4, 4, 8, 8)
	if !out.Frames[0].Equal(want) {
		t.Fatal("center crop not centered")
	}
}

func TestRandomCropConsistentAcrossFrames(t *testing.T) {
	clip := gradientClip(t, 4, 32, 32, 1)
	rng := rand.New(rand.NewSource(7))
	out, err := (&RandomCrop{W: 8, H: 8}).Apply(clip, rng)
	if err != nil {
		t.Fatal(err)
	}
	// All frames in the source are identical, so all cropped frames must
	// be identical too (same origin used for the whole clip).
	for i := 1; i < out.Len(); i++ {
		if !out.Frames[0].Equal(out.Frames[i]) {
			t.Fatal("random crop origin differs across frames of one clip")
		}
	}
}

func TestRandomCropCoverage(t *testing.T) {
	// Over many draws, crop origins should span the full legal range.
	clip := testClip(t, 1, 16, 16, 1)
	rng := rand.New(rand.NewSource(8))
	seen := map[byte]bool{}
	for i := 0; i < 200; i++ {
		out, err := (&RandomCrop{W: 4, H: 4}).Apply(clip, rng)
		if err != nil {
			t.Fatal(err)
		}
		seen[out.Frames[0].At(0, 0, 0)] = true
	}
	if len(seen) < 20 {
		t.Fatalf("random crop produced only %d distinct top-left pixels; looks non-random", len(seen))
	}
}

func TestRandomCropErrors(t *testing.T) {
	clip := testClip(t, 1, 8, 8, 1)
	if _, err := (&RandomCrop{W: 4, H: 4}).Apply(clip, nil); err == nil {
		t.Fatal("random crop accepted nil rng")
	}
	if _, err := (&RandomCrop{W: 16, H: 4}).Apply(clip, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("random crop accepted oversize crop")
	}
}

func TestHFlipInvolution(t *testing.T) {
	clip := testClip(t, 2, 9, 7, 3)
	op := &HFlip{Prob: 1}
	once, err := op.Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := op.Apply(once, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clip.Frames {
		if !clip.Frames[i].Equal(twice.Frames[i]) {
			t.Fatalf("double hflip != identity at frame %d", i)
		}
		if clip.Frames[i].Equal(once.Frames[i]) {
			t.Fatalf("hflip was a no-op on random frame %d", i)
		}
	}
}

func TestVFlipInvolution(t *testing.T) {
	clip := testClip(t, 2, 9, 7, 2)
	op := &VFlip{Prob: 1}
	once, _ := op.Apply(clip, nil)
	twice, _ := op.Apply(once, nil)
	for i := range clip.Frames {
		if !clip.Frames[i].Equal(twice.Frames[i]) {
			t.Fatalf("double vflip != identity at frame %d", i)
		}
	}
}

func TestFlipProbability(t *testing.T) {
	clip := testClip(t, 1, 8, 8, 1)
	rng := rand.New(rand.NewSource(9))
	op := &HFlip{Prob: 0.5}
	if op.Deterministic() {
		t.Fatal("p=0.5 flip claims deterministic")
	}
	flipped := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		out, err := op.Apply(clip, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Frames[0].Equal(clip.Frames[0]) {
			flipped++
		}
	}
	if flipped < trials/3 || flipped > trials*2/3 {
		t.Fatalf("p=0.5 flip fired %d/%d times", flipped, trials)
	}
}

func TestRotate90(t *testing.T) {
	clip := testClip(t, 1, 6, 4, 2)
	out, err := (&Rotate90{Turns: 1}).Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, g := clip.Frames[0], out.Frames[0]
	if g.W != 4 || g.H != 6 {
		t.Fatalf("rotated geometry %dx%d, want 4x6", g.W, g.H)
	}
	// Spot-check: source (x,y) -> dest (H-1-y, x).
	for c := 0; c < 2; c++ {
		for y := 0; y < f.H; y++ {
			for x := 0; x < f.W; x++ {
				if g.At(f.H-1-y, x, c) != f.At(x, y, c) {
					t.Fatalf("rotation mapping wrong at (%d,%d,%d)", x, y, c)
				}
			}
		}
	}
	// Four turns is identity.
	four, _ := (&Rotate90{Turns: 4}).Apply(clip, nil)
	if !four.Frames[0].Equal(f) {
		t.Fatal("four turns != identity")
	}
	// Negative turns normalize.
	neg, _ := (&Rotate90{Turns: -3}).Apply(clip, nil)
	if !neg.Frames[0].Equal(g) {
		t.Fatal("-3 turns != +1 turn")
	}
}

func TestColorJitterBounded(t *testing.T) {
	clip := testClip(t, 1, 16, 16, 3)
	rng := rand.New(rand.NewSource(10))
	op := &ColorJitter{Brightness: 0.2, Contrast: 0.2}
	out, err := op.Apply(clip, rng)
	if err != nil {
		t.Fatal(err)
	}
	w, h, c := out.Geometry()
	if w != 16 || h != 16 || c != 3 {
		t.Fatal("jitter changed geometry")
	}
	// Zero jitter is identity-ish (clone).
	zero := &ColorJitter{}
	if !zero.Deterministic() {
		t.Fatal("zero jitter not deterministic")
	}
	same, _ := zero.Apply(clip, nil)
	if !same.Frames[0].Equal(clip.Frames[0]) {
		t.Fatal("zero jitter altered pixels")
	}
	if _, err := op.Apply(clip, nil); err == nil {
		t.Fatal("stochastic jitter accepted nil rng")
	}
}

func TestColorJitterMonotoneLUT(t *testing.T) {
	// Jitter must preserve pixel ordering (a monotone LUT).
	clip := gradientClip(t, 1, 256, 1, 1)
	rng := rand.New(rand.NewSource(11))
	out, err := (&ColorJitter{Brightness: 0.3, Contrast: 0.3}).Apply(clip, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := out.Frames[0]
	for x := 1; x < 255; x++ {
		if f.At(x, 0, 0) < f.At(x-1, 0, 0) {
			t.Fatalf("jitter LUT not monotone at %d", x)
		}
	}
}

func TestGrayscale(t *testing.T) {
	clip := testClip(t, 2, 8, 8, 3)
	out, err := (&Grayscale{}).Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, c := out.Geometry()
	if c != 1 {
		t.Fatalf("grayscale produced %d channels", c)
	}
	f := clip.Frames[0]
	want := (int(f.At(3, 3, 0)) + int(f.At(3, 3, 1)) + int(f.At(3, 3, 2))) / 3
	if int(out.Frames[0].At(3, 3, 0)) != want {
		t.Fatalf("grayscale value %d, want %d", out.Frames[0].At(3, 3, 0), want)
	}
}

func TestNormalizeRecenters(t *testing.T) {
	clip := gradientClip(t, 1, 32, 32, 1)
	out, err := (&Normalize{Mean: 128}).Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range out.Frames[0].Pix {
		sum += int64(v)
	}
	mean := int(sum) / len(out.Frames[0].Pix)
	if mean < 120 || mean > 136 {
		t.Fatalf("normalized mean = %d, want ~128", mean)
	}
}

func TestInvSample(t *testing.T) {
	clip := testClip(t, 5, 4, 4, 1)
	out, err := (&InvSample{}).Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !out.Frames[i].Equal(clip.Frames[4-i]) {
			t.Fatalf("inv_sample frame %d mismatch", i)
		}
	}
	// Double inversion is identity.
	back, _ := (&InvSample{}).Apply(out, nil)
	for i := range clip.Frames {
		if !back.Frames[i].Equal(clip.Frames[i]) {
			t.Fatal("double inv_sample != identity")
		}
	}
}

func TestOpsDoNotMutateInput(t *testing.T) {
	clip := testClip(t, 2, 16, 16, 3)
	snapshot := clip.Clone()
	rng := rand.New(rand.NewSource(12))
	ops := []Op{
		&Resize{W: 8, H: 8},
		&Crop{X: 1, Y: 1, W: 8, H: 8},
		&CenterCrop{W: 8, H: 8},
		&RandomCrop{W: 8, H: 8},
		&HFlip{Prob: 1},
		&VFlip{Prob: 1},
		&Rotate90{Turns: 1},
		&ColorJitter{Brightness: 0.5},
		&Grayscale{},
		&Normalize{Mean: 100},
		&InvSample{},
	}
	for _, op := range ops {
		if _, err := op.Apply(clip, rng); err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		for i := range clip.Frames {
			if !clip.Frames[i].Equal(snapshot.Frames[i]) {
				t.Fatalf("%s mutated its input", op.Name())
			}
		}
	}
}

func TestPipeline(t *testing.T) {
	clip := testClip(t, 2, 32, 32, 3)
	p := Pipeline{
		&Resize{W: 16, H: 16},
		&CenterCrop{W: 8, H: 8},
		&HFlip{Prob: 1},
	}
	if !p.Deterministic() {
		t.Fatal("deterministic pipeline misreported")
	}
	out, err := p.Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, h, _ := out.Geometry()
	if w != 8 || h != 8 {
		t.Fatalf("pipeline output %dx%d", w, h)
	}
	sig := p.Signature()
	want := "resize(16x16,bilinear)|center_crop(8x8)|hflip(1.000)"
	if sig != want {
		t.Fatalf("signature %q, want %q", sig, want)
	}
	p2 := Pipeline{&RandomCrop{W: 4, H: 4}}
	if p2.Deterministic() {
		t.Fatal("stochastic pipeline claims deterministic")
	}
}

func TestPipelineErrorPropagation(t *testing.T) {
	clip := testClip(t, 1, 8, 8, 1)
	p := Pipeline{&Resize{W: 4, H: 4}, &Crop{X: 10, Y: 0, W: 2, H: 2}}
	if _, err := p.Apply(clip, nil); err == nil {
		t.Fatal("pipeline swallowed stage error")
	}
}

func TestRegistryBuild(t *testing.T) {
	op, err := Build("resize", Params{"shape": []any{256, 320}, "interpolation": []any{"bilinear"}})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := op.(*Resize)
	if !ok || r.H != 256 || r.W != 320 {
		t.Fatalf("built %#v", op)
	}
	if _, err := Build("no_such_op", nil); err == nil {
		t.Fatal("Build accepted unknown op")
	}
	if _, err := Build("resize", Params{}); err == nil {
		t.Fatal("resize factory accepted missing shape")
	}
}

func TestRegistryAllFactories(t *testing.T) {
	cases := []struct {
		name   string
		params Params
	}{
		{"resize", Params{"shape": []any{8, 8}}},
		{"crop", Params{"shape": []any{4, 4}, "x": 1, "y": 1}},
		{"center_crop", Params{"shape": []any{4, 4}}},
		{"random_crop", Params{"shape": []any{4, 4}}},
		{"flip", Params{"flip_prob": 0.5}},
		{"flip", Params{}},
		{"vflip", Params{"flip_prob": 1.0}},
		{"rotate90", Params{"turns": 2}},
		{"color_jitter", Params{"brightness": 0.1, "contrast": 0.1}},
		{"grayscale", Params{}},
		{"normalize", Params{"mean": 100}},
		{"inv_sample", Params{}},
	}
	clip := testClip(t, 1, 16, 16, 3)
	rng := rand.New(rand.NewSource(13))
	for _, c := range cases {
		op, err := Build(c.name, c.params)
		if err != nil {
			t.Fatalf("Build(%s): %v", c.name, err)
		}
		if _, err := op.Apply(clip, rng); err != nil {
			t.Fatalf("%s.Apply: %v", c.name, err)
		}
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Fatalf("only %d registered ops", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("Names() not sorted")
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("resize", func(Params) (Op, error) { return nil, nil })
}

func TestParamsExtractors(t *testing.T) {
	p := Params{"i": 3, "f": 2.5, "pair": []any{1, 2.0}, "bad": "x"}
	if v, ok := p.Int("i"); !ok || v != 3 {
		t.Fatal("Int(i)")
	}
	if v, ok := p.Int("f"); !ok || v != 2 {
		t.Fatal("Int(f)")
	}
	if _, ok := p.Int("bad"); ok {
		t.Fatal("Int(bad) accepted string")
	}
	if v, ok := p.Float("i"); !ok || v != 3 {
		t.Fatal("Float(i)")
	}
	if a, b, ok := p.IntPair("pair"); !ok || a != 1 || b != 2 {
		t.Fatal("IntPair")
	}
	if _, _, ok := p.IntPair("bad"); ok {
		t.Fatal("IntPair(bad)")
	}
}

// Property: crop-then-resize signature equality implies identical output
// for deterministic pipelines.
func TestQuickDeterministicSignature(t *testing.T) {
	clip := testClip(t, 2, 32, 32, 3)
	f := func(w8, h8, x8, y8 uint8) bool {
		w, h := int(w8%8)+4, int(h8%8)+4
		x, y := int(x8%8), int(y8%8)
		p1 := Pipeline{&Crop{X: x, Y: y, W: 16, H: 16}, &Resize{W: w, H: h}}
		p2 := Pipeline{&Crop{X: x, Y: y, W: 16, H: 16}, &Resize{W: w, H: h}}
		if p1.Signature() != p2.Signature() {
			return false
		}
		a, err1 := p1.Apply(clip, nil)
		b, err2 := p2.Apply(clip, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a.Frames {
			if !a.Frames[i].Equal(b.Frames[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkResizeBilinear(b *testing.B) {
	b.Run("320x240-to-224", func(b *testing.B) {
		clip := testClip(b, 8, 320, 240, 3)
		op := &Resize{W: 224, H: 224}
		b.SetBytes(int64(clip.Bytes()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := op.Apply(clip, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The bench corpus geometry, one frame per op as the engine applies
	// it: the full resize, and the 112x112 window a crop keeps of it.
	corpus := testClip(b, 1, 192, 108, 3)
	rz := &Resize{W: 128, H: 128}
	b.Run("192x108-to-128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rz.Apply(corpus, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("192x108-to-128-win112", func(b *testing.B) {
		crop := &Crop{X: 8, Y: 8, W: 112, H: 112}
		for i := 0; i < b.N; i++ {
			if _, ok := ResizeCrop(rz, crop, corpus, nil); !ok {
				b.Fatal("resize+crop did not fuse")
			}
		}
	})
}

func BenchmarkRandomCrop(b *testing.B) {
	clip := testClip(b, 8, 320, 240, 3)
	op := &RandomCrop{W: 224, H: 224}
	rng := rand.New(rand.NewSource(14))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.Apply(clip, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullPipeline(b *testing.B) {
	clip := testClip(b, 8, 320, 240, 3)
	rng := rand.New(rand.NewSource(15))
	p := Pipeline{
		&Resize{W: 256, H: 256},
		&RandomCrop{W: 224, H: 224},
		&HFlip{Prob: 0.5},
		&ColorJitter{Brightness: 0.2, Contrast: 0.2},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Apply(clip, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPad(t *testing.T) {
	clip := testClip(t, 2, 4, 4, 2)
	out, err := (&Pad{Left: 1, Top: 2, Right: 3, Bottom: 4, Value: 7}).Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, h, c := out.Geometry()
	if w != 8 || h != 10 || c != 2 {
		t.Fatalf("padded geometry %dx%dx%d, want 8x10x2", w, h, c)
	}
	f := out.Frames[0]
	// Border pixels carry the fill value; interior matches the source.
	if f.At(0, 0, 0) != 7 || f.At(7, 9, 1) != 7 {
		t.Fatal("border not filled")
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if f.At(x+1, y+2, 0) != clip.Frames[0].At(x, y, 0) {
				t.Fatalf("interior pixel (%d,%d) mismatch", x, y)
			}
		}
	}
	if _, err := (&Pad{Left: -1}).Apply(clip, nil); err == nil {
		t.Fatal("negative border accepted")
	}
}

func TestSaturation(t *testing.T) {
	clip := testClip(t, 1, 8, 8, 3)
	// Factor 0 = grayscale: all channels equal afterwards.
	gray, err := (&Saturation{Factor: 0}).Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := gray.Frames[0]
	for i := 0; i < 64; i++ {
		r, g, b := f.Plane(0)[i], f.Plane(1)[i], f.Plane(2)[i]
		if r != g || g != b {
			t.Fatalf("factor 0 not grayscale at %d: %d %d %d", i, r, g, b)
		}
	}
	// Factor 1 = identity.
	same, err := (&Saturation{Factor: 1}).Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range clip.Frames[0].Pix {
		if same.Frames[0].Pix[i] != v {
			t.Fatalf("factor 1 altered pixel %d", i)
		}
	}
	// Invalid inputs.
	if _, err := (&Saturation{Factor: -1}).Apply(clip, nil); err == nil {
		t.Fatal("negative factor accepted")
	}
	mono := testClip(t, 1, 4, 4, 1)
	if _, err := (&Saturation{Factor: 2}).Apply(mono, nil); err == nil {
		t.Fatal("single-channel clip accepted")
	}
}

func TestPadSaturationRegistry(t *testing.T) {
	clip := testClip(t, 1, 8, 8, 3)
	op, err := Build("pad", Params{"all": 2, "value": 9})
	if err != nil {
		t.Fatal(err)
	}
	out, err := op.Apply(clip, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w, h, _ := out.Geometry(); w != 12 || h != 12 {
		t.Fatalf("registry pad geometry %dx%d", w, h)
	}
	op, err = Build("saturation", Params{"factor": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.Apply(clip, nil); err != nil {
		t.Fatal(err)
	}
	if !op.Deterministic() {
		t.Fatal("saturation should be deterministic")
	}
}
