package augment

import (
	"math/rand"
	"testing"

	"sand/internal/frame"
)

// randomClip builds a clip of n distinct frames with random pixels.
func randomClip(t testing.TB, rng *rand.Rand, n, w, h, c int) *frame.Clip {
	t.Helper()
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

// applyUnfused runs the pipeline stage by stage through each op's plain
// Apply — no fusion — as the ground truth the fused Pipeline.Apply must
// reproduce byte-for-byte.
func applyUnfused(t *testing.T, p Pipeline, clip *frame.Clip, rng *rand.Rand) *frame.Clip {
	t.Helper()
	cur := clip
	for _, op := range p {
		next, err := op.Apply(cur, rng)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	return cur
}

// TestFusedResizeCropMatchesUnfused: a bilinear resize followed by any
// crop-family stage must produce byte-identical output through the
// fused window kernel, and the random stream must end at the same
// position (the fused path draws the crop origin itself).
func TestFusedResizeCropMatchesUnfused(t *testing.T) {
	type fixture struct {
		srcW, srcH int // source geometry; 96x80 when zero
		p          Pipeline
	}
	pipelines := map[string]fixture{
		"resize+crop": {p: Pipeline{
			&Resize{W: 64, H: 64},
			&Crop{X: 5, Y: 9, W: 48, H: 40},
		}},
		"resize+center_crop": {p: Pipeline{
			&Resize{W: 64, H: 64},
			&CenterCrop{W: 56, H: 48},
		}},
		"resize+random_crop": {p: Pipeline{
			&Resize{W: 64, H: 64},
			&RandomCrop{W: 56, H: 56},
		}},
		// The benchmark pipeline: fusion must keep every later stochastic
		// stage aligned with the unfused draw order.
		"resize+random_crop+hflip+normalize": {p: Pipeline{
			&Resize{W: 64, H: 64},
			&RandomCrop{W: 56, H: 56},
			&HFlip{Prob: 0.5},
			&Normalize{Mean: 128},
		}},
		// Upscale exercises tap rows/columns beyond the source edge clamp.
		"upscale+crop": {p: Pipeline{
			&Resize{W: 160, H: 120},
			&Crop{X: 37, Y: 1, W: 100, H: 119},
		}},
		// The bench corpus: 192x108 frames, downscaled across and
		// upscaled down, then a 112x112 crop.
		"corpus-192x108": {srcW: 192, srcH: 108, p: Pipeline{
			&Resize{W: 128, H: 128},
			&RandomCrop{W: 112, H: 112},
		}},
		// Every column tap of a one-pixel-wide source is column 0.
		"one-pixel-wide": {srcW: 1, srcH: 80, p: Pipeline{
			&Resize{W: 64, H: 64},
			&Crop{X: 3, Y: 7, W: 48, H: 50},
		}},
	}
	for name, fx := range pipelines {
		t.Run(name, func(t *testing.T) {
			w, h := fx.srcW, fx.srcH
			if w == 0 {
				w, h = 96, 80
			}
			src := randomClip(t, rand.New(rand.NewSource(21)), 4, w, h, 3)
			rngF := rand.New(rand.NewSource(9))
			got, err := fx.p.Apply(src.Clone(), rngF)
			if err != nil {
				t.Fatal(err)
			}
			rngU := rand.New(rand.NewSource(9))
			want := applyUnfused(t, fx.p, src.Clone(), rngU)
			if got.Len() != want.Len() {
				t.Fatalf("length %d != %d", got.Len(), want.Len())
			}
			for i := range got.Frames {
				if !got.Frames[i].Equal(want.Frames[i]) {
					t.Fatalf("frame %d differs between fused and unfused pipelines", i)
				}
			}
			if a, b := rngU.Int63(), rngF.Int63(); a != b {
				t.Fatalf("rng stream diverged after fused pipeline (%d vs %d)", a, b)
			}
		})
	}
}

// TestFusionFallback: window preconditions that fail (out-of-bounds
// fixed crop, oversized random crop, nil rng) must fall back to the
// unfused path and surface the same error Apply would.
func TestFusionFallback(t *testing.T) {
	src := randomClip(t, rand.New(rand.NewSource(3)), 2, 48, 48, 3)
	cases := map[string]Pipeline{
		"crop out of bounds":     {&Resize{W: 32, H: 32}, &Crop{X: 20, Y: 20, W: 20, H: 20}},
		"center crop oversized":  {&Resize{W: 32, H: 32}, &CenterCrop{W: 40, H: 40}},
		"random crop oversized":  {&Resize{W: 32, H: 32}, &RandomCrop{W: 40, H: 40}},
		"nearest not fused, bad": {&Resize{W: 32, H: 32, Interpolation: "nearest"}, &Crop{X: 30, Y: 0, W: 10, H: 10}},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := p.Apply(src.Clone(), rand.New(rand.NewSource(1))); err == nil {
				t.Fatal("expected error from fallback path, got nil")
			}
		})
	}
	// nil rng with a random crop: fusion must decline before drawing and
	// let RandomCrop.Apply report the nil-rng error.
	p := Pipeline{&Resize{W: 32, H: 32}, &RandomCrop{W: 16, H: 16}}
	if _, err := p.Apply(src.Clone(), nil); err == nil {
		t.Fatal("expected nil-rng error, got nil")
	}
}

// TestFusionNearestUnaffected: nearest-neighbor resize is not fused;
// the pair must still match the unfused ground truth.
func TestFusionNearestUnaffected(t *testing.T) {
	p := Pipeline{
		&Resize{W: 64, H: 64, Interpolation: "nearest"},
		&CenterCrop{W: 48, H: 48},
	}
	src := randomClip(t, rand.New(rand.NewSource(17)), 2, 96, 96, 3)
	got, err := p.Apply(src.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := applyUnfused(t, p, src.Clone(), nil)
	for i := range got.Frames {
		if !got.Frames[i].Equal(want.Frames[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

// TestPipelineInPlaceFastPath: a chained pipeline must produce the same
// output as each stage's Apply run in turn, and must not mutate its input
// clip.
func TestPipelineInPlaceFastPath(t *testing.T) {
	p := Pipeline{
		&Resize{W: 24, H: 24},
		&RandomCrop{W: 20, H: 20},
		&HFlip{Prob: 1},
		&Normalize{Mean: 100},
	}
	src := randomClip(t, rand.New(rand.NewSource(9)), 4, 32, 32, 3)
	orig := src.Clone()

	got, err := p.Apply(src, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// Input untouched.
	for i := range src.Frames {
		if !src.Frames[i].Equal(orig.Frames[i]) {
			t.Fatalf("pipeline mutated input frame %d", i)
		}
	}
	// Reference: each stage's Apply in turn.
	ref := src.Clone()
	cur := ref
	rng := rand.New(rand.NewSource(3))
	for _, op := range p {
		next, err := op.Apply(cur, rng)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if got.Len() != cur.Len() {
		t.Fatalf("length %d != %d", got.Len(), cur.Len())
	}
	for i := range got.Frames {
		if !got.Frames[i].Equal(cur.Frames[i]) {
			t.Fatalf("pipeline output differs at frame %d", i)
		}
	}
}

// TestPipelineInPlaceInvSampleAliasing: inv_sample's output aliases its
// input frames, so the op after it must not write them.
func TestPipelineInPlaceInvSampleAliasing(t *testing.T) {
	p := Pipeline{
		&InvSample{},
		&Normalize{Mean: 200},
	}
	src := randomClip(t, rand.New(rand.NewSource(11)), 3, 16, 16, 3)
	orig := src.Clone()
	if _, err := p.Apply(src, nil); err != nil {
		t.Fatal(err)
	}
	for i := range src.Frames {
		if !src.Frames[i].Equal(orig.Frames[i]) {
			t.Fatalf("pipeline mutated shared input frame %d behind inv_sample", i)
		}
	}
}
