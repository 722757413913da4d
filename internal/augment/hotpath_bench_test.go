package augment

import (
	"math/rand"
	"testing"

	"sand/internal/frame"
)

// BenchmarkAugmentPipeline measures a typical training pipeline
// (resize, random crop, flip, normalize) over an 8-frame clip through
// Pipeline.Apply: the resize and crop fuse into one fresh frame each,
// and the flip and normalize run in place on it.
func BenchmarkAugmentPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	frames := make([]*frame.Frame, 8)
	for i := range frames {
		f := frame.New(96, 96, 3)
		rng.Read(f.Pix)
		frames[i] = f
	}
	clip, err := frame.NewClip(frames)
	if err != nil {
		b.Fatal(err)
	}
	p := Pipeline{
		&Resize{W: 64, H: 64},
		&RandomCrop{W: 56, H: 56},
		&HFlip{Prob: 1},
		&Normalize{Mean: 128},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := p.Apply(clip, rng)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() != clip.Len() {
			b.Fatalf("pipeline returned %d frames, want %d", out.Len(), clip.Len())
		}
	}
}
