package augment

import (
	"math/rand"
	"testing"

	"sand/internal/frame"
)

// BenchmarkAugmentPipeline measures a typical training pipeline
// (resize, random crop, flip, normalize) over an 8-frame clip through
// Pipeline.Apply: the resize and crop fuse into one fresh frame each,
// and the flip and normalize each write fresh frames. The other
// sub-benchmarks run one pixel op's Apply on an 8x56x56x3 clip, the
// pipeline's crop geometry.
func BenchmarkAugmentPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	run := func(b *testing.B, apply func(*frame.Clip, *rand.Rand) (*frame.Clip, error), clip *frame.Clip) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := apply(clip, rng)
			if err != nil {
				b.Fatal(err)
			}
			if out.Len() != clip.Len() {
				b.Fatalf("returned %d frames, want %d", out.Len(), clip.Len())
			}
		}
	}
	b.Run("pipeline", func(b *testing.B) {
		p := Pipeline{
			&Resize{W: 64, H: 64},
			&RandomCrop{W: 56, H: 56},
			&HFlip{Prob: 1},
			&Normalize{Mean: 128},
		}
		run(b, p.Apply, randomClip(b, rng, 8, 96, 96, 3))
	})
	for _, op := range []Op{
		&HFlip{Prob: 1},
		&VFlip{Prob: 1},
		&Normalize{Mean: 128},
		&ColorJitter{Brightness: 0.3, Contrast: 0.2},
		&Crop{X: 4, Y: 4, W: 48, H: 48},
	} {
		b.Run(op.Name(), func(b *testing.B) {
			run(b, op.Apply, randomClip(b, rng, 8, 56, 56, 3))
		})
	}
}
