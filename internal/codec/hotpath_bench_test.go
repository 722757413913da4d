package codec

import (
	"math/rand"
	"testing"

	"sand/internal/frame"
)

// benchVideo encodes a deterministic synthetic clip for decode benchmarks.
func benchVideo(b *testing.B, frames, w, h int) *Video {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	fs := make([]*frame.Frame, frames)
	for i := range fs {
		f := frame.New(w, h, 3)
		for p := range f.Pix {
			f.Pix[p] = byte(int(f.Pix[p]) + rng.Intn(7) + i)
		}
		fs[i] = f
	}
	clip, err := frame.NewClip(fs)
	if err != nil {
		b.Fatal(err)
	}
	v, err := Encode(clip, EncodeParams{GOP: 30, FPS: 30})
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkCodecRandomAccess measures the sparse-sampling hot path: a
// fresh decoder performing strided random access, paying full decode
// amplification each iteration. Allocations per op track the per-frame
// decoder-state and scratch-frame churn the pooling layers remove.
func BenchmarkCodecRandomAccess(b *testing.B) {
	v := benchVideo(b, 120, 64, 64)
	indices := []int{5, 17, 42, 63, 88, 110}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(v, nil)
		out, err := d.Frames(indices)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(indices) {
			b.Fatalf("decoded %d frames, want %d", len(out), len(indices))
		}
	}
}
