package core

import (
	"testing"

	"sand/internal/config"
)

// BenchmarkMaterializeSample measures the full per-sample hot path:
// decode (with amplification), augmentation chain, and clip assembly.
// StorageBudget 1 disables store-tier caching of intermediates, so every
// iteration pays the decode+augment cost — the path the decoded-GOP
// cache and the fused resize-crop attack.
func BenchmarkMaterializeSample(b *testing.B) {
	task := miniTask(b, "bench")
	s, err := New(Options{
		Tasks:         []*config.Task{task},
		Dataset:       miniDataset(b, 4),
		ChunkEpochs:   2,
		TotalEpochs:   2,
		MemBudget:     64 << 20,
		StorageBudget: 1, // prune all store caching: isolate the raw hot path
		Workers:       4,
		Coordinate:    true,
		Seed:          5,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	samples, err := s.scheduleFor(iterationKey{"bench", 0, 0})
	if err != nil {
		b.Fatal(err)
	}
	if len(samples) == 0 {
		b.Fatal("no samples scheduled")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clip, err := s.materializeSampleClip(samples[i%len(samples)], 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if clip.Len() == 0 {
			b.Fatal("empty clip")
		}
	}
}
