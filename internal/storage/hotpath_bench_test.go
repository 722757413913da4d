package storage

import (
	"math/rand"
	"testing"

	"sand/internal/frame"
)

// BenchmarkStoreRoundTrip measures the object-store hot path the engine
// pays for every cached intermediate: serialize a frame the way the
// engine stores frame objects (EncodeFrameFast: raw pixels behind a
// CRC-32C), Put it into the memory tier, Get it back, and read it the way
// the engine does (ViewFrame: the CRC pass, no copy).
func BenchmarkStoreRoundTrip(b *testing.B) {
	s, err := Open(Options{MemBudget: 256 << 20})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	f := frame.New(64, 64, 3)
	rng.Read(f.Pix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := frame.EncodeFrameFast(f)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Put(&Object{Key: "/obj/bench/f0", Data: data}); err != nil {
			b.Fatal(err)
		}
		obj, err := s.Get("/obj/bench/f0")
		if err != nil {
			b.Fatal(err)
		}
		g, _, err := frame.ViewFrame(obj.Data)
		if err != nil {
			b.Fatal(err)
		}
		if g.W != f.W {
			b.Fatal("geometry mismatch")
		}
	}
}
