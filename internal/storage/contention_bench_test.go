package storage

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkStoreContention measures mixed Put/Get throughput with eviction
// active, across goroutine counts. The budget is sized so the workload
// lives above the 75% watermark: a Put that crosses it runs an eviction
// pass that sorts the unpinned population under the store lock, which is
// what the other goroutines wait on. Each op also samples MemPressure,
// mirroring the scheduler's per-dequeue read (an atomic load).
func BenchmarkStoreContention(b *testing.B) {
	const (
		budget   = 1 << 20 // ~2048 objects of 512 B fit, eviction stays hot
		objSize  = 512
		keySpace = 4096
	)
	payload := make([]byte, objSize)
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("/bench/%04d", i)
	}
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			s, err := Open(Options{MemBudget: budget})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < keySpace/2; i++ {
				if err := s.Put(&Object{Key: keys[i], Data: payload, Deadline: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			opsPer := b.N/g + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := uint32(2463534242 + w*997)
					for i := 0; i < opsPer; i++ {
						rng ^= rng << 13
						rng ^= rng >> 17
						rng ^= rng << 5
						k := keys[rng%keySpace]
						if rng&1 == 0 {
							s.Put(&Object{Key: k, Data: payload, Deadline: int64(rng % 10000)})
						} else {
							s.Get(k)
						}
						s.MemPressure()
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
