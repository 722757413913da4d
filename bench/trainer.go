package main

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"

	"sand/internal/core"
	"sand/internal/vfs"
)

// readRecord is one completed batch read, kept for verification against
// the reference engine once the timed window is over.
type readRecord struct {
	path   string
	digest [sha256.Size]byte
}

// batchXattrs are the attributes core.Loader.Next fetches.
var batchXattrs = [3]string{"user.sand.timestamps", "user.sand.labels", "user.sand.geometry"}

// phase is what the trainers measured over one stretch of reading.
type phase struct {
	wall     time.Duration
	samples  int64     // clips delivered
	batchMS  []float64 // open -> decoded batch, per batch
	reads    []readRecord
	errors   int64 // reads that returned an error
	firstErr error
	firstEnd time.Duration // start -> first decoded batch, 0 if none

	// Traced runs only: the same totals split by whether the recorder
	// was on when the batch started (batches that straddle a switch are
	// in neither).
	tracedSamples, untracedSamples int64
	tracedNS, untracedNS           int64
}

func (p *phase) merge(q *phase) {
	p.wall += q.wall
	p.samples += q.samples
	p.batchMS = append(p.batchMS, q.batchMS...)
	p.reads = append(p.reads, q.reads...)
	p.errors += q.errors
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.tracedSamples += q.tracedSamples
	p.untracedSamples += q.untracedSamples
	p.tracedNS += q.tracedNS
	p.untracedNS += q.untracedNS
}

// readSeq drives the closed loop: trainer t reads paths g = t, t+T, ...
// of the sequence next describes (ok=false ends it), with zero think
// time, until the sequence ends or, with a non-zero deadline, the
// deadline has passed and minBatches batches are read. A batch that
// started before that runs to completion.
func readSeq(mounts []vfs.Mount, rec *recorder, traced bool, next func(g int) (string, bool), deadline time.Time) *phase {
	T := len(mounts)
	parts := make([]phase, T)
	var first, read atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < T; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			p := &parts[t]
			for g := t; ; g += T {
				if !deadline.IsZero() && !time.Now().Before(deadline) && read.Load() >= minBatches {
					return
				}
				path, ok := next(g)
				if !ok {
					return
				}
				gen, on := rec.gen.Load(), rec.enabled()
				b0 := time.Now()
				n, digest, err := readBatch(mounts[t], rec, on, t, path)
				lat := time.Since(b0)
				if err != nil {
					p.errors++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				first.CompareAndSwap(0, int64(time.Since(start)))
				read.Add(1)
				p.samples += int64(n)
				p.batchMS = append(p.batchMS, float64(lat.Nanoseconds())/1e6)
				p.reads = append(p.reads, readRecord{path, digest})
				if traced && rec.gen.Load() == gen {
					if on {
						p.tracedSamples += int64(n)
						p.tracedNS += lat.Nanoseconds()
					} else {
						p.untracedSamples += int64(n)
						p.untracedNS += lat.Nanoseconds()
					}
				}
			}
		}(t)
	}
	wg.Wait()
	out := &phase{}
	for i := range parts {
		out.merge(&parts[i])
	}
	out.wall = time.Since(start)
	out.firstEnd = time.Duration(first.Load())
	return out
}

// readBatch is core.Loader.Next spelled out so that each call into the
// mount can be timed: open, ReadAll, three getxattrs, close, then
// core.DecodeBatch. The payload digest is taken after the batch span
// ends; it is harness work, not the trainer's.
func readBatch(m vfs.Mount, rec *recorder, traced bool, trainer int, path string) (clips int, digest [sha256.Size]byte, err error) {
	var sp batchSpans
	sp.path, sp.trainer = path, trainer
	now := func() int64 { return 0 }
	if traced {
		now = rec.now
		rec.openBegin(path)
	}
	sp.root.start = now()
	sp.open.start = sp.root.start
	fd, err := m.Open(path)
	sp.open.end = now()
	if traced {
		rec.openEnd(path)
	}
	if err != nil {
		return 0, digest, err
	}
	sp.read.start = sp.open.end
	data, err := m.ReadAll(fd)
	sp.read.end = now()
	if err != nil {
		m.Close(fd)
		return 0, digest, err
	}
	sp.bytes = len(data)
	for i, name := range batchXattrs {
		sp.xattr[i].start = now()
		_, _ = m.Getxattr(fd, name) // Loader.Next tolerates a missing attribute
		sp.xattr[i].end = now()
	}
	sp.close.start = now()
	err = m.Close(fd)
	sp.close.end = now()
	if err != nil {
		return 0, digest, err
	}
	sp.decode.start = sp.close.end
	batch, err := core.DecodeBatch(data)
	sp.decode.end = now()
	sp.root.end = sp.decode.end
	if err != nil {
		return 0, digest, err
	}
	if traced {
		rec.addBatch(sp)
	}
	return batch.Len(), sha256.Sum256(data), nil
}
