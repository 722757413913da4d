package main

import (
	"compress/flate"
	"io"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// speedMeter measures how fast the machine executes while a run goes on.
// The reference box is a small VM on a shared host that flips, many times
// a minute, between a fast state and one about 1.6x slower (a neighbour on
// the host; the guest sees no steal, its CPU seconds just buy less). How
// much of a window falls into the slow state differs from run to run by
// more than any change a benchmark should let through, and both wall time
// and CPU time carry it.
//
// Every speedEvery the meter deflates one fixed buffer on a locked OS
// thread and notes the thread's CPU time for it. Thread CPU time leaves
// out the wait for a processor, so the workload the meter runs beside does
// not slow the sample by queueing; what is left is the speed of the
// processor. The mean over an interval — not the median: the samples are
// bimodal, and the mean is the mix of the two states — tells how much
// slower than speedRefUS the machine ran there, and the timed metrics are
// scaled by it to the reference speed (see metrics()).
type speedMeter struct {
	stop    chan struct{}
	done    chan struct{}
	samples []speedSample
}

type speedSample struct {
	at time.Time
	us float64
}

type stretch struct{ from, to time.Time }

const (
	speedEvery = 50 * time.Millisecond
	// speedRefUS is the unit's CPU time on the reference box in its fast
	// state. It only fixes the scale of the reported numbers: the same
	// constant scales both sides of every comparison.
	speedRefUS = 1700.0
)

// speedUnit is the fixed input: 64 KiB of ramps and noise, about as
// compressible as a frame, deflated the way frame serialization — the
// largest single cost in every workload — deflates.
var speedUnit = func() []byte {
	b := make([]byte, 64<<10)
	x := uint32(1)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(i>>4) + byte(x>>29)
	}
	return b
}()

func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func startSpeedMeter() *speedMeter {
	s := &speedMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		zw, _ := flate.NewWriter(io.Discard, flate.DefaultCompression)
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			zw.Reset(io.Discard)
			zw.Write(speedUnit)
			zw.Close()
			s.samples = append(s.samples, speedSample{time.Now(), float64(threadCPU()-t0) / 1e3})
		}
	}()
	return s
}

// finish stops the meter; meanUS may be called after it.
func (s *speedMeter) finish() {
	close(s.stop)
	<-s.done
}

// meanUS is the mean CPU microseconds a unit took inside the intervals;
// over the whole run when they hold no sample (a window shorter than a
// tick), and speedRefUS when the run holds none.
func (s *speedMeter) meanUS(ivs []stretch) float64 {
	var sum, all float64
	n := 0
	for _, sm := range s.samples {
		all += sm.us
		for _, iv := range ivs {
			if !sm.at.Before(iv.from) && !sm.at.After(iv.to) {
				sum += sm.us
				n++
				break
			}
		}
	}
	switch {
	case n > 0:
		return sum / float64(n)
	case len(s.samples) > 0:
		return all / float64(len(s.samples))
	}
	return speedRefUS
}
