// Package simclock is a small deterministic discrete-event simulation
// kernel: a virtual clock with an event heap, plus multi-slot resources
// (CPU pools, GPUs, decoders, network links) with pluggable queueing
// disciplines. The trainsim package builds SAND's cluster-scale
// experiments (§7 of the paper) on top of it, so figure-scale results
// regenerate in milliseconds of real time, and the scenario package
// drives simulated fleets of thousands of nodes through fault timelines
// on the same clock.
//
// Determinism is the kernel's contract: events at equal virtual times
// fire in submission order (a per-Sim sequence number breaks ties), no
// real time or goroutine scheduling ever leaks into the event order, and
// all randomness stays with the caller. Two runs that schedule the same
// events from the same seeds execute identically — which is what makes
// scenario replay ("same seed, same report") possible. Run drains the
// event heap to emptiness.
package simclock

import (
	"container/heap"
	"fmt"
	"math"
)

// Sim is the simulation kernel. Zero value is not usable; call New.
type Sim struct {
	now    float64
	seq    uint64
	events eventHeap
	// Steps counts executed events (a runaway-loop guard for tests).
	Steps int
}

// New creates a simulation starting at time 0.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn to run at absolute virtual time t (>= Now).
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("simclock: scheduling into the past (%.9f < %.9f)", t, s.now))
	}
	if fn == nil {
		panic("simclock: nil event")
	}
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn to run d seconds from now.
func (s *Sim) After(d float64, fn func()) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("simclock: negative or NaN delay %v", d))
	}
	s.At(s.now+d, fn)
}

// Run executes events until the heap is empty.
func (s *Sim) Run() {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		s.Steps++
		e.fn()
	}
}

type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Job is one unit of work submitted to a Resource.
type Job struct {
	// Name labels the job for tracing.
	Name string
	// Work is the service demand in slot-seconds (a 2-second job on a
	// 1-slot resource finishes 2 virtual seconds after it starts).
	Work float64
	// Class is the primary priority band (lower runs first) under the
	// Priority discipline.
	Class int
	// Priority orders jobs within a class (lower first).
	Priority float64
	// OnDone runs when the job completes.
	OnDone func()

	seq uint64
}

// Discipline selects the queueing order of a Resource.
type Discipline int

const (
	// FIFO serves jobs in arrival order.
	FIFO Discipline = iota
	// PriorityOrder serves by (Class, Priority, arrival).
	PriorityOrder
)

// Resource is a c-slot server with a queue: a CPU pool (c = vCPUs), a GPU
// (c = 1), an NVDEC engine (c = 1), or a network link (c = 1 with Work =
// bytes/bandwidth).
type Resource struct {
	sim        *Sim
	name       string
	slots      int
	discipline Discipline

	busy  int
	queue jobHeap
	seq   uint64

	// accounting
	busyTime     float64 // slot-seconds of service delivered
	lastChange   float64
	busyIntegral float64 // integral of busy slots over time
}

// NewResource creates a resource attached to the simulation.
func NewResource(sim *Sim, name string, slots int, d Discipline) *Resource {
	if slots <= 0 {
		panic("simclock: resource needs at least one slot")
	}
	return &Resource{sim: sim, name: name, slots: slots, discipline: d}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Slots returns the slot count.
func (r *Resource) Slots() int { return r.slots }

// Submit enqueues a job; it starts as soon as a slot frees up.
func (r *Resource) Submit(j Job) {
	if j.Work < 0 || math.IsNaN(j.Work) {
		panic(fmt.Sprintf("simclock: job %q with invalid work %v", j.Name, j.Work))
	}
	j.seq = r.seq
	r.seq++
	jc := j
	heap.Push(&r.queue, &jc)
	r.dispatch()
}

// QueueLen returns the number of waiting (not running) jobs.
func (r *Resource) QueueLen() int { return r.queue.Len() }

// Busy returns the number of occupied slots.
func (r *Resource) Busy() int { return r.busy }

func (r *Resource) dispatch() {
	for r.busy < r.slots && r.queue.Len() > 0 {
		j := r.popNext()
		r.account()
		r.busy++
		job := j
		r.sim.After(job.Work, func() {
			r.account()
			r.busy--
			r.busyTime += job.Work
			if job.OnDone != nil {
				job.OnDone()
			}
			r.dispatch()
		})
	}
}

func (r *Resource) popNext() *Job {
	if r.discipline == PriorityOrder {
		return heap.Pop(&r.queue).(*Job)
	}
	// FIFO: the heap is ordered by seq only when class/priority are
	// equal; for strict FIFO pick the smallest seq.
	best := 0
	for i := 1; i < r.queue.Len(); i++ {
		if r.queue[i].seq < r.queue[best].seq {
			best = i
		}
	}
	j := r.queue[best]
	heap.Remove(&r.queue, best)
	return j
}

func (r *Resource) account() {
	now := r.sim.Now()
	r.busyIntegral += float64(r.busy) * (now - r.lastChange)
	r.lastChange = now
}

// BusyTime returns total delivered slot-seconds.
func (r *Resource) BusyTime() float64 { return r.busyTime }

// Utilization returns mean busy-slot fraction over [0, Now].
func (r *Resource) Utilization() float64 {
	r.account()
	if r.sim.Now() == 0 {
		return 0
	}
	return r.busyIntegral / (r.sim.Now() * float64(r.slots))
}

type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Class != h[j].Class {
		return h[i].Class < h[j].Class
	}
	if h[i].Priority != h[j].Priority {
		return h[i].Priority < h[j].Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// Link models a bandwidth-limited, serialized transfer channel (EBS, a
// Filestore WAN connection). Transfers queue FIFO.
type Link struct {
	res *Resource
	// BytesPerSecond is the link bandwidth.
	BytesPerSecond float64
	// Transferred accumulates total bytes moved.
	Transferred float64
}

// NewLink creates a link with the given bandwidth in bytes/second.
func NewLink(sim *Sim, name string, bytesPerSecond float64) *Link {
	if bytesPerSecond <= 0 {
		panic("simclock: link needs positive bandwidth")
	}
	return &Link{res: NewResource(sim, name, 1, FIFO), BytesPerSecond: bytesPerSecond}
}

// Transfer schedules a transfer of n bytes; onDone fires at completion.
func (l *Link) Transfer(n float64, onDone func()) {
	if n < 0 {
		panic("simclock: negative transfer")
	}
	l.Transferred += n
	l.res.Submit(Job{Name: "xfer", Work: n / l.BytesPerSecond, OnDone: onDone})
}

// Utilization returns the link's busy fraction.
func (l *Link) Utilization() float64 { return l.res.Utilization() }
