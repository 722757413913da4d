// Package sched implements SAND's priority-based materialization
// scheduling (§5.4 of the paper). A pool of worker goroutines (standing in
// for the paper's preprocessing threads) executes two kinds of tasks:
//
//   - Demand-feeding tasks — producing the batch the GPU is waiting for —
//     always run before any pre-materialization work. While one runs, a
//     premat task starts only if a worker stays free after it starts, so
//     the next demand task never queues behind speculative work, and a
//     queued premat task the trainer now waits for can be promoted into
//     the demand class (Promote).
//   - Pre-materialization tasks are ordered earliest-deadline-first
//     (deadline = iterations until the object is needed), so lagging work
//     is boosted automatically. When memory pressure exceeds
//     MemoryPressureThreshold, ordering switches to shortest-job-first by
//     fewest unprocessed edges (Task.Remaining), draining almost-finished
//     subtrees to release their pinned decoded frames.
//
// Pre-materialization admission is gated on the demand path's health
// (see DESIGN.md §11): when the demand queue-wait p99 degrades past
// Options.AdmissionSLO the pool stops admitting premat tasks
// (ErrAdmission) and sheds the queued premat tail until the windowed p99
// falls below admReleaseFrac of the SLO, with hysteresis so the gate
// cannot flap.
//
// The pool is fully instrumented (internal/obs): enqueue/dequeue,
// EDF<->SJF mode-switch and admission engage/release trace events,
// queue-wait (overall and demand-only) and task-run latency histograms,
// and policy-decision counters, all keyed by the task's optional TraceID
// so one batch can be followed end to end.
package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sand/internal/obs"
)

// Kind distinguishes the two worker-task classes.
type Kind int

const (
	// Demand tasks feed the current iteration; they preempt all
	// pre-materialization.
	Demand Kind = iota
	// Premat tasks materialize objects for future iterations.
	Premat
)

// MemoryPressureThreshold is the memory fill fraction above which the
// scheduler switches pre-materialization ordering to SJF (the paper's
// 80%).
const MemoryPressureThreshold = 0.80

// Task is one schedulable unit of materialization work.
type Task struct {
	// Key identifies the task (for logs and tests).
	Key string
	// Kind selects the priority class.
	Kind Kind
	// Deadline is the number of iterations until the produced object is
	// consumed; smaller = more urgent (EDF).
	Deadline int64
	// Remaining is the unprocessed-edge count of the task's subtree
	// (the SJF key; smaller = shorter job).
	Remaining int
	// Run performs the work.
	Run func() error
	// Trace is the optional trace context the task belongs to; it is
	// carried into every scheduler event the task produces, so a view
	// open can be followed across worker goroutines.
	Trace obs.TraceID

	// bookkeeping
	seq      uint64
	enqueued time.Time
}

// counters are the pool's event counts, guarded by Pool.mu and exposed
// only through the "sched" obs snapshot.
type counters struct {
	completed, errors      int64
	demandRuns, prematRuns int64
	promotions             int64 // queued premat tasks moved into the demand class
	sjfDecisions           int64
	modeSwitches           int64 // EDF<->SJF policy changes observed across dequeues
	admissionEngages       int64 // times the gate closed
	admissionReleases      int64 // times the gate re-opened
	admissionRejected      int64 // premat Submits refused with ErrAdmission
	admissionShed          int64 // queued premat tasks dropped on engage
}

// Pool is the worker pool. Create with NewPool, submit with Submit, stop
// with Close (which drains the queue) or Abort (which discards it).
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	demand []*Task // FIFO
	premat taskHeap
	seq    uint64

	pressure func() float64
	onError  func(*Task, error)

	// observability (all nil-safe)
	tr         *obs.Tracer
	histWait   *obs.Histogram // sched.queue_wait_ns: submit -> dequeue
	histDemand *obs.Histogram // sched.demand_wait_ns: demand tasks only
	histRun    *obs.Histogram // sched.task_run_ns: task execution

	// Premat admission control, all guarded by mu. admWindow is a ring
	// of the most recent demand queue-wait samples; the gate engages
	// when its p99 exceeds admSLO and releases when it falls below
	// admRelease, with a minimum sample count before the first decision
	// and a dwell (in samples) between switches so the gate cannot flap.
	admSLO      int64 // ns; 0 disables admission control
	admRelease  int64 // ns; release threshold (< admSLO)
	admWindow   []int64
	admIdx      int
	admCount    int64 // demand samples ever observed
	admSwitch   int64 // admCount at the last engage/release
	admSwitches int64
	admEngaged  bool

	closed   bool
	draining bool
	queued   int // live (unclaimed) tasks across demand + premat
	workers  int
	running  int // tasks claimed by workers and not yet finished
	// runningDemand counts the running demand tasks; while it is nonzero
	// a premat task may not take the last free worker.
	runningDemand int
	wg            sync.WaitGroup
	stats         counters
}

// Options configures a pool.
type Options struct {
	// Workers is the number of worker goroutines (the paper's thread
	// pool; 12 vCPUs in the evaluation).
	Workers int
	// MemPressure returns the current memory fill fraction in [0,1];
	// nil means no pressure (always EDF).
	MemPressure func() float64
	// OnError is called when a task's Run returns an error; nil ignores
	// errors beyond counting them. It is also called, with ErrAdmission
	// and without running the task, for every queued premat task that
	// admission control sheds, so the submitter can plan it again later.
	OnError func(*Task, error)
	// AdmissionSLO is the demand-path queue-wait p99 SLO: when the
	// windowed p99 of demand task waits exceeds it, the pool stops
	// admitting premat tasks (Submit returns ErrAdmission) and sheds the
	// queued premat tail until the p99 recovers below 0.7×SLO
	// (admReleaseFrac). 0 disables admission control.
	AdmissionSLO time.Duration
	// Obs is the observability registry the pool reports through:
	// enqueue/dequeue/mode-switch/admission trace events, queue-wait and
	// run-time histograms, and a "sched" counter snapshot. nil disables
	// all of it.
	Obs *obs.Registry
}

// Admission-control tuning: the demand-wait window size, the minimum
// samples before the gate may move, the dwell (samples) between moves,
// and the release threshold as a fraction of the SLO. Sample-count-based
// hysteresis keeps tests and scenario replays deterministic where
// wall-clock dwell would not be.
const (
	admWindowSize  = 64
	admMinSamples  = 8
	admDwell       = 16
	admReleaseFrac = 0.7
)

// NewPool starts the workers.
func NewPool(opts Options) (*Pool, error) {
	if opts.Workers <= 0 {
		return nil, fmt.Errorf("sched: need at least one worker")
	}
	p := &Pool{pressure: opts.MemPressure, onError: opts.OnError, workers: opts.Workers}
	p.cond = sync.NewCond(&p.mu)
	if opts.AdmissionSLO > 0 {
		p.admSLO = opts.AdmissionSLO.Nanoseconds()
		p.admRelease = int64(float64(p.admSLO) * admReleaseFrac)
		p.admWindow = make([]int64, 0, admWindowSize)
	}
	p.tr = opts.Obs.Trace()
	p.histWait = opts.Obs.Histogram("sched.queue_wait_ns")
	p.histDemand = opts.Obs.Histogram("sched.demand_wait_ns")
	p.histRun = opts.Obs.Histogram("sched.task_run_ns")
	opts.Obs.Gauge("sched.admission.engaged", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.admEngaged {
			return 1
		}
		return 0
	})
	opts.Obs.SnapshotFunc("sched", func() map[string]int64 {
		p.mu.Lock()
		c := p.stats
		p.mu.Unlock()
		return map[string]int64{
			"completed":          c.completed,
			"errors":             c.errors,
			"demand_runs":        c.demandRuns,
			"premat_runs":        c.prematRuns,
			"promotions":         c.promotions,
			"sjf_decisions":      c.sjfDecisions,
			"mode_switches":      c.modeSwitches,
			"admission_engages":  c.admissionEngages,
			"admission_releases": c.admissionReleases,
			"admission_rejected": c.admissionRejected,
			"admission_shed":     c.admissionShed,
		}
	})
	for i := 0; i < opts.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p, nil
}

// ErrClosed is returned by Submit after Close/Abort.
var ErrClosed = errors.New("sched: pool closed")

// ErrAdmission is returned by Submit for premat tasks while admission
// control is engaged (demand queue-wait p99 over Options.AdmissionSLO).
// Callers should drop the work and retry at their next planning point.
var ErrAdmission = errors.New("sched: premat admission closed")

// Submit enqueues a task.
func (p *Pool) Submit(t *Task) error {
	if t == nil || t.Run == nil {
		return fmt.Errorf("sched: task needs a Run function")
	}
	if t.Kind != Demand && t.Kind != Premat {
		return fmt.Errorf("sched: unknown task kind %d", t.Kind)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.draining {
		return ErrClosed
	}
	if t.Kind == Premat && p.admEngaged {
		p.stats.admissionRejected++
		return ErrAdmission
	}
	t.seq = p.seq
	p.seq++
	t.enqueued = time.Now()
	p.tr.Instant("sched", "enqueue", t.Trace, t.Key)
	if t.Kind == Demand {
		p.demand = append(p.demand, t)
	} else {
		heap.Push(&p.premat, t)
	}
	p.queued++
	p.cond.Signal()
	return nil
}

// Promote moves the queued premat task with the given key into the
// demand class: the trainer now waits for its output. The task leaves
// the premat heap and joins the back of the demand FIFO as a demand
// task, so the queue depth is unchanged. Its demand wait starts at
// promotion: admission control judges the demand path by how long
// demand work waits, and premat queue time is not that. Promote returns
// false when no queued premat task has the key (it is running, finished,
// was shed, or was never submitted); the caller then submits demand work
// of its own.
func (p *Pool) Promote(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	t := p.premat.remove(key)
	if t == nil {
		return false
	}
	t.Kind = Demand
	t.enqueued = time.Now()
	p.demand = append(p.demand, t)
	p.stats.promotions++
	p.tr.Instant("sched", "promote", t.Trace, t.Key)
	p.cond.Signal()
	return true
}

// next pops the highest-priority runnable task; blocks until one exists
// or the pool shuts down. Returns nil on shutdown.
func (p *Pool) next() *Task {
	for {
		// The ordering policy is sampled on every dequeue — demand pops
		// included — so pressure crossings surface as mode_switch events
		// even during demand-dominated phases. The sample happens outside
		// p.mu: the pressure feed is a couple of atomic loads in the
		// object store, and keeping the caller-supplied callback out of
		// the critical section means it can never stall other dequeues or
		// invert lock order against the storage tier.
		useSJF := p.pressure != nil && p.pressure() > MemoryPressureThreshold
		p.mu.Lock()
		// The premat heap's key follows the policy only while something
		// is queued; an empty queue has no order to change, and a task
		// pushed under the stale key is re-heapified here before any pop.
		if useSJF != p.premat.sjf && p.queued > 0 {
			from, to := "edf", "sjf"
			if !useSJF {
				from, to = "sjf", "edf"
			}
			p.stats.modeSwitches++
			p.tr.Instant("sched", "mode_switch", 0, from+"->"+to)
			p.premat.setSJF(useSJF)
		}
		// Demand first, FIFO.
		if len(p.demand) > 0 {
			t := p.demand[0]
			p.demand = p.demand[1:]
			p.queued--
			p.running++
			p.runningDemand++
			p.stats.demandRuns++
			wait := time.Since(t.enqueued).Nanoseconds()
			p.histWait.Observe(wait)
			p.histDemand.Observe(wait)
			shed := p.noteDemandWaitLocked(wait)
			p.tr.Instant("sched", "dequeue", t.Trace, "demand "+t.Key)
			p.mu.Unlock()
			if p.onError != nil {
				for _, st := range shed {
					p.onError(st, ErrAdmission)
				}
			}
			return t
		}
		// Then pre-materialization under the current policy. Premat
		// never takes the last free worker while a demand task runs: that
		// worker stays free for the next demand task. With no demand
		// running, premat fills every worker.
		var t *Task
		if p.runningDemand == 0 || p.running+1 < p.workers {
			t = p.premat.pop()
		}
		if t != nil {
			p.queued--
			p.running++
			policy := "edf "
			if useSJF {
				p.stats.sjfDecisions++
				policy = "sjf "
			}
			p.stats.prematRuns++
			p.histWait.Observe(time.Since(t.enqueued).Nanoseconds())
			p.tr.Instant("sched", "dequeue", t.Trace, policy+t.Key)
			p.mu.Unlock()
			return t
		}
		if p.closed {
			p.mu.Unlock()
			return nil
		}
		p.cond.Wait()
		// Drop the lock and loop so the pressure sample above stays
		// outside the critical section on every iteration.
		p.mu.Unlock()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		t := p.next()
		if t == nil {
			return
		}
		var spanStart int64
		traced := p.tr.Enabled()
		if traced {
			spanStart = p.tr.Now()
		}
		runStart := time.Now()
		err := t.Run()
		p.histRun.Observe(time.Since(runStart).Nanoseconds())
		if traced {
			p.tr.Span("sched", "task", t.Trace, spanStart, t.Key)
		}
		p.mu.Lock()
		p.running--
		if t.Kind == Demand {
			p.runningDemand--
		}
		p.stats.completed++
		if err != nil {
			p.stats.errors++
		}
		// Wake anyone draining in Close as well as idle workers.
		p.cond.Broadcast()
		p.mu.Unlock()
		if err != nil && p.onError != nil {
			p.onError(t, err)
		}
	}
}

// Close stops accepting tasks, waits for queued work to drain, then
// returns. Tasks submitted after Close begins are rejected with
// ErrClosed, including submissions from running tasks.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.draining = true
	for p.queued > 0 {
		p.cond.Wait() // workers broadcast after each completion
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Abort stops accepting tasks and discards the queue without running it.
func (p *Pool) Abort() {
	p.mu.Lock()
	p.closed = true
	p.demand = nil
	p.premat.items = nil
	p.queued = 0
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// noteDemandWaitLocked records one demand queue-wait sample and moves
// the admission gate if the windowed p99 crossed a threshold. When the
// gate just engaged it returns the premat tasks it shed; the caller
// reports them after dropping p.mu.
func (p *Pool) noteDemandWaitLocked(waitNS int64) []*Task {
	if p.admSLO == 0 {
		return nil
	}
	if len(p.admWindow) < admWindowSize {
		p.admWindow = append(p.admWindow, waitNS)
	} else {
		p.admWindow[p.admIdx] = waitNS
	}
	p.admIdx = (p.admIdx + 1) % admWindowSize
	p.admCount++
	if p.admCount < admMinSamples {
		return nil
	}
	if p.admSwitches > 0 && p.admCount-p.admSwitch < admDwell {
		return nil
	}
	p99 := p.windowP99Locked()
	if !p.admEngaged && p99 > p.admSLO {
		p.admEngaged = true
		p.stats.admissionEngages++
		p.admSwitches++
		p.admSwitch = p.admCount
		shed := p.shedPrematLocked()
		p.stats.admissionShed += int64(len(shed))
		p.tr.Instant("sched", "admission", 0,
			fmt.Sprintf("engage p99=%dns slo=%dns shed=%d", p99, p.admSLO, len(shed)))
		return shed
	}
	if p.admEngaged && p99 < p.admRelease {
		p.admEngaged = false
		p.stats.admissionReleases++
		p.admSwitches++
		p.admSwitch = p.admCount
		p.tr.Instant("sched", "admission", 0,
			fmt.Sprintf("release p99=%dns threshold=%dns", p99, p.admRelease))
	}
	return nil
}

// windowP99Locked computes the p99 of the demand-wait ring without
// sorting the live buffer.
func (p *Pool) windowP99Locked() int64 {
	n := len(p.admWindow)
	if n == 0 {
		return 0
	}
	buf := make([]int64, n)
	copy(buf, p.admWindow)
	// Insertion sort: n ≤ 64, and the window is nearly sorted only by
	// accident — this stays cheap and allocation-light either way.
	for i := 1; i < n; i++ {
		v := buf[i]
		j := i - 1
		for j >= 0 && buf[j] > v {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = v
	}
	idx := (99*n - 1) / 100
	if idx >= n {
		idx = n - 1
	}
	return buf[idx]
}

// shedPrematLocked drops the queued premat tail when admission engages:
// the earliest-deadline tasks up to the worker count survive (they are
// the ones most likely to still matter). Returns the tasks shed.
func (p *Pool) shedPrematLocked() []*Task {
	shed := p.premat.shed(p.workers)
	p.queued -= len(shed)
	return shed
}

// QueueDepth returns the number of queued (not yet running) tasks.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// taskHeap is the premat queue: one heap whose order follows the pool's
// policy, earliest deadline first or, while sjf is set, fewest
// unprocessed edges first. Both orders are total (seq breaks every tie), so
// the pop sequence does not depend on the heap's shape, and a policy
// change is a re-heapify under the other key (setSJF).
type taskHeap struct {
	items []*Task
	sjf   bool
}

// edfLess orders by deadline (iterations until the output is needed).
func edfLess(a, b *Task) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.seq < b.seq
}

// sjfLess orders by unprocessed-edge count, the paper's SJF key.
func sjfLess(a, b *Task) bool {
	if a.Remaining != b.Remaining {
		return a.Remaining < b.Remaining
	}
	return a.seq < b.seq
}

func (h *taskHeap) Len() int { return len(h.items) }
func (h *taskHeap) Less(i, j int) bool {
	if h.sjf {
		return sjfLess(h.items[i], h.items[j])
	}
	return edfLess(h.items[i], h.items[j])
}
func (h *taskHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *taskHeap) Push(x any)    { h.items = append(h.items, x.(*Task)) }
func (h *taskHeap) Pop() any {
	n := len(h.items)
	t := h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	return t
}

// pop removes the first task under the current key, or returns nil.
func (h *taskHeap) pop() *Task {
	if len(h.items) == 0 {
		return nil
	}
	return heap.Pop(h).(*Task)
}

// remove takes the earliest-submitted task with the given key out of the
// heap, or returns nil when none is queued.
func (h *taskHeap) remove(key string) *Task {
	at := -1
	for i, t := range h.items {
		if t.Key == key && (at < 0 || t.seq < h.items[at].seq) {
			at = i
		}
	}
	if at < 0 {
		return nil
	}
	return heap.Remove(h, at).(*Task)
}

// shed keeps the n earliest-deadline tasks and returns the rest in
// earliest-deadline order.
func (h *taskHeap) shed(n int) []*Task {
	if len(h.items) <= n {
		return nil
	}
	sort.Slice(h.items, func(i, j int) bool { return edfLess(h.items[i], h.items[j]) })
	shed := append([]*Task(nil), h.items[n:]...)
	clear(h.items[n:])
	h.items = h.items[:n]
	heap.Init(h)
	return shed
}

// setSJF switches the key and re-heapifies when it changes.
func (h *taskHeap) setSJF(sjf bool) {
	if h.sjf != sjf {
		h.sjf = sjf
		heap.Init(h)
	}
}
