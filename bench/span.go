package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// interval is a half-open time range in nanoseconds since the
// recorder's epoch.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// matSpan is one node-side core.materialize call, recorded by the
// provider wrapper. cause is "demand" when a trainer open of the same
// path was in flight when the call began, "readahead" otherwise.
type matSpan struct {
	interval
	path  string
	node  int
	cause string
}

// batchSpans is one trainer.batch root span with its children: the calls
// into fleet.Router (open, read, 3x getxattr, close) and the trainer's
// core.DecodeBatch. All of one batch's spans come from one goroutine in
// program order, so they are recorded together rather than matched up
// afterwards.
type batchSpans struct {
	path    string
	trainer int
	root    interval
	open    interval
	read    interval
	xattr   [3]interval
	close   interval
	decode  interval
	bytes   int
}

// mount returns the batch's calls into the fleet mount.
func (b *batchSpans) mount() []interval {
	return []interval{b.open, b.read, b.xattr[0], b.xattr[1], b.xattr[2], b.close}
}

// recorder keeps the bench's own spans in memory until the run ends.
// Recording is off unless the run is traced, and can be switched on and
// off inside a traced run (the untraced stretches are what
// trace.overhead_pct compares against). gen counts switches: a batch
// whose gen changed between its start and its end straddled a switch
// and belongs to neither side.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	gen   atomic.Int64

	mu      sync.Mutex
	batches []batchSpans
	mats    []matSpan

	// opens counts in-flight trainer opens by path, so the provider
	// wrapper can tell a demand materialization from a read-ahead one.
	omu   sync.Mutex
	opens map[string]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), opens: map[string]int{}}
}

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

func (r *recorder) enabled() bool { return r.on.Load() }

func (r *recorder) set(on bool) {
	if r.on.Swap(on) != on {
		r.gen.Add(1)
	}
}

// tracedStretch says whether recording is on in the i-th stretch of a
// traced run: off, on, on, off, and round again, so that neither side is
// always the earlier one.
func tracedStretch(i int) bool { return i%4 == 1 || i%4 == 2 }

// alternate switches recording every period by tracedStretch until the
// returned function is called; recording is off afterwards.
func (r *recorder) alternate(period time.Duration) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for i := 1; ; i++ {
			select {
			case <-quit:
				return
			case <-tick.C:
				r.set(tracedStretch(i))
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		r.set(false)
	}
}

func (r *recorder) openBegin(path string) {
	r.omu.Lock()
	r.opens[path]++
	r.omu.Unlock()
}

func (r *recorder) openEnd(path string) {
	r.omu.Lock()
	if r.opens[path]--; r.opens[path] <= 0 {
		delete(r.opens, path)
	}
	r.omu.Unlock()
}

func (r *recorder) openInFlight(path string) bool {
	r.omu.Lock()
	defer r.omu.Unlock()
	return r.opens[path] > 0
}

func (r *recorder) addBatch(b batchSpans) {
	r.mu.Lock()
	r.batches = append(r.batches, b)
	r.mu.Unlock()
}

func (r *recorder) addMat(m matSpan) {
	r.mu.Lock()
	r.mats = append(r.mats, m)
	r.mu.Unlock()
}

// covered returns how much of parent its children cover: the length of
// the union of their intersections with it. A span's self time is its
// duration minus this. Children may overlap each
// other and may start before or end after the parent (a read-ahead
// materialization usually starts before the open that waits for it).
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = parent.start
	for _, c := range clipped {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			total += c.end - reach
			reach = c.end
		}
	}
	return total
}

// attribution is the per-layer split of the traced batches' wall time.
type attribution struct {
	spans        int
	batchNS      float64   // sum of trainer.batch
	mountMS      []float64 // per batch: sum of fleet.* calls
	dataplaneMS  []float64 // per batch: mount minus covered core.materialize
	dataplaneNS  float64
	materialNS   float64 // core.materialize time covered by a fleet.open
	decodeNS     float64
	decodeMS     []float64
	materializMS []float64 // every core.materialize call, either cause
	readNS       float64
	readBytes    float64
}

// attribute computes self times: every core.materialize span is a child
// of each fleet.open of the same path it overlaps, so a trainer open
// that blocks on an in-flight read-ahead is engine time, not wire time.
func (r *recorder) attribute() attribution {
	r.mu.Lock()
	defer r.mu.Unlock()
	byPath := map[string][]interval{}
	var a attribution
	for _, m := range r.mats {
		byPath[m.path] = append(byPath[m.path], m.interval)
		a.materializMS = append(a.materializMS, float64(m.dur())/1e6)
	}
	a.spans = len(r.mats) + 8*len(r.batches)
	for i := range r.batches {
		b := &r.batches[i]
		var mount int64
		for _, iv := range b.mount() {
			mount += iv.dur()
		}
		mat := covered(b.open, byPath[b.path])
		a.batchNS += float64(b.root.dur())
		a.mountMS = append(a.mountMS, float64(mount)/1e6)
		a.dataplaneMS = append(a.dataplaneMS, float64(mount-mat)/1e6)
		a.dataplaneNS += float64(mount - mat)
		a.materialNS += float64(mat)
		a.decodeNS += float64(b.decode.dur())
		a.decodeMS = append(a.decodeMS, float64(b.decode.dur())/1e6)
		a.readNS += float64(b.read.dur())
		a.readBytes += float64(b.bytes)
	}
	return a
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes the recorded spans as Chrome trace JSON:
// process 0 is the trainers (one thread each), process n+1 is node n,
// whose concurrent materializations are spread over as many thread
// lanes as overlap.
func (r *recorder) writeChromeTrace(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var evs []traceEvent
	ev := func(name, cat string, iv interval, pid, tid int, args map[string]string) {
		evs = append(evs, traceEvent{Name: name, Cat: cat, Ph: "X",
			TS: float64(iv.start) / 1e3, Dur: float64(iv.dur()) / 1e3, PID: pid, TID: tid, Args: args})
	}
	for i := range r.batches {
		b := &r.batches[i]
		id := map[string]string{"id": b.path}
		ev("trainer.batch", "trainer", b.root, 0, b.trainer, id)
		ev("fleet.open", "fleet", b.open, 0, b.trainer, id)
		ev("fleet.read", "fleet", b.read, 0, b.trainer, id)
		for _, x := range b.xattr {
			ev("fleet.getxattr", "fleet", x, 0, b.trainer, id)
		}
		ev("fleet.close", "fleet", b.close, 0, b.trainer, id)
		ev("trainer.decode_batch", "trainer", b.decode, 0, b.trainer, id)
	}
	mats := append([]matSpan(nil), r.mats...)
	sort.Slice(mats, func(i, j int) bool { return mats[i].start < mats[j].start })
	lanes := map[int][]int64{} // node -> end time of each lane's last span
	for _, m := range mats {
		lane := -1
		for i, end := range lanes[m.node] {
			if end <= m.start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(lanes[m.node])
			lanes[m.node] = append(lanes[m.node], 0)
		}
		lanes[m.node][lane] = m.end
		ev("core.materialize", "core", m.interval, m.node+1, lane, map[string]string{"id": m.path, "cause": m.cause})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
