package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one recorded trace event. TS and Dur are nanoseconds relative
// to the tracer's epoch; Dur is zero for instant events.
type Event struct {
	TS    int64
	Dur   int64
	Cat   string // subsystem: "sched", "storage", "core", "viewserver"
	Name  string // event kind within the subsystem: "enqueue", "frame", ...
	Arg   string // free-form detail ("" = none)
	Trace TraceID
}

// Kind returns the event's taxonomy key, "cat.name" — the identifier
// OBSERVABILITY.md documents and golden tests assert on.
func (e Event) Kind() string { return e.Cat + "." + e.Name }

// tracerShards spreads writers across independent rings so concurrent
// hot-path emitters rarely contend on the same mutex.
const tracerShards = 8

// DefaultTraceCapacity is the total ring capacity (events) used when a
// Tracer is created with capacity <= 0.
const DefaultTraceCapacity = 1 << 16

// Tracer records events into sharded ring buffers. Recording is
// lock-light: a writer claims a shard round-robin with one atomic add and
// holds that shard's mutex only for the slot write. Old events are
// overwritten once a shard's ring wraps; export merges the shards and
// sorts by timestamp.
//
// A disabled Tracer (the initial state) costs one atomic load per
// instrumented call site and holds no buffer memory until Enable.
type Tracer struct {
	enabled  atomic.Bool
	rr       atomic.Uint64
	epoch    time.Time
	perShard int
	shards   [tracerShards]tracerShard
}

type tracerShard struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // events ever written; slot = (next-1) % len(buf)
}

// NewTracer creates a disabled tracer holding up to capacity events
// (rounded up to a multiple of the shard count; <= 0 means
// DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	per := (capacity + tracerShards - 1) / tracerShards
	return &Tracer{epoch: time.Now(), perShard: per}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Enable allocates the ring buffers (on first use) and starts recording.
func (t *Tracer) Enable() {
	if t == nil {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if sh.buf == nil {
			sh.buf = make([]Event, t.perShard)
		}
		sh.mu.Unlock()
	}
	t.enabled.Store(true)
}

// Disable stops recording; buffered events remain exportable.
func (t *Tracer) Disable() {
	if t == nil {
		return
	}
	t.enabled.Store(false)
}

// Reset discards all buffered events and restarts the time epoch.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.next = 0
		sh.mu.Unlock()
	}
	t.epoch = time.Now()
}

// Now returns nanoseconds since the tracer epoch — the timestamp base for
// Span start times. Returns 0 on a nil tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Instant records a zero-duration event at the current time.
func (t *Tracer) Instant(cat, name string, tr TraceID, arg string) {
	if !t.Enabled() {
		return
	}
	t.emit(Event{TS: t.Now(), Cat: cat, Name: name, Arg: arg, Trace: tr})
}

// InstantAt records a zero-duration event at an explicit timestamp
// (nanoseconds since the tracer epoch). Virtual-time emitters — the
// scenario harness runs on a simulated clock — use this so their
// events are deterministic instead of wall-clock-stamped.
func (t *Tracer) InstantAt(cat, name string, tr TraceID, tsNS int64, arg string) {
	if !t.Enabled() {
		return
	}
	t.emit(Event{TS: tsNS, Cat: cat, Name: name, Arg: arg, Trace: tr})
}

// Span records a completed span that began at startNS (a prior Now
// value) and ends now.
func (t *Tracer) Span(cat, name string, tr TraceID, startNS int64, arg string) {
	if !t.Enabled() {
		return
	}
	now := t.Now()
	dur := now - startNS
	if dur < 0 {
		dur = 0
	}
	t.emit(Event{TS: startNS, Dur: dur, Cat: cat, Name: name, Arg: arg, Trace: tr})
}

func (t *Tracer) emit(e Event) {
	sh := &t.shards[t.rr.Add(1)&(tracerShards-1)]
	sh.mu.Lock()
	if sh.buf != nil {
		sh.buf[sh.next%uint64(len(sh.buf))] = e
		sh.next++
	}
	sh.mu.Unlock()
}

// Len returns the number of events currently buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if c := int(sh.next); c < len(sh.buf) {
			n += c
		} else {
			n += len(sh.buf)
		}
		sh.mu.Unlock()
	}
	return n
}

// Events returns a snapshot of all buffered events sorted by start time.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n := uint64(len(sh.buf))
		if n == 0 {
			sh.mu.Unlock()
			continue
		}
		count := sh.next
		if count > n {
			count = n
		}
		// Oldest first: the ring holds events next-count .. next-1.
		for j := sh.next - count; j < sh.next; j++ {
			out = append(out, sh.buf[j%n])
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Trace < out[j].Trace
	})
	return out
}

// chromeEvent is one entry of the Chrome trace_event JSON array
// (chrome://tracing, Perfetto, speedscope all read this format).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event container object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the buffered events as Chrome trace_event
// JSON. Each subsystem (event Cat) renders as its own track; spans are
// complete ("X") events, instants are "i" events.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	lanes := map[string]int{}
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayTimeUnit: "ms"}
	for _, e := range events {
		tid, ok := lanes[e.Cat]
		if !ok {
			tid = len(lanes) + 1
			lanes[e.Cat] = tid
		}
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			TS:   float64(e.TS) / 1e3,
			PID:  1,
			TID:  tid,
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1e3
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		if e.Trace != 0 || e.Arg != "" {
			ce.Args = map[string]any{}
			if e.Trace != 0 {
				ce.Args["trace"] = uint64(e.Trace)
			}
			if e.Arg != "" {
				ce.Args["detail"] = e.Arg
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
