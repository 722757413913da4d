package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sand/internal/obs"
	"sand/internal/vfs"
)

func TestCovered(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 0},
		{"inside", []interval{{120, 150}}, 30},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 30},
		{"overlapping children count once", []interval{{110, 150}, {130, 180}}, 70},
		{"nested children count once", []interval{{110, 190}, {120, 130}}, 80},
		// A read-ahead materialization starts before the open that ends
		// up waiting for it: only the part inside the open is the open's.
		{"read-ahead started earlier", []interval{{40, 160}}, 60},
		{"outlives the parent", []interval{{180, 260}}, 20},
		{"outside", []interval{{0, 100}, {200, 300}}, 0},
		{"covers everything", []interval{{0, 300}}, 100},
	}
	for _, c := range cases {
		if got := covered(parent, c.children); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAttributeSharesSumToOne(t *testing.T) {
	rec := newRecorder()
	// One batch of 100: open 0-60 (a read-ahead materialization of the
	// same path covers 0-50 of it, another path's covers nothing), read
	// 60-70, getxattrs 70-76, close 76-80, decode 80-100.
	rec.addBatch(batchSpans{
		path: "/train/0/1/view", root: interval{0, 100}, open: interval{0, 60}, read: interval{60, 70},
		xattr: [3]interval{{70, 72}, {72, 74}, {74, 76}}, close: interval{76, 80}, decode: interval{80, 100}, bytes: 10,
	})
	rec.addMat(matSpan{interval: interval{-30, 50}, path: "/train/0/1/view", cause: "readahead"})
	rec.addMat(matSpan{interval: interval{0, 60}, path: "/train/0/2/view", cause: "readahead"})
	a := rec.attribute()
	if a.materialNS != 50 || a.dataplaneNS != 30 || a.decodeNS != 20 || a.batchNS != 100 {
		t.Fatalf("attribution = materialize %v dataplane %v decode %v of %v, want 50 30 20 of 100",
			a.materialNS, a.dataplaneNS, a.decodeNS, a.batchNS)
	}
	if a.spans != 10 {
		t.Errorf("spans = %d, want 10 (8 per batch + 2 materializations)", a.spans)
	}
}

func TestRecorderGenerationMarksSwitches(t *testing.T) {
	rec := newRecorder()
	g := rec.gen.Load()
	rec.set(false) // no change, no new generation
	if rec.gen.Load() != g {
		t.Error("set to the same state bumped the generation")
	}
	rec.set(true)
	if !rec.enabled() || rec.gen.Load() == g {
		t.Error("switching on did not bump the generation")
	}
	rec.openBegin("/p")
	if !rec.openInFlight("/p") {
		t.Error("open not in flight after openBegin")
	}
	rec.openEnd("/p")
	if rec.openInFlight("/p") {
		t.Error("open still in flight after openEnd")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0].
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
}

func TestWindowCountsOnlyItsIntervals(t *testing.T) {
	reg := obs.New()
	c := reg.Counter("x.count")
	h := reg.Histogram("x.wait_ns")
	c.Add(5)
	h.Observe(9e6) // before any window
	w := newWindow()

	b := takeSnapshot(reg)
	c.Add(3)
	h.Observe(1e6)
	h.Observe(1e6)
	w.add(b, takeSnapshot(reg))

	c.Add(100) // between windows
	h.Observe(9e6)

	b = takeSnapshot(reg)
	c.Add(4)
	h.Observe(1e6)
	w.add(b, takeSnapshot(reg))

	if got := w.get("x.count"); got != 7 {
		t.Errorf("windowed counter = %v, want 7", got)
	}
	if got := w.hists["x.wait_ns"].Count; got != 3 {
		t.Errorf("windowed histogram count = %v, want 3", got)
	}
	if got := w.histMS("x.wait_ns", 0.9); math.Abs(got-1) > 0.07 {
		t.Errorf("windowed p90 = %v ms, want ~1 (the 9 ms observations are outside)", got)
	}
	if got := w.histSum("x.wait_ns"); got != 3e6 {
		t.Errorf("windowed sum = %v, want 3e6", got)
	}
}

func TestVerdict(t *testing.T) {
	s := func(better string, med, q1, q3 float64) summary {
		return summary{Better: better, Median: med, Q1: q1, Q3: q3}
	}
	for _, c := range []struct {
		name  string
		a, b  summary
		bound float64
		want  string
	}{
		{"slower beyond bound", s("lower", 100, 99, 101), s("lower", 115, 114, 116), 0.10, "regressed"},
		{"slower within bound", s("lower", 100, 99, 101), s("lower", 105, 104, 106), 0.10, "unchanged"},
		{"throughput drop", s("higher", 100, 99, 101), s("higher", 85, 84, 86), 0.08, "regressed"},
		{"noisy", s("lower", 100, 90, 110), s("lower", 105, 95, 115), 0.10, "unresolved"},
		{"noisy but far worse", s("lower", 100, 90, 110), s("lower", 160, 150, 170), 0.10, "regressed"},
		{"faster beyond spread", s("lower", 100, 99, 101), s("lower", 90, 89, 91), 0.10, "improved"},
		{"faster within spread", s("lower", 100, 97, 103), s("lower", 98, 95, 101), 0.10, "unchanged"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// A result file that lost a workload or a metric must not compare clean.
func TestCompareFailsOnMissingRows(t *testing.T) {
	full := func() *suiteResult {
		r := &suiteResult{Workloads: map[string]*workloadResult{}}
		for _, w := range workloads(false) {
			wr := &workloadResult{EndToEnd: map[string]summary{}}
			for _, def := range endToEnd {
				wr.EndToEnd[def.Name] = summarize(def, []float64{9, 10, 11})
			}
			r.Workloads[w.Name] = wr
		}
		return r
	}
	if _, bad := compareSuites(full(), full()); bad != 0 {
		t.Fatalf("identical sets: %d bad rows", bad)
	}
	b := full()
	delete(b.Workloads, "wire_replay")
	if _, bad := compareSuites(full(), b); bad != 1 {
		t.Errorf("missing workload: %d bad rows, want 1", bad)
	}
	b = full()
	delete(b.Workloads["cold_decode"].EndToEnd, "setup_s")
	if _, bad := compareSuites(full(), b); bad != 1 {
		t.Errorf("missing metric: %d bad rows, want 1", bad)
	}
}

// The corpus and the reference digests are functions of the seed alone.
func TestCorpusAndReferenceDeterminism(t *testing.T) {
	w, err := findWorkload("cold_decode", true)
	if err != nil {
		t.Fatal(err)
	}
	digests := func(cache string, seed int64) (string, map[string][32]byte) {
		ds, _, err := loadCorpus(cache, w.Corpus, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newReference(w, ds, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.close()
		if err := ref.epoch(0, w.itersPerEpoch()); err != nil {
			t.Fatal(err)
		}
		return corpusDigest(ds), ref.digests
	}
	cacheA, cacheB := t.TempDir(), t.TempDir()
	c1, r1 := digests(cacheA, 7)
	c2, r2 := digests(cacheA, 7) // served from the cache
	c3, r3 := digests(cacheB, 7) // generated again
	c4, r4 := digests(cacheB, 8)
	if c1 != c2 || c1 != c3 {
		t.Error("same seed produced different corpora")
	}
	if c1 == c4 {
		t.Error("different seeds produced the same corpus")
	}
	if len(r1) != w.itersPerEpoch() {
		t.Fatalf("reference computed %d digests, want %d", len(r1), w.itersPerEpoch())
	}
	for path, d := range r1 {
		if r2[path] != d || r3[path] != d {
			t.Errorf("%s: same seed produced different reference digests", path)
		}
		if r4[path] == d {
			t.Errorf("%s: different seeds produced the same reference digest", path)
		}
	}
}

func quickConfig(t *testing.T, workload, dir string) runConfig {
	if testing.Short() {
		t.Skip("boots real nodes")
	}
	return runConfig{Workload: workload, Seed: 3, Seconds: quickSeconds, Trace: true, Quick: true, Dir: dir}
}

// Every workload, small: digests match, the mechanism assertions hold,
// nothing leaks, every metric is computed and the shares add up.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir() // one corpus cache for the four
	for _, w := range workloads(true) {
		t.Run(w.Name, func(t *testing.T) {
			cfg := quickConfig(t, w.Name, dir)
			if w.Name == "wire_replay" {
				cfg.Seconds = 0.6 // more than the floor takes: here the clock ends the window
			}
			res, err := runOnce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Harness["window_s"] < cfg.Seconds || res.Harness["batches"] < minBatches {
				t.Errorf("window of %.2f s and %.0f batches, want at least %.2f s and %d",
					res.Harness["window_s"], res.Harness["batches"], cfg.Seconds, minBatches)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < int64(w.itersPerEpoch()) {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, def := range endToEnd {
				if v, ok := res.EndToEnd[def.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", def.Name, v)
				}
			}
			for _, def := range perLayer {
				if _, ok := res.PerLayer[def.Name]; !ok {
					t.Errorf("per-layer metric %s not computed", def.Name)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics computed, %d declared", len(res.PerLayer), len(perLayer))
			}
			sum := res.PerLayer["fleet.dataplane_share"] + res.PerLayer["core.materialize_share"] + res.PerLayer["core.decode_batch_share"]
			if math.Abs(sum-1) > 0.03 {
				t.Errorf("span shares sum to %.3f, want 1 +- 0.03", sum)
			}
			if res.PerLayer["vfs.open_fds_end"] != 0 || res.PerLayer["vfs.sessions_end"] != 0 {
				t.Errorf("leaked descriptors or sessions: %v %v", res.PerLayer["vfs.open_fds_end"], res.PerLayer["vfs.sessions_end"])
			}
			data, err := os.ReadFile(filepath.Join(cfg.Dir, "out", "trace_"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("Chrome trace: %d events, err %v", len(trace.TraceEvents), err)
			}
			if left, _ := filepath.Glob(filepath.Join(cfg.Dir, ".cache", "run-*")); len(left) != 0 {
				t.Errorf("run left temp dirs behind: %v", left)
			}
		})
	}
}

// flipMount corrupts one byte of every eighth payload on its way to the
// trainers; reads counts over all mounts of the run.
type flipMount struct {
	vfs.Mount
	reads *atomic.Int64
}

func (f *flipMount) ReadAll(fd int) ([]byte, error) {
	data, err := f.Mount.ReadAll(fd)
	if err == nil && f.reads.Add(1)%8 == 0 && len(data) > 0 {
		data[len(data)/2] ^= 0x40
	}
	return data, err
}

func TestCorruptedPayloadFailsTheRun(t *testing.T) {
	cfg := quickConfig(t, "cold_decode", t.TempDir()) // no warm-up: every corrupted read is a timed one
	cfg.Trace = false
	var reads atomic.Int64
	cfg.wrapMount = func(m vfs.Mount) vfs.Mount { return &flipMount{Mount: m, reads: &reads} }
	res, err := runOnce(cfg)
	if err == nil {
		t.Fatal("a run that read corrupted payloads succeeded")
	}
	if res == nil || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted payloads not counted: %+v", res)
	}
	if ratio := float64(res.Failed) / float64(res.Attempted); ratio <= 0 {
		t.Errorf("failed_ops_ratio = %v, want > 0", ratio)
	}
}

// BENCHMARK.json at the repository root must list exactly what the
// harness prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds listed %v, harness %v", bf.RunSeconds, runSeconds)
	}
	ws := workloads(false)
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, harness has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: listed %q (%q), harness %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, harness has %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: listed %+v, harness %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s %s: bound listed %v, harness %v", kind, d.Name, m.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

func TestSpeedMeterMean(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	m := &speedMeter{samples: []speedSample{{at(0), 1000}, {at(50), 2000}, {at(100), 3000}, {at(150), 6000}}}
	for _, c := range []struct {
		name string
		ivs  []stretch
		want float64
	}{
		{"one stretch", []stretch{{at(40), at(110)}}, 2500},
		{"two stretches pool their samples", []stretch{{at(0), at(10)}, {at(140), at(160)}}, 3500},
		{"overlapping stretches count a sample once", []stretch{{at(0), at(60)}, {at(40), at(60)}}, 1500},
		{"no sample inside: the whole run", []stretch{{at(10), at(20)}}, 3000},
		{"no stretch: the whole run", nil, 3000},
	} {
		if got := m.meanUS(c.ivs); got != c.want {
			t.Errorf("%s: mean %v, want %v", c.name, got, c.want)
		}
	}
	if got := (&speedMeter{}).meanUS(nil); got != speedRefUS {
		t.Errorf("empty meter: %v, want the reference %v", got, speedRefUS)
	}
}

// The running meter takes samples, and a unit costs about what speedRefUS
// says: far off, and the reported numbers are on another scale than the
// README's.
func TestSpeedMeterSamples(t *testing.T) {
	m := startSpeedMeter()
	time.Sleep(5 * speedEvery)
	m.finish()
	if len(m.samples) < 3 {
		t.Fatalf("%d samples in %v", len(m.samples), 5*speedEvery)
	}
	if us := m.meanUS(nil); us < speedRefUS/4 || us > speedRefUS*4 {
		t.Errorf("a unit took %.0f us of thread CPU; speedRefUS is %.0f", us, speedRefUS)
	}
}
