package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sand/internal/dataset"
	"sand/internal/fleet"
	"sand/internal/frame"
	"sand/internal/vfs"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     int64   // corpus seed and plan seed
	Seconds  float64 // length of the timed window
	Trace    bool
	Quick    bool
	Dir      string // corpora and run-scoped temp dirs go to Dir/.cache, Chrome traces to Dir/out

	// wrapMount, when set, is interposed between each trainer and its
	// router. The self-tests use it to corrupt payloads.
	wrapMount func(vfs.Mount) vfs.Mount
}

// result is what one run reports.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	Harness   map[string]float64 // not metrics: how the run itself went
}

// measured accumulates everything a run observes; metrics() turns it
// into the named values.
type measured struct {
	w     *workload
	timed phase   // the timed window (on cold_decode, the reps' read phases joined)
	win   *window // registry deltas over the timed window(s), all nodes

	setupS       []float64
	firstBatchMS []float64
	bootMS       []float64
	warmReads    []readRecord // warm-up payloads of every set-up, verified with the window's

	cpuS       float64 // process user+sys over the timed window(s)
	gcCPUS     float64 // of which the garbage collector's
	allocBytes float64
	gcPauseNS  float64
	poolGets   float64
	poolReuses float64
	peakRSSMB  float64

	opens, failovers, rebinds float64
	opensByNode               map[string]float64
	nodesServing              int

	warmupFramesDecoded float64
	spillsTotal         float64 // since boot: frame objects persist as they are first stored
	memMBEnd, diskMBEnd float64

	leaks      leaks
	mismatches int64
	verifyS    float64

	// The speed meter runs for the whole run; these are the stretches of
	// it the timed metrics and setup_s cover.
	meter               *speedMeter
	windowIvs, setupIvs []stretch
}

// bracket is the state read at the start of a timed window.
type bracket struct {
	snaps  []snapshot
	router fleet.RouterStats
	cpu    float64
	gc     float64
	mem    runtime.MemStats
	pool   map[string]int64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func (m *measured) begin(c *cluster) bracket {
	b := bracket{snaps: c.snapshots(), router: c.routerStats(), pool: frame.PoolStats()}
	runtime.ReadMemStats(&b.mem)
	b.cpu = cpuSeconds()
	b.gc = gcCPU()
	return b
}

// gcCPU is the CPU time the Go runtime attributes to garbage collection.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// end closes a timed window.
func (m *measured) end(c *cluster, b bracket) {
	m.cpuS += cpuSeconds() - b.cpu
	m.gcCPUS += gcCPU() - b.gc
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocBytes += float64(ms.TotalAlloc - b.mem.TotalAlloc)
	m.gcPauseNS += float64(ms.PauseTotalNs - b.mem.PauseTotalNs)
	pool := frame.PoolStats()
	m.poolGets += float64(pool["frame.pool.gets"] - b.pool["frame.pool.gets"])
	m.poolReuses += float64(pool["frame.pool.reuses"] - b.pool["frame.pool.reuses"])

	rs := c.routerStats()
	m.opens += float64(rs.Opens - b.router.Opens)
	m.failovers += float64(rs.Failovers - b.router.Failovers)
	m.rebinds += float64(rs.Rebinds - b.router.Rebinds)
	for name, v := range rs.OpensByNode {
		m.opensByNode[name] += float64(v - b.router.OpensByNode[name])
	}

	after := c.snapshots()
	m.nodesServing, m.memMBEnd, m.diskMBEnd, m.spillsTotal = 0, 0, 0, 0
	for i := range after {
		m.win.add(b.snaps[i], after[i])
		if after[i].vals["viewserver.op.open"] > b.snaps[i].vals["viewserver.op.open"] {
			m.nodesServing++
		}
		m.memMBEnd += after[i].vals["storage.mem_bytes"] / (1 << 20)
		m.diskMBEnd += after[i].vals["storage.disk_bytes"] / (1 << 20)
		m.spillsTotal += after[i].vals["storage.spills"]
	}
}

// closeCluster tears the system under test down and collects its heap,
// so that a later engine of this process (the next rep, another set-up)
// does not pay for this one's garbage inside its own measurement.
func (m *measured) closeCluster(c *cluster) {
	l := c.close()
	m.leaks.openFDs += l.openFDs
	m.leaks.sessions += l.sessions
	m.leaks.pinnedBytes += l.pinnedBytes
	runtime.GC()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runOnce runs one workload once and returns its metrics. An error
// means the run is not a measurement: a mechanism did not engage, a
// descriptor leaked, or a payload differed from the reference.
func runOnce(cfg runConfig) (*result, error) {
	w, err := findWorkload(cfg.Workload, cfg.Quick)
	if err != nil {
		return nil, err
	}
	cacheDir := filepath.Join(cfg.Dir, ".cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	ds, genS, err := loadCorpus(cacheDir, w.Corpus, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if n := w.videos(); n < len(ds.Videos) {
		ds = &dataset.Dataset{Name: ds.Name, Videos: ds.Videos[:n]}
	}
	tmp, err := os.MkdirTemp(cacheDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	goroutines0 := runtime.NumGoroutine()
	rec := newRecorder()
	m := &measured{w: w, win: newWindow(), opensByNode: map[string]float64{}, meter: startSpeedMeter()}
	if w.Mode == modeCold {
		err = m.runCold(cfg, ds, rec, tmp)
	} else {
		err = m.runWarm(cfg, ds, rec, tmp)
	}
	m.meter.finish()
	if err != nil {
		return nil, err
	}
	// The system under test is closed and peak_rss_mb is taken: only now
	// does the harness run its own engine.
	payload, err := m.verify(ds, cfg.Seed)
	if err != nil {
		return nil, err
	}

	res := &result{
		Attempted: int64(len(m.timed.reads)) + m.timed.errors,
		Failed:    m.timed.errors + m.mismatches,
		Harness: map[string]float64{
			"corpus_gen_s": genS,
			"verify_s":     m.verifyS,
			"window_s":     m.timed.wall.Seconds(),
			"batches":      float64(len(m.timed.reads)),
		},
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no batch was read", w.Name)
	}

	var pr *probes
	if cfg.Trace {
		runtime.GC() // the reference engine's heap: the probes time single calls
		if pr, err = runProbes(w, ds, payload, tmp); err != nil {
			return nil, err
		}
		outDir := filepath.Join(cfg.Dir, "out")
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := rec.writeChromeTrace(filepath.Join(outDir, "trace_"+w.Name+".json")); err != nil {
			return nil, err
		}
	}
	// Goroutines unwind asynchronously after Close; give them a moment
	// before calling the remainder a leak.
	extra := 0
	for wait := 0; wait < 50; wait++ {
		if extra = runtime.NumGoroutine() - goroutines0; extra <= 0 {
			break
		}
		time.Sleep(4 * time.Millisecond)
	}
	var raw map[string]float64
	res.EndToEnd, res.PerLayer, raw = m.metrics(rec, pr, float64(extra))
	for k, v := range raw {
		res.Harness[k] = v
	}

	if m.leaks.pinnedBytes > 0 {
		fmt.Fprintf(os.Stderr, "bench: warning: %.0f store bytes still pinned after close\n", m.leaks.pinnedBytes)
	}
	if extra > 0 {
		fmt.Fprintf(os.Stderr, "bench: warning: %d goroutines outlived the run\n", extra)
	}
	switch {
	case m.leaks.openFDs != 0 || m.leaks.sessions != 0:
		err = fmt.Errorf("%s: leaked %d descriptors and %d sessions", w.Name, m.leaks.openFDs, m.leaks.sessions)
	case res.Failed > 0:
		err = fmt.Errorf("%s: %d of %d reads failed (%d errors, %d digest mismatches)",
			w.Name, res.Failed, res.Attempted, m.timed.errors, m.mismatches)
	default:
		err = w.check(m)
	}
	return res, err
}

func (m *measured) mounts(cfg runConfig, c *cluster) []vfs.Mount {
	mounts := c.mount(trainers())
	if cfg.wrapMount != nil {
		for i := range mounts {
			mounts[i] = cfg.wrapMount(mounts[i])
		}
	}
	return mounts
}

// epochSeq is the path sequence of epochs first, first+1, ... (below
// limit), iteration by iteration.
func epochSeq(first, limit, iters int) func(int) (string, bool) {
	return func(g int) (string, bool) {
		e := first + g/iters
		return vfs.BatchPath(taskTag, e, g%iters), e < limit
	}
}

// runCold: every rep is a complete set-up — fresh engine, empty store
// and GOP cache — followed by one timed read of epoch 0; reps repeat
// until their read phases add up to cfg.Seconds and to minBatches
// batches. A cold rep has no warm-up, so its set-up ends with its first
// decoded batch. Every rep reads the same plan: the reps are repeated
// measurements of one thing, and one reference epoch verifies them all.
func (m *measured) runCold(cfg runConfig, ds *dataset.Dataset, rec *recorder, tmp string) error {
	iters := m.w.itersPerEpoch()
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	// Two reps at least: a traced run compares a traced rep with an
	// untraced one.
	for rep := 0; rep < 2 || m.timed.wall < budget || len(m.timed.reads) < minBatches; rep++ {
		t0 := time.Now()
		c, err := bootCluster(m.w, ds, cfg.Seed, rec, tmp)
		if err != nil {
			return err
		}
		mounts := m.mounts(cfg, c)
		setup := time.Since(t0)
		rec.set(cfg.Trace && tracedStretch(rep))
		b := m.begin(c)
		tw := time.Now()
		ph := readSeq(mounts, rec, cfg.Trace, epochSeq(0, 1, iters), time.Time{})
		m.end(c, b)
		rec.set(false)
		m.windowIvs = append(m.windowIvs, stretch{tw, tw.Add(ph.wall)})
		m.setupIvs = append(m.setupIvs, stretch{t0, tw.Add(ph.firstEnd)})
		m.setupS = append(m.setupS, (setup + ph.firstEnd).Seconds())
		m.firstBatchMS = append(m.firstBatchMS, ms(setup+ph.firstEnd))
		m.bootMS = append(m.bootMS, float64(c.bootNS)/1e6)
		m.closeCluster(c)
		m.timed.merge(ph)
	}
	m.peakRSSMB = peakRSSMB()
	return nil
}

// rssBatches is where in the timed window of a warm run peak_rss_mb is
// read. warm_reuse's store grows with every epoch it completes, so a
// reading at the end of a window of fixed length would rise with
// throughput; after a fixed number of batches it is memory for the same
// work on every run and every commit.
const rssBatches = 96

// runWarm: set up (boot, mount, warm-up reads of epoch 0), then read for
// cfg.Seconds and at least minBatches batches — epochs 1.. for
// modeEpochs, epoch 0 again and again for modeReplay. setup_s is a
// median, so the set-up is repeated setupReps-1 more times after the
// window, on clusters that are closed again at once: before it they
// would be part of peak_rss_mb.
func (m *measured) runWarm(cfg runConfig, ds *dataset.Dataset, rec *recorder, tmp string) error {
	w := m.w
	iters := w.itersPerEpoch()
	setUp := func(rep int) (*cluster, []vfs.Mount, error) {
		t0 := time.Now()
		c, err := bootCluster(w, ds, cfg.Seed, rec, filepath.Join(tmp, fmt.Sprint("rep", rep)))
		if err != nil {
			return nil, nil, err
		}
		mounts := m.mounts(cfg, c)
		warm := readSeq(mounts, rec, false, func(g int) (string, bool) {
			return vfs.BatchPath(taskTag, 0, g%iters), g < w.WarmupPasses*iters
		}, time.Time{})
		now := time.Now()
		m.setupS = append(m.setupS, now.Sub(t0).Seconds())
		m.setupIvs = append(m.setupIvs, stretch{t0, now})
		m.firstBatchMS = append(m.firstBatchMS, ms(now.Sub(t0)-warm.wall+warm.firstEnd))
		m.bootMS = append(m.bootMS, float64(c.bootNS)/1e6)
		m.warmReads = append(m.warmReads, warm.reads...)
		if warm.errors > 0 {
			m.closeCluster(c)
			return nil, nil, fmt.Errorf("%s: warm-up: %d reads failed (first: %v)", w.Name, warm.errors, warm.firstErr)
		}
		return c, mounts, nil
	}
	c, mounts, err := setUp(0)
	if err != nil {
		return err
	}
	for _, s := range c.snapshots() {
		m.warmupFramesDecoded += s.vals["core.gop_frames_decoded"]
	}

	seq := epochSeq(1, w.TotalEpochs, iters)
	if w.Mode == modeReplay {
		seq = func(g int) (string, bool) { return vfs.BatchPath(taskTag, 0, g%iters), true }
	}
	marked := func(g int) (string, bool) {
		if g == rssBatches { // one trainer draws this index, and draws it once
			m.peakRSSMB = peakRSSMB()
		}
		return seq(g)
	}
	window := time.Duration(cfg.Seconds * float64(time.Second))
	stopTracing := func() {}
	if cfg.Trace {
		stopTracing = rec.alternate(window / 4) // untraced, traced, traced, untraced
	}
	b := m.begin(c)
	tw := time.Now()
	ph := readSeq(mounts, rec, cfg.Trace, marked, tw.Add(window))
	m.end(c, b)
	m.windowIvs = append(m.windowIvs, stretch{tw, tw.Add(ph.wall)})
	stopTracing()
	if m.peakRSSMB == 0 { // one trainer ran ahead, and the other never drew that index
		m.peakRSSMB = peakRSSMB()
	}
	m.timed.merge(ph)
	m.closeCluster(c)

	for rep := 1; rep < setupReps; rep++ {
		c, _, err := setUp(rep)
		if err != nil {
			return err
		}
		m.closeCluster(c)
	}
	return nil
}

// verify runs the reference engine over every epoch the trainers read and
// counts the payloads that differ. It returns one payload for the probes.
func (m *measured) verify(ds *dataset.Dataset, seed int64) ([]byte, error) {
	start := time.Now()
	ref, err := newReference(m.w, ds, seed)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	last := 0
	for _, rd := range m.timed.reads {
		if p, err := vfs.ParsePath(rd.path); err == nil && p.Epoch > last {
			last = p.Epoch
		}
	}
	for e := 0; e <= last; e++ {
		if err := ref.epoch(e, m.w.itersPerEpoch()); err != nil {
			return nil, err
		}
	}
	bad, err := ref.verify(m.warmReads)
	if err == nil && bad > 0 {
		err = fmt.Errorf("%s: warm-up: %d reads differed from the reference", m.w.Name, bad)
	}
	if err != nil {
		return nil, err
	}
	m.mismatches, err = ref.verify(m.timed.reads)
	m.verifyS = time.Since(start).Seconds()
	return ref.batch, err
}

// metrics names what was measured. The three timed end-to-end metrics
// are scaled to the reference machine speed: by how much slower than
// speedRefUS the speed meter's unit ran during the stretches they cover.
// raw holds them as the clocks read them, and the two unit times. pr is
// nil on untraced runs, whose per-layer values are not printed.
func (m *measured) metrics(rec *recorder, pr *probes, goroutinesEnd float64) (e2e, layer, raw map[string]float64) {
	w := m.w
	wallS := m.timed.wall.Seconds()
	samples := float64(m.timed.samples)
	raw = map[string]float64{
		"raw_samples_per_s":     div(samples, wallS),
		"raw_cpu_s_per_ksample": div(m.cpuS, samples) * 1000,
		"raw_setup_s":           median(m.setupS),
		"unit_cpu_us_window":    m.meter.meanUS(m.windowIvs),
		"unit_cpu_us_setup":     m.meter.meanUS(m.setupIvs),
	}
	slowWindow := raw["unit_cpu_us_window"] / speedRefUS
	slowSetup := raw["unit_cpu_us_setup"] / speedRefUS
	e2e = map[string]float64{
		"samples_per_s":     raw["raw_samples_per_s"] * slowWindow,
		"cpu_s_per_ksample": raw["raw_cpu_s_per_ksample"] / slowWindow,
		"peak_rss_mb":       m.peakRSSMB,
		"setup_s":           raw["raw_setup_s"] / slowSetup,
	}
	if pr == nil {
		return e2e, nil, raw
	}

	win := m.win
	a := rec.attribute()
	runNS := win.histSum("sched.task_run_ns")
	decoded := win.get("core.gop_frames_decoded")
	// Tasks that ran without error, times the frames in a batch: the
	// failed ones are read-ahead probing past the end of an epoch.
	materialized := (win.get("sched.demand_runs") + win.get("sched.premat_runs") - win.get("sched.errors")) * float64(w.framesPerBatch())
	codecShare := div(decoded*pr.codecSeqUS*1e3, runNS)
	augmentShare := div(materialized*pr.augmentUS*1e3, runNS)
	frameShare := div(materialized*pr.frameEncodeUS*1e3, runNS)
	var maxOpens, sumOpens float64
	for _, v := range m.opensByNode {
		sumOpens += v
		if v > maxOpens {
			maxOpens = v
		}
	}
	tracedRate := div(float64(m.timed.tracedSamples), float64(m.timed.tracedNS))
	untracedRate := div(float64(m.timed.untracedSamples), float64(m.timed.untracedNS))

	layer = map[string]float64{
		"trainer.batch_ms_p50": median(m.timed.batchMS),
		"trainer.batch_ms_p90": p90(m.timed.batchMS),

		"fleet.mount_ms_p50":          median(a.mountMS),
		"fleet.mount_ms_p90":          p90(a.mountMS),
		"fleet.dataplane_self_ms_p50": median(a.dataplaneMS),
		"fleet.dataplane_share":       div(a.dataplaneNS, a.batchNS),
		"fleet.opens":                 m.opens,
		"fleet.node_skew":             div(maxOpens, div(sumOpens, float64(w.Nodes))),
		"fleet.failovers":             m.failovers,
		"fleet.rebinds":               m.rebinds,

		"viewserver.request_ms_p50":      win.histMS("viewserver.request_ns", 0.50),
		"viewserver.request_ms_p90":      win.histMS("viewserver.request_ns", 0.90),
		"viewserver.bytes_served_mb":     win.get("viewserver.bytes.served") / (1 << 20),
		"viewserver.wire_mb_per_s":       div(a.readBytes/(1<<20), a.readNS/1e9),
		"viewserver.zerocopy_ratio":      ratio(win.get("viewserver.dataplane.zerocopy.hit"), win.get("viewserver.dataplane.copy.fallback")),
		"viewserver.readahead_hit_ratio": ratio(win.get("viewserver.readahead.hit"), win.get("viewserver.readahead.miss")),
		"viewserver.readahead_brakes":    win.get("viewserver.readahead.brake"),

		"vfs.open_fds_end": float64(m.leaks.openFDs),
		"vfs.sessions_end": float64(m.leaks.sessions),

		"core.materialize_ms_p50":   median(a.materializMS),
		"core.materialize_ms_p90":   p90(a.materializMS),
		"core.materialize_share":    div(a.materialNS, a.batchNS),
		"core.boot_ms":              median(m.bootMS),
		"core.first_batch_ms":       median(m.firstBatchMS),
		"core.premat_hit_ratio":     ratio(win.get("core.premat_hits"), win.get("core.demand_misses")),
		"core.demand_misses":        win.get("core.demand_misses"),
		"core.frames_decoded":       decoded,
		"core.decode_amplification": div(decoded, materialized),
		"core.gop_hit_ratio":        ratio(win.get("core.gop_hits"), win.get("core.gop_misses")),
		"core.gop_evictions":        win.get("core.gop_evictions"),
		"core.gop_readmissions":     win.get("core.reuse.gop_readmissions"),
		"core.objects_reused_ratio": ratio(win.get("core.objects_reused"), decoded),
		"core.superset_hits":        win.get("core.reuse.superset_hits"),
		"core.superset_hit_ratio":   ratio(win.get("core.reuse.superset_hits"), win.get("core.reuse.superset_misses")),
		"core.xsample_hits":         win.get("core.reuse.xsample_hits"),
		"core.decode_batch_ms_p50":  median(a.decodeMS),
		"core.decode_batch_share":   div(a.decodeNS, a.batchNS),
		"core.encode_batch_ms":      pr.encodeBatchMS,
		"core.unattributed_share":   1 - codecShare - augmentShare - frameShare,

		"sched.demand_wait_ms_p50": win.histMS("sched.demand_wait_ns", 0.50),
		"sched.demand_wait_ms_p90": win.histMS("sched.demand_wait_ns", 0.90),
		"sched.queue_wait_ms_p90":  win.histMS("sched.queue_wait_ns", 0.90),
		"sched.task_run_ms_p50":    win.histMS("sched.task_run_ns", 0.50),
		"sched.busy_share":         div(runNS, float64(engineWorkers*w.Nodes)*wallS*1e9),
		"sched.demand_runs":        win.get("sched.demand_runs"),
		"sched.premat_runs":        win.get("sched.premat_runs"),
		"sched.mode_switches":      win.get("sched.mode_switches"),
		"sched.sjf_decisions":      win.get("sched.sjf_decisions"),
		"sched.admission_rejected": win.get("sched.admission_rejected"),
		"sched.errors":             win.get("sched.errors"),

		"storage.hit_ratio":      ratio(win.get("storage.hits"), win.get("storage.misses")),
		"storage.evictions":      win.get("storage.evictions"),
		"storage.spills":         win.get("storage.spills"),
		"storage.promotions":     win.get("storage.promotions"),
		"storage.evict_storms":   win.get("storage.evict_storms"),
		"storage.spill_saved_mb": win.get("storage.tier.spill_bytes_saved") / (1 << 20),
		"storage.mem_mb_end":     m.memMBEnd,
		"storage.disk_mb_end":    m.diskMBEnd,
		"storage.pinned_mb_end":  m.leaks.pinnedBytes / (1 << 20),
		"storage.put_us":         pr.storePutUS,
		"storage.get_pinned_us":  pr.storeGetPinUS,
		"storage.promote_us":     pr.storePromoteUS,

		"codec.seq_decode_us_per_frame": pr.codecSeqUS,
		"codec.random_access_ms":        pr.codecRandomMS,
		"codec.est_busy_share":          codecShare,

		"augment.apply_us_per_frame": pr.augmentUS,
		"augment.est_busy_share":     augmentShare,

		"frame.encode_us_per_frame":      pr.frameEncodeUS,
		"frame.encode_fast_us_per_frame": pr.frameEncFastUS,
		"frame.decode_us_per_frame":      pr.frameDecodeUS,
		"frame.pool_reuse_ratio":         div(m.poolReuses, m.poolGets),
		"frame.est_busy_share":           frameShare,

		"runtime.alloc_mb_per_ksample": div(m.allocBytes/(1<<20), samples) * 1000,
		"runtime.gc_pause_ms_total":    m.gcPauseNS / 1e6,
		"runtime.gc_cpu_share":         div(m.gcCPUS, m.cpuS),
		"runtime.goroutines_end":       goroutinesEnd,

		"host.unit_cpu_us": raw["unit_cpu_us_window"],

		"trace.overhead_pct": (1 - div(tracedRate, untracedRate)) * 100,
		"trace.spans":        float64(a.spans),
	}
	return e2e, layer, raw
}
