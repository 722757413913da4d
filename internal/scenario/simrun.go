package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"sand/internal/fleet"
	"sand/internal/obs"
	"sand/internal/simclock"
	"sand/internal/trainsim"
)

// Sim mode executes the whole scenario on one virtual clock. The fleet
// is a real fleet.Registry whose Now is the simulator's clock (sweeper
// disabled, deadlines applied on read, so it is exactly deterministic);
// each simulated node is a chain of self-rescheduling heartbeat events.
// The workload, when present, is a trainsim run sharing the same clock
// through trainsim.Hooks, with fault effects fed back as a submit-time
// work-inflation factor: capacity lost to dead nodes and open slow-disk
// windows both inflate the preprocessing work the survivors must absorb.

// simNode is the runner's view of one simulated fleet member.
type simNode struct {
	id       string
	capacity float64
	// stopped: the node process is down (killed / forgotten); its
	// heartbeat chain halts and its capacity leaves the pool.
	stopped bool
	// partitioned: the process runs but its heartbeats are dropped on
	// the way to the registry.
	partitioned bool
}

// slowWindow is one open slow-disk interval.
type slowWindow struct {
	start, end float64 // end 0 = until scenario end
	factor     float64
	capShare   float64 // affected fraction of total fleet capacity
}

type simRunner struct {
	sc     *Scenario
	sim    *simclock.Sim
	reg    *obs.Registry
	tracer *obs.Tracer
	fleet  *fleet.Registry

	nodes []*simNode
	byID  map[string]*simNode

	totalCap, aliveCap float64
	slow               []slowWindow
	hbEvery, horizon   float64

	// Workload progress (for heartbeat-chain lifetime and snapshots).
	workDone      bool
	itersExpected int
	itersDone     int
	stallsSoFar   int
	chunkSubmits  int

	// Demand-wait bookkeeping: virtual start time of each wanted batch.
	wantAt  map[[2]int]float64
	stalled map[[2]int]bool

	heartbeats, dropped, reannounces   int
	eventsFired, chaosInjected, healed int

	results []AssertionResult
}

// runSim executes a sim-mode scenario, stamping trace events into
// tracer at virtual-time timestamps.
func runSim(sc *Scenario, tracer *obs.Tracer) (*Report, error) {
	r := &simRunner{
		sc:      sc,
		sim:     simclock.New(),
		reg:     obs.New(),
		tracer:  tracer,
		byID:    map[string]*simNode{},
		horizon: sc.horizon(),
		wantAt:  map[[2]int]float64{},
		stalled: map[[2]int]bool{},
	}

	r.hbEvery = sc.Fleet.HeartbeatEvery
	if r.hbEvery <= 0 {
		r.hbEvery = 0.5
	}
	suspect := sc.Fleet.SuspectAfter
	if suspect <= 0 {
		suspect = 2
	}
	dead := sc.Fleet.DeadAfter
	if dead <= 0 {
		dead = 3 * suspect
	}
	r.fleet = fleet.NewRegistry(fleet.RegistryOptions{
		SuspectAfter:   secs(suspect),
		DeadAfter:      secs(dead),
		HeartbeatEvery: secs(r.hbEvery),
		Now:            r.virtualNow,
		DisableSweeper: true,
		Obs:            r.reg,
	})
	defer r.fleet.Close()

	r.materializeFleet()
	r.scheduleHeartbeats()
	r.scheduleEvents()
	r.scheduleChaos()
	r.scheduleAssertions()
	// Sentinel so the clock reaches the horizon even with no workload
	// and no late events.
	r.sim.At(r.horizon, func() {})

	var wres *trainsim.Result
	if sc.Workload != nil {
		ts, err := r.trainScenario()
		if err != nil {
			return nil, err
		}
		wres, err = trainsim.Run(*ts)
		if err != nil {
			return nil, err
		}
		// Drain anything scheduled past the workload's end (late
		// assertions, the horizon sentinel).
		r.sim.Run()
	} else {
		r.workDone = true
		r.sim.Run()
	}

	// End-of-run assertions see the full snapshot, including workload
	// result figures.
	snap := r.snapshot(wres)
	for _, a := range r.sc.Assertions {
		if a.AtEnd {
			r.eval(a, snap, true)
		}
	}

	rep := &Report{
		Scenario:       sc.Name,
		Description:    sc.Description,
		File:           sc.File,
		Kind:           "sim",
		Seed:           sc.Seed,
		VirtualSec:     r.sim.Now(),
		SimEvents:      int64(r.sim.Steps),
		NodeStates:     r.census(),
		EventsFired:    r.eventsFired,
		ChaosInjected:  r.chaosInjected,
		ChaosRecovered: r.healed,
		Reannounces:    r.reannounces,
		Assertions:     r.results,
	}
	if wres != nil {
		rep.Workload = &WorkloadReport{
			Pipeline:   sc.Workload.Pipeline.String(),
			Model:      sc.Workload.Model,
			TotalSec:   wres.TotalSec,
			IdealSec:   wres.IdealSec,
			GPUUtil:    wres.GPUTrainUtil,
			CPUUtil:    wres.CPUUtil,
			AvgIterSec: wres.AvgIterSec,
			Stalls:     wres.Stalls,
			WANBytes:   wres.WANBytes,
		}
	}
	rep.metricsFrom(snap)
	rep.finishAssertions()
	return rep, nil
}

// secs converts virtual seconds to a time.Duration.
func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// virtualNow maps the simulator clock onto the registry's time axis:
// the Unix epoch plus the virtual offset. No wall-clock ever enters.
func (r *simRunner) virtualNow() time.Time {
	return time.Unix(0, 0).UTC().Add(secs(r.sim.Now()))
}

// materializeFleet expands explicit nodes plus seeded template
// generation into simNodes and announces them all at t=0.
func (r *simRunner) materializeFleet() {
	f := r.sc.Fleet
	for _, n := range f.Nodes {
		cap := float64(n.Capacity)
		if cap <= 0 {
			cap = 1
		}
		r.addNode(n.ID, cap)
	}
	if g := f.Generate; g != nil {
		prefix := g.Prefix
		if prefix == "" {
			prefix = "sim-"
		}
		// One RNG for the whole generation pass: template assignment is
		// part of the scenario's seeded identity.
		rng := rand.New(rand.NewSource(r.sc.Seed*31 + 17))
		total := 0
		for _, t := range g.Templates {
			total += t.Weight
		}
		for i := 0; i < g.Count; i++ {
			pick := rng.Intn(total)
			var tpl Template
			for _, t := range g.Templates {
				if pick < t.Weight {
					tpl = t
					break
				}
				pick -= t.Weight
			}
			cap := float64(tpl.Capacity)
			if cap <= 0 {
				cap = 1
			}
			r.addNode(fmt.Sprintf("%s%04d", prefix, i), cap)
		}
	}
	for _, n := range r.nodes {
		r.announce(n)
	}
}

func (r *simRunner) addNode(id string, cap float64) {
	n := &simNode{id: id, capacity: cap}
	r.nodes = append(r.nodes, n)
	r.byID[id] = n
	r.totalCap += cap
	r.aliveCap += cap
}

func (r *simRunner) announce(n *simNode) {
	_ = r.fleet.Announce(fleet.NodeInfo{
		Name:     n.id,
		Addr:     "sim://" + n.id,
		Capacity: int(n.capacity),
	})
}

// scheduleHeartbeats starts each node's self-rescheduling beat chain.
// A chain keeps going while the scenario horizon or the workload is
// still ahead; killed nodes' chains halt and are restarted on recovery.
func (r *simRunner) scheduleHeartbeats() {
	for _, n := range r.nodes {
		r.scheduleBeat(n, r.hbEvery)
	}
}

func (r *simRunner) scheduleBeat(n *simNode, d float64) {
	r.sim.After(d, func() { r.beat(n) })
}

func (r *simRunner) beat(n *simNode) {
	if n.stopped {
		return
	}
	if n.partitioned {
		r.dropped++
	} else {
		r.heartbeats++
		if err := r.fleet.Heartbeat(n.id); err != nil {
			// Declared dead while partitioned/suspected: the node is
			// still up, so it re-announces and rejoins.
			r.announce(n)
			_ = r.fleet.Heartbeat(n.id)
			r.reannounces++
			r.instant("reannounce", n.id)
		}
	}
	if r.sim.Now()+r.hbEvery <= r.horizon || !r.workDone {
		r.scheduleBeat(n, r.hbEvery)
	}
}

// instant stamps a trace event at the current virtual time.
func (r *simRunner) instant(name, arg string) {
	r.tracer.InstantAt("scenario", name, 0, int64(r.sim.Now()*1e9), arg)
}

// --- fault application -------------------------------------------------

func (r *simRunner) kill(n *simNode) bool {
	if n.stopped {
		return false
	}
	n.stopped = true
	r.aliveCap -= n.capacity
	r.instant("kill_node", n.id)
	return true
}

func (r *simRunner) recover(n *simNode) bool {
	if !n.stopped {
		return false
	}
	n.stopped = false
	n.partitioned = false
	r.aliveCap += n.capacity
	r.announce(n)
	_ = r.fleet.Heartbeat(n.id)
	r.reannounces++
	r.scheduleBeat(n, r.hbEvery)
	r.instant("recover_node", n.id)
	return true
}

func (r *simRunner) partition(n *simNode, duration float64) {
	if n.stopped || n.partitioned {
		return
	}
	n.partitioned = true
	r.instant("partition", n.id)
	if duration > 0 {
		r.sim.After(duration, func() { r.heal(n) })
	}
}

func (r *simRunner) heal(n *simNode) {
	if !n.partitioned {
		return
	}
	n.partitioned = false
	r.healed++
	r.instant("heal", n.id)
}

func (r *simRunner) slowDisk(targets []string, factor, duration float64) {
	var share float64
	for _, id := range targets {
		share += r.byID[id].capacity
	}
	share /= r.totalCap
	end := 0.0
	if duration > 0 {
		end = r.sim.Now() + duration
	}
	r.slow = append(r.slow, slowWindow{
		start: r.sim.Now(), end: end, factor: factor, capShare: share,
	})
	r.instant("slow_disk", fmt.Sprintf("%v x%.1f", targets, factor))
}

// scheduleEvents installs the declared timed events.
func (r *simRunner) scheduleEvents() {
	for i := range r.sc.Events {
		e := r.sc.Events[i]
		r.sim.At(e.At, func() {
			r.eventsFired++
			for _, id := range e.targets() {
				n := r.byID[id]
				switch e.Action {
				case ActionKillNode:
					r.kill(n)
				case ActionRecoverNode:
					r.recover(n)
				case ActionDrainNode:
					_ = r.fleet.Drain(n.id)
					r.instant("drain_node", n.id)
				case ActionForgetNode:
					if r.kill(n) {
						_ = r.fleet.Forget(n.id)
						r.instant("forget_node", n.id)
					}
				case ActionPartition:
					r.partition(n, e.Duration)
				}
			}
			if e.Action == ActionSlowDisk {
				r.slowDisk(e.targets(), e.Factor, e.Duration)
			}
		})
	}
}

// scheduleChaos pre-generates the seeded fault timeline and installs
// every injection (and its recovery) as ordinary simulator events.
func (r *simRunner) scheduleChaos() {
	ids := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		ids[i] = n.id
	}
	slowFactor := 4.0
	if c := r.sc.Chaos; c != nil && c.SlowFactor > 0 {
		slowFactor = c.SlowFactor
	}
	for _, inj := range chaosTimeline(r.sc.Chaos, ids, r.sc.Seed, r.horizon) {
		inj := inj
		r.sim.At(inj.At, func() {
			n := r.byID[inj.Node]
			r.chaosInjected++
			r.instant("chaos."+inj.Kind, inj.Node)
			switch inj.Kind {
			case "kill_node":
				if r.kill(n) {
					r.sim.After(inj.RecoverAfter, func() {
						if r.recover(n) {
							r.healed++
						}
					})
				}
			case "partition":
				r.partition(n, inj.RecoverAfter)
			case "slow_disk":
				r.slowDisk([]string{n.id}, slowFactor, inj.RecoverAfter)
			}
		})
	}
}

// scheduleAssertions installs the timed (mid-run) assertions.
func (r *simRunner) scheduleAssertions() {
	for i := range r.sc.Assertions {
		a := r.sc.Assertions[i]
		if a.AtEnd {
			continue
		}
		r.sim.At(a.At, func() { r.eval(a, r.snapshot(nil), false) })
	}
}

func (r *simRunner) eval(a Assertion, snap *obs.Snapshot, atEnd bool) {
	ce, err := compileExpr(a.Expr)
	res := AssertionResult{Expr: a.Expr, AtSec: a.At, AtEnd: atEnd}
	if err == nil {
		res.OK, res.Observed, err = ce.Eval(snap)
	}
	if err != nil {
		res.Err = err.Error()
		res.OK = false
	}
	verdict := "ok"
	if !res.OK {
		verdict = "FAILED"
	}
	r.instant("assert", fmt.Sprintf("%s: %s (observed %g)", a.Expr, verdict, res.Observed))
	r.results = append(r.results, res)
}

// workFactor is the trainsim submit-time inflation: survivors absorb
// the lost capacity's share of work, and open slow-disk windows
// multiply it further in proportion to the capacity they touch.
func (r *simRunner) workFactor() float64 {
	f := 1.0
	if r.aliveCap <= 0 {
		f = r.totalCap // total outage: maximal inflation
	} else if r.aliveCap < r.totalCap {
		f = r.totalCap / r.aliveCap
	}
	now := r.sim.Now()
	for _, w := range r.slow {
		if now >= w.start && (w.end == 0 || now < w.end) {
			f *= 1 + (w.factor-1)*w.capShare
		}
	}
	return f
}

// trainScenario builds the trainsim run wired into this runner's clock.
func (r *simRunner) trainScenario() (*trainsim.Scenario, error) {
	w := r.sc.Workload
	model, err := findModel(w.Model)
	if err != nil {
		return nil, err
	}
	jobs := w.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	epochs := w.Epochs
	if epochs <= 0 {
		epochs = 6
	}
	iters := w.ItersPerEpoch
	if iters <= 0 {
		iters = 30
	}
	// Mirror trainsim's iteration accounting so the heartbeat chains
	// know when the workload has fully completed.
	perEpoch := iters
	if w.Pipeline == trainsim.OnDemandGPU {
		perEpoch = iters * model.BatchClips / model.GPUDecodeBatchClips
	}
	r.itersExpected = jobs * epochs * perEpoch

	hist := r.reg.Histogram("scenario.demand_wait_ns")
	hooks := &trainsim.Hooks{
		Sim:        r.sim,
		WorkFactor: r.workFactor,
		OnIterStart: func(job, iter int, now float64) {
			r.wantAt[[2]int{job, iter}] = now
		},
		OnStall: func(job, iter int, now float64) {
			r.stallsSoFar++
			r.stalled[[2]int{job, iter}] = true
			r.instant("stall", fmt.Sprintf("job%d iter%d", job, iter))
		},
		OnBatchReady: func(job, iter int, now float64) {
			k := [2]int{job, iter}
			if r.stalled[k] {
				hist.Observe(int64((now - r.wantAt[k]) * 1e9))
			}
		},
		OnIterDone: func(job, iter int, now float64) {
			k := [2]int{job, iter}
			if !r.stalled[k] {
				hist.Observe(0)
			}
			r.itersDone++
			if r.itersDone >= r.itersExpected {
				r.workDone = true
			}
		},
		OnChunkSubmit: func(chunk int, now float64) {
			r.chunkSubmits++
			r.instant("chunk_submit", fmt.Sprintf("chunk %d", chunk))
		},
	}
	return &trainsim.Scenario{
		Workload:      model,
		Pipeline:      w.Pipeline,
		Jobs:          jobs,
		SharedDataset: w.SharedDataset,
		Epochs:        epochs,
		ItersPerEpoch: iters,
		ChunkEpochs:   w.ChunkEpochs,
		Scheduling:    true,
		RemoteStorage: w.RemoteStorage,
		Seed:          r.sc.Seed,
		Hooks:         hooks,
	}, nil
}

// census counts registry nodes by state name.
func (r *simRunner) census() map[string]int {
	out := map[string]int{}
	for _, st := range r.fleet.Nodes() {
		out[st.State.String()]++
	}
	return out
}

// snapshot layers the runner's computed metrics over the obs gather.
// The assertion namespace documented in SCENARIOS.md is built here.
func (r *simRunner) snapshot(wres *trainsim.Result) *obs.Snapshot {
	snap := r.reg.Snapshot()
	total := 0
	for state, n := range r.census() {
		snap.Set("nodes."+state, float64(n))
		total += n
	}
	snap.Set("nodes.total", float64(total))
	for _, state := range []string{"announced", "healthy", "suspect", "dead", "draining"} {
		if _, ok := snap.Get("nodes." + state); !ok {
			snap.Set("nodes."+state, 0)
		}
	}
	snap.Set("sim.now_sec", r.sim.Now())
	snap.Set("heartbeats.sent", float64(r.heartbeats))
	snap.Set("heartbeats.dropped", float64(r.dropped))
	snap.Set("fleet.reannounces", float64(r.reannounces))
	snap.Set("events.fired", float64(r.eventsFired))
	snap.Set("chaos.injected", float64(r.chaosInjected))
	snap.Set("chaos.recovered", float64(r.healed))
	snap.Set("workload.iters_done", float64(r.itersDone))
	snap.Set("workload.stalls", float64(r.stallsSoFar))
	snap.Set("workload.chunk_submits", float64(r.chunkSubmits))
	// demand_* aliases for the demand-wait histogram.
	for _, q := range []string{"count", "p50_ms", "p90_ms", "p99_ms", "max_ms", "mean_ms"} {
		if v, ok := snap.Get("scenario.demand_wait." + q); ok {
			snap.Set("demand_"+q, v)
		}
	}
	if wres != nil {
		snap.Set("workload.total_sec", wres.TotalSec)
		snap.Set("workload.ideal_sec", wres.IdealSec)
		snap.Set("workload.gpu_util", wres.GPUTrainUtil)
		snap.Set("workload.cpu_util", wres.CPUUtil)
		snap.Set("workload.avg_iter_sec", wres.AvgIterSec)
		snap.Set("workload.wan_bytes", wres.WANBytes)
		if wres.IdealSec > 0 {
			snap.Set("workload.slowdown", wres.TotalSec/wres.IdealSec)
		}
	}
	return snap
}
