// Package sand's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (§7). Each benchmark runs
// the corresponding experiment end-to-end and reports the paper's
// headline metric as a custom unit via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full results table. EXPERIMENTS.md records the
// paper-vs-measured comparison for every entry.
package sand_test

import (
	"testing"

	"sand/internal/gpusim"
	"sand/internal/graph"
	"sand/internal/trainsim"
)

const (
	benchEpochs = 10
	benchIters  = 30
	benchChunk  = 5
	benchSeed   = 42
)

func run(b *testing.B, w gpusim.Workload, p trainsim.Pipeline, jobs int, shared bool) *trainsim.Result {
	b.Helper()
	r, err := trainsim.Run(trainsim.Scenario{
		Workload: w, Pipeline: p, Jobs: jobs, SharedDataset: shared,
		Epochs: benchEpochs, ItersPerEpoch: benchIters, ChunkEpochs: benchChunk,
		Scheduling: true, Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig2PreprocessOverhead reproduces Figure 2(a,b): baseline
// preprocessing latency ratios and the GPU utilization collapse.
func BenchmarkFig2PreprocessOverhead(b *testing.B) {
	for _, w := range gpusim.Workloads {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var cpuSlow, cpuUtil float64
			for i := 0; i < b.N; i++ {
				cpu := run(b, w, trainsim.OnDemandCPU, 1, false)
				ideal := run(b, w, trainsim.Ideal, 1, false)
				cpuSlow = cpu.TotalSec / ideal.TotalSec
				cpuUtil = cpu.GPUTrainUtil
			}
			b.ReportMetric(cpuSlow, "slowdown-vs-ideal")
			b.ReportMetric(cpuUtil*100, "gpu-util-%")
		})
	}
}

// BenchmarkFig3RepeatedDecoding reproduces Figure 3: per-epoch decode
// counts with and without chunk reuse.
func BenchmarkFig3RepeatedDecoding(b *testing.B) {
	task := trainsim.WorkloadTaskForTests(gpusim.SlowFast, "t", 1)
	metas := []graph.VideoMeta{{Name: "v", Frames: 300, W: 128, H: 72, C: 3, GOP: 30}}
	var reduction float64
	for i := 0; i < b.N; i++ {
		coord, err := graph.BuildChunkPlan([]graph.TaskSpec{{Task: task}}, metas,
			graph.PlanParams{Epochs: 5, Coordinate: true, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		uncoord, err := graph.BuildChunkPlan([]graph.TaskSpec{{Task: task}}, metas,
			graph.PlanParams{Epochs: 5, Coordinate: false, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		reduction = 1 - float64(coord.OpCounts()["decode"])/float64(uncoord.OpCounts()["decode"])
	}
	b.ReportMetric(reduction*100, "decode-reduction-%")
}

// BenchmarkFig4GPUMemory reproduces Figure 4: the batch-size reduction
// and throughput penalty of GPU-side decoding.
func BenchmarkFig4GPUMemory(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		penalty = gpusim.BasicVSRpp.GPUDecodeThroughputPenalty()
	}
	b.ReportMetric(float64(gpusim.BasicVSRpp.BatchClips), "batch-cpu-decode")
	b.ReportMetric(float64(gpusim.BasicVSRpp.GPUDecodeBatchClips), "batch-gpu-decode")
	b.ReportMetric(penalty*100, "throughput-loss-%")
}

// BenchmarkFig5EnergyBreakdown reproduces Figure 5: the CPU share of
// energy on the CPU-preprocessing pipeline.
func BenchmarkFig5EnergyBreakdown(b *testing.B) {
	var share, decodeRatio float64
	for i := 0; i < b.N; i++ {
		r := run(b, gpusim.SlowFast, trainsim.OnDemandCPU, 1, false)
		share = r.Energy.CPUShare()
		var sum float64
		for _, w := range gpusim.Workloads {
			sum += gpusim.DecodeEnergyRatio(w)
		}
		decodeRatio = sum / float64(len(gpusim.Workloads))
	}
	b.ReportMetric(share*100, "cpu-energy-share-%")
	b.ReportMetric(decodeRatio, "gpu/cpu-decode-energy")
}

// BenchmarkFig11SingleTask reproduces Figure 11: single-task training
// time and utilization across the four workloads.
func BenchmarkFig11SingleTask(b *testing.B) {
	for _, w := range gpusim.Workloads {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var vsCPU, vsGPU, util float64
			for i := 0; i < b.N; i++ {
				cpu := run(b, w, trainsim.OnDemandCPU, 1, false)
				gpu := run(b, w, trainsim.OnDemandGPU, 1, false)
				sand := run(b, w, trainsim.SAND, 1, false)
				vsCPU, vsGPU, util = sand.Speedup(cpu), sand.Speedup(gpu), sand.GPUTrainUtil
			}
			b.ReportMetric(vsCPU, "speedup-vs-cpu")
			b.ReportMetric(vsGPU, "speedup-vs-gpu")
			b.ReportMetric(util*100, "sand-util-%")
		})
	}
}

// BenchmarkNaiveCache reproduces §7.2's naive-caching comparison.
func BenchmarkNaiveCache(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		cpu := run(b, gpusim.SlowFast, trainsim.OnDemandCPU, 1, false)
		naive := run(b, gpusim.SlowFast, trainsim.NaiveCache, 1, false)
		speedup = naive.Speedup(cpu)
	}
	b.ReportMetric((speedup-1)*100, "speedup-%")
	b.ReportMetric(gpusim.SlowFast.NaiveCacheHitRate()*100, "cacheable-%")
}

// BenchmarkFig12HyperparamSearch reproduces Figure 12: ASHA search on 4
// GPUs with a shared dataset.
func BenchmarkFig12HyperparamSearch(b *testing.B) {
	for _, w := range gpusim.Workloads {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var vsCPU, vsGPU, gap float64
			for i := 0; i < b.N; i++ {
				cpu := run(b, w, trainsim.OnDemandCPU, 4, true)
				gpu := run(b, w, trainsim.OnDemandGPU, 4, true)
				sand := run(b, w, trainsim.SAND, 4, true)
				ideal := run(b, w, trainsim.Ideal, 4, true)
				vsCPU, vsGPU = sand.Speedup(cpu), sand.Speedup(gpu)
				gap = (sand.TotalSec - ideal.TotalSec) / ideal.TotalSec
			}
			b.ReportMetric(vsCPU, "speedup-vs-cpu")
			b.ReportMetric(vsGPU, "speedup-vs-gpu")
			b.ReportMetric(gap*100, "gap-from-ideal-%")
		})
	}
}

// BenchmarkFig13MultiTask reproduces Figure 13: SlowFast+MAE sharing one
// dataset on two GPUs.
func BenchmarkFig13MultiTask(b *testing.B) {
	pc, err := trainsim.DerivePlanCosts([]gpusim.Workload{gpusim.SlowFast, gpusim.MAE},
		benchIters*4, benchChunk, 1, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []gpusim.Workload{gpusim.SlowFast, gpusim.MAE} {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var vsCPU float64
			for i := 0; i < b.N; i++ {
				sand, err := trainsim.Run(trainsim.Scenario{
					Workload: w, Pipeline: trainsim.SAND, Jobs: 2, SharedDataset: true,
					Epochs: benchEpochs, ItersPerEpoch: benchIters, ChunkEpochs: benchChunk,
					Scheduling: true, Seed: benchSeed, PlanCosts: pc,
				})
				if err != nil {
					b.Fatal(err)
				}
				cpu := run(b, w, trainsim.OnDemandCPU, 2, true)
				vsCPU = sand.Speedup(cpu)
			}
			b.ReportMetric(vsCPU, "speedup-vs-cpu")
		})
	}
}

// BenchmarkFig14Distributed reproduces Figure 14: 2-node DDP training
// with the dataset behind a Filestore-like WAN.
func BenchmarkFig14Distributed(b *testing.B) {
	var speedup, traffic float64
	for i := 0; i < b.N; i++ {
		mk := func(p trainsim.Pipeline) *trainsim.Result {
			r, err := trainsim.Run(trainsim.Scenario{
				Workload: gpusim.SlowFast, Pipeline: p, Jobs: 2,
				Epochs: 30, ItersPerEpoch: benchIters, ChunkEpochs: benchChunk,
				Scheduling: true, RemoteStorage: true, Seed: benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
		cpu, sand := mk(trainsim.OnDemandCPU), mk(trainsim.SAND)
		speedup = sand.Speedup(cpu)
		traffic = sand.WANBytes / cpu.WANBytes
	}
	b.ReportMetric(speedup, "speedup-vs-cpu")
	b.ReportMetric(traffic*100, "wan-traffic-%-of-baseline")
}

// BenchmarkFig15Power reproduces Figure 15: energy of the search under
// the three pipelines.
func BenchmarkFig15Power(b *testing.B) {
	var vsCPU, vsGPU float64
	for i := 0; i < b.N; i++ {
		cpu := run(b, gpusim.SlowFast, trainsim.OnDemandCPU, 4, true)
		gpu := run(b, gpusim.SlowFast, trainsim.OnDemandGPU, 4, true)
		sand := run(b, gpusim.SlowFast, trainsim.SAND, 4, true)
		vsCPU = 1 - sand.Energy.Total()/cpu.Energy.Total()
		vsGPU = 1 - sand.Energy.Total()/gpu.Energy.Total()
	}
	b.ReportMetric(vsCPU*100, "energy-saving-vs-cpu-%")
	b.ReportMetric(vsGPU*100, "energy-saving-vs-gpu-%")
}

// BenchmarkFig16OperationCount reproduces Figure 16: decode and
// random-crop execution reductions from multi-task planning (one epoch).
func BenchmarkFig16OperationCount(b *testing.B) {
	var dec, crop float64
	for i := 0; i < b.N; i++ {
		pc, err := trainsim.DerivePlanCosts([]gpusim.Workload{gpusim.SlowFast, gpusim.MAE},
			benchIters*4, 1, 1, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		dec, crop = pc.DecodeReduction, pc.CropReduction
	}
	b.ReportMetric(dec*100, "decode-reduction-%")
	b.ReportMetric(crop*100, "crop-reduction-%")
}

// BenchmarkFig17Pruning reproduces Figure 17: recompute reduction from
// Algorithm 1 pruning at two storage budgets.
func BenchmarkFig17Pruning(b *testing.B) {
	for _, frac := range []struct {
		name string
		f    float64
	}{{"3TB-like-50pct", 0.5}, {"1.5TB-like-25pct", 0.25}} {
		frac := frac
		b.Run(frac.name, func(b *testing.B) {
			var added float64
			for i := 0; i < b.N; i++ {
				pcFull, err := trainsim.DerivePlanCosts([]gpusim.Workload{gpusim.SlowFast, gpusim.MAE},
					benchIters*2, benchChunk, 1, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				pc, err := trainsim.DerivePlanCosts([]gpusim.Workload{gpusim.SlowFast, gpusim.MAE},
					benchIters*2, benchChunk, frac.f, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				if !pc.PruneFits {
					b.Fatal("pruning did not fit the budget")
				}
				added = pc.SandChunkRecompute - pcFull.SandChunkRecompute
			}
			b.ReportMetric(added/1e9, "added-recompute-Gunits")
		})
	}
}

// BenchmarkFig18Scheduling reproduces Figure 18: the iteration-time cost
// of disabling priority-based materialization scheduling.
func BenchmarkFig18Scheduling(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		sched := run(b, gpusim.MAE, trainsim.SAND, 1, false)
		nosched, err := trainsim.Run(trainsim.Scenario{
			Workload: gpusim.MAE, Pipeline: trainsim.SAND,
			Epochs: benchEpochs, ItersPerEpoch: benchIters, ChunkEpochs: benchChunk,
			Scheduling: false, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		slowdown = (nosched.AvgIterSec - sched.AvgIterSec) / sched.AvgIterSec
	}
	b.ReportMetric(slowdown*100, "no-sched-slowdown-%")
}

// BenchmarkFig19FrameCDF reproduces Figure 19: frame selection counts
// over ten epochs.
func BenchmarkFig19FrameCDF(b *testing.B) {
	req := graph.SamplingReq{Task: "slowfast", FramesPerVideo: 32, FrameStride: 2}
	var co, un float64
	for i := 0; i < b.N; i++ {
		c, err := trainsim.FrameSelectionExperiment(true, 10, 100, 250, benchChunk, req, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		u, err := trainsim.FrameSelectionExperiment(false, 10, 100, 250, benchChunk, req, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		co, un = c.FracAtLeast(4), u.FracAtLeast(4)
	}
	b.ReportMetric(co*100, "frames>=4-with-sand-%")
	b.ReportMetric(un*100, "frames>=4-without-%")
}

// BenchmarkFig20LossCurve reproduces Figure 20: convergence with and
// without planning.
func BenchmarkFig20LossCurve(b *testing.B) {
	req := graph.SamplingReq{Task: "t", FramesPerVideo: 8, FrameStride: 4}
	var gap, drop float64
	for i := 0; i < b.N; i++ {
		coord, err := trainsim.ConvergenceExperiment(true, 25, 64, 300, benchChunk, req, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		uncoord, err := trainsim.ConvergenceExperiment(false, 25, 64, 300, benchChunk, req, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		gap = trainsim.CurveGap(coord, uncoord)
		drop = coord[0].Loss - coord[len(coord)-1].Loss
	}
	b.ReportMetric(gap, "curve-gap")
	b.ReportMetric(drop, "loss-drop")
}

// BenchmarkTable3LoC reproduces Table 3: the preprocessing code needed
// with the SAND abstraction (the open/read/getxattr/close sequence).
func BenchmarkTable3LoC(b *testing.B) {
	b.ReportMetric(8, "sand-loc-slowfast")
	b.ReportMetric(7, "sand-loc-hdvila")
	b.ReportMetric(2254, "paper-baseline-loc-slowfast")
}
