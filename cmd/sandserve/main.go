// Command sandserve plans a SAND configuration and serves its view
// filesystem over the network: the step from library to system. Any
// machine that can reach the socket mounts the engine's views through
// viewserver.Client and trains with the same four POSIX calls as a local
// consumer.
//
// Usage:
//
//	sandserve                               # synthetic dataset on 127.0.0.1:7468
//	sandserve -listen 0.0.0.0:7468          # serve a real port
//	sandserve -unix /tmp/sand.sock          # additionally serve a unix socket
//	sandserve -data /tmp/mini -task t.yaml  # dataset from sandgen + task config
//	sandserve -metrics 127.0.0.1:9090       # /metrics + /debug/trace endpoints
//	sandserve -metrics :9090 -trace         # capture events from startup
//
// Fleet mode: -registry announces the node to a fleet control plane (see
// internal/fleet and cmd/sandctl) and keeps it healthy with heartbeats;
// the node's /metrics.json is scraped by the fleet collector. On SIGTERM
// the node drains first — it asks the registry to stop routing new opens
// to it, then waits for its descriptors and sessions to finish (bounded
// by -drain-timeout) before exiting. SIGINT skips the drain.
//
//	sandserve -registry 127.0.0.1:7470 -node gpu3 -capacity 2
//
// On exit it prints every metric of its obs registry: the engine's,
// the scheduler's, the store's and the dataplane's.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/fleet"
	"sand/internal/obs"
	"sand/internal/viewserver"
)

const defaultTask = `
dataset:
  tag: "train"
  input_source: file
  video_dataset_path: /dataset/train
  sampling:
    videos_per_batch: 2
    frames_per_video: 8
    frame_stride: 2
    samples_per_video: 1
  augmentation:
  - name: "resize"
    branch_type: "single"
    inputs: ["frame"]
    outputs: ["a0"]
    config:
    - resize:
        shape: [64, 64]
`

func main() {
	listen := flag.String("listen", "127.0.0.1:7468", "TCP listen address ('' disables)")
	unixSock := flag.String("unix", "", "unix socket path to also serve ('' disables)")
	dataDir := flag.String("data", "", "dataset directory (default: generate synthetic)")
	taskFile := flag.String("task", "", "task config YAML file (default: built-in)")
	epochs := flag.Int("epochs", 8, "total training epochs to plan")
	chunk := flag.Int("chunk", 2, "chunk size k (epochs planned together)")
	workers := flag.Int("workers", 4, "preprocessing worker pool size")
	readahead := flag.Int("readahead", viewserver.DefaultReadAhead, "batch views to prefetch ahead per sequence (0 disables)")
	demandSLO := flag.Duration("demand-slo", 0, "demand-path queue-wait p99 SLO; above it premat admission closes (0 disables)")
	flightDir := flag.String("flight-dir", "", "directory for flight-recorder trace dumps on SLO breaches ('' disables)")
	inflight := flag.Int("inflight", 32, "max in-flight requests per client session")
	metricsAddr := flag.String("metrics", "", "HTTP address for /metrics and /debug/trace ('' disables; fleet mode auto-binds 127.0.0.1:0)")
	trace := flag.Bool("trace", false, "enable the event tracer at startup")
	registryAddr := flag.String("registry", "", "fleet registry address to announce to ('' = standalone)")
	nodeName := flag.String("node", "", "fleet node name (default: the serving address)")
	advertise := flag.String("advertise", "", "address other machines dial (default: the bound -listen address)")
	capacity := flag.Int("capacity", 1, "relative routing weight announced to the fleet")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for sessions to finish when draining on SIGTERM")
	flag.Parse()

	if *listen == "" && *unixSock == "" {
		log.Fatal("sandserve: nothing to serve: both -listen and -unix are empty")
	}
	if *registryAddr != "" && *listen == "" {
		log.Fatal("sandserve: fleet mode needs a TCP -listen address to announce")
	}

	var ds *dataset.Dataset
	var err error
	if *dataDir != "" {
		ds, err = dataset.LoadDir(*dataDir)
	} else {
		ds, err = dataset.Kinetics400.Miniature(8, 96, 96, 60, 3)
	}
	if err != nil {
		log.Fatal(err)
	}
	var task *config.Task
	if *taskFile != "" {
		task, err = config.LoadTaskFile(*taskFile)
	} else {
		task, err = config.LoadTask(defaultTask)
	}
	if err != nil {
		log.Fatal(err)
	}

	reg := obs.New()
	if *trace {
		reg.Trace().Enable()
	}

	svc, err := core.New(core.Options{
		Tasks:       []*config.Task{task},
		Dataset:     ds,
		ChunkEpochs: *chunk,
		TotalEpochs: *epochs,
		Workers:     *workers,
		Coordinate:  true,
		Seed:        1,
		Obs:         reg,
		DemandSLO:   *demandSLO,
		FlightDir:   *flightDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	srv := viewserver.New(svc.FS(), viewserver.Options{
		ReadAhead:   *readahead,
		MaxInflight: *inflight,
		Obs:         reg,
	})
	obsAddr := *metricsAddr
	if obsAddr == "" && *registryAddr != "" {
		obsAddr = "127.0.0.1:0" // the fleet collector scrapes /metrics.json
	}
	var metricsBound string
	if obsAddr != "" {
		addr, stop, err := reg.StartServer(obsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		metricsBound = addr.String()
		fmt.Printf("sandserve: observability on http://%s/metrics (traces at /debug/trace)\n", addr)
	}
	var tcpAddr string
	if *listen != "" {
		addr, err := srv.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		tcpAddr = addr.String()
		fmt.Printf("sandserve: serving %d videos, task %q, %d epochs on tcp %s\n",
			len(ds.Videos), task.Tag, *epochs, addr)
	}
	if *unixSock != "" {
		addr, err := srv.Listen("unix", *unixSock)
		if err != nil {
			log.Fatal(err)
		}
		defer os.Remove(*unixSock)
		fmt.Printf("sandserve: also serving unix %s\n", addr)
	}
	fmt.Printf("sandserve: views follow the Table 1 scheme, e.g. /%s/0/0/view\n", task.Tag)

	// Fleet membership: announce, heartbeat, drain on SIGTERM.
	var fleetCli *fleet.RegistryClient
	var hb *fleet.Heartbeater
	name := *nodeName
	if *registryAddr != "" {
		if name == "" {
			name = tcpAddr
		}
		adv := *advertise
		if adv == "" {
			adv = tcpAddr
		}
		fleetCli = fleet.NewRegistryClient(*registryAddr)
		hb, err = fleet.StartHeartbeater(fleetCli, fleet.NodeInfo{
			Name:        name,
			Addr:        adv,
			MetricsAddr: metricsBound,
			Fingerprint: svc.Fingerprint(),
			Capacity:    *capacity,
		})
		if err != nil {
			log.Fatalf("sandserve: announce to %s: %v", *registryAddr, err)
		}
		fmt.Printf("sandserve: announced as %q (fingerprint %.12s…) to registry %s\n",
			name, svc.Fingerprint(), *registryAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig

	if fleetCli != nil && got == syscall.SIGTERM {
		// Drain: stop receiving new opens, let existing sessions finish.
		fmt.Printf("sandserve: SIGTERM — draining %q (timeout %s)\n", name, *drainTimeout)
		if err := fleetCli.Drain(name); err != nil {
			fmt.Printf("sandserve: drain: %v\n", err)
		}
		deadline := time.Now().Add(*drainTimeout)
		for time.Now().Before(deadline) {
			fds, _ := reg.Query("viewserver.fds")
			sessions, _ := reg.Query("viewserver.sessions")
			if fds == 0 && sessions == 0 {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	if hb != nil {
		hb.Stop()
	}
	if fleetCli != nil {
		if err := fleetCli.Forget(name); err != nil {
			fmt.Printf("sandserve: forget: %v\n", err)
		}
	}

	fmt.Println()
	reg.WriteText(os.Stdout)
	srv.Close()
}
