// Remote views: a trainer reading every batch of an epoch over the
// network dataplane. One process plans and serves a view tree
// (what cmd/sandserve does); a trainer mounts it through
// viewserver.Client — the same four POSIX calls as the local quickstart
// — and the example verifies each remote batch byte-for-byte against
// the in-process filesystem before printing the server's dataplane
// counters (the sequential read-ahead hits and misses and the zero-copy
// hit / copy-fallback split). Read-ahead is opt-in; the example turns it
// on at depth 2 and asserts that it hits. -mem-budget-mb sizes the object store behind
// the engine, so a tight budget exercises the pinned serve path under
// live eviction.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/metrics"
	"sand/internal/vfs"
	"sand/internal/viewserver"
)

func main() {
	memBudgetMB := flag.Int64("mem-budget-mb", 0, "in-memory object-tier budget in MiB (0 = engine default)")
	flag.Parse()

	// --- the serving side: an engine exporting its views over TCP ---
	ds, err := dataset.Kinetics400.Miniature(6, 64, 64, 60, 21)
	if err != nil {
		log.Fatal(err)
	}
	task := &config.Task{
		Tag:         "train",
		Source:      config.SourceFile,
		DatasetPath: "/dataset/remote",
		Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: 6, FrameStride: 2, SamplesPerVideo: 1},
		Stages: []config.Stage{{
			Name: "resize", Type: config.BranchSingle,
			Inputs: []string{"frame"}, Outputs: []string{"a0"},
			Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{48, 48}}}},
		}},
	}
	if err := task.Validate(); err != nil {
		log.Fatal(err)
	}
	svc, err := core.New(core.Options{
		Tasks:       []*config.Task{task},
		Dataset:     ds,
		ChunkEpochs: 2,
		TotalEpochs: 2,
		Workers:     2,
		Coordinate:  true,
		Seed:        7,
		MemBudget:   *memBudgetMB << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	srv := viewserver.New(svc.FS(), viewserver.Options{ReadAhead: 2, Obs: svc.Obs()})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("view server on %s exporting task %q\n", addr, task.Tag)

	// --- the training side: a remote mount over loopback ---
	cli, err := viewserver.Dial("tcp", addr.String(), viewserver.ClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Shutdown()

	loader, err := core.NewRemoteLoader(cli, task.Tag)
	if err != nil {
		log.Fatal(err)
	}
	iters, err := svc.ItersPerEpoch(task.Tag)
	if err != nil {
		log.Fatal(err)
	}

	fs := svc.FS()
	clips, wire := 0, int64(0)
	for iter := 0; iter < iters; iter++ {
		// The Figure 6 sequence, but over a socket.
		batch, meta, err := loader.Next(0, iter)
		if err != nil {
			log.Fatal(err)
		}
		clips += batch.Len()

		// Verify: the remote mount and the in-process filesystem serve
		// byte-identical views.
		path := vfs.BatchPath(task.Tag, 0, iter)
		rfd, err := cli.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		remote, err := cli.ReadAll(rfd)
		if err != nil {
			log.Fatal(err)
		}
		cli.Close(rfd)
		lfd, err := fs.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		local, err := fs.ReadAll(lfd)
		if err != nil {
			log.Fatal(err)
		}
		fs.Close(lfd)
		if !bytes.Equal(remote, local) {
			log.Fatalf("iteration %d: remote view differs from local (%d vs %d bytes)",
				iter, len(remote), len(local))
		}
		wire += int64(len(remote))
		fmt.Printf("  iter %d: %d clips %s over the wire, geometry %s — byte-identical to local\n",
			iter, batch.Len(), metrics.Bytes(float64(len(remote))), meta.Geometry)
	}

	reg := svc.Obs()
	count := func(name string) int64 {
		v, _ := reg.Query(name)
		return int64(v)
	}
	hits, misses := count("viewserver.readahead.hit"), count("viewserver.readahead.miss")
	zeroCopy := count("viewserver.dataplane.zerocopy.hit")
	fmt.Printf("\nepoch done: %d iterations, %d clips; %s of views verified, %s total served over TCP\n",
		iters, clips, metrics.Bytes(float64(wire)), metrics.Bytes(float64(count("viewserver.bytes.served"))))
	fmt.Printf("read-ahead: %d hits / %d misses\n", hits, misses)
	fmt.Printf("dataplane: %d responses served by reference (zero-copy), %d copy fallbacks\n",
		zeroCopy, count("viewserver.dataplane.copy.fallback"))
	if hits == 0 {
		log.Fatal("expected the sequential epoch to produce read-ahead hits")
	}
	if zeroCopy == 0 {
		log.Fatal("expected cached batches to be served by reference (zero zero-copy hits)")
	}
	if fds := count("viewserver.fds"); fds != 0 {
		log.Fatalf("leaked %d server fds", fds)
	}
	fmt.Println()
	if err := reg.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
