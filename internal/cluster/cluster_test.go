package cluster

import (
	"bytes"
	"testing"

	"sand/internal/config"
	"sand/internal/dataset"
	"sand/internal/fleet"
	"sand/internal/vfs"
	"sand/internal/viewserver"
)

func miniDataset(t testing.TB, videos int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate("cluster", dataset.VideoSpec{
		W: 32, H: 32, C: 3, Frames: 30, FPS: 30, GOP: 10,
	}, videos, 11)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func miniTask(t testing.TB) *config.Task {
	t.Helper()
	task := &config.Task{
		Tag:         "ddp",
		Source:      config.SourceFile,
		DatasetPath: "/data/cluster",
		Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: 4, FrameStride: 2, SamplesPerVideo: 1},
		Stages: []config.Stage{{
			Name: "resize", Type: config.BranchSingle,
			Inputs: []string{"frame"}, Outputs: []string{"a0"},
			Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{16, 16}}}},
		}},
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	return task
}

func TestRemoteStore(t *testing.T) {
	ds := miniDataset(t, 3)
	store, err := NewRemoteStore(ds)
	if err != nil {
		t.Fatal(err)
	}
	ent, err := store.Fetch("video_0001")
	if err != nil {
		t.Fatal(err)
	}
	if store.BytesServed() != int64(ent.Video.Bytes()) || store.Fetches() != 1 {
		t.Fatalf("accounting wrong: %d bytes %d fetches", store.BytesServed(), store.Fetches())
	}
	if _, err := store.Fetch("ghost"); err == nil {
		t.Fatal("accepted unknown video")
	}
	all, err := store.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Videos) != 3 {
		t.Fatalf("FetchAll returned %d videos", len(all.Videos))
	}
	want := int64(ent.Video.Bytes()) + ds.TotalEncodedBytes()
	if store.BytesServed() != want {
		t.Fatalf("bytes served %d, want %d", store.BytesServed(), want)
	}
	if _, err := NewRemoteStore(nil); err == nil {
		t.Fatal("accepted nil dataset")
	}
}

func TestClusterValidation(t *testing.T) {
	ds := miniDataset(t, 2)
	store, _ := NewRemoteStore(ds)
	if _, err := New(nil, Options{Nodes: 1, Task: miniTask(t)}); err == nil {
		t.Fatal("accepted nil store")
	}
	if _, err := New(store, Options{Nodes: 0, Task: miniTask(t)}); err == nil {
		t.Fatal("accepted zero nodes")
	}
	if _, err := New(store, Options{Nodes: 1}); err == nil {
		t.Fatal("accepted nil task")
	}
}

func TestDDPEpochShardsIterations(t *testing.T) {
	ds := miniDataset(t, 6) // 3 iterations/epoch at 2 videos per batch
	store, _ := NewRemoteStore(ds)
	c, err := New(store, Options{
		Nodes: 2, Task: miniTask(t),
		ChunkEpochs: 2, TotalEpochs: 2, Workers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seen := map[[2]int]int{} // (node, iter)
	err = c.RunEpoch(0, func(r StepResult) {
		seen[[2]int{r.Node, r.Batch.Iteration}]++
		if r.Batch.Epoch != 0 {
			t.Errorf("batch epoch %d", r.Batch.Epoch)
		}
		if r.Batch.Len() == 0 {
			t.Error("empty batch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 iterations sharded over 2 nodes: node 0 gets 0 and 2, node 1
	// gets 1.
	if len(seen) != 3 {
		t.Fatalf("saw %d (node, iter) pairs: %v", len(seen), seen)
	}
	if seen[[2]int{0, 0}] != 1 || seen[[2]int{1, 1}] != 1 || seen[[2]int{0, 2}] != 1 {
		t.Fatalf("round-robin sharding wrong: %v", seen)
	}
	if c.Barriers() != 2 { // ceil(3/2) global steps
		t.Fatalf("barriers = %d, want 2", c.Barriers())
	}
	if c.Nodes()[0].Batches() != 2 || c.Nodes()[1].Batches() != 1 {
		t.Fatalf("node batch counts: %d, %d", c.Nodes()[0].Batches(), c.Nodes()[1].Batches())
	}
}

func TestDDPFullRunAndTraffic(t *testing.T) {
	ds := miniDataset(t, 4)
	store, _ := NewRemoteStore(ds)
	c, err := New(store, Options{
		Nodes: 2, Task: miniTask(t),
		ChunkEpochs: 2, TotalEpochs: 2, Workers: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	afterSetup := store.BytesServed()
	// Fetch-once: setup transferred exactly nodes x dataset.
	if want := 2 * ds.TotalEncodedBytes(); afterSetup != want {
		t.Fatalf("setup traffic %d, want %d", afterSetup, want)
	}
	clips := 0
	if err := c.Run(2, func(r StepResult) { clips += r.Batch.Len() }); err != nil {
		t.Fatal(err)
	}
	// Coverage: across both epochs and nodes, every video appears once
	// per epoch per node's shard... in DDP each iteration (and so each
	// video) is consumed exactly once per epoch cluster-wide.
	if clips != 2*len(ds.Videos) {
		t.Fatalf("consumed %d clips, want %d (videos x epochs)", clips, 2*len(ds.Videos))
	}
	// Training transferred nothing further from the remote store.
	if store.BytesServed() != afterSetup {
		t.Fatalf("training leaked remote traffic: %d -> %d", afterSetup, store.BytesServed())
	}
}

func TestDDPRemoteViews(t *testing.T) {
	ds := miniDataset(t, 6) // 3 iterations/epoch at 2 videos per batch
	store, _ := NewRemoteStore(ds)
	c, err := New(store, Options{
		Nodes: 2, Task: miniTask(t),
		ChunkEpochs: 2, TotalEpochs: 2, Workers: 2, Seed: 3,
		RemoteViews: true, ReadAhead: viewserver.DefaultReadAhead,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The corpus crossed the (simulated) WAN exactly once: only the
	// view-server node fetched it.
	if got, want := store.BytesServed(), ds.TotalEncodedBytes(); got != want {
		t.Fatalf("setup traffic %d, want %d (fetch-once by the server node)", got, want)
	}

	clips := 0
	seen := map[[2]int]int{}
	if err := c.Run(2, func(r StepResult) {
		clips += r.Batch.Len()
		seen[[2]int{r.Batch.Epoch, r.Batch.Iteration}]++
	}); err != nil {
		t.Fatal(err)
	}
	// Same DDP semantics as the in-process mode: every iteration of every
	// epoch consumed exactly once cluster-wide.
	if clips != 2*len(ds.Videos) {
		t.Fatalf("consumed %d clips, want %d", clips, 2*len(ds.Videos))
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("iteration %v consumed %d times", key, n)
		}
	}

	// The batches moved over real sockets: measured wire traffic must
	// cover at least the raw payload bytes of every batch served.
	st := c.ViewServer().Stats()
	if c.WireBytes() == 0 || st.BytesServed != c.WireBytes() {
		t.Fatalf("wire bytes not measured: %d vs stats %d", c.WireBytes(), st.BytesServed)
	}
	if st.Requests["open"] == 0 || st.Requests["read"] == 0 || st.Requests["close"] == 0 {
		t.Fatalf("dataplane op counters empty: %+v", st.Requests)
	}
	// Sequential epoch reads should have warmed the server's read-ahead.
	if st.ReadaheadHits == 0 {
		t.Fatalf("no read-ahead hits: %+v", st)
	}
	// Loaders close every descriptor they open: nothing may leak.
	if st.OpenFDs != 0 {
		t.Fatalf("leaked %d fds on the view server", st.OpenFDs)
	}
	if st.OpenSessions != 2 {
		t.Fatalf("sessions = %d, want 2", st.OpenSessions)
	}
}

func TestDDPRemoteViewsMatchesInProcess(t *testing.T) {
	// The dataplane only moves bytes: a batch view read through a node's
	// network mount must be byte-identical to the same view read through
	// the central engine's in-process filesystem.
	ds := miniDataset(t, 4)
	task := miniTask(t)

	store, _ := NewRemoteStore(ds)
	c, err := New(store, Options{
		Nodes: 2, Task: task,
		ChunkEpochs: 1, TotalEpochs: 1, Workers: 2, Seed: 9,
		RemoteViews: true, ReadAhead: viewserver.DefaultReadAhead,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	iters, err := c.central.ItersPerEpoch(task.Tag)
	if err != nil {
		t.Fatal(err)
	}
	fs := c.central.FS()
	for iter := 0; iter < iters; iter++ {
		path := vfs.BatchPath(task.Tag, 0, iter)
		cli := c.nodes[iter%len(c.nodes)].cli

		rfd, err := cli.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cli.ReadAll(rfd)
		if err != nil {
			t.Fatal(err)
		}
		cli.Close(rfd)

		lfd, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fs.ReadAll(lfd)
		if err != nil {
			t.Fatal(err)
		}
		fs.Close(lfd)

		if !bytes.Equal(want, got) {
			t.Fatalf("iteration %d: remote batch differs from local view (%d vs %d bytes)",
				iter, len(got), len(want))
		}
	}
}

func TestDDPNodesShareNoState(t *testing.T) {
	// Each node has its own engine; stats accumulate independently.
	ds := miniDataset(t, 4)
	store, _ := NewRemoteStore(ds)
	c, err := New(store, Options{
		Nodes: 2, Task: miniTask(t),
		ChunkEpochs: 1, TotalEpochs: 1, Workers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RunEpoch(0, nil); err != nil {
		t.Fatal(err)
	}
	s0 := c.Nodes()[0].Service().Stats()
	s1 := c.Nodes()[1].Service().Stats()
	if s0.BatchesServed == 0 || s1.BatchesServed == 0 {
		t.Fatalf("node stats empty: %+v %+v", s0, s1)
	}
}

func TestDDPFleetRoutedViews(t *testing.T) {
	// FleetServers mode: the shared engine exports through three replica
	// servers behind a fleet registry; workers mount through routers.
	// DDP semantics and byte content must be unchanged.
	ds := miniDataset(t, 6)
	store, _ := NewRemoteStore(ds)
	c, err := New(store, Options{
		Nodes: 2, Task: miniTask(t),
		ChunkEpochs: 2, TotalEpochs: 2, Workers: 2, Seed: 3,
		RemoteViews: true, FleetServers: 3, ReadAhead: viewserver.DefaultReadAhead,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := len(c.FleetServers()); got != 3 {
		t.Fatalf("%d replica servers, want 3", got)
	}
	healthy := 0
	for _, n := range c.Registry().Nodes() {
		if n.State == fleet.StateHealthy {
			healthy++
		}
	}
	if healthy != 3 {
		t.Fatalf("%d healthy replicas, want 3", healthy)
	}

	clips := 0
	seen := map[[2]int]int{}
	if err := c.Run(2, func(r StepResult) {
		clips += r.Batch.Len()
		seen[[2]int{r.Batch.Epoch, r.Batch.Iteration}]++
	}); err != nil {
		t.Fatal(err)
	}
	if clips != 2*len(ds.Videos) {
		t.Fatalf("consumed %d clips, want %d", clips, 2*len(ds.Videos))
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("iteration %v consumed %d times", key, n)
		}
	}
	if c.WireBytes() == 0 {
		t.Fatal("no bytes measured on the fleet wire")
	}
	// Routing really spread across the replica set.
	opens := map[string]int64{}
	for _, n := range c.Nodes() {
		for name, v := range n.Router().Stats().OpensByNode {
			opens[name] += v
		}
	}
	if len(opens) < 2 {
		t.Fatalf("opens all landed on one replica: %v", opens)
	}
}

func TestDDPFleetSurvivesReplicaDeath(t *testing.T) {
	// Killing one of three replicas between epochs must not fail the
	// run: routers fail the victim's keys over to the survivors.
	ds := miniDataset(t, 6)
	store, _ := NewRemoteStore(ds)
	c, err := New(store, Options{
		Nodes: 2, Task: miniTask(t),
		ChunkEpochs: 2, TotalEpochs: 2, Workers: 2, Seed: 3,
		RemoteViews: true, FleetServers: 3, ReadAhead: viewserver.DefaultReadAhead,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.RunEpoch(0, nil); err != nil {
		t.Fatal(err)
	}
	// Hard-kill replica 0: stop its beats, close its listener.
	c.fhbs[0].Stop()
	c.fsrvs[0].Close()
	if err := c.Registry().Forget("replica0"); err != nil {
		t.Fatal(err)
	}
	clips := 0
	if err := c.RunEpoch(1, func(r StepResult) { clips += r.Batch.Len() }); err != nil {
		t.Fatalf("epoch after replica death: %v", err)
	}
	if clips != len(ds.Videos) {
		t.Fatalf("post-failure epoch consumed %d clips, want %d", clips, len(ds.Videos))
	}
}
