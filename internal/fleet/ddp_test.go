package fleet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/frame"
	"sand/internal/vfs"
	"sand/internal/viewserver"
)

// DDP over the dataplane: one shared engine exports its batch views; each
// DDP worker mounts them (a viewserver.Client, or a Router over replica
// servers) behind core.NewRemoteLoader and takes iterations round-robin,
// barriering after every step.

// ddpEngine starts the shared engine: the fleet corpus, two epochs in one
// chunk.
func ddpEngine(t *testing.T) (*core.Service, *config.Task, int) {
	t.Helper()
	ds, task := fleetDataset(t), fleetTask(t)
	svc, err := core.New(core.Options{
		Tasks: []*config.Task{task}, Dataset: ds,
		ChunkEpochs: 2, TotalEpochs: 2, Workers: 2, Coordinate: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, task, len(ds.Videos)
}

// ddpServe exports svc through one view server with read-ahead at depth 2
// (the DDP test asserts read-ahead hits; the default is off) and dials
// clients sessions to it.
func ddpServe(t *testing.T, svc *core.Service, clients int) (*viewserver.Server, string, []*viewserver.Client) {
	t.Helper()
	srv := viewserver.New(svc.FS(), viewserver.Options{ReadAhead: 2})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var clis []*viewserver.Client
	for i := 0; i < clients; i++ {
		cli, err := viewserver.Dial("tcp", addr.String(), viewserver.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Shutdown() })
		clis = append(clis, cli)
	}
	return srv, addr.String(), clis
}

// ddpEpochs runs epochs [from, to) over one loader per worker and returns
// how often each (epoch, iteration) was consumed and the clips consumed.
func ddpEpochs(t *testing.T, svc *core.Service, tag string, loaders []*core.Loader, from, to int) (map[[2]int]int, int) {
	t.Helper()
	seen, clips := map[[2]int]int{}, 0
	for e := from; e < to; e++ {
		iters, err := svc.ItersInEpoch(tag, e)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < iters; step += len(loaders) {
			batches := make([]*frame.Batch, len(loaders))
			errs := make([]error, len(loaders))
			var wg sync.WaitGroup
			for w := 0; w < len(loaders) && step+w < iters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					batches[w], _, errs[w] = loaders[w].Next(e, step+w)
				}(w)
			}
			wg.Wait() // the allreduce barrier
			for w, b := range batches {
				if errs[w] != nil {
					t.Fatalf("worker %d epoch %d iter %d: %v", w, e, step+w, errs[w])
				}
				if b != nil {
					seen[[2]int{b.Epoch, b.Iteration}]++
					clips += b.Len()
				}
			}
		}
	}
	return seen, clips
}

// checkOnce fails unless every consumed iteration was consumed exactly once
// cluster-wide and the clips cover every video once per epoch.
func checkOnce(t *testing.T, seen map[[2]int]int, clips, want int) {
	t.Helper()
	if clips != want {
		t.Fatalf("consumed %d clips, want %d", clips, want)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("iteration %v consumed %d times", key, n)
		}
	}
}

func TestDDPRemoteViews(t *testing.T) {
	svc, task, videos := ddpEngine(t)
	srv, _, clis := ddpServe(t, svc, 2)
	var loaders []*core.Loader
	for _, cli := range clis {
		ldr, err := core.NewRemoteLoader(cli, task.Tag)
		if err != nil {
			t.Fatal(err)
		}
		loaders = append(loaders, ldr)
	}
	seen, clips := ddpEpochs(t, svc, task.Tag, loaders, 0, 2)
	checkOnce(t, seen, clips, 2*videos)

	st := srv.Stats()
	if st.BytesServed == 0 {
		t.Fatal("no bytes measured on the wire")
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
	// The dataplane only moves bytes: a batch view read through a worker's
	// network mount must be byte-identical to the same view read through
	// the engine's in-process filesystem.
	svc, task, _ := ddpEngine(t)
	_, _, clis := ddpServe(t, svc, 2)
	iters, err := svc.ItersInEpoch(task.Tag, 0)
	if err != nil {
		t.Fatal(err)
	}
	read := func(m vfs.Mount, path string) []byte {
		t.Helper()
		fd, err := m.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close(fd)
		data, err := m.ReadAll(fd)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for iter := 0; iter < iters; iter++ {
		path := vfs.BatchPath(task.Tag, 0, iter)
		got, want := read(clis[iter%len(clis)], path), read(svc.FS(), path)
		if !bytes.Equal(want, got) {
			t.Fatalf("iteration %d: remote batch differs from local view (%d vs %d bytes)", iter, len(got), len(want))
		}
	}
}

// ddpFleet exports svc through three replica servers announced to a fresh
// registry and mounts them through one router per worker.
func ddpFleet(t *testing.T, svc *core.Service, tag string) (*Registry, []*viewserver.Server, []*Heartbeater, []*Router, []*core.Loader) {
	t.Helper()
	registry := NewRegistry(RegistryOptions{SuspectAfter: 500 * time.Millisecond, DeadAfter: 1500 * time.Millisecond})
	t.Cleanup(registry.Close)
	ann := LocalAnnouncer{R: registry}
	var srvs []*viewserver.Server
	var hbs []*Heartbeater
	for i := 0; i < 3; i++ {
		srv, addr, _ := ddpServe(t, svc, 0)
		hb, err := StartHeartbeater(ann, NodeInfo{Name: fmt.Sprintf("replica%d", i), Addr: addr, Fingerprint: svc.Fingerprint()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(hb.Stop)
		srvs, hbs = append(srvs, srv), append(hbs, hb)
	}
	var routers []*Router
	var loaders []*core.Loader
	for i := 0; i < 2; i++ {
		router := NewRouter(ann, RouterOptions{Fingerprint: svc.Fingerprint(), RefreshEvery: 100 * time.Millisecond})
		t.Cleanup(func() { router.Shutdown() })
		ldr, err := core.NewRemoteLoader(router, tag)
		if err != nil {
			t.Fatal(err)
		}
		routers, loaders = append(routers, router), append(loaders, ldr)
	}
	return registry, srvs, hbs, routers, loaders
}

func TestDDPFleetRoutedViews(t *testing.T) {
	// Three replica servers behind a fleet registry; workers mount through
	// routers. DDP semantics and byte content must be unchanged.
	svc, task, videos := ddpEngine(t)
	registry, srvs, _, routers, loaders := ddpFleet(t, svc, task.Tag)
	healthy := 0
	for _, n := range registry.Nodes() {
		if n.State == StateHealthy {
			healthy++
		}
	}
	if healthy != 3 {
		t.Fatalf("%d healthy replicas, want 3", healthy)
	}

	seen, clips := ddpEpochs(t, svc, task.Tag, loaders, 0, 2)
	checkOnce(t, seen, clips, 2*videos)
	var wire int64
	for _, srv := range srvs {
		wire += srv.Stats().BytesServed
	}
	if wire == 0 {
		t.Fatal("no bytes measured on the fleet wire")
	}
	// Routing really spread across the replica set.
	opens := map[string]int64{}
	for _, r := range routers {
		for name, v := range r.Stats().OpensByNode {
			opens[name] += v
		}
	}
	if len(opens) < 2 {
		t.Fatalf("opens all landed on one replica: %v", opens)
	}
}

func TestDDPFleetSurvivesReplicaDeath(t *testing.T) {
	// Killing one of three replicas between epochs must not fail the run:
	// routers fail the victim's keys over to the survivors.
	svc, task, videos := ddpEngine(t)
	registry, srvs, hbs, _, loaders := ddpFleet(t, svc, task.Tag)
	ddpEpochs(t, svc, task.Tag, loaders, 0, 1)

	// Hard-kill replica 0: stop its beats, close its listener.
	hbs[0].Stop()
	srvs[0].Close()
	if err := registry.Forget("replica0"); err != nil {
		t.Fatal(err)
	}
	seen, clips := ddpEpochs(t, svc, task.Tag, loaders, 1, 2)
	checkOnce(t, seen, clips, videos)
}
