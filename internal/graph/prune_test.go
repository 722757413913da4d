package graph

import (
	"testing"
	"testing/quick"
)

func planForPruning(t testing.TB, videos, epochs int, seed int64) *ChunkPlan {
	t.Helper()
	tasks := []TaskSpec{
		{Task: taskWithPipeline(t, "slowfast", 8, 4)},
		{Task: taskWithPipeline(t, "mae", 8, 2)},
	}
	vids := testVideos(videos)
	plan, err := BuildChunkPlan(tasks, vids, PlanParams{Epochs: epochs, Coordinate: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestPruneGraphSingleStep(t *testing.T) {
	plan := planForPruning(t, 1, 2, 1)
	g := plan.Graphs["v0"]
	before := g.CachedBytes()
	saved := PruneGraph(g)
	if saved <= 0 {
		t.Fatal("no pruning opportunity found in a plan with shared aug chains")
	}
	after := g.CachedBytes()
	if before-after != saved {
		t.Fatalf("reported saving %d, actual %d", saved, before-after)
	}
	// Recompute cost must now be positive: pruned leaves re-derive on
	// access.
	if rc := g.RecomputeCost(); rc <= 0 {
		t.Fatalf("recompute cost %v after pruning", rc)
	}
}

func TestPruneToBudgetFits(t *testing.T) {
	plan := planForPruning(t, 3, 2, 2)
	all := plan.TotalCachedBytes()
	budget := all / 3
	res, err := PrunePlan(plan, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fits {
		t.Fatalf("pruning did not fit budget: final=%d budget=%d", res.FinalBytes, budget)
	}
	if res.FinalBytes > budget {
		t.Fatalf("FinalBytes %d > budget %d but Fits true", res.FinalBytes, budget)
	}
	if res.InitialBytes != all {
		t.Fatalf("InitialBytes %d != %d", res.InitialBytes, all)
	}
	if res.Collapses == 0 {
		t.Fatal("no collapses recorded")
	}
	if res.AddedRecompute <= 0 {
		t.Fatal("pruning added no recompute cost — suspicious")
	}
}

func TestPruneToBudgetZero(t *testing.T) {
	// Budget 0: prune everything down to the video roots (nothing cached
	// except free roots).
	plan := planForPruning(t, 2, 1, 3)
	res, err := PrunePlan(plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fits || res.FinalBytes != 0 {
		t.Fatalf("budget 0: fits=%v final=%d", res.Fits, res.FinalBytes)
	}
	// Frontier should be at the roots.
	for name, g := range plan.Graphs {
		for _, n := range g.Frontier() {
			if n.Kind != KindVideo {
				t.Fatalf("video %s: frontier node %v below root at budget 0", name, n.Kind)
			}
		}
	}
}

func TestPruneToBudgetGenerous(t *testing.T) {
	// A budget above the initial footprint requires no pruning.
	plan := planForPruning(t, 1, 1, 4)
	all := plan.TotalCachedBytes()
	res, err := PrunePlan(plan, all+1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collapses != 0 || res.FinalBytes != all || !res.Fits {
		t.Fatalf("generous budget pruned anyway: %+v", res)
	}
	if res.AddedRecompute != 0 {
		t.Fatalf("generous budget added recompute %v", res.AddedRecompute)
	}
}

func TestPruneNegativeBudget(t *testing.T) {
	plan := planForPruning(t, 1, 1, 5)
	if _, err := PrunePlan(plan, -1); err == nil {
		t.Fatal("accepted negative budget")
	}
}

func TestPrunePrefersCheapSubtrees(t *testing.T) {
	// Build a synthetic graph with two parents: one whose subtree is
	// cheap to recompute, one expensive. The pruner must collapse the
	// cheap one first.
	meta := VideoMeta{Name: "v", Frames: 100, W: 10, H: 10, C: 1, GOP: 10}
	g := NewConcreteGraph(meta)
	cheapParent := g.FrameNode(0, 100)
	expParent := g.FrameNode(10, 100)
	cm := DefaultCostModel()
	mk := func(parent *Node, sig string, cost float64) *Node {
		n := &Node{
			Kind: KindAug, Video: "v", FrameIdx: parent.FrameIdx, Sig: sig,
			W: 8, H: 8, C: 1, Parent: parent, EdgeCost: cost, Uses: 1,
		}
		parent.Children = append(parent.Children, n)
		g.nodes++
		return n
	}
	_ = cm
	mk(cheapParent, "cheap1", 1)
	mk(cheapParent, "cheap2", 1)
	mk(expParent, "exp1", 1e9)
	mk(expParent, "exp2", 1e9)
	cheapParent.Uses, expParent.Uses = 2, 2
	g.MarkLeavesCached()
	saved := PruneGraph(g)
	if saved <= 0 {
		t.Fatal("no pruning happened")
	}
	if !cheapParent.Cached {
		t.Fatal("pruner collapsed the expensive subtree first")
	}
	if expParent.Cached {
		t.Fatal("pruner collapsed both subtrees in one step")
	}
	// The two cheap leaves must no longer be cached.
	for _, c := range cheapParent.Children {
		if c.Cached {
			t.Fatal("collapsed child still cached")
		}
	}
}

func TestPruneSkipsUnhelpfulCollapse(t *testing.T) {
	// A parent bigger than its single cached child must not be collapsed.
	meta := VideoMeta{Name: "v", Frames: 10, W: 100, H: 100, C: 3, GOP: 10}
	g := NewConcreteGraph(meta)
	parent := g.FrameNode(0, 100) // 100x100x3 = 30000 bytes
	child := &Node{
		Kind: KindAug, Video: "v", FrameIdx: 0, Sig: "crop",
		W: 8, H: 8, C: 3, Parent: parent, EdgeCost: 5, Uses: 1,
	}
	parent.Children = append(parent.Children, child)
	parent.Uses = 1
	g.nodes++
	g.MarkLeavesCached()
	// The frame parent (30000 bytes) must never be cached in place of its
	// tiny child (192 bytes); the only space-saving collapse is the free
	// root (on-demand fallback).
	saved := PruneGraph(g)
	if saved != 192 {
		t.Fatalf("expected root collapse saving 192 bytes, saved %d", saved)
	}
	if parent.Cached {
		t.Fatal("pruner cached a parent bigger than its cached subtree")
	}
	if !g.Root.Cached || child.Cached {
		t.Fatal("root collapse did not move the frontier to the root")
	}
	if g.CachedBytes() != 0 {
		t.Fatalf("cached bytes %d after root collapse", g.CachedBytes())
	}
}

// Property: for any budget, pruning terminates, never overshoots the
// accounting, and the final cached set fits whenever the budget is
// achievable (>= 0, since roots are free).
func TestQuickPruneAlwaysFits(t *testing.T) {
	plan := planForPruning(t, 2, 2, 6)
	total := plan.TotalCachedBytes()
	f := func(budgetFrac uint8) bool {
		// Rebuild the plan each trial since pruning mutates it.
		p := planForPruning(t, 2, 2, 6)
		budget := total * int64(budgetFrac%100) / 100
		res, err := PrunePlan(p, budget)
		if err != nil {
			return false
		}
		return res.Fits && res.FinalBytes <= budget+0 && res.FinalBytes >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: recompute cost is monotone non-decreasing as the budget
// shrinks (smaller cache => more recompute), the trade-off Figure 17
// measures.
func TestPruneRecomputeMonotone(t *testing.T) {
	total := planForPruning(t, 2, 2, 7).TotalCachedBytes()
	var prev float64 = -1
	for _, frac := range []int64{100, 75, 50, 25, 10, 0} {
		p := planForPruning(t, 2, 2, 7)
		if _, err := PrunePlan(p, total*frac/100); err != nil {
			t.Fatal(err)
		}
		rc := p.TotalRecomputeCost()
		if prev >= 0 && rc < prev-1e-9 {
			t.Fatalf("recompute cost decreased when budget shrank: %v -> %v at %d%%", prev, rc, frac)
		}
		prev = rc
	}
}

func TestPruneDeterministic(t *testing.T) {
	a := planForPruning(t, 2, 2, 8)
	b := planForPruning(t, 2, 2, 8)
	budget := a.TotalCachedBytes() / 2
	ra, err := PrunePlan(a, budget)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := PrunePlan(b, budget)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("pruning nondeterministic: %+v vs %+v", ra, rb)
	}
}

func TestSubtreeWeight(t *testing.T) {
	meta := VideoMeta{Name: "v", Frames: 10, W: 4, H: 4, C: 1, GOP: 5}
	g := NewConcreteGraph(meta)
	f := g.FrameNode(0, 10)
	f.Uses = 3
	a := &Node{Kind: KindAug, FrameIdx: 0, Sig: "a", W: 4, H: 4, C: 1, Parent: f, EdgeCost: 2, Uses: 2}
	b := &Node{Kind: KindAug, FrameIdx: 0, Sig: "a|b", W: 4, H: 4, C: 1, Parent: a, EdgeCost: 3, Uses: 1}
	f.Children = append(f.Children, a)
	a.Children = append(a.Children, b)
	// SubtreeWeight(f) = cost(a)*uses(a) + cost(b)*uses(b) = 4 + 3 = 7.
	if w := f.SubtreeWeight(); w != 7 {
		t.Fatalf("subtree weight = %v, want 7", w)
	}
	if w := b.SubtreeWeight(); w != 0 {
		t.Fatalf("leaf subtree weight = %v, want 0", w)
	}
}
