package core

// Overlap-aware computation reuse (DESIGN.md §9). The concrete-graph
// merge unifies chains whose op prefixes are *identical*; this layer
// exploits chains that are merely *similar*: views whose crop windows
// overlap share everything up to the crop, so the engine materializes
// the prefix once, slices one bounding-superset region per source
// frame, and serves each view's crop as a sub-slice. Crop-of-crop
// composition makes the rewrite exact — byte-identical to the naive
// reference materializer in oracle_test.go — which is why it has no off
// switch.
//
// Plans are *batch-scoped*: the planner groups chains across every
// sample of an iteration, not just within one sample, so two samples of
// the same batch that crop the same source region share one superset
// materialization through the decoded-GOP cache's derived store.
// Cross-sample groups are what the per-sample planner could never see —
// a single-chain sample has nothing to pair with on its own, but four
// single-chain samples of one video usually do.

import (
	"fmt"

	"sand/internal/augment"
	"sand/internal/dataset"
	"sand/internal/frame"
	"sand/internal/graph"
)

// cropRect is a crop window in the coordinate space of the frame feeding
// the crop stage.
type cropRect struct{ x, y, w, h int }

// overlaps reports strict pixel overlap: windows sharing only an edge or
// a corner have no common pixels and gain nothing from a superset.
func (r cropRect) overlaps(o cropRect) bool {
	return r.x < o.x+o.w && o.x < r.x+r.w && r.y < o.y+o.h && o.y < r.y+r.h
}

// union returns the bounding box of two windows.
func (r cropRect) union(o cropRect) cropRect {
	x0, y0 := r.x, r.y
	if o.x < x0 {
		x0 = o.x
	}
	if o.y < y0 {
		y0 = o.y
	}
	x1, y1 := r.x+r.w, r.y+r.h
	if o.x+o.w > x1 {
		x1 = o.x + o.w
	}
	if o.y+o.h > y1 {
		y1 = o.y + o.h
	}
	return cropRect{x0, y0, x1 - x0, y1 - y0}
}

// memberKey addresses one chain of one sample within a batch plan.
type memberKey struct{ si, ci int }

// reuseGroup ties together the chains — across all samples of a batch —
// that read the same video, share an identical op prefix, and whose crop
// windows at that depth overlap. All members read the same intermediate
// frame at depth `depth`, so one superset crop of it serves every
// member.
type reuseGroup struct {
	depth     int                    // op index of the crop stage in every member
	prefixSig string                 // cumulative signature of ops[:depth]
	sup       cropRect               // bounding superset of the member windows
	members   map[memberKey]cropRect // (sample, chain) -> that chain's window
	xsample   bool                   // members span more than one sample
}

// derivedKey names the superset frame for source frame idx in the
// decoded-GOP cache's derived store. The signature prefix and window
// pin the exact computation, so distinct groups never collide — and
// groups from different batches that resolve to the same prefix and
// union window share the same derived frames for free.
func (g *reuseGroup) derivedKey(idx int) string {
	return fmt.Sprintf("f%d|%s|%d.%d.%d.%d", idx, g.prefixSig, g.sup.x, g.sup.y, g.sup.w, g.sup.h)
}

// reusePlan maps a batch's (sample, chain) pairs to their reuse groups.
// A nil plan (or an unlisted member) means the baseline path.
type reusePlan struct {
	byMember map[memberKey]*reuseGroup
}

func (p *reusePlan) groupFor(si, ci int) *reuseGroup {
	if p == nil {
		return nil
	}
	return p.byMember[memberKey{si, ci}]
}

// buildBatchReusePlan inspects a batch's resolved chains — across every
// sample — for superset opportunities. For each chain it walks the op
// list tracking frame geometry, takes the first crop stage that exposes
// a concrete window (augment.RegionOp), and groups chains by (video,
// depth, prefix signature) — same video and prefix means the same input
// pixels at the crop, because resolved ops are deterministic. Within a
// group, connected components under strict overlap of two or more
// windows become reuse groups. Everything else falls through to the
// baseline, so disjoint windows cost nothing. Passing a single sample
// yields the per-sample plan (groups then never cross samples).
//
// The plan is deterministic regardless of map iteration order: group
// membership is a connected component (order-independent) and the
// superset is a bounding box (an order-independent fold).
func (s *Service) buildBatchReusePlan(samples []*graph.Sample) *reusePlan {
	if len(samples) == 0 {
		return nil
	}
	type cand struct {
		si, ci, depth int
		sig           string
		rect          cropRect
	}
	// Candidates keyed by video|depth|prefix; entries resolved at most
	// once per video.
	byPrefix := map[string][]cand{}
	ds := s.snapshot()
	ents := map[string]*dataset.Entry{}
	total := 0
	for si, sm := range samples {
		ent, ok := ents[sm.Video]
		if !ok {
			if e, found := ds.Find(sm.Video); found {
				ent = e
			}
			ents[sm.Video] = ent
		}
		if ent == nil || ent.Video == nil {
			continue
		}
		for ci, chain := range sm.Chains {
			w, h, c := ent.Video.W, ent.Video.H, ent.Video.C
			for d, rop := range chain.Ops {
				if reg, ok := rop.Op.(augment.RegionOp); ok {
					if x, y, rw, rh, concrete := reg.Region(w, h); concrete {
						sig := cumulativeSig(chain.Ops, d)
						k := fmt.Sprintf("%s|%d|%s", sm.Video, d, sig)
						byPrefix[k] = append(byPrefix[k], cand{si, ci, d, sig, cropRect{x, y, rw, rh}})
						total++
						break // the first concrete crop anchors this chain
					}
				}
				w, h, c = graph.OpOutputGeometry(rop.Op, w, h, c)
			}
		}
	}
	if total < 2 {
		return nil
	}
	plan := &reusePlan{byMember: map[memberKey]*reuseGroup{}}
	for _, peers := range byPrefix {
		if len(peers) < 2 {
			continue
		}
		// Connected components under pairwise overlap: windows linked
		// through an intermediate window share transitively through the
		// component's bounding box.
		visited := make([]bool, len(peers))
		for i := range peers {
			if visited[i] {
				continue
			}
			comp := []int{i}
			visited[i] = true
			for q := 0; q < len(comp); q++ {
				for j := range peers {
					if !visited[j] && peers[j].rect.overlaps(peers[comp[q]].rect) {
						visited[j] = true
						comp = append(comp, j)
					}
				}
			}
			if len(comp) < 2 {
				continue
			}
			g := &reuseGroup{
				depth:     peers[i].depth,
				prefixSig: peers[i].sig,
				sup:       peers[comp[0]].rect,
				members:   map[memberKey]cropRect{},
			}
			for _, j := range comp {
				g.sup = g.sup.union(peers[j].rect)
				mk := memberKey{peers[j].si, peers[j].ci}
				g.members[mk] = peers[j].rect
				plan.byMember[mk] = g
				if peers[j].si != peers[comp[0]].si {
					g.xsample = true
				}
			}
			if g.xsample {
				s.xsampleGroups.Add(1)
			}
		}
	}
	if len(plan.byMember) == 0 {
		return nil
	}
	return plan
}

// supersetView materializes member (si, ci)'s crop for source frame idx
// through the group's shared superset: a chain that finds no superset
// for the (frame, group) pair computes the prefix, slices the bounding
// region, and publishes it in the decoded-GOP cache's derived store;
// every later chain — including sibling samples of the batch — slices
// its window out of the published frame. The returned frame is a fresh copy,
// already advanced past the crop stage (depth group.depth+1).
func (s *Service) supersetView(sm *graph.Sample, si, ci int, chain *graph.ResolvedChain,
	grp *reuseGroup, ent *dataset.Entry, lease *gopLease, idx int, deadline int64) (*frame.Frame, error) {

	e, err := lease.entryFor(ent, idx)
	if err != nil {
		return nil, err
	}
	dk := grp.derivedKey(idx)
	sup := s.gops.derivedFrame(e, dk)
	if sup != nil {
		s.supersetHits.Add(1)
		if grp.xsample {
			s.xsampleHits.Add(1)
		}
	} else {
		s.supersetMisses.Add(1)
		fresh, err := s.computeSuperset(sm, ci, chain, grp, ent, lease, idx, deadline)
		if err != nil {
			return nil, err
		}
		// The canonical frame lives in the cache and is shared read-only.
		// If another chain published it meanwhile, that frame wins; every
		// computation of one descriptor yields the same bytes.
		sup = s.gops.publishDerived(e, dk, fresh)
	}
	rect := grp.members[memberKey{si, ci}]
	view, err := sup.SubRect(rect.x-grp.sup.x, rect.y-grp.sup.y, rect.w, rect.h)
	if err != nil {
		return nil, fmt.Errorf("core: view window %v in superset %v: %w", rect, grp.sup, err)
	}
	return view, nil
}

// computeSuperset runs the group's shared op prefix on the decoded
// source frame and slices the bounding superset region. When the prefix
// ends in a bilinear resize whose output the plan does not cache, only
// the superset window of that resize is computed (augment.ResizeCrop).
// The result is a fresh frame.
func (s *Service) computeSuperset(sm *graph.Sample, ci int, chain *graph.ResolvedChain,
	grp *reuseGroup, ent *dataset.Entry, lease *gopLease, idx int, deadline int64) (*frame.Frame, error) {

	src, err := lease.frame(ent, idx)
	if err != nil {
		return nil, fmt.Errorf("core: decode %s: %w", sm.Video, err)
	}
	// The op feeding the crop stage; a cached output must be computed
	// (and stored) whole.
	last := grp.depth - 1
	fuse := last >= 0 && !cachedAt(findLeaf(sm, ci, idx), len(chain.Ops), grp.depth)
	until := grp.depth
	if fuse {
		until = last
	}
	cur, err := s.applyOpsRange(sm, ci, chain, src, 0, until, idx, deadline)
	if err != nil {
		return nil, err
	}
	if fuse {
		sup := &augment.Crop{X: grp.sup.x, Y: grp.sup.y, W: grp.sup.w, H: grp.sup.h}
		res, ok := augment.ResizeCrop(chain.Ops[last].Op, sup, &frame.Clip{Frames: []*frame.Frame{cur}}, nil)
		if ok {
			return res.Frames[0], nil
		}
		// Not a bilinear resize, or the window does not fit: run the last
		// prefix op whole, as below.
		if cur, err = s.applyOpsRange(sm, ci, chain, cur, last, grp.depth, idx, deadline); err != nil {
			return nil, err
		}
	}
	fresh, err := cur.SubRect(grp.sup.x, grp.sup.y, grp.sup.w, grp.sup.h)
	if err != nil {
		return nil, fmt.Errorf("core: superset window %v on %s frame %d: %w", grp.sup, sm.Video, idx, err)
	}
	return fresh, nil
}
