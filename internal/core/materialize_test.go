package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sand/internal/augment"
	"sand/internal/frame"
	"sand/internal/graph"
)

// TestApplyOpsRangeOwned runs applyOpsRange directly on one frame. With
// owned false the frame stands in for a shared GOP-cache frame, so its
// bytes must come back unchanged, even behind an identity op that passes
// it through; with owned true ops may mutate it in place. Either way the
// result must equal Pipeline.Apply on a copy.
func TestApplyOpsRangeOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	src := frame.New(48, 36, 3)
	rng.Read(src.Pix)
	src.Index, src.PTS = 9, 300
	for _, tc := range []struct {
		name string
		ops  augment.Pipeline
	}{
		{"identity-hflip", augment.Pipeline{&augment.Rotate90{Turns: 0}, &augment.HFlip{Prob: 1}}},
		{"normalize", augment.Pipeline{&augment.Normalize{Mean: 100}}},
		{"crop", augment.Pipeline{&augment.Crop{X: 3, Y: 5, W: 20, H: 12}}},
		{"resize-crop", augment.Pipeline{&augment.Resize{W: 40, H: 30}, &augment.Crop{X: 4, Y: 2, W: 24, H: 20}}},
	} {
		for _, owned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/owned=%v", tc.name, owned), func(t *testing.T) {
				want, err := tc.ops.Apply(&frame.Clip{Frames: []*frame.Frame{src.Clone()}}, nil)
				if err != nil {
					t.Fatal(err)
				}
				chain := &graph.ResolvedChain{}
				for _, op := range tc.ops {
					chain.Ops = append(chain.Ops, graph.ResolvedOp{Sig: op.Signature(), Op: op})
				}
				// No plan leaves: nothing is cached, so the store is never
				// touched and the resize-crop pair fuses.
				sm := &graph.Sample{Video: "v", FrameIndices: []int{src.Index}, Chains: []*graph.ResolvedChain{chain}}
				in := src.Clone()
				got, err := (&Service{}).applyOpsRange(sm, 0, chain, in, owned, 0, len(chain.Ops), src.Index, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !owned && !in.Equal(src) {
					t.Error("applyOpsRange changed a frame it does not own")
				}
				w := want.Frames[0]
				if !got.Equal(w) || got.Index != w.Index || got.PTS != w.PTS {
					t.Errorf("got %dx%d index %d pts %d, want %dx%d index %d pts %d (or pixels differ)",
						got.W, got.H, got.Index, got.PTS, w.W, w.H, w.Index, w.PTS)
				}
			})
		}
	}
}
