package augment

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sand/internal/frame"
)

// The reference below is the per-pixel bilinear kernel the separable
// resizeWindow replaced, kept as the oracle: four loads, two horizontal
// blends and one vertical blend per output pixel, in 64-bit ints.

type refBilinearMap struct {
	w, h       int
	x0, x1, xf []int32
	y0, y1, yf []int32
}

func refBilinearAxis(srcN, dstN int) (i0, i1, fr []int32) {
	const fpShift = 16
	const fpOne = 1 << fpShift
	step := (srcN << fpShift) / dstN
	i0 = make([]int32, dstN)
	i1 = make([]int32, dstN)
	fr = make([]int32, dstN)
	for x := 0; x < dstN; x++ {
		sFP := x*step + step/2 - fpOne/2
		if sFP < 0 {
			sFP = 0
		}
		s := sFP >> fpShift
		f := sFP & (fpOne - 1)
		s1 := s + 1
		if s1 >= srcN {
			s1 = srcN - 1
		}
		i0[x], i1[x], fr[x] = int32(s), int32(s1), int32(f)
	}
	return
}

func newRefBilinearMap(srcW, srcH, w, h int) *refBilinearMap {
	m := &refBilinearMap{w: w, h: h}
	m.x0, m.x1, m.xf = refBilinearAxis(srcW, w)
	m.y0, m.y1, m.yf = refBilinearAxis(srcH, h)
	return m
}

func refResizeBilinear(f *frame.Frame, m *refBilinearMap) *frame.Frame {
	const fpShift = 16
	w, h := m.w, m.h
	out := frame.NewPooled(w, h, f.C)
	for c := 0; c < f.C; c++ {
		src := f.Plane(c)
		dst := out.Plane(c)
		for y := 0; y < h; y++ {
			rowT := src[int(m.y0[y])*f.W : int(m.y0[y])*f.W+f.W]
			rowB := src[int(m.y1[y])*f.W : int(m.y1[y])*f.W+f.W]
			fy := int(m.yf[y])
			orow := dst[y*w : (y+1)*w]
			for x := 0; x < w; x++ {
				sx, sx1, fx := int(m.x0[x]), int(m.x1[x]), int(m.xf[x])
				p00 := int(rowT[sx])
				p01 := int(rowT[sx1])
				p10 := int(rowB[sx])
				p11 := int(rowB[sx1])
				top := p00<<fpShift + (p01-p00)*fx
				bot := p10<<fpShift + (p11-p10)*fx
				// Convex combination of samples in [0,255] with weights in
				// [0,1): the result cannot leave [0,255], so no clamp.
				orow[x] = byte((top<<fpShift + (bot-top)*fy) >> (2 * fpShift))
			}
		}
	}
	return out
}

// resizeWindowMatches resizes a random srcW x srcH x c frame to w x h,
// the window (wx, wy, ww, wh) of it through ResizeCrop and the whole
// frame through Resize.Apply, and reports an error unless both match
// the reference kernel's output (cropped, for the window) byte for
// byte, Index and PTS included. The window runs first, so a row buffer
// sized by an earlier full resize cannot hide a window that reads past
// its own rows.
func resizeWindowMatches(seed int64, srcW, srcH, c, w, h, wx, wy, ww, wh int) error {
	src := frame.New(srcW, srcH, c)
	rand.New(rand.NewSource(seed)).Read(src.Pix)
	src.Index, src.PTS = 7, 11
	clip, err := frame.NewClip([]*frame.Frame{src})
	if err != nil {
		return err
	}
	want := refResizeBilinear(src, newRefBilinearMap(srcW, srcH, w, h))
	wantWin, err := want.SubRect(wx, wy, ww, wh)
	if err != nil {
		return err
	}
	rz := &Resize{W: w, H: h}
	win, ok := ResizeCrop(rz, &Crop{X: wx, Y: wy, W: ww, H: wh}, clip, nil)
	if !ok {
		return fmt.Errorf("window (%d,%d,%d,%d) of %dx%d did not fuse", wx, wy, ww, wh, w, h)
	}
	g := win.Frames[0]
	if g.W != ww || g.H != wh || string(g.Pix) != string(wantWin.Pix) {
		return fmt.Errorf("%dx%dx%d -> %dx%d window (%d,%d,%d,%d) differs from the reference",
			srcW, srcH, c, w, h, wx, wy, ww, wh)
	}
	if g.Index != src.Index || g.PTS != src.PTS {
		return fmt.Errorf("window frame Index/PTS %d/%d, want %d/%d", g.Index, g.PTS, src.Index, src.PTS)
	}
	full, err := rz.Apply(clip, nil)
	if err != nil {
		return err
	}
	if g := full.Frames[0]; g.W != w || g.H != h || string(g.Pix) != string(want.Pix) {
		return fmt.Errorf("%dx%dx%d -> %dx%d: full resize differs from the reference", srcW, srcH, c, w, h)
	}
	return nil
}

// FuzzResizeWindow holds the separable kernel to the per-pixel reference
// over random geometry: sources 1-200 px per side with 1-4 channels,
// targets 1-256 px per side (upscale and downscale, often on different
// axes at once) and any window inside the target.
func FuzzResizeWindow(f *testing.F) {
	type seed struct {
		srcW, srcH, c, w, h, wx, wy, ww, wh uint16
	}
	for _, s := range []seed{
		{192, 108, 3, 128, 128, 8, 8, 112, 112}, // the bench corpus
		{192, 108, 3, 128, 128, 0, 0, 128, 128},
		{1, 48, 3, 64, 64, 5, 9, 48, 40},   // one pixel wide
		{48, 1, 1, 16, 200, 0, 3, 16, 100}, // one pixel tall, upscaled
		{200, 200, 4, 7, 9, 6, 8, 1, 1},    // heavy downscale, one pixel out
		{1, 1, 2, 1, 1, 0, 0, 1, 1},
	} {
		// Sizes are stored one less than meant: the body adds one back.
		f.Add(s.srcW-1, s.srcH-1, s.c-1, s.w-1, s.h-1, s.wx, s.wy, s.ww-1, s.wh-1, int64(s.srcW)*31+int64(s.h))
	}
	f.Fuzz(func(t *testing.T, srcW, srcH, c, w, h, wx, wy, ww, wh uint16, seed int64) {
		sw, sh, ch := 1+int(srcW)%200, 1+int(srcH)%200, 1+int(c)%4
		dw, dh := 1+int(w)%256, 1+int(h)%256
		x, y := int(wx)%dw, int(wy)%dh
		if err := resizeWindowMatches(seed, sw, sh, ch, dw, dh, x, y, 1+int(ww)%(dw-x), 1+int(wh)%(dh-y)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestResizeWindowConcurrent runs the kernel from several goroutines at
// once over a few geometries, so the shared tap tables and row scratch
// are reached concurrently (run under -race); every result must still
// match the reference.
func TestResizeWindowConcurrent(t *testing.T) {
	geoms := [][9]int{
		{192, 108, 3, 128, 128, 8, 8, 112, 112},
		{96, 80, 3, 64, 64, 5, 9, 48, 40},
		{48, 48, 1, 160, 120, 37, 1, 100, 119},
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := geoms[(g+i)%len(geoms)]
				if err := resizeWindowMatches(int64(g*100+i), k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
