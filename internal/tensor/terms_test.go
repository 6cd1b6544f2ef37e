package tensor

import (
	"fmt"
	"math"
	"testing"

	"skipper/internal/parallel"
)

// gradWeightLoop is the reference weight-gradient accumulation: one image
// at a time, in ascending image order, each image's complete inner sum
// added onto dw — the serial loop the terms+fold kernels must reproduce
// bit for bit. The bias gradient is SumPerChannel.
func gradWeightLoop(dw, dbias, dout, x *Tensor, s ConvSpec) {
	xs := x.Shape()
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	oh, ow := s.OutSize(h, w)
	k := s.InChannels * s.KernelH * s.KernelW
	ohw := oh * ow
	col := make([]float32, k*ohw)
	for img := 0; img < n; img++ {
		Im2Col(col, x.Data[img*c*h*w:(img+1)*c*h*w], c, h, w, s)
		dslice := dout.Data[img*s.OutChannels*ohw : (img+1)*s.OutChannels*ohw]
		for co := 0; co < s.OutChannels; co++ {
			drow := dslice[co*ohw : (co+1)*ohw]
			wrow := dw.Data[co*k : (co+1)*k]
			for kk := 0; kk < k; kk++ {
				crow := col[kk*ohw : (kk+1)*ohw]
				var sum float32
				for j := range drow {
					sum += drow[j] * crow[j]
				}
				wrow[kk] += sum
			}
		}
	}
	if dbias != nil {
		SumPerChannel(dbias, dout)
	}
}

func requireBits(t *testing.T, name string, want, got *Tensor) {
	t.Helper()
	for i, v := range want.Data {
		if math.Float32bits(v) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d differs: want %v, got %v", name, i, v, got.Data[i])
		}
	}
}

// TestConvGradTermsFoldMatchesImageLoop shows that per-image terms folded in
// ascending image order equal the serial per-image loop bitwise — whether
// the terms come from one whole-batch call at any pool width, from
// sub-batch calls on parallel.Lane pools writing row views (the sharded
// network step), or from the packed kernel — and that Conv2DGradWeight and
// Conv2DGradWeightPacked, now built on them, do too.
func TestConvGradTermsFoldMatchesImageLoop(t *testing.T) {
	specs := []ConvSpec{
		{InChannels: 3, OutChannels: 5, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1},
		{InChannels: 2, OutChannels: 4, KernelH: 3, KernelW: 3, Stride: 2, Pad: 1},
		{InChannels: 4, OutChannels: 3, KernelH: 1, KernelW: 1, Stride: 2, Pad: 0},
	}
	for si, s := range specs {
		for _, n := range []int{1, 3, 5} {
			h, w := 9, 7
			oh, ow := s.OutSize(h, w)
			x := New(n, s.InChannels, h, w)
			for i := range x.Data {
				if (i*7+si)%3 == 0 {
					x.Data[i] = 1 // binary, so the packed kernels apply too
				}
			}
			xp, _ := PackSpikes(x)
			// Gaussian (not dyadic) values, so float addition rounds and
			// any change of summation order shows in the bits.
			rng := NewRNG(uint64(100*si + n))
			dout := New(n, s.OutChannels, oh, ow)
			rng.FillNorm(dout, 0, 1)
			dw0 := New(s.weightShape()...)
			rng.FillNorm(dw0, 0, 1) // fold onto a running gradient
			db0 := New(s.OutChannels)
			rng.FillNorm(db0, 0, 1)

			wantW, wantB := dw0.Clone(), db0.Clone()
			gradWeightLoop(wantW, wantB, dout, x, s)

			for _, threads := range []int{1, 2, 3, 4} {
				pool := parallel.NewPool(threads)
				label := fmt.Sprintf("spec%d n=%d threads=%d", si, n, threads)

				// Whole batch: terms over the pool, then the fold.
				terms := New(n, s.TermLen(true))
				Conv2DGradTerms(pool, terms, dout, x, s, true, nil)
				gw, gb := dw0.Clone(), db0.Clone()
				FoldConvTerms(pool, gw, gb, terms)
				requireBits(t, "terms+fold weight "+label, wantW, gw)
				requireBits(t, "terms+fold bias "+label, wantB, gb)

				// Sharded: each lane writes its sample range's rows through
				// views on its own inline lane pool.
				sharded := New(n, s.TermLen(true))
				sc := NewScratch()
				sc.Reserve(pool.Lanes())
				pool.Run(n, func(lane, lo, hi int) {
					Conv2DGradTerms(parallel.Lane(lane), sharded.Rows(lo, hi), dout.Rows(lo, hi), x.Rows(lo, hi), s, true, sc)
				})
				requireBits(t, "sharded terms "+label, terms, sharded)

				packed := New(n, s.TermLen(true))
				Conv2DGradTermsPacked(pool, packed, dout, xp, s, true, nil)
				requireBits(t, "packed terms "+label, terms, packed)

				gw, gb = dw0.Clone(), db0.Clone()
				Conv2DGradWeight(pool, gw, gb, dout, x, s, nil)
				requireBits(t, "Conv2DGradWeight weight "+label, wantW, gw)
				requireBits(t, "Conv2DGradWeight bias "+label, wantB, gb)

				gw, gb = dw0.Clone(), db0.Clone()
				Conv2DGradWeightPacked(pool, gw, gb, dout, xp, s, nil)
				requireBits(t, "Conv2DGradWeightPacked weight "+label, wantW, gw)
				requireBits(t, "Conv2DGradWeightPacked bias "+label, wantB, gb)

				// Without bias the terms carry weights only.
				gw = dw0.Clone()
				Conv2DGradWeight(pool, gw, nil, dout, x, s, nil)
				requireBits(t, "Conv2DGradWeight no-bias "+label, wantW, gw)
				pool.Close()
			}
		}
	}
}

func TestRowsView(t *testing.T) {
	x := New(4, 2, 3)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	v := x.Rows(1, 3)
	if got := v.Shape(); len(got) != 3 || got[0] != 2 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Rows shape %v, want [2 2 3]", got)
	}
	if v.Data[0] != 6 || v.Len() != 12 || cap(v.Data) != 12 {
		t.Fatalf("Rows data starts at %v (len %d cap %d), want 6 (12, 12)", v.Data[0], v.Len(), cap(v.Data))
	}
	v.Data[0] = -1
	if x.Data[6] != -1 {
		t.Fatalf("Rows view does not share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Rows(3,5) on 4 rows did not panic")
		}
	}()
	x.Rows(3, 5)
}
