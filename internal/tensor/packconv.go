package tensor

import (
	"fmt"
	"math/bits"

	"skipper/internal/parallel"
)

// Packed im2col convolution. The spike input stays in its bit-packed form:
// Im2ColPacked lowers one image into a bit-packed column matrix (one bit
// per column element, rows padded to word boundaries), and the matmul
// against the float weights walks only the set bits of each column row —
// skipping all-zero 64-pixel words outright. Per output element the float
// terms visited are the ascending-order nonzero subsequence of the dense
// im2col matmul, so results are bit-identical to Conv2D / Conv2DGradWeight
// on the unpacked input (spike values are exactly 0/1; see packops.go).

// colWords returns the 64-bit words per packed column row for a spatial
// output of ohw pixels.
func colWords(ohw int) int { return (ohw + 63) / 64 }

// Im2ColPacked lowers image img of the packed input x [N,C,H,W] into the
// bit-packed column matrix col: k = C·KH·KW rows of colWords(OH·OW) words
// each, fully overwritten. Padding regions are zero bits, exactly like the
// zeros dense Im2Col writes.
func Im2ColPacked(col []uint64, x *PackedSpikes, img, c, h, w int, s ConvSpec) {
	oh, ow := s.OutSize(h, w)
	wpr := colWords(oh * ow)
	for i := range col {
		col[i] = 0
	}
	imgBase := img * c * h * w
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := imgBase + ch*h*w
		for kh := 0; kh < s.KernelH; kh++ {
			for kw := 0; kw < s.KernelW; kw++ {
				dst := col[row*wpr : (row+1)*wpr]
				row++
				j := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.Stride + kh - s.Pad
					if iy < 0 || iy >= h {
						j += ow
						continue
					}
					rowBase := chBase + iy*w
					ix := kw - s.Pad
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w && x.Bit(rowBase+ix) {
							dst[j>>6] |= 1 << uint(j&63)
						}
						j++
						ix += s.Stride
					}
				}
			}
		}
	}
}

// checkPackedConvShapes validates the packed input against the spec and the
// float operands (out/dout and weight shapes are checked by the dense
// helper's logic, replicated here for the packed x).
func checkPackedConvShapes(op string, x *PackedSpikes, s ConvSpec) (n, c, h, w int) {
	xs := x.Shape()
	if len(xs) != 4 {
		panic(fmt.Sprintf("tensor: %s packed input shape %v, want [N,C,H,W]", op, xs))
	}
	n, c, h, w = xs[0], xs[1], xs[2], xs[3]
	if c != s.InChannels {
		panic(fmt.Sprintf("tensor: %s input channels %d, spec wants %d", op, c, s.InChannels))
	}
	return n, c, h, w
}

// Conv2DPacked computes out = conv(x, weight) + bias for a packed spike
// input x [N,Cin,H,W] — the packed twin of Conv2D. The batch dimension
// partitions across pool lanes, each with a private packed column from sc
// (nil sc allocates a throwaway workspace); results are bit-identical to
// Conv2D on the unpacked input at every pool width.
func Conv2DPacked(p *parallel.Pool, out *Tensor, x *PackedSpikes, weight, bias *Tensor, s ConvSpec, sc *Scratch) {
	n, c, h, w := checkPackedConvShapes("Conv2DPacked", x, s)
	oh, ow := s.OutSize(h, w)
	os := out.Shape()
	if len(os) != 4 || os[0] != n || os[1] != s.OutChannels || os[2] != oh || os[3] != ow {
		panic(fmt.Sprintf("tensor: Conv2DPacked output shape %v, want [%d %d %d %d]", os, n, s.OutChannels, oh, ow))
	}
	k := s.InChannels * s.KernelH * s.KernelW
	ohw := oh * ow
	wpr := colWords(ohw)
	if sc == nil {
		sc = NewScratch()
	}
	sc.Reserve(p.Lanes())
	wMat := weight.Data // [Cout, k] row-major view
	p.Run(n, func(lane, lo, hi int) {
		col := sc.laneWords(lane, k*wpr)
		scanned, skipped := 0, 0
		for img := lo; img < hi; img++ {
			Im2ColPacked(col, x, img, c, h, w, s)
			dst := out.Data[img*s.OutChannels*ohw : (img+1)*s.OutChannels*ohw]
			for i := range dst {
				dst[i] = 0
			}
			for co := 0; co < s.OutChannels; co++ {
				wrow := wMat[co*k : (co+1)*k]
				drow := dst[co*ohw : (co+1)*ohw]
				for kk := 0; kk < k; kk++ {
					wv := wrow[kk]
					if wv == 0 {
						// The dense kernel skips zero weights too, so the
						// occupancy counters must not see these rows.
						continue
					}
					crow := col[kk*wpr : (kk+1)*wpr]
					scanned += wpr
					for wi, cw := range crow {
						if cw == 0 {
							skipped++
							continue
						}
						base := wi << 6
						for cw != 0 {
							drow[base+bits.TrailingZeros64(cw)] += wv
							cw &= cw - 1
						}
					}
				}
			}
		}
		addPackStats(scanned, skipped)
	})
	if bias != nil {
		AddBias(out, bias)
	}
}

// Conv2DGradTermsPacked is Conv2DGradTerms with the forward input x in
// packed form: each image's terms are gathered from the set bits of its
// packed im2col column, in ascending order — the bit-identical nonzero
// subsequence of the dense dot products.
func Conv2DGradTermsPacked(p *parallel.Pool, terms, dout *Tensor, x *PackedSpikes, s ConvSpec, bias bool, sc *Scratch) {
	n, c, h, w := checkPackedConvShapes("Conv2DGradTermsPacked", x, s)
	oh, ow := s.OutSize(h, w)
	ds := dout.Shape()
	if len(ds) != 4 || ds[0] != n || ds[1] != s.OutChannels || ds[2] != oh || ds[3] != ow {
		panic(fmt.Sprintf("tensor: Conv2DGradTermsPacked dout shape %v, want [%d %d %d %d]", ds, n, s.OutChannels, oh, ow))
	}
	checkTerms("Conv2DGradTermsPacked", terms, n, s.TermLen(bias))
	k := s.InChannels * s.KernelH * s.KernelW
	ohw := oh * ow
	wpr := colWords(ohw)
	if sc == nil {
		sc = NewScratch()
	}
	sc.Reserve(p.Lanes())
	p.Run(n, func(lane, lo, hi int) {
		col := sc.laneWords(lane, k*wpr)
		scanned, skipped := 0, 0
		for img := lo; img < hi; img++ {
			Im2ColPacked(col, x, img, c, h, w, s)
			dslice := dout.Data[img*s.OutChannels*ohw : (img+1)*s.OutChannels*ohw]
			row := terms.Data[img*terms.shape[1] : (img+1)*terms.shape[1]]
			// terms[img][co,kk] = Σ_{j∈spikes(col row kk)} dout[co,j]
			for co := 0; co < s.OutChannels; co++ {
				drow := dslice[co*ohw : (co+1)*ohw]
				wrow := row[co*k : (co+1)*k]
				for kk := 0; kk < k; kk++ {
					crow := col[kk*wpr : (kk+1)*wpr]
					scanned += wpr
					var sum float32
					for wi, cw := range crow {
						if cw == 0 {
							skipped++
							continue
						}
						base := wi << 6
						for cw != 0 {
							sum += drow[base+bits.TrailingZeros64(cw)]
							cw &= cw - 1
						}
					}
					wrow[kk] = sum
				}
			}
			if bias {
				biasTerms(row[s.OutChannels*k:], dslice, ohw)
			}
		}
		addPackStats(scanned, skipped)
	})
}

// Conv2DGradWeightPacked accumulates dW += convBackwardWeight(dout, x) and,
// when dbias is non-nil, dbias += per-channel sums of dout, with the
// forward input x in packed form — the packed twin of Conv2DGradWeight:
// per-image terms over lanes, then the ascending-image fold.
func Conv2DGradWeightPacked(p *parallel.Pool, dw, dbias, dout *Tensor, x *PackedSpikes, s ConvSpec, sc *Scratch) {
	terms := New(x.Shape()[0], s.TermLen(dbias != nil))
	Conv2DGradTermsPacked(p, terms, dout, x, s, dbias != nil, sc)
	FoldConvTerms(p, dw, dbias, terms)
}
