package layers

import (
	"skipper/internal/parallel"
	"skipper/internal/tensor"
)

// Sample sharding. A network step runs as one pool Run over the batch's
// samples: each lane carries a contiguous sample range through the layer
// stack, calling every kernel on an inline lane pool and writing into its
// rows of the step's full-batch record, δ and gradient tensors. With one
// lane (a serial pool, or a single-sample batch) the lane is the whole batch
// and its context is the network's own pool, so the kernels keep their own
// fan-out and the step is exactly the serial one.

// lane is one shard's execution context inside a network step: the pool its
// kernels run on and the sample range [lo,hi) of the b-sample batch it owns.
type lane struct {
	pool      *parallel.Pool
	lo, hi, b int
}

// wholeBatch is the single-shard context: the whole batch on pool p.
func wholeBatch(p *parallel.Pool, b int) lane { return lane{pool: p, hi: b, b: b} }

func (c lane) whole() bool { return c.lo == 0 && c.hi == c.b }

// view returns c's rows of a batch-major tensor (t itself for the whole
// batch; nil for nil).
func (c lane) view(t *tensor.Tensor) *tensor.Tensor {
	if t == nil || c.whole() {
		return t
	}
	return t.Rows(c.lo, c.hi)
}

// state returns c's view of a record. A view carries dense tensors only:
// packed bits cannot be split at a sample boundary, so a sharded step
// expands lazy records before dispatch (see expand).
func (c lane) state(st *LayerState) *LayerState {
	if st == nil || c.whole() {
		return st
	}
	v := &LayerState{U: c.view(st.U), O: c.view(st.O)}
	for _, sub := range st.Sub {
		v.Sub = append(v.Sub, c.state(sub))
	}
	return v
}

// delta returns c's view of a δ record.
func (c lane) delta(d *Delta) *Delta {
	if d == nil || c.whole() {
		return d
	}
	v := &Delta{D: c.view(d.D)}
	for _, sub := range d.Sub {
		v.Sub = append(v.Sub, c.delta(sub))
	}
	return v
}

// sampleLayer is a layer whose step is independent per sample, so the
// network can shard it by sample range. Its public Forward/Backward run these
// parts as a one-layer sharded run (forwardWhole, backwardWhole).
// A layer without it (batch norm, whose statistics couple the batch) ends a
// sharded run: the network runs it whole-batch on the pool in between.
type sampleLayer interface {
	Layer
	// newState allocates the full-batch record for b samples.
	newState(b int) *LayerState
	// forward computes c's samples of the step into st (c's view of the
	// record) from the input x, its packed view xp (nil on the dense path)
	// and the previous record prev.
	forward(c lane, st *LayerState, x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState)
	// backwardData computes c's samples' δ_t into d and ∂L/∂x_t into gradIn
	// (views of full-batch tensors), and writes each sample's parameter-
	// gradient terms, where the layer has any, into that sample's slot. x
	// may be nil when xp is set.
	backwardData(c lane, gradIn *tensor.Tensor, d *Delta, x *tensor.Tensor, xp *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta)
	// accumulate adds the step's full-batch parameter gradients, in
	// ascending sample order, after every lane's backwardData has finished.
	accumulate(p *parallel.Pool, x *tensor.Tensor, xp *tensor.PackedSpikes, st *LayerState, d, deltaIn *Delta)
}

// noParams is embedded by layers without parameters: their backward has no
// parameter part.
type noParams struct{}

func (noParams) accumulate(*parallel.Pool, *tensor.Tensor, *tensor.PackedSpikes, *LayerState, *Delta, *Delta) {
}

// termLayer is a sampleLayer whose backwardData writes per-sample gradient
// terms. reserveTerms sizes them for b samples before any lane writes them;
// backwardData overwrites every term, so the buffer is reused across the
// steps of an iteration and released by the layer's EndIteration.
type termLayer interface {
	reserveTerms(b int)
}

// shards returns how many sample lanes a run over b samples on p uses.
func shards(p *parallel.Pool, b int) int { return min(p.Lanes(), b) }

// shard runs fn over a b-sample batch: one Run on p with a lane per sample
// range, its kernels on lanes[k] (or a fresh parallel.Lane(k) when lanes is
// nil), or — with a single shard — inline over the whole batch with p as
// the kernels' context.
func shard(p *parallel.Pool, lanes []*parallel.Pool, b int, fn func(c lane)) {
	if shards(p, b) <= 1 {
		fn(wholeBatch(p, b))
		return
	}
	p.Run(b, func(k, lo, hi int) {
		lp := parallel.Lane(k)
		if lanes != nil {
			lp = lanes[k]
		}
		fn(lane{pool: lp, lo: lo, hi: hi, b: b})
	})
}

// forwardWhole runs one sample layer over the batch on pool p, sharded by
// sample exactly as a network step runs it.
func forwardWhole(l sampleLayer, p *parallel.Pool, x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) *LayerState {
	b := x.Dim(0)
	if shards(p, b) > 1 {
		expand(prev)
	}
	st := l.newState(b)
	var lane0 *LayerState
	shard(p, nil, b, func(c lane) {
		cx, cxp := c.view(x), xp
		if xp != nil && !c.whole() {
			cxp, _ = tensor.PackSpikes(cx)
		}
		v := c.state(st)
		l.forward(c, v, cx, cxp, c.state(prev))
		if c.lo == 0 {
			lane0 = v
		}
	})
	packLike(st, lane0)
	return st
}

// backwardWhole runs one sample layer's backward over the batch on pool p,
// sharded by sample as a network step runs it: the data part in the lanes,
// then the parameter part. x may be nil when xp is set.
func backwardWhole(l sampleLayer, p *parallel.Pool, x *tensor.Tensor, xp *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	b := gradOut.Dim(0)
	gradIn := tensor.New(inputShape(x, xp)...)
	d := newDelta(l, st)
	if tl, ok := l.(termLayer); ok {
		tl.reserveTerms(b)
	}
	acc := p
	if shards(p, b) > 1 {
		expand(st)
		if x == nil {
			x = xp.Unpack() // lanes take dense row views
		}
		acc = nil // as in Network.BackwardStep
	}
	shard(p, nil, b, func(c lane) {
		cxp := xp
		if !c.whole() {
			cxp = nil
		}
		l.backwardData(c, c.view(gradIn), c.delta(d), c.view(x), cxp, c.state(st), c.view(gradOut), c.delta(deltaIn))
	})
	l.accumulate(acc, x, xp, st, d, deltaIn)
	return gradIn, d
}

// inputShape is the shape of an input given dense (x) or, when x is nil,
// packed (xp).
func inputShape(x *tensor.Tensor, xp *tensor.PackedSpikes) []int {
	if x != nil {
		return x.Shape()
	}
	return xp.Shape()
}

// newRecord allocates a full-batch record of per-sample shape: O always,
// U when withU.
func newRecord(b int, shape []int, withU bool) *LayerState {
	dims := append([]int{b}, shape...)
	st := &LayerState{O: tensor.New(dims...)}
	if withU {
		st.U = tensor.New(dims...)
	}
	return st
}

// newDelta allocates the δ record matching a stateful layer's record: one
// membrane-shaped δ per LIF stage. Stateless layers carry none.
func newDelta(l Layer, st *LayerState) *Delta {
	if !l.Stateful() {
		return nil
	}
	return deltaLike(st)
}

func deltaLike(st *LayerState) *Delta {
	d := &Delta{D: tensor.New(st.U.Shape()...)}
	for _, sub := range st.Sub {
		d.Sub = append(d.Sub, deltaLike(sub))
	}
	return d
}

// next returns the δ_{t+1} membrane tensor carried in d (nil at the last
// computed timestep).
func (d *Delta) next() *tensor.Tensor {
	if d == nil {
		return nil
	}
	return d.D
}

// growTerms returns a [b, n] terms matrix, reusing t's storage when it is
// large enough.
func growTerms(t *tensor.Tensor, b, n int) *tensor.Tensor {
	if t != nil && cap(t.Data) >= b*n {
		if t.Dim(0) == b && t.Dim(1) == n {
			return t
		}
		return tensor.FromSlice(t.Data[:b*n], b, n)
	}
	return tensor.New(b, n)
}

// convTerms writes c's samples' per-image gradient terms of one convolution
// into their rows of terms, from the packed input when there is one.
func convTerms(c lane, terms, delta, x *tensor.Tensor, xp *tensor.PackedSpikes, s tensor.ConvSpec, bias bool, sc *tensor.Scratch) {
	if xp != nil {
		tensor.Conv2DGradTermsPacked(c.pool, c.view(terms), delta, xp, s, bias, sc)
		return
	}
	tensor.Conv2DGradTerms(c.pool, c.view(terms), delta, x, s, bias, sc)
}

// expand materialises the dense spikes of a lazy record and its sub-states,
// so that lanes can take row views of them without racing on DenseO.
func expand(st *LayerState) {
	if st == nil {
		return
	}
	st.DenseO()
	for _, sub := range st.Sub {
		expand(sub)
	}
}

// packLike gives a full-batch record the packed spike views its lanes'
// views carried (lanes pack only their own rows).
func packLike(full, view *LayerState) {
	if view.OPacked != nil && full.OPacked == nil {
		full.OPacked, _ = tensor.PackSpikes(full.O)
	}
	for i, sub := range full.Sub {
		packLike(sub, view.Sub[i])
	}
}

// reserveLanes sizes a layer scratch for every lane of pool p, so kernels
// called inside the lanes of a sharded step (on parallel.Lane pools) find
// their slot already allocated.
func reserveLanes(sc *tensor.Scratch, p *parallel.Pool) {
	if sc != nil {
		sc.Reserve(p.Lanes())
	}
}
