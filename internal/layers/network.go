package layers

import (
	"fmt"
	"sync"

	"skipper/internal/parallel"
	"skipper/internal/tensor"
)

// Network is a feed-forward stack of layers unrolled in time by the training
// engine. It provides the single-timestep forward and backward primitives
// that every training strategy (BPTT, checkpointing, Skipper, TBPTT,
// TBPTT-LBP) composes.
type Network struct {
	Name    string
	InShape []int // per-sample input shape [C,H,W]
	Layers  []Layer

	outShape  []int
	built     bool
	pool      *parallel.Pool
	spikePack bool
	// sample[i] is layer i's per-sample step, nil for a layer that couples
	// samples (see sampleLayer).
	sample []sampleLayer
	// lanes[k] is the inline pool lane k of a sharded step runs its kernels
	// on.
	lanes []*parallel.Pool
}

// PoolAware is implemented by layers whose kernels run on the parallel
// compute pool. Network.SetPool fans the pool out to them; a layer never
// owning a pool (nil) runs its kernels serially, which is always
// bit-identical to any pool size.
type PoolAware interface {
	SetPool(*parallel.Pool)
}

// SetPool hands every pool-aware layer the shared compute pool, and makes
// it the pool each timestep's sample shards run on. Call once after Build
// (and again after a pool change); a nil pool reverts the network to serial
// steps. Results are bit-identical either way.
func (n *Network) SetPool(p *parallel.Pool) {
	n.pool = p
	n.lanes = make([]*parallel.Pool, p.Lanes())
	for k := range n.lanes {
		n.lanes[k] = parallel.Lane(k)
	}
	for _, l := range n.Layers {
		if pa, ok := l.(PoolAware); ok {
			pa.SetPool(p)
		}
	}
}

// Pool returns the compute pool the network's layers run on (nil = serial).
func (n *Network) Pool() *parallel.Pool { return n.pool }

// SetSpikePack turns bit-packed spike compute on or off for the whole stack,
// fanning the flag out to every SpikePackAware layer (mirroring SetPool).
// With it on, spiking layers publish packed activation views and the
// forward/backward steps route through the AND+popcount gather kernels —
// bit-identical to the dense float path at any pool width.
func (n *Network) SetSpikePack(on bool) {
	n.spikePack = on
	for _, l := range n.Layers {
		if sa, ok := l.(SpikePackAware); ok {
			sa.SetSpikePack(on)
		}
	}
}

// SpikePack reports whether bit-packed spike compute is on.
func (n *Network) SpikePack() bool { return n.spikePack }

// NewNetwork assembles an unbuilt network from layers.
func NewNetwork(name string, inShape []int, ls ...Layer) *Network {
	return &Network{Name: name, InShape: append([]int(nil), inShape...), Layers: ls}
}

// Build wires up all layer shapes and initialises parameters from rng.
func (n *Network) Build(rng *tensor.RNG) error {
	shape := n.InShape
	for i, l := range n.Layers {
		out, err := l.Build(shape, rng.Derive(uint64(i)))
		if err != nil {
			return fmt.Errorf("layers: building %s layer %d (%s): %w", n.Name, i, l.Name(), err)
		}
		shape = out
	}
	n.outShape = shape
	n.sample = make([]sampleLayer, len(n.Layers))
	for i, l := range n.Layers {
		n.sample[i], _ = l.(sampleLayer)
	}
	n.built = true
	return nil
}

// OutShape returns the per-sample output shape (typically [classes]).
func (n *Network) OutShape() []int {
	n.mustBuilt()
	return n.outShape
}

func (n *Network) mustBuilt() {
	if !n.built {
		panic("layers: network used before Build")
	}
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []Param {
	var ps []Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		c += p.W.Len()
	}
	return c
}

// ParamBytes returns the weight footprint in bytes.
func (n *Network) ParamBytes() int64 {
	var b int64
	for _, p := range n.Params() {
		b += p.W.Bytes()
	}
	return b
}

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.G.Zero()
	}
}

// BufferedLayer is implemented by layers holding persistent non-trainable
// buffers (batch-norm running statistics) that are not part of Params but
// must survive a checkpoint/resume cycle.
type BufferedLayer interface {
	// Buffers returns the live buffers (aliased, not copied).
	Buffers() []tensor.Named
}

// Buffers returns all persistent non-trainable tensors in layer order.
func (n *Network) Buffers() []tensor.Named {
	var bs []tensor.Named
	for _, l := range n.Layers {
		if bl, ok := l.(BufferedLayer); ok {
			bs = append(bs, bl.Buffers()...)
		}
	}
	return bs
}

// StatefulCount returns L_n: the number of membrane-carrying layers
// (residual blocks count their two LIF stages). This is the L_n in the
// paper's T/C > L_n constraint and Eq. 7.
func (n *Network) StatefulCount() int {
	c := 0
	for _, l := range n.Layers {
		if !l.Stateful() {
			continue
		}
		if rb, ok := l.(*ResidualBlock); ok {
			_ = rb
			c += 2
			continue
		}
		c++
	}
	return c
}

// BeginIteration re-samples per-iteration randomness (dropout masks).
func (n *Network) BeginIteration(rng *tensor.RNG) {
	for i, l := range n.Layers {
		if il, ok := l.(IterationLayer); ok {
			il.BeginIteration(rng.Derive(uint64(i)))
		}
	}
}

// EndIteration switches per-iteration layers back to evaluation behaviour
// and releases the buffers they reused across the iteration's steps.
func (n *Network) EndIteration() {
	for _, l := range n.Layers {
		if e, ok := l.(interface{ EndIteration() }); ok {
			e.EndIteration()
		}
	}
}

// BeginRecompute marks the start of a checkpoint replay: layers with
// first-pass-only side effects (batch-norm running statistics) freeze them.
func (n *Network) BeginRecompute() { n.setRecompute(true) }

// EndRecompute marks the end of a checkpoint replay.
func (n *Network) EndRecompute() { n.setRecompute(false) }

func (n *Network) setRecompute(on bool) {
	for _, l := range n.Layers {
		if r, ok := l.(RecomputeAware); ok {
			r.SetRecompute(on)
		}
	}
}

// ForwardStep advances the whole stack one timestep. x is the input spikes
// [B, InShape...]; prev is the per-layer state at t−1 (nil at t = 0).
// The returned slice has one state per layer.
//
// The step is one pool Run over the batch's samples (see shard.go): each
// lane carries its sample range through every layer, writing into its rows
// of the full-batch records. A layer that couples samples (batch norm) ends
// the sharded run; it runs whole-batch on the pool and sharding resumes
// above it.
func (n *Network) ForwardStep(x *tensor.Tensor, prev []*LayerState) []*LayerState {
	n.mustBuilt()
	b := x.Dim(0)
	if n.shards(b) > 1 {
		for _, st := range prev {
			expand(st)
		}
	}
	states := make([]*LayerState, len(n.Layers))
	for i := 0; i < len(n.Layers); {
		j := i
		for j < len(n.Layers) && n.sample[j] != nil {
			j++
		}
		if j > i {
			n.forwardRun(x, prev, states, i, j)
			i = j
			continue
		}
		// A sample-coupled layer: the whole batch at once, on the pool.
		cur, curP := n.stepInput(x, states, i)
		p := prevAt(prev, i)
		if pf, ok := n.Layers[i].(PackedForward); ok && curP != nil {
			states[i] = pf.ForwardPacked(cur, curP, p)
		} else {
			states[i] = n.Layers[i].Forward(cur, p)
		}
		i++
	}
	return states
}

// forwardRun runs sample layers [i,j) as one sharded run.
func (n *Network) forwardRun(x *tensor.Tensor, prev, states []*LayerState, i, j int) {
	b := x.Dim(0)
	// The first lane to reach a layer allocates its full-batch record, so
	// the allocation overlaps the other lanes' compute instead of preceding
	// the fork. A lane only ever waits on a lane that is running.
	alloc := make([]sync.Once, j-i)
	in, inP := n.stepInput(x, states, i)
	// Lanes pack their own rows; lane 0's views then tell which full-batch
	// records to pack after the join.
	var lane0 []*LayerState
	if n.shards(b) > 1 && n.spikePack {
		lane0 = make([]*LayerState, j-i)
	}
	n.each(b, func(c lane) {
		cur, curP := c.view(in), inP
		if curP != nil && !c.whole() {
			curP, _ = tensor.PackSpikes(cur)
		}
		for k := i; k < j; k++ {
			alloc[k-i].Do(func() { states[k] = n.sample[k].newState(b) })
			st := c.state(states[k])
			n.sample[k].forward(c, st, cur, curP, c.state(prevAt(prev, k)))
			if lane0 != nil && c.lo == 0 {
				lane0[k-i] = st
			}
			// The packed chain flows only through layers publishing packed
			// outputs; anything else (pools, dropout) drops back to dense.
			cur, curP = st.O, st.OPacked
		}
	})
	for k, v := range lane0 {
		packLike(states[i+k], v)
	}
}

// stepInput returns layer i's forward input and its packed view: the network
// input for layer 0 (packed in spike-pack mode when it is binary —
// rate/latency-coded spikes; a non-binary input leaves the first layer
// dense), otherwise the record below.
func (n *Network) stepInput(x *tensor.Tensor, states []*LayerState, i int) (*tensor.Tensor, *tensor.PackedSpikes) {
	if i > 0 {
		return states[i-1].O, states[i-1].OPacked
	}
	if n.spikePack {
		xp, _ := tensor.PackSpikes(x)
		return x, xp
	}
	return x, nil
}

// shards returns how many sample lanes a step over b samples runs on.
func (n *Network) shards(b int) int { return shards(n.pool, b) }

// each runs fn over a b-sample batch on the network's pool (see shard).
func (n *Network) each(b int, fn func(c lane)) { shard(n.pool, n.lanes, b, fn) }

func prevAt(prev []*LayerState, i int) *LayerState {
	if prev == nil {
		return nil
	}
	return prev[i]
}

func deltaAt(deltas []*Delta, i int) *Delta {
	if deltas == nil {
		return nil
	}
	return deltas[i]
}

// Logits returns the readout output of the final layer for a timestep's
// states.
func (n *Network) Logits(states []*LayerState) *tensor.Tensor {
	return states[len(states)-1].DenseO()
}

// SpikeSum returns s_t = Σ_l sum(o_t^l) over all layers for one timestep's
// states (paper Eq. 4). The readout layer is excluded: its "output" is a
// membrane potential, not spikes.
func (n *Network) SpikeSum(states []*LayerState) float64 {
	var s float64
	for i, st := range states {
		if lin, ok := n.Layers[i].(*SpikingLinear); ok && lin.Readout {
			continue
		}
		s += st.SpikeSum()
	}
	return s
}

// BackwardStep runs one timestep of the δ recursion from the top of the
// stack to the bottom. x and states are the input and records at time t.
// gradsAt injects external ∂L/∂o_t gradients by layer index (the final
// layer's entry is the loss gradient; TBPTT-LBP adds local-classifier
// entries at interior layers). deltas carries δ_{t+1} per layer (nil at the
// last computed timestep) and the replacement δ_t slice is returned.
//
// Like ForwardStep it is one sharded run per stretch of sample layers: the
// lanes compute δ_t, ∂L/∂x_t and each sample's parameter-gradient terms;
// after the join every layer folds its terms into the parameter gradients
// in ascending sample order.
func (n *Network) BackwardStep(x *tensor.Tensor, states []*LayerState, gradsAt map[int]*tensor.Tensor, deltas []*Delta) []*Delta {
	n.mustBuilt()
	if len(states) != len(n.Layers) {
		panic(fmt.Sprintf("layers: BackwardStep got %d states for %d layers", len(states), len(n.Layers)))
	}
	if n.shards(x.Dim(0)) > 1 {
		for _, st := range states {
			expand(st)
		}
	}
	newDeltas := make([]*Delta, len(n.Layers))
	var gradFlow *tensor.Tensor
	for j := len(n.Layers); j > 0; {
		top := j - 1
		gradOut := gradFlow
		if inj := gradsAt[top]; inj != nil {
			if gradOut == nil {
				gradOut = inj.Clone()
			} else {
				tensor.AXPY(gradOut, 1, inj)
			}
		}
		if gradOut == nil {
			gradOut = tensor.New(states[top].OutShape()...)
		}
		i := j
		for i > 0 && n.sample[i-1] != nil {
			i--
		}
		if i < j {
			gradFlow = n.backwardRun(x, states, gradsAt, deltas, newDeltas, gradOut, i, j)
			j = i
			continue
		}
		// A sample-coupled layer: the whole batch at once, on the pool.
		l := n.Layers[top]
		din := deltaAt(deltas, top)
		var prevPacked *tensor.PackedSpikes
		if top > 0 {
			prevPacked = states[top-1].OPacked
		}
		if pb, ok := l.(PackedBackward); ok && prevPacked != nil {
			gradFlow, newDeltas[top] = pb.BackwardPacked(prevPacked, states[top], gradOut, din)
		} else {
			input := x
			if top > 0 {
				input = states[top-1].DenseO()
			}
			gradFlow, newDeltas[top] = l.Backward(input, states[top], gradOut, din)
		}
		j--
	}
	return newDeltas
}

// backwardRun runs the backward of sample layers [i,j) as one sharded run,
// given ∂L/∂o_t of the top layer, and returns ∂L/∂x_t of layer i.
func (n *Network) backwardRun(x *tensor.Tensor, states []*LayerState, gradsAt map[int]*tensor.Tensor, deltas, newDeltas []*Delta, gradOut *tensor.Tensor, i, j int) *tensor.Tensor {
	b := x.Dim(0)
	gradIns := make([]*tensor.Tensor, j-i)
	alloc := make([]sync.Once, j-i) // as in forwardRun
	n.each(b, func(c lane) {
		g := c.view(gradOut)
		for k := j - 1; k >= i; k-- {
			alloc[k-i].Do(func() {
				gradIns[k-i] = tensor.New(inputShape(n.backInput(x, states, k))...)
				newDeltas[k] = newDelta(n.Layers[k], states[k])
				if tl, ok := n.sample[k].(termLayer); ok {
					tl.reserveTerms(b)
				}
			})
			if inj := gradsAt[k]; inj != nil && k < j-1 {
				tensor.AXPY(g, 1, c.view(inj))
			}
			in, inP := n.backInput(x, states, k)
			if !c.whole() {
				inP = nil // views are dense (records were expanded)
			}
			gradIn := c.view(gradIns[k-i])
			n.sample[k].backwardData(c, gradIn, c.delta(newDeltas[k]), c.view(in), inP, c.state(states[k]), g, c.delta(deltaAt(deltas, k)))
			g = gradIn
		}
	})
	// The parameter part follows the join. A sharded step runs it on the
	// submitting goroutine: it is a few adds per parameter and sample, less
	// than another fork-join costs.
	acc := n.pool
	if n.shards(b) > 1 {
		acc = nil
	}
	for k := j - 1; k >= i; k-- {
		in, inP := n.backInput(x, states, k)
		n.sample[k].accumulate(acc, in, inP, states[k], newDeltas[k], deltaAt(deltas, k))
	}
	return gradIns[0]
}

// backInput returns layer k's input at time t for the backward pass: dense
// (nil for a lazy record still holding only bits) and packed views. The
// network input is never packed here.
func (n *Network) backInput(x *tensor.Tensor, states []*LayerState, k int) (*tensor.Tensor, *tensor.PackedSpikes) {
	if k == 0 {
		return x, nil
	}
	return states[k-1].O, states[k-1].OPacked
}

// RecordBytes returns the activation bytes of one stored timestep for a
// batch of the given size — the unit the paper's memory model is built from.
func (n *Network) RecordBytes(batch int) int64 {
	var b int64
	for _, l := range n.Layers {
		b += l.StateBytes(batch)
	}
	return b
}

// WorkspaceBytes returns the peak transient scratch requirement.
func (n *Network) WorkspaceBytes(batch int) int64 {
	var m int64
	for _, l := range n.Layers {
		if w := l.WorkspaceBytes(batch); w > m {
			m = w
		}
	}
	return m
}

// Summary renders a one-line-per-layer description of the built network.
func (n *Network) Summary() string {
	n.mustBuilt()
	s := fmt.Sprintf("%s: in=%v params=%d L_n=%d\n", n.Name, n.InShape, n.ParamCount(), n.StatefulCount())
	shape := n.InShape
	for i, l := range n.Layers {
		nextShape := layerOutShape(l, shape)
		s += fmt.Sprintf("  %2d %-18s %v -> %v\n", i, l.Name(), shape, nextShape)
		shape = nextShape
	}
	return s
}

// layerOutShape recovers a built layer's output shape for reporting.
func layerOutShape(l Layer, in []int) []int {
	switch v := l.(type) {
	case *SpikingConv2D:
		return v.outShape
	case *SpikingLinear:
		return []int{v.Out}
	case *AvgPool2D:
		return v.outShape
	case *MaxPool2D:
		return v.outShape
	case *GlobalAvgPool:
		return []int{v.inShape[0]}
	case *ResidualBlock:
		return v.outShape
	case *Dropout:
		return in
	default:
		return in
	}
}
