package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// ResidualBlock is the SNN basic block used by the ResNet topologies: two
// 3×3 spiking conv stages, with the shortcut current added into the second
// stage's synaptic input before its LIF neurons fire (the formulation of
// Sengupta et al. for deep spiking ResNets). When the block changes shape
// (stride > 1 or channel growth) the shortcut is a 1×1 convolution,
// otherwise the identity.
type ResidualBlock struct {
	Out       int
	Stride    int
	Neuron    snn.Params
	Surrogate snn.Surrogate
	Label     string

	spec1, spec2, specSC     tensor.ConvSpec
	w1, b1, w2, b2, wsc      *tensor.Tensor
	gw1, gb1, gw2, gb2, gwsc *tensor.Tensor
	identity                 bool

	inShape, midShape, outShape []int
	pool                        *parallel.Pool
	scratch                     *tensor.Scratch
	colLen                      int
	spikePack                   bool
	// Per-image gradient terms of the two stages and the projection,
	// reused within an iteration.
	terms1, terms2, termsSC *tensor.Tensor
}

// SetPool implements PoolAware.
func (l *ResidualBlock) SetPool(p *parallel.Pool) {
	l.pool = p
	reserveLanes(l.scratch, p)
}

// SetSpikePack implements SpikePackAware.
func (l *ResidualBlock) SetSpikePack(on bool) { l.spikePack = on }

// NewResidualBlock returns an unbuilt residual block producing out channels
// with the given first-stage stride.
func NewResidualBlock(label string, out, stride int, neuron snn.Params, surr snn.Surrogate) *ResidualBlock {
	return &ResidualBlock{Out: out, Stride: stride, Neuron: neuron, Surrogate: surr, Label: label}
}

// Name implements Layer.
func (l *ResidualBlock) Name() string { return l.Label }

// Stateful implements Layer.
func (l *ResidualBlock) Stateful() bool { return true }

// Build implements Layer.
func (l *ResidualBlock) Build(inShape []int, rng *tensor.RNG) ([]int, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("layers: %s expects [C,H,W] input, got %v", l.Label, inShape)
	}
	if err := l.Neuron.Validate(); err != nil {
		return nil, fmt.Errorf("layers: %s: %w", l.Label, err)
	}
	in := inShape[0]
	l.inShape = append([]int(nil), inShape...)
	l.spec1 = tensor.ConvSpec{InChannels: in, OutChannels: l.Out, KernelH: 3, KernelW: 3, Stride: l.Stride, Pad: 1}
	oh, ow := l.spec1.OutSize(inShape[1], inShape[2])
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("layers: %s spatial output collapses", l.Label)
	}
	l.midShape = []int{l.Out, oh, ow}
	l.spec2 = tensor.ConvSpec{InChannels: l.Out, OutChannels: l.Out, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	l.outShape = []int{l.Out, oh, ow}

	l.w1 = tensor.New(l.Out, in, 3, 3)
	l.b1 = tensor.New(l.Out)
	l.w2 = tensor.New(l.Out, l.Out, 3, 3)
	l.b2 = tensor.New(l.Out)
	l.gw1 = tensor.New(l.Out, in, 3, 3)
	l.gb1 = tensor.New(l.Out)
	l.gw2 = tensor.New(l.Out, l.Out, 3, 3)
	l.gb2 = tensor.New(l.Out)
	rng.KaimingConv(l.w1)
	rng.KaimingConv(l.w2)

	l.identity = l.Stride == 1 && in == l.Out
	if !l.identity {
		l.specSC = tensor.ConvSpec{InChannels: in, OutChannels: l.Out, KernelH: 1, KernelW: 1, Stride: l.Stride, Pad: 0}
		l.wsc = tensor.New(l.Out, in, 1, 1)
		l.gwsc = tensor.New(l.Out, in, 1, 1)
		rng.KaimingConv(l.wsc)
	}
	n1 := l.spec1.ColBufLen(inShape[1], inShape[2])
	n2 := l.spec2.ColBufLen(oh, ow)
	n := n1
	if n2 > n {
		n = n2
	}
	l.colLen = n
	l.scratch = tensor.NewScratch()
	reserveLanes(l.scratch, l.pool)
	return l.outShape, nil
}

// Params implements Layer.
func (l *ResidualBlock) Params() []Param {
	ps := []Param{
		{Name: l.Label + ".conv1.weight", W: l.w1, G: l.gw1},
		{Name: l.Label + ".conv1.bias", W: l.b1, G: l.gb1},
		{Name: l.Label + ".conv2.weight", W: l.w2, G: l.gw2},
		{Name: l.Label + ".conv2.bias", W: l.b2, G: l.gb2},
	}
	if !l.identity {
		ps = append(ps, Param{Name: l.Label + ".shortcut.weight", W: l.wsc, G: l.gwsc})
	}
	return ps
}

// Forward implements Layer. State layout: top-level (U,O) is the second LIF
// stage; Sub[0] is the first LIF stage.
func (l *ResidualBlock) Forward(x *tensor.Tensor, prev *LayerState) *LayerState {
	return forwardWhole(l, l.pool, x, nil, prev)
}

// ForwardPacked implements PackedForward. The convolutions gather from the
// input spike bits; the identity shortcut adds the dense view (an
// elementwise add has nothing to gain from packing).
func (l *ResidualBlock) ForwardPacked(x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) *LayerState {
	return forwardWhole(l, l.pool, x, xp, prev)
}

func (l *ResidualBlock) newState(b int) *LayerState {
	st := newRecord(b, l.outShape, true)
	st.Sub = []*LayerState{newRecord(b, l.midShape, true)}
	return st
}

// forward runs both LIF stages and the shortcut. x is the dense block
// input; xp is its packed view (nil on the dense path).
func (l *ResidualBlock) forward(c lane, st *LayerState, x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) {
	p := c.pool
	st1 := st.Sub[0]
	l.conv(p, st1.U, x, xp, l.w1, l.b1, l.spec1)
	var p1, p2 *LayerState
	if prev != nil {
		p1 = prev.Sub[0]
		p2 = prev
	}
	stepLIFPrev(p, st1.U, st1.O, p1, l.Neuron)
	if l.spikePack {
		packOutput(st1)
	}
	l.conv(p, st.U, st1.O, st1.OPacked, l.w2, l.b2, l.spec2)
	// Shortcut current joins before the second LIF.
	if l.identity {
		tensor.AXPY(st.U, 1, x)
	} else {
		sc := tensor.New(st.U.Shape()...)
		l.conv(p, sc, x, xp, l.wsc, nil, l.specSC)
		tensor.AXPY(st.U, 1, sc)
	}
	stepLIFPrev(p, st.U, st.O, p2, l.Neuron)
	if l.spikePack {
		packOutput(st)
	}
}

// conv runs one of the block's convolutions, from the packed spikes when
// there are any.
func (l *ResidualBlock) conv(p *parallel.Pool, out, x *tensor.Tensor, xp *tensor.PackedSpikes, w, b *tensor.Tensor, s tensor.ConvSpec) {
	if xp != nil {
		tensor.Conv2DPacked(p, out, xp, w, b, s, l.scratch)
		return
	}
	tensor.Conv2D(p, out, x, w, b, s, l.scratch)
}

// Backward implements Layer, unwinding the two LIF stages and the shortcut.
func (l *ResidualBlock) Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardWhole(l, l.pool, x, nil, st, gradOut, deltaIn)
}

// BackwardPacked implements PackedBackward: both conv stages and the
// projection shortcut take their weight gradients straight from the packed
// spikes; the identity shortcut never touches the input at all.
func (l *ResidualBlock) BackwardPacked(xp *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardWhole(l, l.pool, nil, xp, st, gradOut, deltaIn)
}

func (l *ResidualBlock) reserveTerms(b int) {
	l.terms1 = growTerms(l.terms1, b, l.spec1.TermLen(true))
	l.terms2 = growTerms(l.terms2, b, l.spec2.TermLen(true))
	if !l.identity {
		l.termsSC = growTerms(l.termsSC, b, l.specSC.TermLen(false))
	}
}

// EndIteration releases the gradient-term buffers; see
// SpikingConv2D.EndIteration.
func (l *ResidualBlock) EndIteration() { l.terms1, l.terms2, l.termsSC = nil, nil, nil }

// backwardData unwinds both stages and the shortcut into δ and ∂L/∂x,
// writing each image's gradient terms of all three convolutions. The first
// stage's spikes may be packed, dense, or both (packed preferred: the
// kernels are bit-identical either way).
func (l *ResidualBlock) backwardData(c lane, gradIn *tensor.Tensor, d *Delta, x *tensor.Tensor, xp *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) {
	p := c.pool
	theta := l.Neuron.Threshold
	// Second stage: δ2 = σ'(U2)⊙gradOut + λ·δ2_{t+1}
	delta2 := d.D
	snn.SurrogateDelta(p, delta2, st.U, gradOut, deltaIn.next(), theta, l.Neuron.Leak, l.Surrogate)
	st1 := st.Sub[0]
	// Main path through conv2 to the first stage's output.
	gradO1 := tensor.New(st1.OutShape()...)
	tensor.Conv2DGradInput(p, gradO1, delta2, l.w2, l.spec2, l.scratch)
	convTerms(c, l.terms2, delta2, st1.O, st1.OPacked, l.spec2, true, l.scratch)
	// Shortcut path straight to the block input.
	if l.identity {
		copy(gradIn.Data, delta2.Data)
	} else {
		tensor.Conv2DGradInput(p, gradIn, delta2, l.wsc, l.specSC, l.scratch)
		convTerms(c, l.termsSC, delta2, x, xp, l.specSC, false, l.scratch)
	}
	// First stage: δ1 = σ'(U1)⊙gradO1 + λ·δ1_{t+1}
	delta1 := d.Sub[0].D
	var next1 *tensor.Tensor
	if deltaIn != nil && len(deltaIn.Sub) > 0 {
		next1 = deltaIn.Sub[0].D
	}
	snn.SurrogateDelta(p, delta1, st1.U, gradO1, next1, theta, l.Neuron.Leak, l.Surrogate)
	gradMain := tensor.New(gradIn.Shape()...)
	tensor.Conv2DGradInput(p, gradMain, delta1, l.w1, l.spec1, l.scratch)
	convTerms(c, l.terms1, delta1, x, xp, l.spec1, true, l.scratch)
	tensor.AXPY(gradIn, 1, gradMain)
}

// accumulate folds the three convolutions' per-image terms in image order.
func (l *ResidualBlock) accumulate(p *parallel.Pool, _ *tensor.Tensor, _ *tensor.PackedSpikes, _ *LayerState, _, _ *Delta) {
	tensor.FoldConvTerms(p, l.gw2, l.gb2, l.terms2)
	if !l.identity {
		tensor.FoldConvTerms(p, l.gwsc, nil, l.termsSC)
	}
	tensor.FoldConvTerms(p, l.gw1, l.gb1, l.terms1)
}

// StateBytes implements Layer: both stages' (U,O) per stored timestep.
func (l *ResidualBlock) StateBytes(batch int) int64 {
	return 2 * 4 * int64(batch) * int64(shapeVolume(l.midShape)+shapeVolume(l.outShape))
}

// WorkspaceBytes implements Layer. One column regardless of pool width; see
// SpikingConv2D.WorkspaceBytes.
func (l *ResidualBlock) WorkspaceBytes(int) int64 { return 4 * int64(l.colLen) }

// ConvCount returns the number of convolution layers in the block (2 or 3
// with a projection shortcut), used for topology reports.
func (l *ResidualBlock) ConvCount() int {
	if l.identity {
		return 2
	}
	return 3
}
