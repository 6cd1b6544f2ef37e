package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// SpikingConv2D is a convolutional layer followed by a layer of LIF neurons.
// Per timestep it computes the synaptic current I_t = conv(x_t, W) + b and
// advances the membrane per Eq. 1; its backward implements the δ recursion
// of Eq. 2 with the configured surrogate gradient.
type SpikingConv2D struct {
	Spec      tensor.ConvSpec
	Neuron    snn.Params
	Surrogate snn.Surrogate
	Label     string

	weight, bias *tensor.Tensor
	gradW, gradB *tensor.Tensor

	inShape   []int // [C,H,W]
	outShape  []int // [Cout,OH,OW]
	pool      *parallel.Pool
	scratch   *tensor.Scratch
	terms     *tensor.Tensor // per-image ∂W/∂b terms, reused within an iteration
	colLen    int
	spikePack bool
}

// NewSpikingConv2D returns an unbuilt spiking conv layer. kernel/stride/pad
// follow tensor.ConvSpec semantics.
func NewSpikingConv2D(label string, out, kernel, stride, pad int, neuron snn.Params, surr snn.Surrogate) *SpikingConv2D {
	return &SpikingConv2D{
		Spec:      tensor.ConvSpec{OutChannels: out, KernelH: kernel, KernelW: kernel, Stride: stride, Pad: pad},
		Neuron:    neuron,
		Surrogate: surr,
		Label:     label,
	}
}

// Name implements Layer.
func (l *SpikingConv2D) Name() string { return l.Label }

// Stateful implements Layer.
func (l *SpikingConv2D) Stateful() bool { return true }

// Build implements Layer.
func (l *SpikingConv2D) Build(inShape []int, rng *tensor.RNG) ([]int, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("layers: %s expects [C,H,W] input, got %v", l.Label, inShape)
	}
	if err := l.Neuron.Validate(); err != nil {
		return nil, fmt.Errorf("layers: %s: %w", l.Label, err)
	}
	l.Spec.InChannels = inShape[0]
	oh, ow := l.Spec.OutSize(inShape[1], inShape[2])
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("layers: %s output %dx%d collapses", l.Label, oh, ow)
	}
	l.inShape = append([]int(nil), inShape...)
	l.outShape = []int{l.Spec.OutChannels, oh, ow}
	l.weight = tensor.New(l.Spec.OutChannels, l.Spec.InChannels, l.Spec.KernelH, l.Spec.KernelW)
	l.bias = tensor.New(l.Spec.OutChannels)
	l.gradW = tensor.New(l.Spec.OutChannels, l.Spec.InChannels, l.Spec.KernelH, l.Spec.KernelW)
	l.gradB = tensor.New(l.Spec.OutChannels)
	rng.KaimingConv(l.weight)
	l.colLen = l.Spec.ColBufLen(inShape[1], inShape[2])
	l.scratch = tensor.NewScratch()
	reserveLanes(l.scratch, l.pool)
	return l.outShape, nil
}

// SetPool implements PoolAware.
func (l *SpikingConv2D) SetPool(p *parallel.Pool) {
	l.pool = p
	reserveLanes(l.scratch, p)
}

// SetSpikePack implements SpikePackAware.
func (l *SpikingConv2D) SetSpikePack(on bool) { l.spikePack = on }

// Params implements Layer.
func (l *SpikingConv2D) Params() []Param {
	return []Param{
		{Name: l.Label + ".weight", W: l.weight, G: l.gradW},
		{Name: l.Label + ".bias", W: l.bias, G: l.gradB},
	}
}

// OutShape returns the built per-sample output shape.
func (l *SpikingConv2D) OutShape() []int { return l.outShape }

// Forward implements Layer.
func (l *SpikingConv2D) Forward(x *tensor.Tensor, prev *LayerState) *LayerState {
	return forwardWhole(l, l.pool, x, nil, prev)
}

// ForwardPacked implements PackedForward: the convolution runs on a packed
// im2col of the input spike bits (bit-identical to the dense Conv2D).
func (l *SpikingConv2D) ForwardPacked(x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) *LayerState {
	return forwardWhole(l, l.pool, x, xp, prev)
}

func (l *SpikingConv2D) newState(b int) *LayerState { return newRecord(b, l.outShape, true) }

// forward computes the synaptic current directly into U, then folds in the
// leak/reset recurrence.
func (l *SpikingConv2D) forward(c lane, st *LayerState, x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) {
	if xp != nil {
		tensor.Conv2DPacked(c.pool, st.U, xp, l.weight, l.bias, l.Spec, l.scratch)
	} else {
		tensor.Conv2D(c.pool, st.U, x, l.weight, l.bias, l.Spec, l.scratch)
	}
	l.fire(c.pool, st, prev)
}

// fire advances the LIF neurons from the synaptic current in st.U and
// publishes the spikes (packed too in spike-pack mode).
func (l *SpikingConv2D) fire(p *parallel.Pool, st, prev *LayerState) {
	stepLIFPrev(p, st.U, st.O, prev, l.Neuron)
	if l.spikePack {
		packOutput(st)
	}
}

// Backward implements Layer. It computes
//
//	δ_t = σ'(U_t) ⊙ ∂L/∂o_t + λ·δ_{t+1}
//	∂L/∂x_t = convGradInput(δ_t, W)
//	∂W     += convGradWeight(δ_t, x_t)
//
// The reset-path gradient is ignored, as in the paper.
func (l *SpikingConv2D) Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardWhole(l, l.pool, x, nil, st, gradOut, deltaIn)
}

// BackwardPacked implements PackedBackward: the input spikes feed only the
// weight gradient, which the packed gather kernel accumulates bit-identically
// without expanding a lazy checkpoint record.
func (l *SpikingConv2D) BackwardPacked(xp *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardWhole(l, l.pool, nil, xp, st, gradOut, deltaIn)
}

func (l *SpikingConv2D) reserveTerms(b int) {
	l.terms = growTerms(l.terms, b, l.Spec.TermLen(true))
}

// EndIteration releases the gradient-term buffer the iteration's backward
// steps reused; a layer holds none between iterations.
func (l *SpikingConv2D) EndIteration() { l.terms = nil }

// backwardData computes δ_t and ∂L/∂x_t, and each image's ∂W/∂b terms.
func (l *SpikingConv2D) backwardData(c lane, gradIn *tensor.Tensor, d *Delta, x *tensor.Tensor, xp *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) {
	snn.SurrogateDelta(c.pool, d.D, st.U, gradOut, deltaIn.next(), l.Neuron.Threshold, l.Neuron.Leak, l.Surrogate)
	tensor.Conv2DGradInput(c.pool, gradIn, d.D, l.weight, l.Spec, l.scratch)
	convTerms(c, l.terms, d.D, x, xp, l.Spec, true, l.scratch)
}

// accumulate folds the per-image terms into ∂W and ∂b in image order.
func (l *SpikingConv2D) accumulate(p *parallel.Pool, _ *tensor.Tensor, _ *tensor.PackedSpikes, _ *LayerState, _, _ *Delta) {
	tensor.FoldConvTerms(p, l.gradW, l.gradB, l.terms)
}

// StateBytes implements Layer: U and O per stored timestep.
func (l *SpikingConv2D) StateBytes(batch int) int64 {
	return 2 * 4 * int64(batch) * int64(shapeVolume(l.outShape))
}

// WorkspaceBytes implements Layer: the im2col buffer. Charged at one column
// regardless of pool width — the device budget models accelerator workspace,
// which must not drift with the host's core count; extra per-lane host
// columns are not part of the paper's memory model.
func (l *SpikingConv2D) WorkspaceBytes(int) int64 { return 4 * int64(l.colLen) }
