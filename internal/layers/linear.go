package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// SpikingLinear is a fully-connected layer of LIF neurons. With Readout set
// it becomes the network's output integrator: the neurons accumulate
// membrane potential without firing or resetting (the standard readout for
// the hybrid-training recipe), and O is the membrane itself, so the loss can
// be applied to the accumulated potential at the final timestep.
//
// Rank-4 inputs [B,C,H,W] are flattened to [B,C·H·W] internally, so an
// explicit flatten layer is unnecessary.
type SpikingLinear struct {
	Out       int
	Neuron    snn.Params
	Surrogate snn.Surrogate
	Readout   bool
	Label     string

	weight, bias *tensor.Tensor
	gradW, gradB *tensor.Tensor
	inShape      []int
	inFeatures   int
	pool         *parallel.Pool
	spikePack    bool
}

// SetPool implements PoolAware.
func (l *SpikingLinear) SetPool(p *parallel.Pool) { l.pool = p }

// SetSpikePack implements SpikePackAware.
func (l *SpikingLinear) SetSpikePack(on bool) { l.spikePack = on }

// NewSpikingLinear returns an unbuilt spiking fully-connected layer.
func NewSpikingLinear(label string, out int, neuron snn.Params, surr snn.Surrogate) *SpikingLinear {
	return &SpikingLinear{Out: out, Neuron: neuron, Surrogate: surr, Label: label}
}

// NewReadout returns the output integrator layer with the given class count.
func NewReadout(label string, classes int, neuron snn.Params) *SpikingLinear {
	return &SpikingLinear{Out: classes, Neuron: neuron, Readout: true, Label: label}
}

// Name implements Layer.
func (l *SpikingLinear) Name() string { return l.Label }

// Stateful implements Layer.
func (l *SpikingLinear) Stateful() bool { return true }

// Build implements Layer.
func (l *SpikingLinear) Build(inShape []int, rng *tensor.RNG) ([]int, error) {
	if err := l.Neuron.Validate(); err != nil {
		return nil, fmt.Errorf("layers: %s: %w", l.Label, err)
	}
	if !l.Readout && l.Surrogate == nil {
		return nil, fmt.Errorf("layers: %s needs a surrogate gradient", l.Label)
	}
	l.inShape = append([]int(nil), inShape...)
	l.inFeatures = shapeVolume(inShape)
	l.weight = tensor.New(l.Out, l.inFeatures)
	l.bias = tensor.New(l.Out)
	l.gradW = tensor.New(l.Out, l.inFeatures)
	l.gradB = tensor.New(l.Out)
	rng.KaimingLinear(l.weight)
	return []int{l.Out}, nil
}

// Params implements Layer.
func (l *SpikingLinear) Params() []Param {
	return []Param{
		{Name: l.Label + ".weight", W: l.weight, G: l.gradW},
		{Name: l.Label + ".bias", W: l.bias, G: l.gradB},
	}
}

func (l *SpikingLinear) flatten(x *tensor.Tensor) *tensor.Tensor {
	b := x.Dim(0)
	if x.Rank() == 2 {
		return x
	}
	return x.Reshape(b, l.inFeatures)
}

// Forward implements Layer.
func (l *SpikingLinear) Forward(x *tensor.Tensor, prev *LayerState) *LayerState {
	return forwardWhole(l, l.pool, x, nil, prev)
}

// ForwardPacked implements PackedForward: the synaptic current is gathered
// straight from the input spike bits (bit-identical to the dense matmul).
func (l *SpikingLinear) ForwardPacked(x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) *LayerState {
	return forwardWhole(l, l.pool, x, xp, prev)
}

func (l *SpikingLinear) newState(b int) *LayerState { return newRecord(b, []int{l.Out}, true) }

// forward computes the synaptic current x·Wᵀ + b into U, then folds in the
// leak/reset recurrence.
func (l *SpikingLinear) forward(c lane, st *LayerState, x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) {
	if xp != nil {
		tensor.MatMulTransBPacked(c.pool, st.U, xp, l.weight) // over set bits
	} else {
		tensor.MatMulTransB(c.pool, st.U, l.flatten(x), l.weight)
	}
	tensor.AddRowBias(st.U, l.bias)
	l.fire(c.pool, st, prev)
}

// fire folds in the leak/reset recurrence and publishes the output.
func (l *SpikingLinear) fire(p *parallel.Pool, st, prev *LayerState) {
	if l.Readout {
		// Pure integrator: U_t = λ·U_{t−1} + I_t, no spike, no reset.
		if prev != nil {
			tensor.AXPY(st.U, l.Neuron.Leak, prev.U)
		}
		copy(st.O.Data, st.U.Data)
		return
	}
	stepLIFPrev(p, st.U, st.O, prev, l.Neuron)
	if l.spikePack {
		packOutput(st)
	}
}

// Backward implements Layer; see SpikingConv2D.Backward for the recursion.
// For a readout layer σ' ≡ 1 (the output is the membrane itself).
func (l *SpikingLinear) Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardWhole(l, l.pool, x, nil, st, gradOut, deltaIn)
}

// BackwardPacked implements PackedBackward: the input spikes enter the
// weight gradient only, and the packed accumulate kernel is bit-identical to
// the dense one, so a lazy checkpoint record never needs expanding here.
func (l *SpikingLinear) BackwardPacked(xp *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardWhole(l, l.pool, nil, xp, st, gradOut, deltaIn)
}

// backwardData computes δ_t and ∂L/∂x = δ·W.
func (l *SpikingLinear) backwardData(c lane, gradIn *tensor.Tensor, d *Delta, _ *tensor.Tensor, _ *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) {
	next := deltaIn.next()
	if l.Readout {
		copy(d.D.Data, gradOut.Data)
		if next != nil {
			tensor.AXPY(d.D, l.Neuron.Leak, next)
		}
	} else {
		snn.SurrogateDelta(c.pool, d.D, st.U, gradOut, next, l.Neuron.Threshold, l.Neuron.Leak, l.Surrogate)
	}
	tensor.MatMul(c.pool, gradIn.Reshape(d.D.Dim(0), l.inFeatures), d.D, l.weight)
}

// accumulate adds ∂W += δᵀ·x and ∂b += Σ_batch δ over the full batch; both
// kernels add the samples' terms in ascending sample order.
func (l *SpikingLinear) accumulate(p *parallel.Pool, x *tensor.Tensor, xp *tensor.PackedSpikes, _ *LayerState, d, _ *Delta) {
	if xp != nil {
		tensor.MatMulTransAPackedAcc(p, l.gradW, d.D, xp) // over set bits
	} else {
		tensor.MatMulTransAAcc(p, l.gradW, d.D, l.flatten(x))
	}
	tensor.SumPerColumn(l.gradB, d.D)
}

// StateBytes implements Layer: U and O per stored timestep.
func (l *SpikingLinear) StateBytes(batch int) int64 {
	return 2 * 4 * int64(batch) * int64(l.Out)
}

// WorkspaceBytes implements Layer.
func (l *SpikingLinear) WorkspaceBytes(int) int64 { return 0 }
