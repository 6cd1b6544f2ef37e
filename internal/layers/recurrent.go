package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// RecurrentSpikingLinear is a fully-connected LIF layer with explicit
// lateral recurrence: the synaptic current at time t is
//
//	I_t = W·x_t + W_rec·o_{t-1}
//
// — the general recurrent-SNN case the paper's Eq. 1 specialises (its reset
// term is a diagonal self-recurrence). The temporal checkpointing and
// skipping machinery applies unchanged because the layer's state record is
// still (U_t, o_t) and its forward is a pure function of (x_t, state_{t-1}).
//
// The backward pass extends the δ recursion of Eq. 2 with the recurrent
// credit path: o_t influences U_{t+1} through W_rec, so
//
//	∂L/∂o_t = gradOut_t + W_recᵀ·δ_{t+1}
//	δ_t     = σ'(U_t) ⊙ ∂L/∂o_t + λ·δ_{t+1}
//	∂W_rec += δ_{t+1} ⊗ o_t
type RecurrentSpikingLinear struct {
	Out       int
	Neuron    snn.Params
	Surrogate snn.Surrogate
	Label     string

	weight, recWeight, bias *tensor.Tensor
	gradW, gradRec, gradB   *tensor.Tensor
	inShape                 []int
	inFeatures              int
	pool                    *parallel.Pool
	spikePack               bool
}

// SetPool implements PoolAware.
func (l *RecurrentSpikingLinear) SetPool(p *parallel.Pool) { l.pool = p }

// SetSpikePack implements SpikePackAware.
func (l *RecurrentSpikingLinear) SetSpikePack(on bool) { l.spikePack = on }

// NewRecurrentSpikingLinear returns an unbuilt recurrent spiking layer.
func NewRecurrentSpikingLinear(label string, out int, neuron snn.Params, surr snn.Surrogate) *RecurrentSpikingLinear {
	return &RecurrentSpikingLinear{Out: out, Neuron: neuron, Surrogate: surr, Label: label}
}

// Name implements Layer.
func (l *RecurrentSpikingLinear) Name() string { return l.Label }

// Stateful implements Layer.
func (l *RecurrentSpikingLinear) Stateful() bool { return true }

// Build implements Layer.
func (l *RecurrentSpikingLinear) Build(inShape []int, rng *tensor.RNG) ([]int, error) {
	if err := l.Neuron.Validate(); err != nil {
		return nil, fmt.Errorf("layers: %s: %w", l.Label, err)
	}
	if l.Surrogate == nil {
		return nil, fmt.Errorf("layers: %s needs a surrogate gradient", l.Label)
	}
	l.inShape = append([]int(nil), inShape...)
	l.inFeatures = shapeVolume(inShape)
	l.weight = tensor.New(l.Out, l.inFeatures)
	l.recWeight = tensor.New(l.Out, l.Out)
	l.bias = tensor.New(l.Out)
	l.gradW = tensor.New(l.Out, l.inFeatures)
	l.gradRec = tensor.New(l.Out, l.Out)
	l.gradB = tensor.New(l.Out)
	rng.KaimingLinear(l.weight)
	// Lateral weights start small so the recurrence does not destabilise
	// the membrane at initialisation.
	rng.FillNorm(l.recWeight, 0, 0.5/float32(l.Out))
	return []int{l.Out}, nil
}

// Params implements Layer.
func (l *RecurrentSpikingLinear) Params() []Param {
	return []Param{
		{Name: l.Label + ".weight", W: l.weight, G: l.gradW},
		{Name: l.Label + ".recurrent", W: l.recWeight, G: l.gradRec},
		{Name: l.Label + ".bias", W: l.bias, G: l.gradB},
	}
}

func (l *RecurrentSpikingLinear) flatten(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() == 2 {
		return x
	}
	return x.Reshape(x.Dim(0), l.inFeatures)
}

// Forward implements Layer.
func (l *RecurrentSpikingLinear) Forward(x *tensor.Tensor, prev *LayerState) *LayerState {
	return forwardWhole(l, l.pool, x, nil, prev)
}

// ForwardPacked implements PackedForward: both the feed-forward current and
// the lateral recurrence gather straight from spike bits.
func (l *RecurrentSpikingLinear) ForwardPacked(x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) *LayerState {
	return forwardWhole(l, l.pool, x, xp, prev)
}

func (l *RecurrentSpikingLinear) newState(b int) *LayerState {
	return newRecord(b, []int{l.Out}, true)
}

// forward computes the feed-forward current, folds in the lateral
// recurrence and the leak/reset step. The previous state's spikes may be
// dense or packed (a lazy checkpoint record); both recurrence kernels are
// bit-identical.
func (l *RecurrentSpikingLinear) forward(c lane, st *LayerState, x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) {
	if xp != nil {
		tensor.MatMulTransBPacked(c.pool, st.U, xp, l.weight)
	} else {
		tensor.MatMulTransB(c.pool, st.U, l.flatten(x), l.weight)
	}
	tensor.AddRowBias(st.U, l.bias)
	if prev != nil {
		rec := tensor.New(st.U.Shape()...)
		if prev.O != nil {
			tensor.MatMulTransB(c.pool, rec, prev.O, l.recWeight)
		} else {
			tensor.MatMulTransBPacked(c.pool, rec, prev.OPacked, l.recWeight)
		}
		tensor.AXPY(st.U, 1, rec)
	}
	stepLIFPrev(c.pool, st.U, st.O, prev, l.Neuron)
	if l.spikePack {
		packOutput(st)
	}
}

// Backward implements Layer.
func (l *RecurrentSpikingLinear) Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardWhole(l, l.pool, x, nil, st, gradOut, deltaIn)
}

// BackwardPacked implements PackedBackward: the layer input feeds only the
// feed-forward weight gradient, which the packed kernel accumulates
// bit-identically from the spike bits.
func (l *RecurrentSpikingLinear) BackwardPacked(xp *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardWhole(l, l.pool, nil, xp, st, gradOut, deltaIn)
}

// backwardData computes δ_t, folding in the lateral credit from t+1, and
// ∂L/∂x = δ·W.
func (l *RecurrentSpikingLinear) backwardData(c lane, gradIn *tensor.Tensor, d *Delta, _ *tensor.Tensor, _ *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) {
	// Total ∂L/∂o_t: the downstream gradient plus the lateral credit from
	// t+1 (δ_{t+1} entered U_{t+1} through W_rec·o_t).
	gradO := gradOut.Clone()
	next := deltaIn.next()
	if next != nil {
		lat := tensor.New(next.Shape()...)
		tensor.MatMul(c.pool, lat, next, l.recWeight)
		tensor.AXPY(gradO, 1, lat)
	}
	snn.SurrogateDelta(c.pool, d.D, st.U, gradO, next, l.Neuron.Threshold, l.Neuron.Leak, l.Surrogate)
	tensor.MatMul(c.pool, gradIn.Reshape(d.D.Dim(0), l.inFeatures), d.D, l.weight)
}

// accumulate adds ∂W_rec += δ_{t+1}ᵀ·o_t, ∂W += δᵀ·x and ∂b += Σ_batch δ
// over the full batch. The stored spikes o_t and the input may be dense or
// packed.
func (l *RecurrentSpikingLinear) accumulate(p *parallel.Pool, x *tensor.Tensor, xp *tensor.PackedSpikes, st *LayerState, d, deltaIn *Delta) {
	if next := deltaIn.next(); next != nil {
		if st.O != nil {
			tensor.MatMulTransAAcc(p, l.gradRec, next, st.O)
		} else {
			tensor.MatMulTransAPackedAcc(p, l.gradRec, next, st.OPacked)
		}
	}
	if xp != nil {
		tensor.MatMulTransAPackedAcc(p, l.gradW, d.D, xp)
	} else {
		tensor.MatMulTransAAcc(p, l.gradW, d.D, l.flatten(x))
	}
	tensor.SumPerColumn(l.gradB, d.D)
}

// StateBytes implements Layer.
func (l *RecurrentSpikingLinear) StateBytes(batch int) int64 {
	return 2 * 4 * int64(batch) * int64(l.Out)
}

// WorkspaceBytes implements Layer.
func (l *RecurrentSpikingLinear) WorkspaceBytes(int) int64 { return 0 }
