package layers

import (
	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// Spike-pack mode: spike activations travel the stack in bit-packed form and
// the heavy kernels consume the bits directly (AND+popcount gather kernels in
// internal/tensor). Every packed path is bit-identical to its float twin —
// spike values are exactly 0/1, so skipping zero-spike terms is an IEEE-754
// identity — which keeps the checkpointing determinism contract intact.

// PackedForward is implemented by layers that can consume a bit-packed spike
// input. ForwardPacked receives both views of the same input: x dense (always
// available during a fresh forward step, for cheap elementwise uses like
// residual shortcuts) and xp packed (for the gather kernels).
type PackedForward interface {
	ForwardPacked(x *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) *LayerState
}

// PackedBackward is implemented by layers whose backward pass needs the
// layer input only on the spike side (weight gradients). It receives ONLY
// the packed input — a lazily materialised checkpoint boundary record may
// have no dense spikes at all.
type PackedBackward interface {
	BackwardPacked(xp *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta)
}

// SpikePackAware is implemented by layers that publish a packed view of
// their spike output when spike-pack mode is on. Network.SetSpikePack fans
// the flag out, mirroring SetPool.
type SpikePackAware interface {
	SetSpikePack(on bool)
}

// stepLIFPrev advances one LIF timestep against a previous state that may be
// dense, bit-packed (a lazy checkpoint record), or absent (t = 0). The
// packed branch is bit-identical to the dense one (see snn.StepLIFPacked),
// so which representation the record happens to hold never changes results.
func stepLIFPrev(pool *parallel.Pool, u, o *tensor.Tensor, prev *LayerState, p snn.Params) {
	switch {
	case prev == nil:
		snn.StepLIF(pool, u, o, nil, nil, u, p)
	case prev.O != nil:
		snn.StepLIF(pool, u, o, prev.U, prev.O, u, p)
	default:
		snn.StepLIFPacked(pool, u, o, prev.U, prev.OPacked, u, p)
	}
}

// packOutput attaches the packed view to a freshly fired spike plane. Spike
// tensors are exactly 0/1 by construction, so packing always applies.
func packOutput(st *LayerState) {
	st.OPacked, _ = tensor.PackSpikes(st.O)
}
