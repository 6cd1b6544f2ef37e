package layers

import (
	"fmt"

	"skipper/internal/tensor"
)

// MaxPool2D is index-routed spatial max pooling. It exists for ANN-style
// comparison stacks; spiking stacks normally use AvgPool2D (averaging
// preserves rate information where a max over binary spikes saturates).
//
// The argmax indices are part of the timestep record (they are needed to
// route the backward pass), so checkpoint recomputation regenerates them
// identically. They ride in the state's U slot encoded as float32 values —
// exactly the trick PyTorch's saved-tensor mechanism uses for pooling
// indices — and their bytes are accounted like any other activation.
type MaxPool2D struct {
	noParams
	K     int
	Label string

	inShape  []int
	outShape []int
}

// NewMaxPool2D returns an unbuilt max-pooling layer.
func NewMaxPool2D(label string, k int) *MaxPool2D {
	return &MaxPool2D{K: k, Label: label}
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.Label }

// Stateful implements Layer.
func (l *MaxPool2D) Stateful() bool { return false }

// Build implements Layer.
func (l *MaxPool2D) Build(inShape []int, _ *tensor.RNG) ([]int, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("layers: %s expects [C,H,W] input, got %v", l.Label, inShape)
	}
	if l.K < 1 || inShape[1]%l.K != 0 || inShape[2]%l.K != 0 {
		return nil, fmt.Errorf("layers: %s window %d does not divide %dx%d", l.Label, l.K, inShape[1], inShape[2])
	}
	l.inShape = append([]int(nil), inShape...)
	l.outShape = []int{inShape[0], inShape[1] / l.K, inShape[2] / l.K}
	return l.outShape, nil
}

// Params implements Layer.
func (l *MaxPool2D) Params() []Param { return nil }

// Forward implements Layer. The record's U field carries the argmax
// indices.
func (l *MaxPool2D) Forward(x *tensor.Tensor, prev *LayerState) *LayerState {
	return forwardWhole(l, nil, x, nil, prev)
}

func (l *MaxPool2D) newState(b int) *LayerState { return newRecord(b, l.outShape, true) }

// forward pools c's samples. The recorded argmax indices address the
// full-batch input, so they are the same whichever lane computed them.
func (l *MaxPool2D) forward(c lane, st *LayerState, x *tensor.Tensor, _ *tensor.PackedSpikes, _ *LayerState) {
	idx := make([]int32, st.O.Len())
	tensor.MaxPool2D(st.O, x, idx, l.K)
	off := c.lo * shapeVolume(l.inShape)
	for i, v := range idx {
		st.U.Data[i] = float32(int(v) + off)
	}
}

// Backward implements Layer.
func (l *MaxPool2D) Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardWhole(l, nil, x, nil, st, gradOut, deltaIn)
}

func (l *MaxPool2D) backwardData(c lane, gradIn *tensor.Tensor, _ *Delta, _ *tensor.Tensor, _ *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, _ *Delta) {
	off := c.lo * shapeVolume(l.inShape)
	idx := make([]int32, st.U.Len())
	for i, v := range st.U.Data {
		idx[i] = int32(int(v) - off)
	}
	tensor.MaxPool2DGrad(gradIn, gradOut, idx)
}

// StateBytes implements Layer: pooled output plus the index plane.
func (l *MaxPool2D) StateBytes(batch int) int64 {
	return 2 * 4 * int64(batch) * int64(shapeVolume(l.outShape))
}

// WorkspaceBytes implements Layer.
func (l *MaxPool2D) WorkspaceBytes(int) int64 { return 0 }
