// Package tensor implements the dense float32 tensor substrate used by the
// SNN training framework. Tensors are contiguous, row-major, and carry an
// explicit shape; the package provides the elementwise, matrix, convolution,
// and pooling kernels that the spiking layers build their forward and
// backward passes from.
//
// The package is deliberately free of any dependency on the device memory
// model: accounting happens at the layer/engine level, where the lifecycle of
// each tensor (weight, activation record, workspace) is known.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, contiguous, row-major float32 array with a shape.
// The zero value is an empty tensor.
type Tensor struct {
	shape []int
	Data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics on
// negative dimensions (a programming error, not a runtime condition).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape, without copying.
// It panics if len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: data}
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Bytes returns the payload size in bytes (4 bytes per element).
func (t *Tensor) Bytes() int64 { return int64(len(t.Data)) * 4 }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the tensor with a new shape of the same volume.
// The underlying data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.Data), shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: t.Data}
}

// Rows returns a view of rows [lo,hi) of the leading dimension — samples
// lo..hi-1 of a batch-major tensor. The data is shared, and the view's
// capacity ends at row hi, so it can never reach a neighbouring row.
func (t *Tensor) Rows(lo, hi int) *Tensor {
	if lo < 0 || hi < lo || hi > t.shape[0] {
		panic(fmt.Sprintf("tensor: rows [%d,%d) out of range for shape %v", lo, hi, t.shape))
	}
	inner := 1
	for _, d := range t.shape[1:] {
		inner *= d
	}
	shape := append([]int{hi - lo}, t.shape[1:]...)
	return &Tensor{shape: shape, Data: t.Data[lo*inner : hi*inner : hi*inner]}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// String renders a compact description (shape plus a few leading values),
// suitable for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.Data[i])
	}
	if n < len(t.Data) {
		b.WriteString(" ...")
	}
	b.WriteString("]")
	return b.String()
}

// Volume returns the product of the dimensions in shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// IsFinite reports whether every element is a finite number. Useful as a
// training-loop invariant check.
func (t *Tensor) IsFinite() bool {
	for _, v := range t.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}
