// Package nn implements the dnn workload's inference engine: a CNN/MLP
// engine with real float math (3×3 convolutions, strided convolutions,
// 2×2 max-pooling, fully-connected layers, ReLU) whose forward pass also
// emits its weight streaming, activation traffic, and compute into a
// trace.Collector.
//
// As in the paper, the *dataset* of this workload is the network model
// itself: Datamime's dnn generator composes synthetic networks from counts
// of each layer type and the first layer's output channels (Table III),
// while the hidden target is a ResNet-50-like model (scaled spatially so
// simulation remains fast — what matters to the profiles is the weight
// footprint, streaming pattern, and compute intensity, all of which the
// layer-count/channel parameters control).
package nn

import (
	"fmt"

	"datamime/internal/stats"
)

// Tensor is a dense CHW float32 tensor.
type Tensor struct {
	C, H, W int
	Data    []float32
}

// NewTensor allocates a zeroed tensor. It panics on non-positive dims.
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor dims %dx%dx%d", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// shape sets the tensor's dimensions over its existing storage, which must
// be large enough; the contents are whatever the storage held.
func (t *Tensor) shape(c, h, w int) {
	t.C, t.H, t.W = c, h, w
	t.Data = t.Data[:c*h*w]
}

// At returns element (c, y, x).
func (t *Tensor) At(c, y, x int) float32 { return t.Data[(c*t.H+y)*t.W+x] }

// Set assigns element (c, y, x).
func (t *Tensor) Set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

// Len returns the element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Bytes returns the tensor's storage size in bytes.
func (t *Tensor) Bytes() int { return 4 * len(t.Data) }

// FillRandom fills the tensor with uniform values in [-1, 1).
func (t *Tensor) FillRandom(rng *stats.RNG) {
	for i := range t.Data {
		t.Data[i] = float32(rng.Range(-1, 1))
	}
}

// argmax returns the index of the largest element (ties to the first).
func argmax(xs []float32) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
