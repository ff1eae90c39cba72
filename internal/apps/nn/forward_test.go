package nn

import "datamime/internal/trace"

// forward runs the layer into a fresh tensor, for tests that drive one
// layer literal; a model runs its layers into its two activation buffers.
func (l *layer) forward(col trace.Collector, in *Tensor, relu bool, inAddr, outAddr uint64) *Tensor {
	// No layer kind produces more than outC values per input position.
	out := &Tensor{Data: make([]float32, l.outC*in.H*in.W)}
	l.run(col, in, out, relu, inAddr, outAddr)
	return out
}
