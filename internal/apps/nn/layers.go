package nn

import (
	"fmt"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

// LayerKind enumerates the four building-block layer types of the paper's
// dnn dataset generator (§IV): 3×3 convolution, 3×3 strided convolution,
// 2×2 max-pooling, and fully-connected.
type LayerKind int

const (
	// Conv3x3 is a stride-1, pad-1 3×3 convolution followed by ReLU.
	Conv3x3 LayerKind = iota
	// StridedConv3x3 is a stride-2, pad-1 3×3 convolution followed by ReLU
	// (halves the spatial resolution).
	StridedConv3x3
	// MaxPool2x2 is a stride-2 2×2 max-pooling layer.
	MaxPool2x2
	// FC is a fully-connected layer over the flattened input; hidden FC
	// layers apply ReLU, the final one is linear (logits).
	FC
)

func (k LayerKind) String() string {
	switch k {
	case Conv3x3:
		return "conv3x3"
	case StridedConv3x3:
		return "strided_conv3x3"
	case MaxPool2x2:
		return "maxpool2x2"
	case FC:
		return "fc"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// macsPerInstr converts multiply-accumulates to simulated instructions
// (SIMD FMA retires several MACs per instruction).
const macsPerInstr = 4

// weightChunk is the granularity of streamed weight loads.
const weightChunk = 4096

// sampleThreshold is the MAC count above which a convolution or FC layer
// computes a sampled subset of output channels (replicating the rest) to
// bound host time. The emitted trace always reflects the full layer; only
// the host float work is subsampled. See DESIGN.md §3j.
const sampleThreshold = 1 << 21

// sampleStep returns the stride of computed output channels for a layer of
// macs multiply-accumulates: channels 0, step, 2·step, … are computed and
// each of the others copies the computed one before it.
func sampleStep(macs, outC int) int {
	if macs <= sampleThreshold {
		return 1
	}
	return min((macs+sampleThreshold-1)/sampleThreshold, outC)
}

// blockWidth is how many computed output channels a kernel keeps in flight,
// one accumulator each: four independent add chains overlap where a single
// accumulator serialises on the add latency (eight measured no faster).
const blockWidth = 4

// layer is one network stage with real parameters and simulated storage.
type layer struct {
	kind LayerKind
	inC  int
	outC int
	// step is the sampling stride fixed at build (the input size is part of
	// the spec, so it is static): weights and bias then hold only the rows
	// of the computed channels 0, step, 2·step, …. Zero — a layer literal —
	// means every row is held and the stride follows from the input.
	step    int
	weights []float32 // per row: conv inC*9, fc inC
	bias    []float32
	// wAddr/wBytes place the FULL layer's weights in simulated memory,
	// whatever the host holds.
	wAddr  uint64
	wBytes int
	code   *trace.CodeRegion
}

// run executes the layer on in, writing its result over out's storage and
// emitting its work into col. relu applies the activation (disabled for the
// final FC). inAddr/outAddr are the simulated activation buffers this layer
// reads and writes (the model ping-pongs between two arenas, so consecutive
// layers genuinely reuse the same buffer).
func (l *layer) run(col trace.Collector, in, out *Tensor, relu bool, inAddr, outAddr uint64) {
	switch l.kind {
	case Conv3x3, StridedConv3x3:
		l.conv(col, in, out, inAddr, outAddr)
	case MaxPool2x2:
		l.pool(col, in, out, inAddr, outAddr)
	case FC:
		l.fc(col, in, out, relu, inAddr, outAddr)
	default:
		panic(fmt.Sprintf("nn: unknown layer kind %d", l.kind))
	}
}

// emitWeights streams the layer's full weight footprint.
func (l *layer) emitWeights(col trace.Collector) {
	for off := 0; off < l.wBytes; off += weightChunk {
		chunk := l.wBytes - off
		if chunk > weightChunk {
			chunk = weightChunk
		}
		col.Load(l.wAddr+uint64(off), chunk)
	}
}

// sampling returns the stride of computed channels for a call of macs
// multiply-accumulates and the stride of their rows in weights and bias.
func (l *layer) sampling(macs int) (step, rowStride int) {
	if l.step != 0 {
		return l.step, 1
	}
	step = sampleStep(macs, l.outC)
	return step, step
}

// block returns the weight rows (per floats each) and biases of computed
// channels j … j+blockWidth-1 of computed, and how many of them exist: a
// tail block repeats its last channel, whose sums the caller drops.
func (l *layer) block(j, computed, rowStride, per int) (w [blockWidth][]float32, b [blockWidth]float32, n int) {
	n = min(blockWidth, computed-j)
	for k := range w {
		r := (j + min(k, n-1)) * rowStride
		w[k] = l.weights[r*per : (r+1)*per]
		b[k] = l.bias[r]
	}
	return w, b, n
}

// conv computes the (possibly strided) 3×3 convolution with ReLU.
func (l *layer) conv(col trace.Collector, in, out *Tensor, inAddr, outAddr uint64) {
	stride := 1
	if l.kind == StridedConv3x3 {
		stride = 2
	}
	out.shape(l.outC, (in.H+stride-1)/stride, (in.W+stride-1)/stride)
	macs := l.outC * in.C * 9 * out.H * out.W
	step, rowStride := l.sampling(macs)
	positive := l.convCompute(in, out, stride, step, rowStride)

	// Trace emission for the FULL layer.
	col.Exec(l.code, 300)
	l.emitWeights(col)
	col.Load(inAddr, in.Bytes())
	col.Store(outAddr, out.Bytes())
	col.Ops(macs / macsPerInstr)
	// Sparse data-dependent branches: activation-statistics checks
	// (inference code is loop-dominated and branch-light).
	dense := positive*2 > out.Len()
	col.Branch(l.code.Base, dense)
	col.Branch(l.code.Base+1, true) // loop exit, well predicted
}

// convCompute is the host arithmetic of conv: every step-th output channel
// exactly, blockWidth of them per pass over the input, the others
// replicated. It returns how many computed activations were positive.
//
// Summation-order contract: each accumulator starts from its bias and adds
// w·x over ic, then the in-bounds ky, then the in-bounds kx, one rounding
// per add — the order of the single-accumulator loop this replaced, which
// TestBlockedKernelsMatchReference keeps as the oracle. Every activation,
// and so every dense bit, depends on it; `a += w * x` stays in that form so
// that a fusing compiler (arm64) fuses kernel and oracle alike.
func (l *layer) convCompute(in, out *Tensor, stride, step, rowStride int) (positive int) {
	inH, inW, inC := in.H, in.W, in.C
	outH, outW := out.H, out.W
	plane := outH * outW
	computed := (l.outC + step - 1) / step
	x := in.Data
	for j := 0; j < computed; j += blockWidth {
		w, b, n := l.block(j, computed, rowStride, inC*9)
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*stride - 1
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*stride - 1
				// Padding: the in-bounds taps of the 3×3 window, ky then
				// kx, as offsets into one channel's weights and pixels.
				var tw, tx [9]int
				taps := 0
				for ky := max(0, -iy0); ky < min(3, inH-iy0); ky++ {
					for kx := max(0, -ix0); kx < min(3, inW-ix0); kx++ {
						tw[taps], tx[taps] = ky*3+kx, (iy0+ky)*inW+ix0+kx
						taps++
					}
				}
				a0, a1, a2, a3 := b[0], b[1], b[2], b[3]
				for ic := 0; ic < inC; ic++ {
					wc, xc := ic*9, ic*inH*inW
					for t := 0; t < taps; t++ {
						v := x[xc+tx[t]]
						o := wc + tw[t]
						a0 += w0[o] * v
						a1 += w1[o] * v
						a2 += w2[o] * v
						a3 += w3[o] * v
					}
				}
				acc := [blockWidth]float32{a0, a1, a2, a3}
				for k := 0; k < n; k++ {
					a := acc[k]
					if a > 0 {
						positive++
					} else {
						a = 0 // ReLU
					}
					out.Data[(j+k)*step*plane+oy*outW+ox] = a
				}
			}
		}
	}
	// Replicate the computed channel before each skipped one.
	for oc := 0; oc < l.outC; oc++ {
		if src := oc - oc%step; src != oc {
			copy(out.Data[oc*plane:(oc+1)*plane], out.Data[src*plane:(src+1)*plane])
		}
	}
	return positive
}

// pool computes 2×2 max-pooling with stride 2.
func (l *layer) pool(col trace.Collector, in, out *Tensor, inAddr, outAddr uint64) {
	outH := max(in.H/2, 1)
	outW := max(in.W/2, 1)
	out.shape(in.C, outH, outW)
	for c := 0; c < in.C; c++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				m := in.At(c, oy*2, ox*2)
				if y, x := oy*2, ox*2+1; x < in.W {
					if v := in.At(c, y, x); v > m {
						m = v
					}
				}
				if y, x := oy*2+1, ox*2; y < in.H {
					if v := in.At(c, y, x); v > m {
						m = v
					}
				}
				if y, x := oy*2+1, ox*2+1; y < in.H && x < in.W {
					if v := in.At(c, y, x); v > m {
						m = v
					}
				}
				out.Set(c, oy, ox, m)
			}
		}
	}
	col.Exec(l.code, 120)
	col.Load(inAddr, in.Bytes())
	col.Store(outAddr, out.Bytes())
	col.Ops(out.Len() * 3 / macsPerInstr)
	col.Branch(l.code.Base, true)
}

// fc computes the fully-connected layer over the flattened input.
func (l *layer) fc(col trace.Collector, in, out *Tensor, relu bool, inAddr, outAddr uint64) {
	n := in.Len()
	if n != l.inC {
		panic(fmt.Sprintf("nn: fc expects %d inputs, got %d", l.inC, n))
	}
	out.shape(l.outC, 1, 1)
	macs := l.outC * n
	step, rowStride := l.sampling(macs)
	positive := l.fcCompute(in.Data, out.Data, relu, step, rowStride)

	col.Exec(l.code, 200)
	l.emitWeights(col)
	col.Load(inAddr, in.Bytes())
	col.Store(outAddr, out.Bytes())
	col.Ops(macs / macsPerInstr)
	col.Branch(l.code.Base, positive*2 > l.outC)
	col.Branch(l.code.Base+1, true)
}

// fcCompute is the host arithmetic of fc: every step-th output exactly,
// blockWidth of them per pass over x, the others replicated; with relu it
// returns how many computed outputs were positive. Each accumulator starts
// from its bias and adds w·x with i ascending (convCompute's contract).
func (l *layer) fcCompute(x, out []float32, relu bool, step, rowStride int) (positive int) {
	computed := (l.outC + step - 1) / step
	for j := 0; j < computed; j += blockWidth {
		w, b, n := l.block(j, computed, rowStride, len(x))
		// Rows are len(x) long; saying so lets the loop index them unchecked.
		w0, w1, w2, w3 := w[0][:len(x)], w[1][:len(x)], w[2][:len(x)], w[3][:len(x)]
		a0, a1, a2, a3 := b[0], b[1], b[2], b[3]
		for i, v := range x {
			a0 += w0[i] * v
			a1 += w1[i] * v
			a2 += w2[i] * v
			a3 += w3[i] * v
		}
		acc := [blockWidth]float32{a0, a1, a2, a3}
		for k := 0; k < n; k++ {
			a := acc[k]
			if relu {
				if a > 0 {
					positive++
				} else {
					a = 0
				}
			}
			out[(j+k)*step] = a
		}
	}
	for o := range out {
		if src := o - o%step; src != o {
			out[o] = out[src]
		}
	}
	return positive
}

// initWeights fills the layer's parameters with scaled random values
// (He-style initialization keeps activations in range through deep stacks).
// It draws the full layer's stream — every row's fanIn weights, then every
// bias — and keeps the rows the layer holds: a row that is not stored is
// still drawn, in place, or every later layer's parameters would change.
func (l *layer) initWeights(rng *stats.RNG, fanIn int) {
	scale := float32(1.7) / float32(sqrtInt(fanIn))
	step := max(l.step, 1)
	for oc := 0; oc < l.outC; oc++ {
		if oc%step != 0 {
			for i := 0; i < fanIn; i++ {
				rng.Float64()
			}
			continue
		}
		row := l.weights[oc/step*fanIn:][:fanIn]
		for i := range row {
			row[i] = float32(rng.Range(-1, 1)) * scale
		}
	}
	for oc := 0; oc < l.outC; oc++ {
		if v := float32(rng.Range(-0.05, 0.05)); oc%step == 0 {
			l.bias[oc/step] = v
		}
	}
}

func sqrtInt(n int) float64 {
	if n < 1 {
		return 1
	}
	x := float64(n)
	guess := x / 2
	for i := 0; i < 20; i++ {
		guess = (guess + x/guess) / 2
	}
	return guess
}
