package nn

import (
	"math"
	"testing"

	"datamime/internal/stats"
)

// refConv is the single-accumulator convolution the blocked kernel
// replaced, kept verbatim as its oracle (step is an argument where the old
// loop derived it from the MAC count). l holds every row.
func refConv(l *layer, in *Tensor, stride, step int) (*Tensor, int) {
	outH := (in.H + stride - 1) / stride
	outW := (in.W + stride - 1) / stride
	out := NewTensor(l.outC, outH, outW)
	var positive int
	for oc := 0; oc < l.outC; oc++ {
		if oc%step != 0 {
			// Replicate the most recent computed channel.
			src := oc - oc%step
			copy(out.Data[oc*outH*outW:(oc+1)*outH*outW], out.Data[src*outH*outW:(src+1)*outH*outW])
			continue
		}
		wBase := oc * in.C * 9
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*stride - 1
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*stride - 1
				acc := l.bias[oc]
				for ic := 0; ic < in.C; ic++ {
					wOff := wBase + ic*9
					icBase := ic * in.H * in.W
					for ky := 0; ky < 3; ky++ {
						y := iy0 + ky
						if y < 0 || y >= in.H {
							continue
						}
						row := icBase + y*in.W
						for kx := 0; kx < 3; kx++ {
							x := ix0 + kx
							if x < 0 || x >= in.W {
								continue
							}
							acc += l.weights[wOff+ky*3+kx] * in.Data[row+x]
						}
					}
				}
				if acc > 0 {
					positive++
				} else {
					acc = 0 // ReLU
				}
				out.Set(oc, oy, ox, acc)
			}
		}
	}
	return out, positive
}

// refFC is the single-accumulator fully-connected loop, likewise verbatim.
func refFC(l *layer, in *Tensor, relu bool, step int) (*Tensor, int) {
	n := in.Len()
	out := NewTensor(l.outC, 1, 1)
	var positive int
	for o := 0; o < l.outC; o++ {
		if o%step != 0 {
			out.Data[o] = out.Data[o-o%step]
			continue
		}
		acc := l.bias[o]
		wBase := o * n
		for i := 0; i < n; i++ {
			acc += l.weights[wBase+i] * in.Data[i]
		}
		if relu {
			if acc > 0 {
				positive++
			} else {
				acc = 0
			}
		}
		out.Data[o] = acc
	}
	return out, positive
}

// drawn returns a layer drawn from rng that holds only the rows step
// samples, as a built layer does; step 0 holds every row, as a layer
// literal does.
func drawn(kind LayerKind, inC, outC, per, step int, rng *stats.RNG) *layer {
	rows := outC
	if step > 0 {
		rows = (outC + step - 1) / step
	}
	l := &layer{kind: kind, inC: inC, outC: outC, step: step}
	l.weights = make([]float32, rows*per)
	l.bias = make([]float32, rows)
	l.initWeights(rng, per)
	return l
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBlockedKernelsMatchReference: the blocked conv and FC kernels produce
// every output float (bit for bit, not within a tolerance) and the positive
// count of the single-accumulator loops they replaced, over both row
// layouts — every row held, and only the sampled rows held — including
// blocks with a tail of 1, 2 and 3 channels.
func TestBlockedKernelsMatchReference(t *testing.T) {
	rng := stats.NewRNG(20)
	tails := map[int]int{}
	const cases = 400
	for c := 0; c < cases; c++ {
		inC, outC := 1+rng.IntN(9), 1+rng.IntN(23)
		h, w := 1+rng.IntN(9), 1+rng.IntN(9)
		stride := 1 + rng.IntN(2)
		step := min(1+rng.IntN(4), outC)
		relu := rng.IntN(2) == 0
		seed := rng.Uint64()
		tails[(outC+step-1)/step%blockWidth]++

		kind := Conv3x3
		if stride == 2 {
			kind = StridedConv3x3
		}
		in := NewTensor(inC, h, w)
		in.FillRandom(rng)

		// Both row layouts: every row held (a layer literal, rows step
		// apart) and only the sampled rows held (a built layer).
		type layout struct {
			name      string
			l         *layer
			rowStride int
		}
		layouts := func(kind LayerKind, inC, per int) []layout {
			return []layout{
				{"full rows", drawn(kind, inC, outC, per, 0, stats.NewRNG(seed)), step},
				{"sampled rows", drawn(kind, inC, outC, per, step, stats.NewRNG(seed)), 1},
			}
		}

		conv := layouts(kind, inC, inC*9)
		want, wantPos := refConv(conv[0].l, in, stride, step)
		for _, v := range conv {
			got := NewTensor(want.C, want.H, want.W)
			pos := v.l.convCompute(in, got, stride, step, v.rowStride)
			if pos != wantPos || !sameBits(got.Data, want.Data) {
				t.Fatalf("case %d conv %s: inC %d outC %d %dx%d stride %d step %d: positive %d want %d, outputs equal %v",
					c, v.name, inC, outC, h, w, stride, step, pos, wantPos, sameBits(got.Data, want.Data))
			}
		}

		fc := layouts(FC, in.Len(), in.Len())
		want, wantPos = refFC(fc[0].l, in, relu, step)
		for _, v := range fc {
			got := make([]float32, outC)
			pos := v.l.fcCompute(in.Data, got, relu, step, v.rowStride)
			if pos != wantPos || !sameBits(got, want.Data) {
				t.Fatalf("case %d fc %s: in %d out %d step %d relu %v: positive %d want %d, outputs equal %v",
					c, v.name, in.Len(), outC, step, relu, pos, wantPos, sameBits(got, want.Data))
			}
		}
	}
	for tail := 0; tail < blockWidth; tail++ {
		if tails[tail] == 0 {
			t.Fatalf("no case with a tail block of %d channels: %v", tail, tails)
		}
	}
}

// TestSampledDrawKeepsTheStream: a layer that holds only its sampled rows
// holds, row for row and bias for bias, the rows of one that stored
// everything from the same RNG — and leaves the RNG where the full draw
// does, so every later layer's parameters are unmoved.
func TestSampledDrawKeepsTheStream(t *testing.T) {
	const inC, outC, per = 3, 11, 27
	for step := 1; step <= 5; step++ {
		fullRNG, sampledRNG := stats.NewRNG(21), stats.NewRNG(21)
		full := drawn(Conv3x3, inC, outC, per, 0, fullRNG)
		sampled := drawn(Conv3x3, inC, outC, per, step, sampledRNG)
		rows := len(sampled.bias)
		if want := (outC + step - 1) / step; rows != want {
			t.Fatalf("step %d: %d rows held, want %d", step, rows, want)
		}
		for r := 0; r < rows; r++ {
			oc := r * step
			if !sameBits(sampled.weights[r*per:(r+1)*per], full.weights[oc*per:(oc+1)*per]) {
				t.Fatalf("step %d: held row %d differs from full row %d", step, r, oc)
			}
			if sampled.bias[r] != full.bias[oc] {
				t.Fatalf("step %d: held bias %d = %g, full bias %d = %g", step, r, sampled.bias[r], oc, full.bias[oc])
			}
		}
		if a, b := sampledRNG.Uint64(), fullRNG.Uint64(); a != b {
			t.Fatalf("step %d: the sampled draw left the RNG elsewhere (%#x vs %#x)", step, a, b)
		}
	}
}
