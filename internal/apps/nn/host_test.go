package nn

import (
	"strings"
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

// TestHostHoldsSampledRows: a build holds Σ ceil(outC/step)·per weight
// floats — the rows host-compute sampling reads — while WeightBytes, the
// simulated footprint the warm pass and every request stream, stays the
// full layers' (the values before rows were dropped).
func TestHostHoldsSampledRows(t *testing.T) {
	for _, tc := range []struct {
		name        string
		spec        NetSpec
		weightBytes int
		heldFloats  int
	}{
		{"resnet50", ResNet50Target(), 19585792, 1301632},
		{"shufflenet", ShuffleNetDefault(), 3793440, 948360}, // no layer is large enough to sample,
		{"autoencoder", AutoencoderTarget(), 2150400, 537600},
	} {
		m := Build(tc.spec, trace.NewCodeLayout(), 13)
		if got := m.WeightBytes(); got != tc.weightBytes {
			t.Errorf("%s: WeightBytes = %d, want %d", tc.name, got, tc.weightBytes)
		}
		held := 0
		for i, l := range m.layers {
			if l.kind == MaxPool2x2 {
				continue
			}
			per := l.wBytes / 4 / l.outC
			rows := (l.outC + l.step - 1) / l.step
			if len(l.weights) != rows*per || len(l.bias) != rows {
				t.Errorf("%s layer %d (outC %d, step %d): holds %d weights and %d biases, want %d and %d",
					tc.name, i, l.outC, l.step, len(l.weights), len(l.bias), rows*per, rows)
			}
			held += len(l.weights)
		}
		if held != tc.heldFloats {
			t.Errorf("%s: %d weight floats held, want %d (of %d)", tc.name, held, tc.heldFloats, tc.weightBytes/4)
		}
	}
}

// TestInferRejectsOtherShapes: sampling steps and buffers are fixed for the
// spec's input at build, so another shape must not reach a kernel.
func TestInferRejectsOtherShapes(t *testing.T) {
	m := Build(tinySpec(), trace.NewCodeLayout(), 1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "3x16x16") || !strings.Contains(msg, "3x8x8") {
			t.Fatalf("panic %q does not name both shapes", msg)
		}
	}()
	m.Infer(trace.Null{}, NewTensor(3, 16, 16))
}

// TestHandleAllocatesNothing: after the first request the server runs out of
// its two activation buffers.
func TestHandleAllocatesNothing(t *testing.T) {
	s := New(ResNet50Target(), trace.NewCodeLayout(), 1)
	rng := stats.NewRNG(2)
	var null trace.Null
	s.Handle(null, rng)
	if n := testing.AllocsPerRun(3, func() { s.Handle(null, rng) }); n != 0 {
		t.Fatalf("Handle allocates %v times per call", n)
	}
}
