package nn

import (
	"fmt"

	"datamime/internal/memsim"
	"datamime/internal/stats"
	"datamime/internal/trace"
)

// LayerSpec describes one layer of a network specification.
type LayerSpec struct {
	Kind LayerKind
	// OutChannels applies to convolutions (the channel width) and FC layers
	// (the output width; 0 means "same as input" for hidden FCs).
	OutChannels int
}

// NetSpec is a full network description — the dnn workload's dataset.
type NetSpec struct {
	// InputC/InputHW are the input tensor's channels and spatial size.
	InputC, InputHW int
	// Layers is the stage list, in order.
	Layers []LayerSpec
	// Classes is the final logit count.
	Classes int
}

// Validate reports specification errors.
func (s NetSpec) Validate() error {
	if s.InputC <= 0 || s.InputHW <= 0 {
		return fmt.Errorf("nn: input dims %dx%d invalid", s.InputC, s.InputHW)
	}
	if s.Classes <= 0 {
		return fmt.Errorf("nn: Classes must be positive, got %d", s.Classes)
	}
	fcSeen := false
	for i, l := range s.Layers {
		switch l.Kind {
		case Conv3x3, StridedConv3x3:
			if fcSeen {
				return fmt.Errorf("nn: conv layer %d after FC layers", i)
			}
			if l.OutChannels <= 0 {
				return fmt.Errorf("nn: conv layer %d needs positive channels", i)
			}
		case MaxPool2x2:
			if fcSeen {
				return fmt.Errorf("nn: pool layer %d after FC layers", i)
			}
		case FC:
			fcSeen = true
			if l.OutChannels < 0 {
				return fmt.Errorf("nn: fc layer %d has negative width", i)
			}
		default:
			return fmt.Errorf("nn: layer %d has unknown kind %d", i, l.Kind)
		}
	}
	return nil
}

// Model is a built network: real weights plus simulated weight storage.
type Model struct {
	spec   NetSpec
	layers []layer
	heap   *memsim.Heap
	code   modelCode
	bufA   uint64
	bufB   uint64

	inferences int
}

// modelCode holds the engine's shared text regions.
type modelCode struct {
	sched  *trace.CodeRegion
	conv   *trace.CodeRegion
	pool   *trace.CodeRegion
	fc     *trace.CodeRegion
	relu   *trace.CodeRegion
	input  *trace.CodeRegion
	output *trace.CodeRegion
}

// activation buffer size: large enough for any supported layer output.
const actBufBytes = 8 << 20

// maxFCWidth bounds hidden fully-connected widths (a 2048×2048 FC already
// carries 16 MB of weights — larger than the biggest LLC modeled).
const maxFCWidth = 2048

// Build constructs the model with seeded random weights and simulated
// weight storage. It panics on an invalid spec.
func Build(spec NetSpec, layout *trace.CodeLayout, seed uint64) *Model {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	heap := memsim.NewHeap()
	m := &Model{
		spec: spec,
		heap: heap,
		code: modelCode{
			sched:  layout.Region("nn.scheduler", 4<<10),
			conv:   layout.Region("nn.conv3x3_kernel", 7<<10),
			pool:   layout.Region("nn.maxpool_kernel", 2<<10),
			fc:     layout.Region("nn.gemm_kernel", 6<<10),
			relu:   layout.Region("nn.relu", 1<<10),
			input:  layout.Region("nn.decode_input", 5<<10),
			output: layout.Region("nn.softmax_output", 2<<10),
		},
		bufA: heap.Alloc(actBufBytes),
		bufB: heap.Alloc(actBufBytes),
	}
	rng := stats.NewRNG(stats.HashSeed(seed, "nn-weights"))

	c, h := spec.InputC, spec.InputHW
	w := spec.InputHW
	flat := 0 // non-zero once we are in FC territory
	for i, ls := range spec.Layers {
		var l layer
		switch ls.Kind {
		case Conv3x3, StridedConv3x3:
			l = layer{kind: ls.Kind, inC: c, outC: ls.OutChannels, code: m.code.conv}
			l.weights = make([]float32, ls.OutChannels*c*9)
			l.bias = make([]float32, ls.OutChannels)
			l.initWeights(rng, c*9)
			c = ls.OutChannels
			if ls.Kind == StridedConv3x3 {
				h = (h + 1) / 2
				w = (w + 1) / 2
			}
		case MaxPool2x2:
			l = layer{kind: MaxPool2x2, inC: c, outC: c, code: m.code.pool}
			h = max(h/2, 1)
			w = max(w/2, 1)
		case FC:
			if flat == 0 {
				flat = c * h * w
			}
			outW := ls.OutChannels
			if i == len(spec.Layers)-1 {
				outW = spec.Classes
			} else if outW == 0 {
				// Hidden FC width defaults to the flattened input width,
				// capped so a single layer's parameter count stays bounded.
				outW = min(flat, maxFCWidth)
			}
			l = layer{kind: FC, inC: flat, outC: outW, code: m.code.fc}
			l.weights = make([]float32, outW*flat)
			l.bias = make([]float32, outW)
			l.initWeights(rng, flat)
			flat = outW
			c, h, w = outW, 1, 1
		}
		l.wBytes = 4 * len(l.weights)
		if l.wBytes > 0 {
			l.wAddr = heap.Alloc(l.wBytes)
		}
		m.layers = append(m.layers, l)
	}
	// Networks without a trailing FC still need logits: append a classifier.
	if len(m.layers) == 0 || m.layers[len(m.layers)-1].kind != FC {
		flat = c * h * w
		l := layer{kind: FC, inC: flat, outC: spec.Classes, code: m.code.fc}
		l.weights = make([]float32, spec.Classes*flat)
		l.bias = make([]float32, spec.Classes)
		l.initWeights(rng, flat)
		l.wBytes = 4 * len(l.weights)
		l.wAddr = heap.Alloc(l.wBytes)
		m.layers = append(m.layers, l)
	}
	return m
}

// NumLayers returns the built stage count (including any implicit
// classifier head).
func (m *Model) NumLayers() int { return len(m.layers) }

// WeightBytes returns the total simulated weight footprint — the memory
// lever the dnn dataset parameters control.
func (m *Model) WeightBytes() int {
	var total int
	for i := range m.layers {
		total += m.layers[i].wBytes
	}
	return total
}

// Spec returns the model's specification.
func (m *Model) Spec() NetSpec { return m.spec }

// Infer runs a forward pass on input, emitting all work into col, and
// returns the logits.
func (m *Model) Infer(col trace.Collector, input *Tensor) []float32 {
	m.inferences++
	col.Exec(m.code.sched, 250)
	col.Exec(m.code.input, 300+input.Bytes()/64)
	col.Store(m.bufA, input.Bytes())

	cur := input
	inAddr, outAddr := m.bufA, m.bufB
	for i := range m.layers {
		l := &m.layers[i]
		relu := l.kind != FC || i != len(m.layers)-1
		col.Exec(m.code.sched, 60)
		if relu && l.kind != MaxPool2x2 {
			col.Exec(m.code.relu, 30)
		}
		cur = l.forward(col, cur, relu, inAddr, outAddr)
		inAddr, outAddr = outAddr, inAddr
	}
	col.Exec(m.code.output, 120+len(cur.Data)/8)
	out := make([]float32, len(cur.Data))
	copy(out, cur.Data)
	return out
}

// Classify returns the argmax class of an inference.
func (m *Model) Classify(col trace.Collector, input *Tensor) int {
	return argmax(m.Infer(col, input))
}

// Inferences returns how many forward passes have run.
func (m *Model) Inferences() int { return m.inferences }

// SynthParams are the dnn dataset-generator parameters from Table III: the
// counts of each layer type and the first layer's output channels.
type SynthParams struct {
	Conv        int // # of 3×3 convolutions
	StridedConv int // # of 3×3 strided convolutions
	MaxPool     int // # of 2×2 max-pool layers
	FC          int // # of fully-connected layers (>=1; the last is the head)
	FirstChan   int // output channels of the first conv layer
	InputHW     int // input spatial size (fixed per workload family)
	Classes     int
}

// Synthesize composes a NetSpec from the generator parameters: downsampling
// layers (strided convs and pools) are interleaved evenly among the plain
// convolutions while the spatial size allows, channels double after each
// downsample (capped), and FC layers sit at the end, exactly as the paper
// describes ("the locations of the fully-connected layers ... are always
// positioned at the end of the network").
func Synthesize(p SynthParams) NetSpec {
	if p.InputHW <= 0 {
		p.InputHW = 16
	}
	if p.Classes <= 0 {
		p.Classes = 100
	}
	if p.FirstChan < 1 {
		p.FirstChan = 1
	}
	if p.FC < 1 {
		p.FC = 1
	}
	const maxChan = 512
	var layers []LayerSpec
	chans := p.FirstChan
	hw := p.InputHW

	down := make([]LayerKind, 0, p.StridedConv+p.MaxPool)
	for i := 0; i < p.StridedConv; i++ {
		down = append(down, StridedConv3x3)
	}
	for i := 0; i < p.MaxPool; i++ {
		down = append(down, MaxPool2x2)
	}

	convsLeft := p.Conv
	total := p.Conv + len(down)
	gap := 1
	if len(down) > 0 {
		gap = (total + len(down)) / (len(down) + 1)
		if gap < 1 {
			gap = 1
		}
	}
	sinceDown := 0
	first := true
	for convsLeft > 0 || len(down) > 0 {
		takeDown := len(down) > 0 && (convsLeft == 0 || sinceDown >= gap) && hw >= 4
		if takeDown {
			k := down[0]
			down = down[1:]
			if k == StridedConv3x3 {
				c := min(chans*2, maxChan)
				layers = append(layers, LayerSpec{Kind: StridedConv3x3, OutChannels: c})
				chans = c
			} else {
				layers = append(layers, LayerSpec{Kind: MaxPool2x2})
			}
			hw = max(hw/2, 1)
			sinceDown = 0
			continue
		}
		if convsLeft > 0 {
			c := chans
			if first {
				c = p.FirstChan
				first = false
			}
			layers = append(layers, LayerSpec{Kind: Conv3x3, OutChannels: c})
			chans = c
			convsLeft--
			sinceDown++
			continue
		}
		// Downsamples remain but the spatial size is exhausted: drop them.
		break
	}
	for i := 0; i < p.FC; i++ {
		layers = append(layers, LayerSpec{Kind: FC})
	}
	return NetSpec{InputC: 3, InputHW: p.InputHW, Layers: layers, Classes: p.Classes}
}
