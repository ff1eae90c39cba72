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

// params is the part of a built model that is a pure function of
// (spec, seed) and is never written once buildParams returns: the drawn
// parameters, their simulated placement and the two simulated activation
// arenas. Its layers carry no code region: regions hold a cursor and
// belong to the model's layout (params.model).
type params struct {
	spec       NetSpec
	layers     []layer
	bufA, bufB uint64
	maxAct     int // the largest layer output, in floats
}

// Model is a built network: real weights plus simulated weight storage,
// laid out for one run.
type Model struct {
	shared *params
	layers []layer // shared.layers with this run's code regions attached
	code   modelCode
	// act are the host activation buffers, ping-ponged like the simulated
	// bufA/bufB they model. Every kernel writes every output element, so
	// they are never cleared.
	act [2]Tensor

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
	return buildParams(spec, seed).model(layout)
}

// buildParams draws the network's parameters and places them in a simulated
// heap. Each layer draws its full stream in layer order but holds only the
// rows its sampling step computes (layer.initWeights), while wAddr/wBytes
// describe the full layer. It panics on an invalid spec.
func buildParams(spec NetSpec, seed uint64) *params {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	heap := memsim.NewHeap()
	p := &params{
		spec: spec,
		bufA: heap.Alloc(actBufBytes),
		bufB: heap.Alloc(actBufBytes),
	}
	rng := stats.NewRNG(stats.HashSeed(seed, "nn-weights"))
	// add draws and places a conv or FC layer of per weights per output
	// channel, producing positions outputs per channel.
	add := func(kind LayerKind, inC, outC, per, positions int) {
		l := layer{kind: kind, inC: inC, outC: outC, step: sampleStep(outC*per*positions, outC)}
		rows := (outC + l.step - 1) / l.step
		l.weights = make([]float32, rows*per)
		l.bias = make([]float32, rows)
		l.initWeights(rng, per)
		l.wBytes = 4 * outC * per
		l.wAddr = heap.Alloc(l.wBytes)
		p.layers = append(p.layers, l)
		p.maxAct = max(p.maxAct, outC*positions)
	}

	c, h := spec.InputC, spec.InputHW
	w := spec.InputHW
	flat := 0 // non-zero once we are in FC territory
	for i, ls := range spec.Layers {
		switch ls.Kind {
		case Conv3x3, StridedConv3x3:
			if ls.Kind == StridedConv3x3 {
				h = (h + 1) / 2
				w = (w + 1) / 2
			}
			add(ls.Kind, c, ls.OutChannels, c*9, h*w)
			c = ls.OutChannels
		case MaxPool2x2:
			p.layers = append(p.layers, layer{kind: MaxPool2x2, inC: c, outC: c})
			h = max(h/2, 1)
			w = max(w/2, 1)
			p.maxAct = max(p.maxAct, c*h*w)
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
			add(FC, flat, outW, flat, 1)
			flat = outW
			c, h, w = outW, 1, 1
		}
	}
	// Networks without a trailing FC still need logits: append a classifier.
	if len(p.layers) == 0 || p.layers[len(p.layers)-1].kind != FC {
		add(FC, c*h*w, spec.Classes, c*h*w, 1)
	}
	return p
}

// model lays the shared parameters out for one run: the engine's text
// regions in layout, and the host activation buffers.
func (p *params) model(layout *trace.CodeLayout) *Model {
	m := &Model{
		shared: p,
		layers: append([]layer(nil), p.layers...),
		code: modelCode{
			sched:  layout.Region("nn.scheduler", 4<<10),
			conv:   layout.Region("nn.conv3x3_kernel", 7<<10),
			pool:   layout.Region("nn.maxpool_kernel", 2<<10),
			fc:     layout.Region("nn.gemm_kernel", 6<<10),
			relu:   layout.Region("nn.relu", 1<<10),
			input:  layout.Region("nn.decode_input", 5<<10),
			output: layout.Region("nn.softmax_output", 2<<10),
		},
	}
	for i := range m.layers {
		switch l := &m.layers[i]; l.kind {
		case Conv3x3, StridedConv3x3:
			l.code = m.code.conv
		case MaxPool2x2:
			l.code = m.code.pool
		case FC:
			l.code = m.code.fc
		}
	}
	buf := make([]float32, 2*p.maxAct)
	m.act[0].Data, m.act[1].Data = buf[:p.maxAct:p.maxAct], buf[p.maxAct:]
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
func (m *Model) Spec() NetSpec { return m.shared.spec }

// Infer runs a forward pass on input, emitting all work into col, and
// returns the logits. It panics on an input of another shape than the
// model's: sampling steps and buffers were fixed for that shape at build.
func (m *Model) Infer(col trace.Collector, input *Tensor) []float32 {
	return append([]float32(nil), m.forward(col, input)...)
}

// forward is Infer returning the logits in place, in a host activation
// buffer the next pass overwrites.
func (m *Model) forward(col trace.Collector, input *Tensor) []float32 {
	if s := m.shared.spec; input.C != s.InputC || input.H != s.InputHW || input.W != s.InputHW {
		panic(fmt.Sprintf("nn: input is %dx%dx%d, model was built for %dx%dx%d",
			input.C, input.H, input.W, s.InputC, s.InputHW, s.InputHW))
	}
	m.inferences++
	col.Exec(m.code.sched, 250)
	col.Exec(m.code.input, 300+input.Bytes()/64)
	col.Store(m.shared.bufA, input.Bytes())

	cur := input
	inAddr, outAddr := m.shared.bufA, m.shared.bufB
	for i := range m.layers {
		l := &m.layers[i]
		relu := l.kind != FC || i != len(m.layers)-1
		col.Exec(m.code.sched, 60)
		if relu && l.kind != MaxPool2x2 {
			col.Exec(m.code.relu, 30)
		}
		out := &m.act[i%2]
		l.run(col, cur, out, relu, inAddr, outAddr)
		cur = out
		inAddr, outAddr = outAddr, inAddr
	}
	col.Exec(m.code.output, 120+len(cur.Data)/8)
	return cur.Data
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
