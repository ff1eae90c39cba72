package nn

import (
	"sync"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

// Server is the DNN-as-a-service frontend: each request decodes an input
// image (synthetic, as the profiles are insensitive to pixel content) and
// runs one inference, as in the paper's Tailbench-harnessed PyTorch setup.
type Server struct {
	model *Model
	input *Tensor
	name  string
}

// NewServer wraps a built model. name distinguishes the dnn and img-dnn
// workload families.
func NewServer(model *Model, name string) *Server {
	spec := model.Spec()
	return &Server{
		model: model,
		input: NewTensor(spec.InputC, spec.InputHW, spec.InputHW),
		name:  name,
	}
}

// New builds the model from spec and wraps it, in one step.
func New(spec NetSpec, layout *trace.CodeLayout, seed uint64) *Server {
	return NewServer(Build(spec, layout, seed), "dnn")
}

// Shared returns a server constructor for spec that builds the model's
// parameters once per seed and hands every server of that seed the same
// ones: the profiler builds one server per run of a sweep, all with one
// dataset seed, and the parameters — drawn weights and their simulated
// addresses — are a pure function of (spec, seed) that no server writes.
// What a run advances (code-region cursors, host activations, the input
// tensor) is built per call, in that call's layout, so a shared server emits
// exactly what New's would. One seed is kept: a call with another seed
// replaces it. The lock is held across a build so that concurrent runs of
// one sweep wait for the first instead of each drawing the weights.
func Shared(spec NetSpec, name string) func(*trace.CodeLayout, uint64) *Server {
	var (
		mu   sync.Mutex
		seed uint64
		p    *params
	)
	return func(layout *trace.CodeLayout, s uint64) *Server {
		mu.Lock()
		if p == nil || seed != s {
			p, seed = buildParams(spec, s), s
		}
		built := p
		mu.Unlock()
		return NewServer(built.model(layout), name)
	}
}

// Name implements workload.Server.
func (s *Server) Name() string { return s.name }

// Model exposes the underlying model (tests and examples).
func (s *Server) Model() *Model { return s.model }

// Handle implements workload.Server: decode an input, infer, respond.
func (s *Server) Handle(col trace.Collector, rng *stats.RNG) {
	s.input.FillRandom(rng)
	s.model.forward(col, s.input)
}

// WarmDataset implements workload.Warmable: stream the weights once (a
// loaded model resident in memory).
func (s *Server) WarmDataset(col trace.Collector) {
	for i := range s.model.layers {
		s.model.layers[i].emitWeights(col)
	}
}

// LastMessageSizes implements workload.Sizer: the request carries the
// image, the response the logits.
func (s *Server) LastMessageSizes() (req, resp int) {
	head := s.model.layers[len(s.model.layers)-1].outC
	return s.input.Bytes()/8 + 128, 32 + 4*head // images arrive JPEG-compressed (~8x)
}

// ResNet50Target is the paper's dnn target: a ResNet-50-like model, scaled
// spatially so a pure-Go forward pass stays fast. 16 convolutions with
// doubling channel widths across 3 downsampling stages and a single
// classifier head preserve ResNet's weight-footprint distribution and
// compute intensity profile.
func ResNet50Target() NetSpec {
	return Synthesize(SynthParams{
		Conv:        16,
		StridedConv: 2,
		MaxPool:     1,
		FC:          1,
		FirstChan:   64,
		InputHW:     16,
		Classes:     100,
	})
}

// ResNetQPS is the offered load of the dnn target (long requests, low QPS).
const ResNetQPS = 150

// ShuffleNetDefault is the alternative public model of Figs. 1 and 3: a
// ShuffleNet-V2-like design — many cheap narrow layers, aggressive early
// downsampling, a light head.
func ShuffleNetDefault() NetSpec {
	return Synthesize(SynthParams{
		Conv:        10,
		StridedConv: 3,
		MaxPool:     1,
		FC:          1,
		FirstChan:   24,
		InputHW:     16,
		Classes:     100,
	})
}

// ShuffleNetQPS is the offered load used with the public model.
const ShuffleNetQPS = 650

// AutoencoderTarget is the img-dnn case-study target (§V-C): a Tailbench
// img-dnn-like handwriting-recognition autoencoder over MNIST-sized inputs,
// built purely from FC layers.
func AutoencoderTarget() NetSpec {
	return NetSpec{
		InputC:  1,
		InputHW: 28,
		Layers: []LayerSpec{
			{Kind: FC, OutChannels: 512},
			{Kind: FC, OutChannels: 128},
			{Kind: FC, OutChannels: 512},
			{Kind: FC, OutChannels: 0}, // head -> Classes
		},
		Classes: 10,
	}
}

// AutoencoderQPS is the offered load of the img-dnn target.
const AutoencoderQPS = 20_000

// NewAutoencoderServer builds the img-dnn server.
func NewAutoencoderServer(layout *trace.CodeLayout, seed uint64) *Server {
	return NewServer(Build(AutoencoderTarget(), layout, seed), "img-dnn")
}
