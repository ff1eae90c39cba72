package nn

import (
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

var (
	benchSink  []float32
	benchModel *Model
)

// BenchmarkInfer measures one forward pass through trace.Null: the host
// float work and the event emission calls, with no simulator behind them —
// the part of a dnn request that apps.handle_ms charges to this package.
func BenchmarkInfer(b *testing.B) {
	for _, tc := range []struct {
		name string
		spec NetSpec
	}{
		{"resnet50", ResNet50Target()},
		{"shufflenet", ShuffleNetDefault()},
		{"autoencoder", AutoencoderTarget()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			m := Build(tc.spec, trace.NewCodeLayout(), 1)
			in := NewTensor(tc.spec.InputC, tc.spec.InputHW, tc.spec.InputHW)
			in.FillRandom(stats.NewRNG(2))
			var null trace.Null
			benchSink = m.Infer(null, in)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = m.Infer(null, in)
			}
		})
	}
}

// BenchmarkBuild measures one model build — the weight draw every run of a
// sweep paid before the build was shared per candidate.
func BenchmarkBuild(b *testing.B) {
	b.Run("resnet50", func(b *testing.B) {
		b.ReportAllocs()
		spec := ResNet50Target()
		for i := 0; i < b.N; i++ {
			benchModel = Build(spec, trace.NewCodeLayout(), 1)
		}
	})
}
