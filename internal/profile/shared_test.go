package profile

import (
	"reflect"
	"testing"

	"datamime/internal/apps/nn"
	"datamime/internal/datagen"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// TestSharedDNNBuildIsInvisible: the dnn generator's benchmark builds its
// network once per dataset seed and hands every run of the sweep the same
// parameters (nn.Shared). The profile must be, bit for bit, that of a
// benchmark that builds a network per run — serially and from a pool of
// runs that reach the shared build at once, and for a second seed through
// the same Benchmark value, whose one kept build is then replaced. Under
// -race it also shows the pool only ever reads the shared parameters.
func TestSharedDNNBuildIsInvisible(t *testing.T) {
	// 96-channel 3×3 convolutions at 16×16 are 21 M MACs each, ten times the
	// host-compute sampling threshold: the shared build holds sampled rows.
	x := []float64{2000, 3, 1, 1, 1, 96}
	spec := nn.Synthesize(nn.SynthParams{
		Conv: 3, StridedConv: 1, MaxPool: 1, FC: 1, FirstChan: 96, InputHW: 16, Classes: 100,
	})
	shared := datagen.DNN().Benchmark(x)
	perRun := shared
	perRun.NewServer = func(l *trace.CodeLayout, seed uint64) workload.Server {
		return nn.New(spec, l, seed)
	}
	for _, seed := range []uint64{7, 8} {
		want, err := fastProfiler().Profile(perRun, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			pr := fastProfiler()
			pr.Workers = workers
			pr.disableWorkerClamp = true
			got, err := pr.Profile(shared, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, workers=%d: the shared build's profile diverged from the per-run build's", seed, workers)
			}
		}
	}
}
