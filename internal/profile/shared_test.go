package profile

import (
	"reflect"
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/apps/nn"
	"datamime/internal/datagen"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// TestSharedBuildIsInvisible: a generator whose benchmark builds its dataset
// once per dataset seed and assembles every run's server from that build
// (nn.Shared, kvstore.Shared) must profile, bit for bit, like a benchmark
// that builds a server per run — serially and from a pool of runs that reach
// the shared build at once, and for a second seed through the same Benchmark
// value, whose one kept build is then replaced. Under -race it also shows the
// pool only ever reads the kept build. The next app to share is one more row:
// its generator's Benchmark(x) against the per-run constructor with the
// config the generator derives from x.
//
// Under -short the kvstore rows, each a 110 000-key population per run,
// profile one seed; the dnn row keeps both, so the replacement of a kept build
// still runs under the race detector's -short pass.
func TestSharedBuildIsInvisible(t *testing.T) {
	// 96-channel 3×3 convolutions at 16×16 are 21 M MACs each, ten times the
	// host-compute sampling threshold: the shared build holds sampled rows.
	dnnSpec := nn.Synthesize(nn.SynthParams{
		Conv: 3, StridedConv: 1, MaxPool: 1, FC: 1, FirstChan: 96, InputHW: 16, Classes: 100,
	})
	kvCfg := kvstore.Config{
		NumKeys:   110_000,
		KeySize:   stats.Normal{Mu: 30, Sigma: 8, Min: 4},
		ValueSize: stats.Normal{Mu: 600, Sigma: 100, Min: 1},
		GetRatio:  0.9,
	}
	kvCompressible := kvCfg
	kvCompressible.ValueEntropy = 3.5
	for _, row := range []struct {
		name      string
		shared    workload.Benchmark
		perRun    func(*trace.CodeLayout, uint64) workload.Server
		shortSeed bool // under -short, profile seed 7 only
	}{
		{"dnn", datagen.DNN().Benchmark([]float64{2000, 3, 1, 1, 1, 96}),
			func(l *trace.CodeLayout, seed uint64) workload.Server { return nn.New(dnnSpec, l, seed) }, false},
		{"memcached", datagen.Memcached().Benchmark([]float64{100_000, 0.9, 30, 8, 600, 100}),
			func(l *trace.CodeLayout, seed uint64) workload.Server { return kvstore.New(kvCfg, l, seed) }, true},
		{"memcached-compressible", datagen.MemcachedCompressible().Benchmark([]float64{100_000, 0.9, 30, 8, 600, 100, 3.5}),
			func(l *trace.CodeLayout, seed uint64) workload.Server { return kvstore.New(kvCompressible, l, seed) }, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			perRun := row.shared
			perRun.NewServer = row.perRun
			seeds := []uint64{7, 8}
			if row.shortSeed && testing.Short() {
				seeds = seeds[:1]
			}
			for _, seed := range seeds {
				want, err := fastProfiler().Profile(perRun, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					pr := fastProfiler()
					pr.Workers = workers
					pr.disableWorkerClamp = true
					got, err := pr.Profile(row.shared, seed)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d, workers=%d: the shared build's profile diverged from the per-run build's", seed, workers)
					}
				}
			}
		})
	}
}
