// Package datagen defines Datamime's dataset generators: for each
// application, the Table III parameter space and the mapping from a
// parameter vector to a runnable benchmark (program + synthetic dataset +
// offered load). These are the knobs the optimizer searches; note that none
// of the hidden target characteristics (popularity skew, churn, value-size
// distribution *family*) appear here — the generators follow the paper's
// systematic parameterization procedure (§III-B) without any knowledge of
// the target's dataset.
package datagen

import (
	"fmt"

	"datamime/internal/apps/kvstore"
	"datamime/internal/apps/nn"
	"datamime/internal/apps/searchidx"
	"datamime/internal/apps/silodb"
	"datamime/internal/opt"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// Generator couples a parameter space with its benchmark factory.
type Generator struct {
	// Name identifies the generator ("memcached", "silo", "xapian", "dnn").
	Name string
	// Space is the searchable parameter domain (Table III).
	Space *opt.Space
	// Benchmark instantiates the program + dataset for one parameter
	// vector (in denormalized parameter units, Space order).
	Benchmark func(params []float64) workload.Benchmark
}

// Memcached returns the memcached dataset generator: QPS, GET/SET ratio,
// and Gaussian key/value size parameters (Table III).
func Memcached() Generator {
	space := opt.MustSpace(
		opt.Param{Name: "qps", Lo: 5_000, Hi: 400_000, Log: true},
		opt.Param{Name: "get_ratio", Lo: 0, Hi: 1},
		opt.Param{Name: "key_mu", Lo: 8, Hi: 160, Integer: true},
		opt.Param{Name: "key_sigma", Lo: 1, Hi: 48, Integer: true},
		opt.Param{Name: "val_mu", Lo: 16, Hi: 6_000, Log: true, Integer: true},
		opt.Param{Name: "val_sigma", Lo: 1, Hi: 2_000, Log: true, Integer: true},
	)
	return Generator{
		Name:  "memcached",
		Space: space,
		Benchmark: func(x []float64) workload.Benchmark {
			cfg := kvstore.Config{
				NumKeys:   110_000,
				KeySize:   stats.Normal{Mu: x[2], Sigma: x[3], Min: 4},
				ValueSize: stats.Normal{Mu: x[4], Sigma: x[5], Min: 1},
				GetRatio:  x[1],
			}
			// The store is populated once per candidate and shared by the
			// runs of its sweep (kvstore.Shared); the build is dropped with
			// this Benchmark, after the candidate's one profile.
			newServer := kvstore.Shared(cfg)
			return workload.Benchmark{
				Name: fmt.Sprintf("memcached[%s]", space.Values(x)),
				QPS:  x[0],
				NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
					return newServer(layout, seed)
				},
			}
		},
	}
}

// MemcachedCompressible extends the memcached generator with a value-
// entropy parameter (bits per byte), implementing the paper's §III-D
// future-work sketch: the generator can then be searched to produce data
// with the target's snapshot compression ratio — without ever seeing the
// target's values.
func MemcachedCompressible() Generator {
	base := Memcached()
	params := append(append([]opt.Param{}, base.Space.Params...),
		opt.Param{Name: "val_entropy", Lo: 0.5, Hi: 8})
	space := opt.MustSpace(params...)
	return Generator{
		Name:  "memcached-compressible",
		Space: space,
		Benchmark: func(x []float64) workload.Benchmark {
			cfg := kvstore.Config{
				NumKeys:      110_000,
				KeySize:      stats.Normal{Mu: x[2], Sigma: x[3], Min: 4},
				ValueSize:    stats.Normal{Mu: x[4], Sigma: x[5], Min: 1},
				GetRatio:     x[1],
				ValueEntropy: x[6],
			}
			newServer := kvstore.Shared(cfg) // as in Memcached
			return workload.Benchmark{
				Name: fmt.Sprintf("memcached-compressible[%s]", space.Values(x)),
				QPS:  x[0],
				NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
					return newServer(layout, seed)
				},
			}
		},
	}
}

// Silo returns the silo dataset generator: QPS, TPC-C warehouse scaling,
// and the five transaction-type ratios (Table III).
func Silo() Generator {
	space := opt.MustSpace(
		opt.Param{Name: "qps", Lo: 2_000, Hi: 200_000, Log: true},
		opt.Param{Name: "warehouses", Lo: 1, Hi: 48, Integer: true},
		opt.Param{Name: "w_new_order", Lo: 0, Hi: 1},
		opt.Param{Name: "w_payment", Lo: 0, Hi: 1},
		opt.Param{Name: "w_delivery", Lo: 0, Hi: 1},
		opt.Param{Name: "w_order_status", Lo: 0, Hi: 1},
		opt.Param{Name: "w_stock_level", Lo: 0, Hi: 1},
	)
	return Generator{
		Name:  "silo",
		Space: space,
		Benchmark: func(x []float64) workload.Benchmark {
			mix := [5]float64{x[2], x[3], x[4], x[5], x[6]}
			var sum float64
			for _, w := range mix {
				sum += w
			}
			if sum <= 0 {
				mix = [5]float64{1, 1, 1, 1, 1} // degenerate corner: uniform
			}
			cfg := silodb.Config{
				Mode:       silodb.ModeTPCC,
				Warehouses: int(x[1]),
				TxMix:      mix,
			}
			return workload.Benchmark{
				Name: fmt.Sprintf("silo[%s]", space.Values(x)),
				QPS:  x[0],
				NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
					return silodb.New(cfg, layout, seed)
				},
			}
		},
	}
}

// Xapian returns the xapian dataset generator: QPS, Zipfian query skew,
// term-frequency limit, and average document length (Table III). Documents
// have near-constant length, as the paper selects pages "whose sizes are
// within 50 bytes of the desired average document length".
func Xapian() Generator {
	space := opt.MustSpace(
		opt.Param{Name: "qps", Lo: 200, Hi: 30_000, Log: true},
		opt.Param{Name: "zipf_skew", Lo: 0, Hi: 1.4},
		opt.Param{Name: "term_freq", Lo: 0.002, Hi: 0.5, Log: true},
		opt.Param{Name: "doc_len", Lo: 128, Hi: 16_000, Log: true, Integer: true},
	)
	return Generator{
		Name:  "xapian",
		Space: space,
		Benchmark: func(x []float64) workload.Benchmark {
			cfg := searchidx.Config{
				Corpus: searchidx.CorpusConfig{
					NumDocs:   50_000,
					NumTerms:  24_000,
					DocLength: stats.Normal{Mu: x[3], Sigma: 25, Min: 64},
					DFSkew:    0.85,
					MaxDF:     0.20,
				},
				QuerySkew:     x[1],
				QueryMaxDF:    x[2],
				TermsPerQuery: 2,
				TopK:          8,
			}
			return workload.Benchmark{
				Name: fmt.Sprintf("xapian[%s]", space.Values(x)),
				QPS:  x[0],
				NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
					return searchidx.New(cfg, layout, seed)
				},
			}
		},
	}
}

// DNN returns the dnn dataset generator: QPS plus the network-composition
// parameters of Table III — counts of 3×3 convs, strided convs, maxpools,
// FC layers, and the first layer's output channels. The network (the
// dataset of this workload) is synthesized from these counts.
func DNN() Generator {
	space := opt.MustSpace(
		opt.Param{Name: "qps", Lo: 100, Hi: 20_000, Log: true},
		opt.Param{Name: "conv", Lo: 0, Hi: 24, Integer: true},
		opt.Param{Name: "strided_conv", Lo: 0, Hi: 4, Integer: true},
		opt.Param{Name: "maxpool", Lo: 0, Hi: 4, Integer: true},
		opt.Param{Name: "fc", Lo: 1, Hi: 4, Integer: true},
		opt.Param{Name: "first_chan", Lo: 4, Hi: 160, Log: true, Integer: true},
	)
	return Generator{
		Name:  "dnn",
		Space: space,
		Benchmark: func(x []float64) workload.Benchmark {
			spec := nn.Synthesize(nn.SynthParams{
				Conv:        int(x[1]),
				StridedConv: int(x[2]),
				MaxPool:     int(x[3]),
				FC:          int(x[4]),
				FirstChan:   int(x[5]),
				InputHW:     16,
				Classes:     100,
			})
			// The network is drawn once per candidate and shared by the
			// runs of its sweep (nn.Shared).
			newServer := nn.Shared(spec, "dnn")
			return workload.Benchmark{
				Name: fmt.Sprintf("dnn[%s]", space.Values(x)),
				QPS:  x[0],
				NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
					return newServer(layout, seed)
				},
			}
		},
	}
}

// All returns every generator, keyed by the paper's application names.
func All() []Generator {
	return []Generator{Memcached(), Silo(), Xapian(), DNN()}
}

// ByName resolves a generator.
func ByName(name string) (Generator, error) {
	for _, g := range All() {
		if g.Name == name {
			return g, nil
		}
	}
	return Generator{}, fmt.Errorf("datagen: unknown generator %q", name)
}
