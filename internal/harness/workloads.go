// Package harness wires the full evaluation together: the target workloads
// (with their hidden datasets), the alternative public datasets, the
// PerfProx-style cloning baseline, and Datamime searches — and regenerates
// every table and figure of the paper's evaluation section as formatted
// text. See DESIGN.md's per-experiment index for the mapping.
package harness

import (
	"fmt"

	"datamime/internal/apps/kvstore"
	"datamime/internal/apps/masstree"
	"datamime/internal/apps/nn"
	"datamime/internal/apps/searchidx"
	"datamime/internal/apps/silodb"
	"datamime/internal/datagen"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// Workload bundles one evaluation target: the hidden target benchmark, the
// alternative public dataset (the red bars of Figs. 1 and 3, when one
// exists), and the dataset generator Datamime searches for it.
type Workload struct {
	// Name is the paper's workload name (mem-fb, mem-twtr, silo, xapian,
	// dnn, masstree, img-dnn).
	Name string
	// Target is the production workload to mimic. Its dataset
	// configuration is hidden from the search.
	Target workload.Benchmark
	// Public is the same application driven with a publicly available
	// dataset; nil for the case-study targets.
	Public *workload.Benchmark
	// Generator is the dataset generator used in the search. For the
	// case-study targets it drives a *different* program than the target
	// (memcached for masstree, dnn for img-dnn — §V-C).
	Generator datagen.Generator
}

// target benchmark constructors; each hides its dataset configuration
// behind a server factory.

func memFB() workload.Benchmark {
	return workload.Benchmark{
		Name: "mem-fb",
		QPS:  kvstore.FacebookQPS,
		NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
			return kvstore.New(kvstore.FacebookTarget(), l, seed)
		},
	}
}

func memTwtr() workload.Benchmark {
	return workload.Benchmark{
		Name: "mem-twtr",
		QPS:  kvstore.TwitterQPS,
		NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
			return kvstore.New(kvstore.TwitterTarget(), l, seed)
		},
	}
}

func memPublic() workload.Benchmark {
	return workload.Benchmark{
		Name: "mem-public",
		QPS:  kvstore.TailbenchQPS,
		NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
			return kvstore.New(kvstore.TailbenchDefault(), l, seed)
		},
	}
}

func siloTarget() workload.Benchmark {
	return workload.Benchmark{
		Name: "silo",
		QPS:  silodb.BiddingQPS,
		NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
			return silodb.New(silodb.BiddingTarget(), l, seed)
		},
	}
}

func siloPublic() workload.Benchmark {
	return workload.Benchmark{
		Name: "silo-public",
		QPS:  silodb.TPCCDefaultQPS,
		NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
			return silodb.New(silodb.TPCCDefault(), l, seed)
		},
	}
}

func xapianTarget() workload.Benchmark {
	return workload.Benchmark{
		Name: "xapian",
		QPS:  searchidx.WikipediaQPS,
		NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
			return searchidx.New(searchidx.WikipediaTarget(), l, seed)
		},
	}
}

func xapianPublic() workload.Benchmark {
	return workload.Benchmark{
		Name: "xapian-public",
		QPS:  searchidx.StackOverflowQPS,
		NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
			return searchidx.New(searchidx.StackOverflowDefault(), l, seed)
		},
	}
}

// nnBenchmark is a fixed network of the given server family.
func nnBenchmark(name, family string, qps float64, spec nn.NetSpec) workload.Benchmark {
	return workload.Benchmark{
		Name: name,
		QPS:  qps,
		NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
			return nn.NewServer(nn.Build(spec, l, seed), family)
		},
	}
}

func dnnTarget() workload.Benchmark {
	return nnBenchmark("dnn", "dnn", nn.ResNetQPS, nn.ResNet50Target())
}

func dnnPublic() workload.Benchmark {
	return nnBenchmark("dnn-public", "dnn", nn.ShuffleNetQPS, nn.ShuffleNetDefault())
}

func masstreeTarget() workload.Benchmark {
	return workload.Benchmark{
		Name: "masstree",
		QPS:  masstree.YCSBQPS,
		NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
			return masstree.New(masstree.YCSBTarget(), l, seed)
		},
	}
}

func imgDNNTarget() workload.Benchmark {
	return nnBenchmark("img-dnn", "img-dnn", nn.AutoencoderQPS, nn.AutoencoderTarget())
}

// Workloads returns the five main evaluation targets, in the paper's order.
func Workloads() []Workload {
	pub := func(b workload.Benchmark) *workload.Benchmark { return &b }
	return []Workload{
		{Name: "mem-fb", Target: memFB(), Public: pub(memPublic()), Generator: datagen.Memcached()},
		{Name: "mem-twtr", Target: memTwtr(), Public: pub(memPublic()), Generator: datagen.Memcached()},
		{Name: "silo", Target: siloTarget(), Public: pub(siloPublic()), Generator: datagen.Silo()},
		{Name: "xapian", Target: xapianTarget(), Public: pub(xapianPublic()), Generator: datagen.Xapian()},
		{Name: "dnn", Target: dnnTarget(), Public: pub(dnnPublic()), Generator: datagen.DNN()},
	}
}

// CaseStudyWorkloads returns the §V-C targets, each paired with a
// generator that drives a *different but functionally similar* program.
func CaseStudyWorkloads() []Workload {
	return []Workload{
		{Name: "masstree", Target: masstreeTarget(), Generator: datagen.Memcached()},
		{Name: "img-dnn", Target: imgDNNTarget(), Generator: datagen.DNN()},
	}
}

// WorkloadByName resolves a workload across both sets.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range CaseStudyWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("harness: unknown workload %q", name)
}
