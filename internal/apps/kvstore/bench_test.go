package kvstore

import (
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

var benchServer *Server

// generatorSize is a store of the memcached generator's 110 000 keys — the
// config sim's BenchmarkWarm and profile's generator-size sweep row use.
func generatorSize() Config {
	return Config{
		NumKeys:   110_000,
		KeySize:   stats.Normal{Mu: 30, Sigma: 8, Min: 4},
		ValueSize: stats.Normal{Mu: 600, Sigma: 100, Min: 1},
		GetRatio:  0.9,
	}
}

// BenchmarkNew measures one population — what a candidate's profile pays
// once.
func BenchmarkNew(b *testing.B) {
	b.Run("generator-size", func(b *testing.B) {
		b.ReportAllocs()
		cfg := generatorSize()
		for i := 0; i < b.N; i++ {
			benchServer = New(cfg, trace.NewCodeLayout(), 1)
		}
	})
}
