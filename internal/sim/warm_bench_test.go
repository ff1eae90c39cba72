package sim_test

import (
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
)

// BenchmarkWarm measures one dataset warm of a key-value store at the size
// the memcached generator builds (110 000 keys, values ≈ 600 B) on
// Broadwell: into the main lane alone, and into a machine carrying the
// lanes of harness.Quick()'s curve (1, 3, 5, 7 and 9 ways; the 12-way point
// is the main lane), as a profile's pass warms it. It lives in the external
// test package because the store imports nothing of sim but its importers
// do.
func BenchmarkWarm(b *testing.B) {
	srv := kvstore.New(kvstore.Config{
		NumKeys:   110_000,
		KeySize:   stats.Normal{Mu: 30, Sigma: 8, Min: 4},
		ValueSize: stats.Normal{Mu: 600, Sigma: 100, Min: 1},
		GetRatio:  0.9,
	}, trace.NewCodeLayout(), 1)
	for _, bc := range []struct {
		name  string
		lanes []int
	}{
		{"classic", nil},
		{"lanes", []int{1, 3, 5, 7, 9, 12}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			m := sim.NewMachine(sim.Broadwell(), 200_000)
			warm := func() {
				m.Reset()
				for _, w := range bc.lanes {
					m.AddLane(w)
				}
				m.Warm(srv)
			}
			warm() // fault the machine's and the lanes' pages in
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				warm()
			}
		})
	}
}
