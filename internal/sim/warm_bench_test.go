package sim_test

import (
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
)

// BenchmarkWarm measures one dataset warm of a key-value store at the size
// the memcached generator builds (110 000 keys, values ≈ 600 B) on Broadwell,
// the four ways a sweep's run can pay for it: classically, recording the
// warm tape, and replaying it into a 1-way and into the full LLC. A sweep of
// n runs costs one record and n-1 replays where it used to cost n classic
// warms. It lives in the external test package because the store imports
// nothing of sim but its importers do.
func BenchmarkWarm(b *testing.B) {
	srv := kvstore.New(kvstore.Config{
		NumKeys:   110_000,
		KeySize:   stats.Normal{Mu: 30, Sigma: 8, Min: 4},
		ValueSize: stats.Normal{Mu: 600, Sigma: 100, Min: 1},
		GetRatio:  0.9,
	}, trace.NewCodeLayout(), 1)
	cfg := sim.Broadwell()
	warm := func(m *sim.Machine, ways int, tape *sim.WarmTape) {
		m.Reset()
		if ways > 0 {
			m.SetLLCPartition(ways)
		}
		if tape == nil {
			srv.WarmDataset(m)
			return
		}
		m.BeginWarm(tape)
		srv.WarmDataset(m)
		if err := m.EndWarm(); err != nil {
			b.Fatal(err)
		}
	}
	sealed := sim.NewWarmTape()
	warm(sim.NewMachine(cfg, 200_000), 0, sealed) // records

	for _, bc := range []struct {
		name string
		ways int
		tape func() *sim.WarmTape
	}{
		{"classic", 0, func() *sim.WarmTape { return nil }},
		{"record", 0, sim.NewWarmTape},
		{"replay-1way", 1, func() *sim.WarmTape { return sealed }},
		{"replay-full", 0, func() *sim.WarmTape { return sealed }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			m := sim.NewMachine(cfg, 200_000)
			warm(m, bc.ways, bc.tape()) // fault the machine's pages in
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				warm(m, bc.ways, bc.tape())
			}
		})
	}
}
