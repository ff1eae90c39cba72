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
// the three ways a sweep's run can pay for it: classically, recording the
// warm tape with the lanes of harness.Quick()'s sweep (1, 3, 5, 7 and 9
// ways, and a copy of its own LLC for the 12-way point), and restoring it
// into the full LLC. A serial sweep of n runs costs one record and n-1
// restores where it used to cost n classic warms. It lives in the external
// test package because the store imports nothing of sim but its importers
// do.
func BenchmarkWarm(b *testing.B) {
	srv := kvstore.New(kvstore.Config{
		NumKeys:   110_000,
		KeySize:   stats.Normal{Mu: 30, Sigma: 8, Min: 4},
		ValueSize: stats.Normal{Mu: 600, Sigma: 100, Min: 1},
		GetRatio:  0.9,
	}, trace.NewCodeLayout(), 1)
	cfg := sim.Broadwell()
	quickSweep := []int{1, 3, 5, 7, 9, 12}
	sealed := sim.NewWarmTape(quickSweep...)
	tape := sim.NewWarmTape(quickSweep...)
	warm := func(m *sim.Machine, mode sim.WarmMode) {
		m.Reset()
		switch mode {
		case sim.WarmClassic:
			srv.WarmDataset(m)
			return
		case sim.WarmRecord:
			tape.Reset(quickSweep...)
			m.RecordWarm(tape)
		case sim.WarmRestore:
			m.RestoreWarm(sealed)
		}
		srv.WarmDataset(m)
		if err := m.EndWarm(); err != nil {
			b.Fatal(err)
		}
	}
	rec := sim.NewMachine(cfg, 200_000)
	rec.RecordWarm(sealed)
	srv.WarmDataset(rec)
	if err := rec.EndWarm(); err != nil {
		b.Fatal(err)
	}

	for _, bc := range []struct {
		name string
		mode sim.WarmMode
	}{
		{"classic", sim.WarmClassic},
		{"record", sim.WarmRecord},
		{"restore", sim.WarmRestore},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			m := sim.NewMachine(cfg, 200_000)
			warm(m, bc.mode) // fault the machine's and the tape's pages in
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				warm(m, bc.mode)
			}
		})
	}
}
