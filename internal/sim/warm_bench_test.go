package sim_test

import (
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/apps/nn"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
)

// These tests live in the external test package because the apps import
// nothing of sim but their importers do.

// generatorStore builds a key-value store at the size the memcached
// generator builds: 110 000 keys, values ≈ 600 B.
func generatorStore() *kvstore.Server {
	return kvstore.New(kvstore.Config{
		NumKeys:   110_000,
		KeySize:   stats.Normal{Mu: 30, Sigma: 8, Min: 4},
		ValueSize: stats.Normal{Mu: 600, Sigma: 100, Min: 1},
		GetRatio:  0.9,
	}, trace.NewCodeLayout(), 1)
}

// quickLanes are the LLC allocations of harness.Quick()'s curve on
// Broadwell: 1, 3, 5, 7 and 9 ways, and the 12-way point, which is the main
// lane.
var quickLanes = []int{1, 3, 5, 7, 9, 12}

// warmed returns a Broadwell machine carrying lanes, warmed by w.
func warmed(w interface{ WarmDataset(trace.Collector) }, lanes []int) *sim.Machine {
	m := sim.NewMachine(sim.Broadwell(), 200_000)
	for _, ways := range lanes {
		m.AddLane(ways)
	}
	m.Warm(w)
	return m
}

// TestWarmStepsOnlyKnownMisses pins the line counts of two dataset warms,
// and that every line they step lies above every line stepped before it,
// so each takes the known-miss walk and goes on the warm's tape: the
// key-value store at the generator's size, and the ResNet-50 target's
// weights. An app change that breaks the ascending order, or probes a lane
// and so ends the tape early, fails here rather than quietly slowing the
// warm.
func TestWarmStepsOnlyKnownMisses(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    interface{ WarmDataset(trace.Collector) }
		want uint64
	}{
		{"kvstore-110000", generatorStore(), 1_268_036},
		{"resnet50", nn.New(nn.ResNet50Target(), trace.NewCodeLayout(), 1), 306_028},
	} {
		lines, known, taped := warmed(tc.w, quickLanes).StepCounts()
		if lines != tc.want || known != tc.want || taped != tc.want {
			t.Errorf("%s warm: %d lines stepped, %d known misses, %d taped; want %d of each", tc.name, lines, known, taped, tc.want)
		}
	}
}

// BenchmarkWarm measures one dataset warm of the generator-size key-value
// store on Broadwell: into the main lane alone, and into a machine carrying
// quickLanes, as a profile's pass warms it. It reports the lines a warm
// steps, how many of them take the known-miss walk, and how many of those
// the tape takes.
func BenchmarkWarm(b *testing.B) {
	srv := generatorStore()
	for _, bc := range []struct {
		name  string
		lanes []int
	}{
		{"classic", nil},
		{"lanes", quickLanes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			m := warmed(srv, bc.lanes) // fault the machine's and the lanes' pages in
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				for _, w := range bc.lanes {
					m.AddLane(w)
				}
				m.Warm(srv)
			}
			lines, known, taped := m.StepCounts()
			b.ReportMetric(float64(lines), "lines/op")
			b.ReportMetric(float64(known), "known-miss/op")
			b.ReportMetric(float64(taped), "taped/op")
		})
	}
}
