package sim

// WindowSummary condenses a run's per-window counter samples into the
// aggregate statistics telemetry spans attach to profiling runs: how many
// windows closed, how much work they covered, and the mean of each headline
// rate. It exists so observers can see what a profiling run measured without
// shipping the full sample distributions through the event stream.
type WindowSummary struct {
	Windows      int
	Instructions uint64

	MeanIPC        float64
	MeanL1DMPKI    float64
	MeanL2MPKI     float64
	MeanLLCMPKI    float64
	MeanBranchMPKI float64
	MeanCPUUtil    float64
	MeanMemBWGBs   float64
}

// Attrs renders the summary as telemetry span attributes, using the
// attribute names the run artifacts carry. Keeping the
// mapping here means every span producer labels the same statistics the
// same way.
func (s WindowSummary) Attrs() map[string]float64 {
	return map[string]float64{
		"windows":       float64(s.Windows),
		"instructions":  float64(s.Instructions),
		"mean_ipc":      s.MeanIPC,
		"mean_llc_mpki": s.MeanLLCMPKI,
		"mean_cpu_util": s.MeanCPUUtil,
		"mean_bw_gbs":   s.MeanMemBWGBs,
	}
}

// SummarizeWindows aggregates counter windows. An empty slice yields the
// zero summary.
func SummarizeWindows(samples []WindowSample) WindowSummary {
	var s WindowSummary
	if len(samples) == 0 {
		return s
	}
	s.Windows = len(samples)
	for _, w := range samples {
		s.Instructions += w.Instructions
		s.MeanIPC += w.IPC
		s.MeanL1DMPKI += w.L1DMPKI
		s.MeanL2MPKI += w.L2MPKI
		s.MeanLLCMPKI += w.LLCMPKI
		s.MeanBranchMPKI += w.BranchMPKI
		s.MeanCPUUtil += w.CPUUtil
		s.MeanMemBWGBs += w.MemBWGBs
	}
	n := float64(len(samples))
	s.MeanIPC /= n
	s.MeanL1DMPKI /= n
	s.MeanL2MPKI /= n
	s.MeanLLCMPKI /= n
	s.MeanBranchMPKI /= n
	s.MeanCPUUtil /= n
	s.MeanMemBWGBs /= n
	return s
}
