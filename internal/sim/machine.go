package sim

import (
	"fmt"

	"datamime/internal/trace"
)

// MachineConfig describes one evaluation platform. The three predefined
// configurations mirror Table II of the paper: an Intel Broadwell Xeon
// D-1540 (the generation machine), an AMD Zen 2 ThreadRipper, and an Intel
// Silvermont Atom C2750 (the cross-validation machines).
type MachineConfig struct {
	Name    string
	FreqGHz float64
	// Width is the issue width; the pipeline's base CPI is 1/Width.
	Width int

	L1I, L1D, L2 CacheConfig
	// L3 is nil for machines without a shared LLC (Silvermont's L2 is its
	// last-level cache).
	L3 *CacheConfig

	ITLB, DTLB TLBConfig
	Branch     BranchConfig

	// Penalties, in cycles.
	BranchPenalty float64
	TLBPenalty    float64
	MemLatency    float64

	// Overlap is the fraction of miss latency hidden by out-of-order
	// execution (deep Zen 2 buffers hide more than the small in-order-ish
	// Silvermont core).
	Overlap float64
	// MLP divides the latency of back-to-back misses within one access
	// burst, modeling memory-level parallelism.
	MLP float64
}

// BaseCPI returns the no-stall cycles-per-instruction floor.
func (c MachineConfig) BaseCPI() float64 { return 1 / float64(c.Width) }

// LLCWays returns the associativity of the last-level cache — the number of
// CAT partitions the platform supports — without building a Machine.
func (c MachineConfig) LLCWays() int { return c.LLC().Ways }

// LLC returns the configuration of the last-level cache (the L3, or the L2
// on machines without one).
func (c MachineConfig) LLC() CacheConfig {
	if c.L3 != nil {
		return *c.L3
	}
	return c.L2
}

// CyclesPerSecond converts the clock frequency to cycles/second.
func (c MachineConfig) CyclesPerSecond() float64 { return c.FreqGHz * 1e9 }

// Validate reports configuration errors.
func (c MachineConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("sim: machine without a name")
	}
	if c.FreqGHz <= 0 || c.Width <= 0 {
		return fmt.Errorf("sim: machine %q needs positive frequency and width", c.Name)
	}
	if c.MLP < 1 {
		return fmt.Errorf("sim: machine %q needs MLP >= 1", c.Name)
	}
	if c.Overlap < 0 || c.Overlap >= 1 {
		return fmt.Errorf("sim: machine %q overlap must be in [0, 1)", c.Name)
	}
	// The access kernel splits addresses by shift and mask, and packs a
	// set's fill count and RRPVs into one word. (TLB set counts are free:
	// Silvermont's have 12.)
	for _, cc := range []*CacheConfig{&c.L1I, &c.L1D, &c.L2, c.L3} {
		if cc == nil { // no L3
			continue
		}
		if sets := cc.Sets(); sets&(sets-1) != 0 {
			return fmt.Errorf("sim: machine %q cache %s has %d sets; the set count must be a power of two", c.Name, cc.Name, sets)
		}
		if cc.Ways > maxWays {
			return fmt.Errorf("sim: machine %q cache %s has %d ways; a set's packed state holds at most %d", c.Name, cc.Name, cc.Ways, maxWays)
		}
	}
	for _, tc := range []TLBConfig{c.ITLB, c.DTLB} {
		if p := tc.PageBytes; p < trace.LineSize || p&(p-1) != 0 {
			return fmt.Errorf("sim: machine %q %s has %d-byte pages; the page size must be a power-of-two multiple of the %d-byte line", c.Name, tc.Name, p, trace.LineSize)
		}
	}
	return nil
}

// Broadwell models the paper's 8-core Xeon D-1540 generation platform:
// 2.0 GHz, 32 KB split L1, 256 KB private L2, 12 MB 12-way inclusive L3
// with DRRIP replacement and CAT way-partitioning (12 partitions).
func Broadwell() MachineConfig {
	return MachineConfig{
		Name:    "broadwell",
		FreqGHz: 2.0,
		Width:   4,
		L1I:     CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, Policy: LRU, LatencyCyc: 0},
		L1D:     CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, Policy: LRU, LatencyCyc: 0},
		L2:      CacheConfig{Name: "L2", SizeBytes: 256 << 10, Ways: 8, Policy: LRU, LatencyCyc: 12},
		L3:      &CacheConfig{Name: "L3", SizeBytes: 12 << 20, Ways: 12, Policy: DRRIP, LatencyCyc: 40},
		ITLB:    TLBConfig{Name: "ITLB", Entries: 128, Ways: 4, PageBytes: 4096},
		DTLB:    TLBConfig{Name: "DTLB", Entries: 64, Ways: 4, PageBytes: 4096},
		Branch:  BranchConfig{TableBits: 13, HistoryBits: 12},

		BranchPenalty: 16,
		TLBPenalty:    30,
		MemLatency:    180,
		Overlap:       0.55,
		MLP:           4,
	}
}

// Zen2 models the 32-core Ryzen ThreadRipper PRO 3975WX validation
// platform: 3.5 GHz, 512 KB L2, 16 MB per-chiplet 16-way L3.
func Zen2() MachineConfig {
	return MachineConfig{
		Name:    "zen2",
		FreqGHz: 3.5,
		Width:   6,
		L1I:     CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, Policy: LRU, LatencyCyc: 0},
		L1D:     CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, Policy: LRU, LatencyCyc: 0},
		L2:      CacheConfig{Name: "L2", SizeBytes: 512 << 10, Ways: 8, Policy: LRU, LatencyCyc: 12},
		L3:      &CacheConfig{Name: "L3", SizeBytes: 16 << 20, Ways: 16, Policy: LRU, LatencyCyc: 39},
		ITLB:    TLBConfig{Name: "ITLB", Entries: 128, Ways: 4, PageBytes: 4096},
		DTLB:    TLBConfig{Name: "DTLB", Entries: 64, Ways: 4, PageBytes: 4096},
		Branch:  BranchConfig{TableBits: 14, HistoryBits: 14},

		BranchPenalty: 18,
		TLBPenalty:    28,
		MemLatency:    230,
		Overlap:       0.65,
		MLP:           6,
	}
}

// Silvermont models the 8-core Atom C2750 validation platform: a low-power
// 2.4 GHz core with limited pipeline width, small OOO buffers (low overlap),
// a 1 MB last-level L2, and no L3.
func Silvermont() MachineConfig {
	return MachineConfig{
		Name:    "silvermont",
		FreqGHz: 2.4,
		Width:   2,
		L1I:     CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, Policy: LRU, LatencyCyc: 0},
		L1D:     CacheConfig{Name: "L1D", SizeBytes: 24 << 10, Ways: 6, Policy: LRU, LatencyCyc: 0},
		L2:      CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 8, Policy: LRU, LatencyCyc: 15},
		L3:      nil,
		ITLB:    TLBConfig{Name: "ITLB", Entries: 48, Ways: 4, PageBytes: 4096},
		DTLB:    TLBConfig{Name: "DTLB", Entries: 48, Ways: 4, PageBytes: 4096},
		Branch:  BranchConfig{TableBits: 10, HistoryBits: 8},

		BranchPenalty: 10,
		TLBPenalty:    35,
		MemLatency:    140,
		Overlap:       0.15,
		MLP:           2,
	}
}

// Machines returns the three evaluation platforms in the paper's order.
func Machines() []MachineConfig {
	return []MachineConfig{Broadwell(), Zen2(), Silvermont()}
}

// MachineByName resolves a platform by its config name.
func MachineByName(name string) (MachineConfig, error) {
	for _, m := range Machines() {
		if m.Name == name {
			return m, nil
		}
	}
	return MachineConfig{}, fmt.Errorf("sim: unknown machine %q", name)
}
