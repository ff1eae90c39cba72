package profile

import (
	"sync"

	"datamime/internal/sim"
)

// freeList keeps the idle machines of one machine configuration, so a
// profile takes its machine, and the storage of its lanes, from the
// profiles before it instead of allocating them: a Broadwell machine is
// ≈ 3 MB, and a Quick profile's lanes ≈ 5 MB more. The window length is not
// part of the key (every profile sets it with ResetWindows), so a list
// holds at most as many machines as its configuration ever ran at once,
// and in production there is one list per named machine
// (sim.MachineByName).
type freeList struct {
	cfg      sim.MachineConfig
	machines []*sim.Machine
}

// freeKey identifies a free list by value: MachineConfig.L3 is a pointer,
// so the key holds the L3 configuration itself.
type freeKey struct {
	cfg sim.MachineConfig // L3 cleared
	l3  sim.CacheConfig
}

var free struct {
	sync.Mutex
	lists map[freeKey]*freeList
}

// freeListFor returns the free list of a machine configuration. A
// configuration that does not equal itself (a NaN field) gets a list of its
// own, which is dropped with the profile.
func freeListFor(cfg sim.MachineConfig) *freeList {
	k := freeKey{cfg: cfg}
	if cfg.L3 != nil {
		k.l3, k.cfg.L3 = *cfg.L3, nil
	}
	if k != k {
		return &freeList{cfg: cfg}
	}
	free.Lock()
	defer free.Unlock()
	f := free.lists[k]
	if f == nil {
		if free.lists == nil {
			free.lists = make(map[freeKey]*freeList)
		}
		f = &freeList{cfg: cfg}
		free.lists[k] = f
	}
	return f
}

// machine returns an idle machine, or a new one counting windows of
// windowCycles. An idle machine's state, window length included, is
// whatever its last profile left: every profile starts with ResetWindows.
func (f *freeList) machine(windowCycles float64) *sim.Machine {
	free.Lock()
	if n := len(f.machines); n > 0 {
		m := f.machines[n-1]
		f.machines = f.machines[:n-1]
		free.Unlock()
		return m
	}
	free.Unlock()
	return sim.NewMachine(f.cfg, windowCycles)
}

func (f *freeList) putMachine(m *sim.Machine) {
	free.Lock()
	f.machines = append(f.machines, m)
	free.Unlock()
}
