package profile

// Budget is a shared cap on profiles in flight. The search core evaluates
// candidates in parallel (SearchConfig.Parallel) and a process may run
// several searches; all profilers of one process share a single Budget,
// and every profile holds one token for its pass, so total concurrency
// never exceeds the budget however the searches compose. A token is a
// slot number, which telemetry records as the profile's worker track.
//
// A profile holds one token and never waits for another while holding it,
// so acquisition order cannot deadlock. A nil *Budget is valid and imposes
// no cap.
type Budget struct {
	slots chan int
}

// NewBudget returns a budget admitting up to n concurrent profiles
// (minimum 1), in slots 0 to n-1.
func NewBudget(n int) *Budget {
	if n < 1 {
		n = 1
	}
	b := &Budget{slots: make(chan int, n)}
	for i := 0; i < n; i++ {
		b.slots <- i
	}
	return b
}

// Acquire blocks until a slot is free and returns it. A nil budget returns
// slot 0 at once.
func (b *Budget) Acquire() int {
	if b == nil {
		return 0
	}
	return <-b.slots
}

// Release returns a slot Acquire handed out. No-op on a nil budget.
func (b *Budget) Release(slot int) {
	if b == nil {
		return
	}
	b.slots <- slot
}

// Cap returns the budget size (0 for nil).
func (b *Budget) Cap() int {
	if b == nil {
		return 0
	}
	return cap(b.slots)
}
