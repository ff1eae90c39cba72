package profile

// Budget is a shared cap on simulation runs in flight. The search core
// parallelizes along two axes — candidate evaluations (SearchConfig.Parallel)
// and partition runs within one profile (Profiler.Workers) — and without a
// shared cap their product could oversubscribe the machine. All profilers of
// one search share a single Budget sized to the larger of the two knobs;
// every run acquires one token for the duration of the simulation, so total
// concurrency never exceeds the budget regardless of how the axes compose.
//
// Tokens are held per run, never across runs, so acquisition order cannot
// deadlock; a sweep takes its first wave's tokens when it starts only if
// they are free (TryAcquire), never waiting for them while holding some. A
// nil *Budget is valid and imposes no cap.
type Budget struct {
	tokens chan struct{}
}

// NewBudget returns a budget admitting up to n concurrent runs (minimum 1).
func NewBudget(n int) *Budget {
	if n < 1 {
		n = 1
	}
	return &Budget{tokens: make(chan struct{}, n)}
}

// Acquire blocks until a token is free. No-op on a nil budget.
func (b *Budget) Acquire() {
	if b == nil {
		return
	}
	b.tokens <- struct{}{}
}

// TryAcquire takes up to n tokens without blocking and returns how many it
// took; the caller releases each. A nil budget has no limit: it returns n.
func (b *Budget) TryAcquire(n int) int {
	if b == nil {
		return n
	}
	for i := 0; i < n; i++ {
		select {
		case b.tokens <- struct{}{}:
		default:
			return i
		}
	}
	return n
}

// Release returns a token. No-op on a nil budget.
func (b *Budget) Release() {
	if b == nil {
		return
	}
	<-b.tokens
}

// Cap returns the budget size (0 for nil).
func (b *Budget) Cap() int {
	if b == nil {
		return 0
	}
	return cap(b.tokens)
}
