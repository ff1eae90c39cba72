package memsim

import "testing"

// TestCloneIsIndependent: a clone allocates what the original would — next
// address, free lists and accounting included — and neither heap sees the
// other's allocations or frees.
func TestCloneIsIndependent(t *testing.T) {
	h := NewHeap()
	a := h.Alloc(100)
	h.Alloc(100)
	h.Free(a, 100)
	c := h.Clone()
	if c.LiveBytes() != h.LiveBytes() || c.PeakBytes() != h.PeakBytes() {
		t.Fatalf("clone accounts %d/%d, original %d/%d", c.LiveBytes(), c.PeakBytes(), h.LiveBytes(), h.PeakBytes())
	}
	// Both reuse the freed block, then both extend at the same address.
	for i := 0; i < 2; i++ {
		if got, want := c.Alloc(100), h.Alloc(100); got != want {
			t.Fatalf("allocation %d: clone %#x, original %#x", i, got, want)
		}
	}
	live := h.LiveBytes()
	c.Free(a, 100)
	c.Alloc(3000)
	if h.LiveBytes() != live {
		t.Fatal("the clone's traffic moved the original's accounting")
	}
	if got := h.Alloc(100); got == a {
		t.Fatal("the original reused a block only the clone freed")
	}
}
