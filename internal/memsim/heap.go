// Package memsim provides the simulated heap the application substrates
// allocate from. Objects get stable virtual addresses in a simulated
// address space; the addresses (not the Go runtime's) are what flow into
// the cache and TLB models, so the simulated working set is controlled by
// the dataset — exactly the lever Datamime's generators turn.
//
// The allocator is a size-class slab allocator with free lists, mirroring
// the behavior of production allocators (memcached's slab allocator,
// malloc): freed addresses are reused, so long-running churn (SET-heavy
// key-value load, database inserts/deletes) keeps a bounded, locality-rich
// footprint rather than an ever-growing one.
package memsim

import "fmt"

// heapBase is where the simulated heap begins (above the text segment laid
// out by trace.CodeLayout).
const heapBase = 0x0000000010000000

// sizeClasses are the slab size classes in bytes. Allocations round up to
// the nearest class; larger requests are satisfied at 4 KiB page
// granularity.
var sizeClasses = []int{
	16, 32, 48, 64, 96, 128, 192, 256, 384, 512,
	768, 1024, 1536, 2048, 3072, 4096,
}

// Heap is a simulated-address allocator. It is not safe for concurrent use;
// each simulated workload owns one heap (the paper profiles a single
// pinned worker thread).
type Heap struct {
	next      uint64
	freeLists map[int][]uint64 // size class -> reusable addresses
	allocated uint64           // live bytes
	peak      uint64
}

// NewHeap returns an empty heap.
func NewHeap() *Heap {
	return &Heap{next: heapBase, freeLists: make(map[int][]uint64)}
}

// Alloc reserves size bytes and returns the simulated address. Addresses
// are 16-byte aligned. Alloc panics on non-positive sizes: the substrates
// always know their object sizes.
func (h *Heap) Alloc(size int) uint64 {
	if size <= 0 {
		panic(fmt.Sprintf("memsim: Alloc(%d)", size))
	}
	class := sizeClass(size)
	if fl := h.freeLists[class]; len(fl) > 0 {
		addr := fl[len(fl)-1]
		h.freeLists[class] = fl[:len(fl)-1]
		h.account(class)
		return addr
	}
	addr := h.next
	h.next += uint64(class)
	// Keep 16-byte alignment for the next allocation.
	if rem := h.next % 16; rem != 0 {
		h.next += 16 - rem
	}
	h.account(class)
	return addr
}

// Free returns an allocation of the given size at addr to its size-class
// free list for reuse.
func (h *Heap) Free(addr uint64, size int) {
	if size <= 0 {
		panic(fmt.Sprintf("memsim: Free(%d)", size))
	}
	class := sizeClass(size)
	h.freeLists[class] = append(h.freeLists[class], addr)
	h.allocated -= uint64(class)
}

// LiveBytes returns the currently allocated bytes (rounded to size
// classes), i.e. the simulated resident data footprint.
func (h *Heap) LiveBytes() uint64 { return h.allocated }

// PeakBytes returns the high-water mark of LiveBytes.
func (h *Heap) PeakBytes() uint64 { return h.peak }

func (h *Heap) account(class int) {
	h.allocated += uint64(class)
	if h.allocated > h.peak {
		h.peak = h.allocated
	}
}

// sizeClass rounds a request up to its slab class; oversized requests round
// up to whole 4 KiB pages.
func sizeClass(size int) int {
	for _, c := range sizeClasses {
		if size <= c {
			return c
		}
	}
	const page = 4096
	pages := (size + page - 1) / page
	return pages * page
}
