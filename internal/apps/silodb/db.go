package silodb

import (
	"fmt"

	"datamime/internal/memsim"
	"datamime/internal/trace"
)

// Table couples a B+-tree primary index with simulated row storage and the
// small amount of real per-row state the transactions need.
type Table struct {
	name    string
	rowSize int
	index   *BTree
	heap    *memsim.Heap
	rows    []rowState
	free    []uint32
}

// rowState is the live, Go-side state of one row: its simulated address
// plus the mutable fields transactions actually read and write.
type rowState struct {
	addr uint64
	// f1/f2 are generic numeric fields: stock quantity, customer balance,
	// current bid, next order id — whatever the table's role needs.
	f1 int64
	f2 int64
	ok bool
}

// NewTable builds an empty table.
func NewTable(name string, rowSize int, heap *memsim.Heap, treeCode *trace.CodeRegion) *Table {
	if rowSize <= 0 {
		panic(fmt.Sprintf("silodb: table %q needs positive row size", name))
	}
	return &Table{
		name:    name,
		rowSize: rowSize,
		index:   NewBTree(heap, treeCode),
		heap:    heap,
	}
}

// reserve sizes the row slab for a table about to be loaded with n rows.
func (t *Table) reserve(n int) { t.rows = make([]rowState, 0, n) }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Len returns the number of rows.
func (t *Table) Len() int { return t.index.Len() }

// Insert adds a row for key with initial field values, returning its row id.
func (t *Table) Insert(col trace.Collector, key uint64, f1, f2 int64) uint32 {
	var id uint32
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[id] = rowState{addr: t.heap.Alloc(t.rowSize), f1: f1, f2: f2, ok: true}
	} else {
		t.rows = append(t.rows, rowState{addr: t.heap.Alloc(t.rowSize), f1: f1, f2: f2, ok: true})
		id = uint32(len(t.rows) - 1)
	}
	t.index.Insert(col, key, uint64(id))
	col.Store(t.rows[id].addr, t.rowSize)
	return id
}

// Read looks up key and reads the row, returning its fields.
func (t *Table) Read(col trace.Collector, key uint64) (f1, f2 int64, ok bool) {
	rid, found := t.index.Lookup(col, key)
	if !found {
		return 0, 0, false
	}
	r := &t.rows[rid]
	col.Load(r.addr, t.rowSize)
	return r.f1, r.f2, true
}

// Update looks up key and overwrites its fields, reporting success.
func (t *Table) Update(col trace.Collector, key uint64, f1, f2 int64) bool {
	rid, found := t.index.Lookup(col, key)
	if !found {
		return false
	}
	r := &t.rows[rid]
	col.Load(r.addr, t.rowSize)
	r.f1, r.f2 = f1, f2
	col.Store(r.addr, t.rowSize)
	return true
}

// Modify applies fn to the row's fields in place (read-modify-write).
func (t *Table) Modify(col trace.Collector, key uint64, fn func(f1, f2 int64) (int64, int64)) bool {
	rid, found := t.index.Lookup(col, key)
	if !found {
		return false
	}
	r := &t.rows[rid]
	col.Load(r.addr, t.rowSize)
	r.f1, r.f2 = fn(r.f1, r.f2)
	col.Store(r.addr, t.rowSize)
	return true
}

// Delete removes key's row.
func (t *Table) Delete(col trace.Collector, key uint64) bool {
	rid, found := t.index.Lookup(col, key)
	if !found {
		return false
	}
	if !t.index.Delete(col, key) {
		return false
	}
	r := &t.rows[rid]
	t.heap.Free(r.addr, t.rowSize)
	r.ok = false
	t.free = append(t.free, uint32(rid))
	return true
}

// Scan forwards to the index scan, additionally loading each visited row.
func (t *Table) Scan(col trace.Collector, from uint64, limit int, fn func(key uint64, f1, f2 int64) bool) int {
	return t.index.Scan(col, from, limit, func(key, rid uint64) bool {
		r := &t.rows[rid]
		col.Load(r.addr, t.rowSize)
		return fn(key, r.f1, r.f2)
	})
}

// Min returns the smallest key's row.
func (t *Table) Min(col trace.Collector) (key uint64, f1, f2 int64, ok bool) {
	k, rid, found := t.index.Min(col)
	if !found {
		return 0, 0, 0, false
	}
	r := &t.rows[rid]
	col.Load(r.addr, t.rowSize)
	return k, r.f1, r.f2, true
}

// WarmScan touches every row and index node of the table once.
func (t *Table) WarmScan(col trace.Collector) {
	t.index.Scan(col, 0, t.index.Len()+1, func(key, rid uint64) bool {
		col.Load(t.rows[rid].addr, t.rowSize)
		return true
	})
}

// RedoLog is the commit log: an append-only circular buffer of simulated
// storage that every committing transaction writes sequentially.
type RedoLog struct {
	addr  uint64
	size  int
	off   int
	code  *trace.CodeRegion
	count int
}

// NewRedoLog allocates a log buffer of the given size.
func NewRedoLog(heap *memsim.Heap, size int, code *trace.CodeRegion) *RedoLog {
	if size <= 0 {
		panic("silodb: redo log needs positive size")
	}
	return &RedoLog{addr: heap.Alloc(size), size: size, code: code}
}

// Append commits n bytes of redo records.
func (l *RedoLog) Append(col trace.Collector, n int) {
	if n <= 0 {
		n = 16
	}
	col.Exec(l.code, 420+n/8)
	for n > 0 {
		chunk := n
		if room := l.size - l.off; chunk > room {
			chunk = room
		}
		col.Store(l.addr+uint64(l.off), chunk)
		l.off = (l.off + chunk) % l.size
		n -= chunk
	}
	l.count++
}

// Commits returns the number of appended commit records.
func (l *RedoLog) Commits() int { return l.count }
