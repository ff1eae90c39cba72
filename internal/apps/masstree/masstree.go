// Package masstree implements the masstree case-study target (§V-C): a
// cache-crafted in-memory key-value store in the style of Mao et al.'s
// Masstree — a trie of B+-tree layers with cache-line-sized interior nodes
// keyed on 8-byte key slices. It exists as a *target whose program differs
// from the search program*: the paper shows Datamime can match masstree's
// IPC and LLC MPKI curves using memcached as the stand-in application even
// though the code (and hence the instruction-side metrics) differ.
//
// Compared to the kvstore package, masstree's code footprint is small
// (cache-optimized), its traversal touches few, wide nodes — but its
// binary-search decisions on uniformly random YCSB keys are branch-hostile
// and its leaves scatter across a large working set, giving the high LLC
// and branch MPKI the paper reports in Table IV.
package masstree

import (
	"fmt"

	"datamime/internal/memsim"
	"datamime/internal/stats"
	"datamime/internal/trace"
)

// fanout is the keys-per-node width; a node spans two cache lines like
// Masstree's interior nodes.
const fanout = 14

// nodeBytes is the simulated node size.
const nodeBytes = 2 * trace.LineSize

// node is one B+-tree node within a trie layer.
type node struct {
	addr     uint64
	keys     []uint64
	values   []uint64 // leaf: value handles
	children []*node
	leaf     bool
}

// Tree is the trie-of-B+-trees structure, flattened here to a single-layer
// B+ tree over 64-bit keys (one key slice) — masstree's shape for 8-byte
// keys, which is what YCSB drives it with.
type Tree struct {
	heap *memsim.Heap
	root *node
	size int
	code *trace.CodeRegion
}

// NewTree builds an empty tree.
func NewTree(heap *memsim.Heap, code *trace.CodeRegion) *Tree {
	t := &Tree{heap: heap, code: code}
	t.root = t.newNode(true)
	return t
}

func (t *Tree) newNode(leaf bool) *node {
	return &node{addr: t.heap.Alloc(nodeBytes), leaf: leaf}
}

// Len returns the stored key count.
func (t *Tree) Len() int { return t.size }

// descend emits the node load and binary-search branches for one node.
func (t *Tree) descend(col trace.Collector, n *node, key uint64) int {
	col.Load(n.addr, nodeBytes)
	lo, hi := 0, len(n.keys)
	step := 0
	for lo < hi {
		mid := (lo + hi) / 2
		right := n.keys[mid] <= key
		col.Branch(t.code.Base+uint64(step%6), right)
		if right {
			lo = mid + 1
		} else {
			hi = mid
		}
		step++
	}
	col.Ops(24 + 8*step)
	return lo
}

// Get looks up key, returning its value handle.
func (t *Tree) Get(col trace.Collector, key uint64) (uint64, bool) {
	col.Exec(t.code, 450)
	n := t.root
	for !n.leaf {
		n = n.children[t.descend(col, n, key)]
	}
	i := t.descend(col, n, key)
	if i > 0 && n.keys[i-1] == key {
		return n.values[i-1], true
	}
	return 0, false
}

// Put inserts or replaces key's value handle.
func (t *Tree) Put(col trace.Collector, key, value uint64) {
	col.Exec(t.code, 650)
	if len(t.root.keys) >= fanout {
		old := t.root
		t.root = t.newNode(false)
		t.root.children = append(t.root.children, old)
		t.split(col, t.root, 0)
	}
	n := t.root
	for {
		i := t.descend(col, n, key)
		if n.leaf {
			if i > 0 && n.keys[i-1] == key {
				n.values[i-1] = value
				col.Store(n.addr, 16)
				return
			}
			n.keys = append(n.keys, 0)
			n.values = append(n.values, 0)
			copy(n.keys[i+1:], n.keys[i:])
			copy(n.values[i+1:], n.values[i:])
			n.keys[i] = key
			n.values[i] = value
			col.Store(n.addr, nodeBytes/2)
			t.size++
			return
		}
		child := n.children[i]
		if len(child.keys) >= fanout {
			t.split(col, n, i)
			if key >= n.keys[i] {
				i++
			}
			child = n.children[i]
		}
		n = child
	}
}

// split divides the full i-th child of parent.
func (t *Tree) split(col trace.Collector, parent *node, i int) {
	child := parent.children[i]
	mid := len(child.keys) / 2
	right := t.newNode(child.leaf)
	var sep uint64
	if child.leaf {
		right.keys = append(right.keys, child.keys[mid:]...)
		right.values = append(right.values, child.values[mid:]...)
		child.keys = child.keys[:mid]
		child.values = child.values[:mid]
		sep = right.keys[0]
	} else {
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}
	parent.keys = append(parent.keys, 0)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = sep
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
	col.Store(parent.addr, nodeBytes)
	col.Store(right.addr, nodeBytes)
	col.Store(child.addr, nodeBytes/2)
}

// Config is the masstree target's dataset: YCSB-style uniform keys with a
// configurable read ratio.
type Config struct {
	NumKeys   int
	ValueSize stats.Distribution
	GetRatio  float64
	// PopularitySkew is the Zipf skew of key popularity (YCSB-A uses a
	// mild skew; 0 = uniform).
	PopularitySkew float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumKeys <= 0 {
		return fmt.Errorf("masstree: NumKeys must be positive, got %d", c.NumKeys)
	}
	if c.ValueSize == nil {
		return fmt.Errorf("masstree: ValueSize distribution required")
	}
	if c.GetRatio < 0 || c.GetRatio > 1 {
		return fmt.Errorf("masstree: GetRatio %g out of [0, 1]", c.GetRatio)
	}
	if c.PopularitySkew < 0 {
		return fmt.Errorf("masstree: PopularitySkew %g must be >= 0", c.PopularitySkew)
	}
	return nil
}

// Server is the masstree request server.
type Server struct {
	cfg    Config
	heap   *memsim.Heap
	tree   *Tree
	vals   []valMeta
	zipf   *stats.Zipf
	perm   []int
	parse  *trace.CodeRegion
	resp   *trace.CodeRegion
	rxBuf  uint64
	txBuf  uint64
	gets   int
	puts   int
	lastRq int
	lastRp int
}

// valMeta tracks one value's simulated storage.
type valMeta struct {
	addr uint64
	size int
}

// New builds and populates the server deterministically from seed. It
// panics on an invalid config.
func New(cfg Config, layout *trace.CodeLayout, seed uint64) *Server {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	heap := memsim.NewHeap()
	s := &Server{
		cfg:  cfg,
		heap: heap,
		// Masstree's entire hot path is compact, cache-crafted code.
		tree:  NewTree(heap, layout.Region("mt.tree_ops", 6<<10)),
		parse: layout.Region("mt.parse", 2<<10),
		resp:  layout.Region("mt.respond", 2<<10),
		rxBuf: heap.Alloc(32 << 10),
		txBuf: heap.Alloc(32 << 10),
	}
	rng := stats.NewRNG(stats.HashSeed(seed, "mt-populate"))
	s.vals = make([]valMeta, cfg.NumKeys)
	var null trace.Null
	for i := 0; i < cfg.NumKeys; i++ {
		size := int(cfg.ValueSize.Sample(rng))
		if size < 1 {
			size = 1
		}
		s.vals[i] = valMeta{addr: heap.Alloc(size), size: size}
		s.tree.Put(null, scatter(uint64(i)), uint64(i))
	}
	s.perm = rng.Perm(cfg.NumKeys)
	if cfg.PopularitySkew > 0 {
		s.zipf = stats.NewZipf(cfg.NumKeys, cfg.PopularitySkew)
	}
	return s
}

// scatter spreads sequential ids across the key space so tree search
// decisions look like YCSB's hashed keys.
func scatter(id uint64) uint64 {
	id ^= id >> 31
	id *= 0x7fb5d329728ea185
	id ^= id >> 27
	id *= 0x81dadef4bc2dd44d
	id ^= id >> 33
	return id
}

// Name implements workload.Server.
func (s *Server) Name() string { return "masstree" }

// Tree exposes the underlying tree (tests).
func (s *Server) Tree() *Tree { return s.tree }

// Handle services one YCSB-style request.
func (s *Server) Handle(col trace.Collector, rng *stats.RNG) {
	var rank int
	if s.zipf != nil {
		rank = s.zipf.Sample(rng)
	} else {
		rank = rng.IntN(s.cfg.NumKeys)
	}
	idx := s.perm[rank]
	key := scatter(uint64(idx))

	col.Exec(s.parse, 1300)
	col.Load(s.rxBuf, 32)
	isGet := rng.Bool(s.cfg.GetRatio)
	col.Branch(s.parse.Base, isGet)
	v := &s.vals[idx]
	if isGet {
		s.gets++
		if handle, ok := s.tree.Get(col, key); ok {
			_ = handle
			col.Load(v.addr, v.size)
			col.Store(s.txBuf, min(v.size+24, 32<<10))
			s.lastRp = v.size + 24
		}
		s.lastRq = 40
	} else {
		s.puts++
		newSize := int(s.cfg.ValueSize.Sample(rng))
		if newSize < 1 {
			newSize = 1
		}
		s.heap.Free(v.addr, v.size)
		v.addr = s.heap.Alloc(newSize)
		v.size = newSize
		col.Load(s.rxBuf, min(newSize+40, 32<<10))
		col.Store(v.addr, newSize)
		s.tree.Put(col, key, uint64(idx))
		s.lastRq = newSize + 40
		s.lastRp = 16
	}
	col.Exec(s.resp, 800)
}

// WarmDataset implements workload.Warmable: walk the tree and touch every
// value once.
func (s *Server) WarmDataset(col trace.Collector) {
	var walk func(n *node)
	walk = func(n *node) {
		col.Load(n.addr, nodeBytes)
		if n.leaf {
			for _, v := range n.values {
				col.Load(s.vals[v].addr, s.vals[v].size)
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(s.tree.root)
}

// LastMessageSizes implements workload.Sizer.
func (s *Server) LastMessageSizes() (req, resp int) { return s.lastRq, s.lastRp }

// Stats returns request counters.
func (s *Server) Stats() (gets, puts int) { return s.gets, s.puts }

// YCSBTarget is the masstree target workload of §V-C: masstree driven with
// YCSB — a large uniform-ish working set with a 50/50 read/update mix.
func YCSBTarget() Config {
	return Config{
		NumKeys:        500_000,
		ValueSize:      stats.Normal{Mu: 110, Sigma: 15, Min: 32},
		GetRatio:       0.5,
		PopularitySkew: 0.4,
	}
}

// YCSBQPS is the offered load of the masstree target.
const YCSBQPS = 110_000
