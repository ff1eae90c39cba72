package kvstore

import (
	"fmt"

	"datamime/internal/memsim"
	"datamime/internal/stats"
	"datamime/internal/trace"
)

// Config is a kvstore dataset configuration — the knobs Datamime's
// memcached dataset generator exposes (Table III: get/set ratio and the
// key/value size distributions; QPS lives on the workload.Benchmark), plus
// the hidden characteristics real traces have (key popularity skew, churn)
// that the *target* configurations use but the generator does not expose.
type Config struct {
	// NumKeys is the number of resident items after population.
	NumKeys int
	// KeySize and ValueSize are the size distributions. The generator
	// assumes Gaussians; targets may use any family (mem-fb uses a
	// generalized Pareto for values, per Atikoglu et al.).
	KeySize   stats.Distribution
	ValueSize stats.Distribution
	// GetRatio is the fraction of GET requests; the rest are SETs.
	GetRatio float64
	// PopularitySkew is the Zipfian skew of key popularity (0 = uniform).
	PopularitySkew float64
	// ChurnProb is the probability that a SET creates a brand-new key,
	// forcing allocation churn and LRU evictions against the memory budget.
	ChurnProb float64
	// CrawlEvery runs the LRU-crawler maintenance pass every N requests
	// (0 disables; targets use it to create activity phases).
	CrawlEvery int
	// CrawlItems is how many entries one crawler pass scans.
	CrawlItems int
	// ValueEntropy is the information density of value bytes in bits per
	// byte, in (0, 8]. 0 means 8 (incompressible synthetic bytes). It does
	// not change microarchitectural behavior — only the snapshot
	// compression ratio the §III-D extension profiles and matches.
	ValueEntropy float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumKeys <= 0 {
		return fmt.Errorf("kvstore: NumKeys must be positive, got %d", c.NumKeys)
	}
	if c.KeySize == nil || c.ValueSize == nil {
		return fmt.Errorf("kvstore: key and value size distributions are required")
	}
	if c.GetRatio < 0 || c.GetRatio > 1 {
		return fmt.Errorf("kvstore: GetRatio %g out of [0, 1]", c.GetRatio)
	}
	if c.ChurnProb < 0 || c.ChurnProb > 1 {
		return fmt.Errorf("kvstore: ChurnProb %g out of [0, 1]", c.ChurnProb)
	}
	if c.PopularitySkew < 0 {
		return fmt.Errorf("kvstore: PopularitySkew %g must be >= 0", c.PopularitySkew)
	}
	if c.ValueEntropy < 0 || c.ValueEntropy > 8 {
		return fmt.Errorf("kvstore: ValueEntropy %g out of (0, 8]", c.ValueEntropy)
	}
	return nil
}

// Server is the memcached-like request server: a Store populated from a
// Config, plus the request parsing/response code paths.
type Server struct {
	cfg   Config
	store *Store
	// The client-side view of the dataset, never written after population.
	keySizes []int32 // key index -> key size
	perm     []int32 // popularity rank -> key index
	zipf     *stats.Zipf
	budget   uint64

	parse   *trace.CodeRegion
	respond *trace.CodeRegion
	proto   *trace.CodeRegion
	rxBuf   uint64
	txBuf   uint64

	reqCount  int
	lastReq   int
	lastResp  int
	hits      int
	gets      int
	sets      int
	nextNewID uint64
}

// bufBytes is the size of the rx/tx message buffers.
const bufBytes = 64 << 10

// New builds and populates a server. The dataset (sizes, popularity
// permutation) derives deterministically from seed. It panics on an invalid
// config — configs are validated where they are built.
func New(cfg Config, layout *trace.CodeLayout, seed uint64) *Server {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	popRNG := stats.NewRNG(stats.HashSeed(seed, "kv-populate"))
	buckets := cfg.NumKeys
	if buckets < 1024 {
		buckets = 1024
	}
	st := NewStore(buckets, layout)
	s := &Server{
		cfg:      cfg,
		store:    st,
		keySizes: make([]int32, cfg.NumKeys),
		parse:    layout.Region("kv.parse_command", 5<<10),
		respond:  layout.Region("kv.build_response", 4<<10),
		proto:    layout.Region("kv.proto_dispatch", 3<<10),
		rxBuf:    st.heap.Alloc(bufBytes),
		txBuf:    st.heap.Alloc(bufBytes),
	}
	if cfg.PopularitySkew > 0 {
		s.zipf = stats.NewZipf(cfg.NumKeys, cfg.PopularitySkew)
	}
	s.perm = make([]int32, cfg.NumKeys)
	for rank, idx := range popRNG.Perm(cfg.NumKeys) {
		s.perm[rank] = int32(idx)
	}

	var null trace.Null
	for id := 0; id < cfg.NumKeys; id++ {
		ks := sizeAtLeast(cfg.KeySize.Sample(popRNG), 4)
		vs := sizeAtLeast(cfg.ValueSize.Sample(popRNG), 1)
		s.keySizes[id] = int32(ks)
		st.Set(null, uint64(id), ks, vs, popRNG.Uint64(), 0)
	}
	s.nextNewID = uint64(cfg.NumKeys)
	// Memory budget: modest headroom above the populated footprint, so
	// churn triggers evictions like a sized memcached instance.
	s.budget = st.LiveBytes() + st.LiveBytes()/8
	return s
}

// Name implements workload.Server.
func (s *Server) Name() string { return "memcached" }

// Store exposes the underlying store (tests and examples).
func (s *Server) Store() *Store { return s.store }

// Handle services one request: draw a key by popularity, dispatch GET or
// SET, and build the response.
func (s *Server) Handle(col trace.Collector, rng *stats.RNG) {
	s.reqCount++
	id, keySize := s.pickKey(rng)

	col.Exec(s.proto, 520)
	isGet := rng.Bool(s.cfg.GetRatio)
	col.Branch(s.proto.Base, isGet)
	// Key-dependent parse/validation branches: tokenizing the key emits one
	// decision per chunk whose outcome depends on the key's bits. Hot keys
	// repeat their histories (predictable); uniform traffic looks random to
	// the predictor — popularity skew thus shapes branch MPKI, as in real
	// key-value serving.
	kh := hashKey(id)
	for i := 0; i < 4+keySize/8; i++ {
		col.Branch(s.parse.Base+uint64(i%6), (kh>>uint(i%32))&1 == 1)
	}

	if isGet {
		s.gets++
		s.lastReq = keySize + 24
		col.Exec(s.parse, 950+keySize/2)
		col.Load(s.rxBuf, s.lastReq)
		valSize, _, ok := s.store.Get(col, id)
		col.Branch(s.respond.Base, ok)
		if ok {
			s.hits++
			col.Exec(s.respond, 750+valSize/16)
			col.Store(s.txBuf, clampSize(valSize+32, bufBytes))
			s.lastResp = valSize + 32
		} else {
			col.Exec(s.respond, 300)
			s.lastResp = 24
		}
	} else {
		s.sets++
		valSize := sizeAtLeast(s.cfg.ValueSize.Sample(rng), 1)
		s.lastReq = keySize + valSize + 40
		col.Exec(s.parse, 1100+keySize/2)
		col.Load(s.rxBuf, clampSize(s.lastReq, bufBytes))
		s.store.Set(col, id, keySize, valSize, rng.Uint64(), s.budget)
		col.Exec(s.respond, 400)
		col.Store(s.txBuf, 16)
		s.lastResp = 16
	}

	if s.cfg.CrawlEvery > 0 && s.reqCount%s.cfg.CrawlEvery == 0 {
		n := s.cfg.CrawlItems
		if n <= 0 {
			n = 200
		}
		s.store.Crawl(col, n)
	}
}

// pickKey draws a key id by popularity. Churny SETs occasionally mint a new
// key (handled in Handle via the returned id, which Set inserts).
func (s *Server) pickKey(rng *stats.RNG) (id uint64, keySize int) {
	if s.cfg.ChurnProb > 0 && rng.Bool(s.cfg.ChurnProb) {
		id = s.nextNewID
		s.nextNewID++
		ks := sizeAtLeast(s.cfg.KeySize.Sample(rng), 4)
		return id, ks
	}
	var rank int
	if s.zipf != nil {
		rank = s.zipf.Sample(rng)
	} else {
		rank = rng.IntN(s.cfg.NumKeys)
	}
	idx := s.perm[rank]
	return uint64(idx), int(s.keySizes[idx])
}

// WarmDataset implements workload.Warmable: touch the resident items so
// measurement starts from a warmed, steady-state cache. Popular keys are
// re-touched afterwards so the recency order matches the popularity order.
func (s *Server) WarmDataset(col trace.Collector) {
	s.store.WarmScan(col)
	// Re-touch the hottest keys (by popularity rank, coldest-first) so the
	// most popular data is the most recently cached, as in steady state.
	if s.zipf != nil {
		n := s.cfg.NumKeys / 10
		for rank := n - 1; rank >= 0; rank-- {
			s.store.Get(col, uint64(s.perm[rank]))
		}
	}
}

// LastMessageSizes implements workload.Sizer for the networked setup.
func (s *Server) LastMessageSizes() (req, resp int) { return s.lastReq, s.lastResp }

// CompressionRatio implements workload.Compressible: the snapshot ratio a
// compressor would achieve on the resident data. Values compress according
// to their configured entropy; keys (structured identifiers) compress
// about 1.5x; item headers (pointers, sizes) about 2x.
func (s *Server) CompressionRatio() float64 {
	entropy := s.cfg.ValueEntropy
	if entropy <= 0 {
		entropy = 8
	}
	keyB, valB, hdrB := s.store.FootprintBreakdown()
	orig := float64(keyB + valB + hdrB)
	if orig == 0 {
		return 1
	}
	compressed := float64(valB)*entropy/8 + float64(keyB)/1.5 + float64(hdrB)/2
	if compressed < 1 {
		compressed = 1
	}
	return orig / compressed
}

// Stats returns request counters (tests and examples).
func (s *Server) Stats() (gets, sets, hits int) { return s.gets, s.sets, s.hits }

// HitRate returns the GET hit rate observed so far.
func (s *Server) HitRate() float64 {
	if s.gets == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.gets)
}

func sizeAtLeast(v float64, min int) int {
	n := int(v)
	if n < min {
		return min
	}
	return n
}

func clampSize(v, max int) int {
	if v > max {
		return max
	}
	return v
}

var _ interface {
	Name() string
	Handle(trace.Collector, *stats.RNG)
	LastMessageSizes() (int, int)
} = (*Server)(nil)

// Heap exposes the server's simulated heap for tests.
func (s *Server) Heap() *memsim.Heap { return s.store.heap }
