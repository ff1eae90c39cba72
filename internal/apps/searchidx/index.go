// Package searchidx implements the xapian-like search engine used by the
// xapian workload: a real inverted index with BM25 ranking over synthetic
// documents. Query processing walks posting lists (streaming loads over
// simulated posting storage), scores every posting with actual BM25
// arithmetic, maintains a top-k heap with data-dependent branches, and
// fetches the winning documents for snippet generation — the structure the
// paper exploits when it parameterizes the dataset by document length,
// query-term frequency, and Zipfian query skew (Table III).
package searchidx

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"datamime/internal/memsim"
	"datamime/internal/stats"
	"datamime/internal/trace"
)

// Posting is one (document, term-frequency) pair in a posting list.
type Posting struct {
	DocID uint32
	TF    uint16
}

// postingBytes is the simulated size of one posting (docid + tf + skip
// metadata).
const postingBytes = 8

// termInfo is one term's posting list plus its simulated storage.
type termInfo struct {
	postings []Posting
	addr     uint64
}

// docInfo is one document's length and simulated content address.
type docInfo struct {
	length int
	addr   uint64
}

// Index is an inverted index over synthetic documents.
type Index struct {
	heap     *memsim.Heap
	terms    []termInfo
	docs     []docInfo
	avgDocLn float64

	code indexCode
}

// indexCode holds the engine's text regions.
type indexCode struct {
	parse    *trace.CodeRegion
	planner  *trace.CodeRegion
	postings *trace.CodeRegion
	scorer   *trace.CodeRegion
	topk     *trace.CodeRegion
	snippet  *trace.CodeRegion
	stemmer  *trace.CodeRegion
}

// NewIndex builds an empty index with capacity hints.
func NewIndex(layout *trace.CodeLayout) *Index {
	return &Index{
		heap: memsim.NewHeap(),
		code: indexCode{
			parse:    layout.Region("xap.parse_query", 4<<10),
			planner:  layout.Region("xap.query_planner", 5<<10),
			postings: layout.Region("xap.postlist_walk", 7<<10),
			scorer:   layout.Region("xap.bm25_scorer", 6<<10),
			topk:     layout.Region("xap.topk_heap", 3<<10),
			snippet:  layout.Region("xap.snippet_gen", 5<<10),
			stemmer:  layout.Region("xap.stemmer", 4<<10),
		},
	}
}

// AddDocument registers a document of the given byte length and returns its
// id. Terms are attached via AddPosting during corpus construction.
func (ix *Index) AddDocument(length int) uint32 {
	if length < 1 {
		length = 1
	}
	id := uint32(len(ix.docs))
	ix.docs = append(ix.docs, docInfo{length: length, addr: ix.heap.Alloc(length)})
	n := float64(len(ix.docs))
	ix.avgDocLn += (float64(length) - ix.avgDocLn) / n
	return id
}

// AddTerm registers a term and returns its id.
func (ix *Index) AddTerm() uint32 {
	ix.terms = append(ix.terms, termInfo{})
	return uint32(len(ix.terms) - 1)
}

// AddPosting appends (doc, tf) to term's posting list. Postings must be
// appended in increasing doc order (the corpus builder guarantees this).
func (ix *Index) AddPosting(term, doc uint32, tf uint16) {
	t := &ix.terms[term]
	t.postings = append(t.postings, Posting{DocID: doc, TF: tf})
}

// Finalize allocates simulated storage for every posting list; call once
// after corpus construction.
func (ix *Index) Finalize() {
	for i := range ix.terms {
		t := &ix.terms[i]
		if n := len(t.postings); n > 0 {
			t.addr = ix.heap.Alloc(n * postingBytes)
		}
	}
}

// NumDocs returns the corpus size.
func (ix *Index) NumDocs() int { return len(ix.docs) }

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.terms) }

// DocFreq returns a term's document frequency.
func (ix *Index) DocFreq(term uint32) int { return len(ix.terms[term].postings) }

// Result is one ranked search hit.
type Result struct {
	DocID uint32
	Score float64
}

// resultHeap is a min-heap on score, holding the current top-k.
type resultHeap []Result

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return h[i].Score < h[j].Score }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// BM25 constants.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Search scores the union of the query terms' posting lists with BM25 and
// returns the top k results, best first. All traversal, scoring, heap, and
// snippet work is emitted into col.
func (ix *Index) Search(col trace.Collector, queryTerms []uint32, k int) []Result {
	if k <= 0 {
		k = 10
	}
	col.Exec(ix.code.parse, 900+120*len(queryTerms))
	col.Exec(ix.code.stemmer, 250*len(queryTerms))
	col.Exec(ix.code.planner, 800)

	n := float64(len(ix.docs))
	scores := make(map[uint32]float64)
	for qi, term := range queryTerms {
		if int(term) >= len(ix.terms) {
			continue
		}
		t := &ix.terms[term]
		df := float64(len(t.postings))
		col.Branch(ix.code.planner.Base+uint64(qi%3), df > 0)
		if df == 0 {
			continue
		}
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		col.Exec(ix.code.postings, 120)
		for pi, p := range t.postings {
			// Stream posting storage in 64-posting blocks.
			if pi%64 == 0 {
				chunk := (len(t.postings) - pi) * postingBytes
				if chunk > 64*postingBytes {
					chunk = 64 * postingBytes
				}
				col.Load(t.addr+uint64(pi*postingBytes), chunk)
				col.Exec(ix.code.postings, 90)
			}
			tf := float64(p.TF)
			dl := float64(ix.docs[p.DocID].length)
			score := idf * (tf * (bm25K1 + 1)) / (tf + bm25K1*(1-bm25B+bm25B*dl/ix.avgDocLn))
			scores[p.DocID] += score
			col.Ops(14)
		}
		col.Exec(ix.code.scorer, 40+len(t.postings)/4)
	}

	// Top-k selection with a bounded min-heap; the "does this beat the
	// heap minimum" branch is the classic data-dependent branch of search.
	h := make(resultHeap, 0, k)
	col.Exec(ix.code.topk, 500)
	// Iterate accumulators in doc order for determinism.
	ids := make([]uint32, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		s := scores[id]
		beats := len(h) < k || s > h[0].Score
		col.Branch(ix.code.topk.Base+uint64(i%5), beats)
		col.Ops(6)
		if !beats {
			continue
		}
		if len(h) >= k {
			heap.Pop(&h)
		}
		heap.Push(&h, Result{DocID: id, Score: s})
	}
	out := make([]Result, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Result)
	}

	// Snippet generation: fetch and scan the winning documents; the
	// term-boundary decisions depend on document content, so repeated hot
	// documents train the predictor while cold ones do not.
	for _, r := range out {
		d := ix.docs[r.DocID]
		col.Exec(ix.code.snippet, 600+d.length/12)
		col.Load(d.addr, d.length)
		sig := uint64(r.DocID) * 0x9e3779b97f4a7c15
		for i := 0; i < 4+d.length/256; i++ {
			col.Branch(ix.code.snippet.Base+uint64(i%5), (sig>>uint(i%32))&1 == 1)
		}
	}
	return out
}

// WarmScan touches every posting list and document once (an index held in
// the page cache of a long-running search node).
func (ix *Index) WarmScan(col trace.Collector) {
	for i := range ix.terms {
		t := &ix.terms[i]
		if n := len(t.postings); n > 0 {
			col.Load(t.addr, n*postingBytes)
		}
	}
	for i := range ix.docs {
		col.Load(ix.docs[i].addr, ix.docs[i].length)
	}
}

// Heap exposes the simulated heap (tests).
func (ix *Index) Heap() *memsim.Heap { return ix.heap }

// CorpusConfig controls synthetic corpus construction.
type CorpusConfig struct {
	// NumDocs and NumTerms size the corpus and vocabulary.
	NumDocs, NumTerms int
	// DocLength draws each document's byte length.
	DocLength stats.Distribution
	// DFSkew shapes the Zipfian decay of document frequency across term
	// ranks (natural corpora are near 1).
	DFSkew float64
	// MaxDF caps any term's document frequency as a fraction of NumDocs.
	MaxDF float64
}

// Validate reports configuration errors.
func (c CorpusConfig) Validate() error {
	if c.NumDocs <= 0 || c.NumTerms <= 0 {
		return fmt.Errorf("searchidx: corpus needs positive docs/terms, got %d/%d", c.NumDocs, c.NumTerms)
	}
	if c.DocLength == nil {
		return fmt.Errorf("searchidx: corpus needs a document length distribution")
	}
	if c.MaxDF <= 0 || c.MaxDF > 1 {
		return fmt.Errorf("searchidx: MaxDF %g out of (0, 1]", c.MaxDF)
	}
	if c.DFSkew < 0 {
		return fmt.Errorf("searchidx: DFSkew %g must be >= 0", c.DFSkew)
	}
	return nil
}

// BuildCorpus constructs a synthetic corpus: documents with the configured
// length distribution and terms whose document frequencies decay Zipf-like
// with term rank, capped at MaxDF.
func BuildCorpus(cfg CorpusConfig, layout *trace.CodeLayout, seed uint64) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(stats.HashSeed(seed, "corpus"))
	ix := NewIndex(layout)
	ix.docs = make([]docInfo, 0, cfg.NumDocs)
	ix.terms = make([]termInfo, 0, cfg.NumTerms)
	for i := 0; i < cfg.NumDocs; i++ {
		l := int(cfg.DocLength.Sample(rng))
		ix.AddDocument(l)
	}
	maxDF := int(cfg.MaxDF * float64(cfg.NumDocs))
	if maxDF < 1 {
		maxDF = 1
	}
	for r := 0; r < cfg.NumTerms; r++ {
		term := ix.AddTerm()
		df := int(float64(maxDF) / math.Pow(float64(r+1), cfg.DFSkew))
		if df < 1 {
			df = 1
		}
		// Sample df distinct documents via a stride walk (cheap, spreads
		// postings across the corpus, keeps doc order increasing).
		stride := cfg.NumDocs / df
		if stride < 1 {
			stride = 1
		}
		start := rng.IntN(stride)
		ix.terms[term].postings = make([]Posting, 0, df)
		for d := start; d < cfg.NumDocs && ix.DocFreq(term) < df; d += stride {
			tf := uint16(1 + rng.IntN(8))
			ix.AddPosting(term, uint32(d), tf)
		}
	}
	ix.Finalize()
	return ix, nil
}
