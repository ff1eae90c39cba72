package service

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"datamime/internal/backend"
)

// Federation scrapes each registered worker's Prometheus endpoint and
// re-exports the datamime_worker_* families through the coordinator's
// /metrics, every sample tagged with a worker="name" label injected first.
// One scrape of the coordinator therefore observes the whole fleet — no
// per-worker scrape configuration needed. A synthesized
// datamime_worker_up{worker=...} gauge reports each worker's last scrape
// outcome, so a wedged metrics endpoint is itself visible.
//
// Federation is observability-plane only: it shares no state with the
// dispatcher beyond the fleet snapshot it scrapes from, and a failed scrape
// never affects evaluation routing.
type Federation struct {
	client *http.Client

	mu      sync.Mutex
	scrapes map[string]*workerScrape // by worker name
	total   uint64                   // scrape attempts
	errors  uint64                   // failed scrape attempts
}

// workerScrape is one worker's most recent scrape outcome.
type workerScrape struct {
	url string
	up  bool
	at  time.Time
	// dur is how long the last scrape attempt took (success or failure):
	// a slow-but-up worker /metrics endpoint is visible through it.
	dur time.Duration
	// okAt is the time of the last successful scrape, carried across
	// failed attempts so staleness keeps growing while a worker is down.
	okAt time.Time
	fams map[string]*fedFamily
	// values indexes label-less sample values by metric name, for the
	// /v1/fleet summary (cache hit rate, inflight, goroutines).
	values map[string]float64
}

// fedFamily is one scraped metric family: exposition metadata plus the
// family's sample lines in scrape order.
type fedFamily struct {
	help, typ string
	series    []fedSeries
}

// fedSeries is one scraped sample line, decomposed so the worker label can
// be injected on re-export.
type fedSeries struct {
	metric string // full sample metric name (family name or _bucket/_sum/_count)
	labels string // original label body without braces, "" if none
	value  string // verbatim value text
}

// fedWorkerPrefix selects which scraped families are federated.
const fedWorkerPrefix = "datamime_worker_"

// newFederation builds an empty federation with a bounded-scrape client.
func newFederation() *Federation {
	return &Federation{
		client:  &http.Client{Timeout: 10 * time.Second},
		scrapes: make(map[string]*workerScrape),
	}
}

// Scrape refreshes the federation from the current fleet snapshot: one GET
// /metrics per URL-registered worker, dropping state for workers that left
// the fleet. Unreachable workers keep a scrape record with up=false so the
// datamime_worker_up series reports them.
func (f *Federation) Scrape(ctx context.Context, workers []backend.WorkerInfo) {
	current := make(map[string]bool, len(workers))
	for _, w := range workers {
		if w.URL == "" {
			continue // direct in-process backends have no metrics endpoint
		}
		current[w.Name] = true
		f.scrapeOne(ctx, w.Name, w.URL)
	}
	f.mu.Lock()
	for name := range f.scrapes {
		if !current[name] {
			delete(f.scrapes, name)
		}
	}
	f.mu.Unlock()
}

// scrapeOne fetches and parses one worker's /metrics.
func (f *Federation) scrapeOne(ctx context.Context, name, url string) {
	start := time.Now()
	sc := &workerScrape{url: url, at: start,
		fams: make(map[string]*fedFamily), values: make(map[string]float64)}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err == nil {
		var resp *http.Response
		resp, err = f.client.Do(req)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				parseWorkerMetrics(resp.Body, sc)
				sc.up = true
			} else {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	sc.dur = time.Since(start)
	f.mu.Lock()
	f.total++
	if err != nil {
		f.errors++
	}
	if sc.up {
		sc.okAt = sc.at
	} else if prev := f.scrapes[name]; prev != nil {
		sc.okAt = prev.okAt // staleness keeps growing across failures
	}
	f.scrapes[name] = sc
	f.mu.Unlock()
}

// parseWorkerMetrics reads one Prometheus text exposition, keeping the
// datamime_worker_* families. The parser is sequential: HELP/TYPE lines open
// a family and subsequent samples whose name extends it (histogram _bucket /
// _sum / _count) attach to it, which matches how every conforming exposition
// — including telemetry.Registry's — is laid out.
func parseWorkerMetrics(r io.Reader, sc *workerScrape) {
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	current := ""
	for scan.Scan() {
		line := strings.TrimSpace(scan.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue
			}
			name := fields[2]
			if !strings.HasPrefix(name, fedWorkerPrefix) {
				current = ""
				continue
			}
			fam := sc.fams[name]
			if fam == nil {
				fam = &fedFamily{}
				sc.fams[name] = fam
			}
			switch fields[1] {
			case "HELP":
				if len(fields) == 4 {
					fam.help = fields[3]
				}
				current = name
			case "TYPE":
				if len(fields) == 4 {
					fam.typ = fields[3]
				}
				current = name
			}
			continue
		}
		metric, labels, value, ok := splitSample(line)
		if !ok || !strings.HasPrefix(metric, fedWorkerPrefix) {
			continue
		}
		famName := current
		if famName == "" || !strings.HasPrefix(metric, famName) {
			famName = metric
		}
		fam := sc.fams[famName]
		if fam == nil {
			fam = &fedFamily{typ: "untyped"}
			sc.fams[famName] = fam
		}
		fam.series = append(fam.series, fedSeries{metric: metric, labels: labels, value: value})
		if labels == "" {
			if v, err := strconv.ParseFloat(value, 64); err == nil {
				sc.values[metric] = v
			}
		}
	}
}

// splitSample decomposes `name{labels} value` / `name value` exposition
// lines. Label values may contain spaces, so the value is whatever follows
// the closing brace (or the first space for label-less samples).
func splitSample(line string) (metric, labels, value string, ok bool) {
	if open := strings.IndexByte(line, '{'); open >= 0 {
		closeIdx := strings.LastIndexByte(line, '}')
		if closeIdx < open {
			return "", "", "", false
		}
		metric = line[:open]
		labels = line[open+1 : closeIdx]
		value = strings.TrimSpace(line[closeIdx+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return "", "", "", false
		}
		metric, value = fields[0], fields[1]
	}
	if metric == "" || value == "" {
		return "", "", "", false
	}
	// Timestamped samples carry a trailing ms field; keep only the value.
	if i := strings.IndexByte(value, ' '); i >= 0 {
		value = value[:i]
	}
	return metric, labels, value, true
}

// WritePrometheus renders the federated view: families sorted by name,
// samples per family sorted by worker, each with worker="name" injected as
// the first label, plus the synthesized datamime_worker_up family. Output is
// deterministic for a fixed scrape state, like the registry it rides behind.
func (f *Federation) WritePrometheus(w io.Writer) {
	f.mu.Lock()
	names := make([]string, 0, len(f.scrapes))
	for n := range f.scrapes {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		f.mu.Unlock()
		return
	}

	famNames := map[string]bool{}
	for _, sc := range f.scrapes {
		for fn := range sc.fams {
			famNames[fn] = true
		}
	}
	sorted := make([]string, 0, len(famNames))
	for fn := range famNames {
		sorted = append(sorted, fn)
	}
	sort.Strings(sorted)

	fmt.Fprintf(w, "# HELP datamime_worker_up Whether the last federation scrape of the worker's /metrics succeeded.\n")
	fmt.Fprintf(w, "# TYPE datamime_worker_up gauge\n")
	for _, n := range names {
		v := 0
		if f.scrapes[n].up {
			v = 1
		}
		fmt.Fprintf(w, "datamime_worker_up{worker=%q} %d\n", n, v)
	}
	fmt.Fprintf(w, "# HELP datamime_worker_scrape_duration_seconds How long the last federation scrape of the worker's /metrics took.\n")
	fmt.Fprintf(w, "# TYPE datamime_worker_scrape_duration_seconds gauge\n")
	for _, n := range names {
		fmt.Fprintf(w, "datamime_worker_scrape_duration_seconds{worker=%q} %s\n",
			n, strconv.FormatFloat(f.scrapes[n].dur.Seconds(), 'g', -1, 64))
	}
	// Staleness: seconds since the last successful scrape. Workers that have
	// never been scraped successfully have no series — up=0 already marks
	// them, and an unbounded fake staleness would only skew dashboards.
	staleHeaded := false
	for _, n := range names {
		okAt := f.scrapes[n].okAt
		if okAt.IsZero() {
			continue
		}
		if !staleHeaded {
			fmt.Fprintf(w, "# HELP datamime_worker_scrape_staleness_seconds Seconds since the worker's last successful federation scrape.\n")
			fmt.Fprintf(w, "# TYPE datamime_worker_scrape_staleness_seconds gauge\n")
			staleHeaded = true
		}
		fmt.Fprintf(w, "datamime_worker_scrape_staleness_seconds{worker=%q} %s\n",
			n, strconv.FormatFloat(time.Since(okAt).Seconds(), 'g', -1, 64))
	}

	for _, fn := range sorted {
		headed := false
		for _, n := range names {
			fam := f.scrapes[n].fams[fn]
			if fam == nil || len(fam.series) == 0 {
				continue
			}
			if !headed {
				typ := fam.typ
				if typ == "" {
					typ = "untyped"
				}
				if fam.help != "" {
					fmt.Fprintf(w, "# HELP %s %s\n", fn, fam.help)
				}
				fmt.Fprintf(w, "# TYPE %s %s\n", fn, typ)
				headed = true
			}
			for _, s := range fam.series {
				if s.labels == "" {
					fmt.Fprintf(w, "%s{worker=%q} %s\n", s.metric, n, s.value)
				} else {
					fmt.Fprintf(w, "%s{worker=%q,%s} %s\n", s.metric, n, s.labels, s.value)
				}
			}
		}
	}
	f.mu.Unlock()
}

// FederationStats snapshots the scrape counters.
type FederationStats struct {
	Workers      int    `json:"workers"`
	ScrapesTotal uint64 `json:"scrapes_total"`
	ScrapeErrors uint64 `json:"scrape_errors_total"`
}

// Stats returns the scrape counters.
func (f *Federation) Stats() FederationStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FederationStats{Workers: len(f.scrapes), ScrapesTotal: f.total, ScrapeErrors: f.errors}
}

// fedSummary is the federation's contribution to one /v1/fleet worker row.
type fedSummary struct {
	scraped      bool
	up           bool
	ageMS        int64
	cacheHits    float64
	cacheMisses  float64
	hitRate      float64
	hasRate      bool
	goroutines   float64
	hasRuntime   bool
	heapBytes    float64
	selfInflight float64
}

// summarize condenses one worker's scrape into the fleet-row fields.
func (f *Federation) summarize(name string) fedSummary {
	f.mu.Lock()
	defer f.mu.Unlock()
	sc := f.scrapes[name]
	if sc == nil {
		return fedSummary{}
	}
	out := fedSummary{scraped: true, up: sc.up, ageMS: time.Since(sc.at).Milliseconds()}
	hits := sc.values["datamime_worker_cache_local_hits_total"] +
		sc.values["datamime_worker_cache_shared_hits_total"]
	misses := sc.values["datamime_worker_cache_misses_total"]
	out.cacheHits, out.cacheMisses = hits, misses
	if hits+misses > 0 {
		out.hitRate = hits / (hits + misses)
		out.hasRate = true
	}
	if g, ok := sc.values["datamime_worker_go_goroutines"]; ok {
		out.goroutines = g
		out.hasRuntime = true
		out.heapBytes = sc.values["datamime_worker_go_heap_alloc_bytes"]
	}
	out.selfInflight = sc.values["datamime_worker_inflight"]
	return out
}

// FleetWorkerStatus is one worker's row in the GET /v1/fleet response:
// the dispatcher's routing view joined with the federation's scraped view.
type FleetWorkerStatus struct {
	backend.WorkerInfo
	// ScrapeUp reports the last federation scrape outcome (null until the
	// worker has been scraped at least once).
	ScrapeUp *bool `json:"scrape_up,omitempty"`
	// ScrapeAgeMS is how stale the scraped numbers below are.
	ScrapeAgeMS int64 `json:"scrape_age_ms,omitempty"`
	// CacheHitRate is hits/(hits+misses) across both worker cache tiers.
	CacheHitRate *float64 `json:"cache_hit_rate,omitempty"`
	CacheHits    float64  `json:"cache_hits,omitempty"`
	CacheMisses  float64  `json:"cache_misses,omitempty"`
	// Goroutines / HeapBytes are the worker's self-reported runtime health.
	Goroutines float64 `json:"goroutines,omitempty"`
	HeapBytes  float64 `json:"heap_bytes,omitempty"`
	// SelfInflight is the inflight gauge scraped from the worker itself —
	// a third load view beside the dispatcher's and the heartbeat's.
	SelfInflight float64 `json:"self_inflight,omitempty"`
}

// FleetStatus is the GET /v1/fleet response body.
type FleetStatus struct {
	Workers    []FleetWorkerStatus      `json:"workers"`
	Queue      int                      `json:"queue"`
	Dispatch   backend.DispatchCounters `json:"dispatch"`
	Federation FederationStats          `json:"federation"`
	// Corpus summarizes the persistent run index per scenario (latest run
	// beside the corpus median); null when -corpus-dir is not set.
	Corpus *CorpusSummary `json:"corpus,omitempty"`
}

// fleetStatus joins the dispatcher and federation views per worker.
func (s *Server) fleetStatus() FleetStatus {
	infos := s.dispatcher.Workers()
	out := FleetStatus{
		Workers:    make([]FleetWorkerStatus, 0, len(infos)),
		Queue:      s.dispatcher.QueueDepth(),
		Dispatch:   s.dispatcher.Counters(),
		Federation: s.federation.Stats(),
		Corpus:     s.corpusSummary(),
	}
	for _, info := range infos {
		row := FleetWorkerStatus{WorkerInfo: info}
		if fs := s.federation.summarize(info.Name); fs.scraped {
			up := fs.up
			row.ScrapeUp = &up
			row.ScrapeAgeMS = fs.ageMS
			row.CacheHits, row.CacheMisses = fs.cacheHits, fs.cacheMisses
			if fs.hasRate {
				rate := fs.hitRate
				row.CacheHitRate = &rate
			}
			if fs.hasRuntime {
				row.Goroutines = fs.goroutines
				row.HeapBytes = fs.heapBytes
			}
			row.SelfInflight = fs.selfInflight
		}
		out.Workers = append(out.Workers, row)
	}
	return out
}

// handleFleet serves GET /v1/fleet: the unified fleet health view.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fleetStatus())
}
