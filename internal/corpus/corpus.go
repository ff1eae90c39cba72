// Package corpus is the persistent, append-only run index datamimed writes on
// every job completion. It is the longitudinal memory of the service: each
// finished search contributes a summary Record (scenario hash, seed, backend,
// best error, per-component attribution, counts, job wall time, build version)
// plus the full JSONL telemetry artifact, content-addressed by
// SHA-256 so identical runs share storage.
//
// On-disk layout under the corpus directory:
//
//	index.jsonl          append-only, one JSON Record per line
//	runs/<sha256>.jsonl  full run artifacts, content-addressed
//
// The index is written with a single O_APPEND write per record, so concurrent
// completions from one process interleave whole lines and a crash can lose at
// most a truncated tail. Open tolerates exactly that: malformed lines are
// counted and skipped (the same contract as inspect.LoadRun), and a dirty
// index — truncated tail or duplicate IDs — is compacted in place via
// tmp+rename before the append handle is opened.
package corpus

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Record is one finished run's summary entry in the corpus index.
type Record struct {
	// ID is the coordinator's job ID (unique per record; later records win
	// on compaction).
	ID string `json:"id"`
	// Scenario is the hash of the semantic job-spec fields (see the service's
	// scenario hashing: bit-identity knobs like backend and profile workers
	// are excluded, the seed is included).
	Scenario string `json:"scenario"`
	// Target is a short human description of what the run searched for.
	Target string `json:"target,omitempty"`
	// Generator is the dataset generator the search tuned.
	Generator string `json:"generator,omitempty"`
	Seed      uint64 `json:"seed"`
	// Backend records where evaluations ran ("local" or "dispatch"); it is
	// informational only and never part of the scenario hash.
	Backend string `json:"backend,omitempty"`
	// Build is the coordinator build that produced the run.
	Build string `json:"build,omitempty"`

	BestError  float64            `json:"best_error"`
	BestIter   int                `json:"best_iter"`
	Components map[string]float64 `json:"components,omitempty"`
	Iterations int                `json:"iterations"`
	Evals      int                `json:"evals"`
	CacheHits  int                `json:"cache_hits"`
	Skipped    int                `json:"skipped"`

	WallSeconds float64 `json:"wall_seconds,omitempty"`

	// TrajectoryHash fingerprints the best-error-so-far series bit-for-bit
	// (SHA-256 over the IEEE-754 representation of each sample), so two runs
	// can be compared for exact convergence identity without loading their
	// artifacts.
	TrajectoryHash string `json:"trajectory_hash,omitempty"`
	// ArtifactSHA content-addresses the full JSONL artifact under runs/.
	ArtifactSHA string `json:"artifact_sha,omitempty"`

	// Verdict, BaselineID, and BaselineDelta record the watchdog's judgment
	// at index time: VerdictBaseline for a scenario's first run, otherwise
	// inspect.DiffRuns' verdict and best-error delta against the baseline's
	// stored artifact.
	Verdict       string  `json:"verdict,omitempty"`
	BaselineID    string  `json:"baseline_id,omitempty"`
	BaselineDelta float64 `json:"baseline_delta,omitempty"`

	// ModelHealth summarizes the run's GP search-health diagnostics (nil for
	// runs without surrogate fits: random/anneal optimizers, pre-diagnostics
	// builds). It lets trends track calibration drift across runs of a
	// scenario without reloading artifacts.
	ModelHealth *ModelHealth `json:"model_health,omitempty"`

	FinishedAt time.Time `json:"finished_at"`
}

// ModelHealth is a run's surrogate-model health rollup: the figures the
// optimizer observatory judges a search by (see inspect.SearchHealth), frozen
// into the index so longitudinal calibration drift is queryable.
type ModelHealth struct {
	// Snapshots counts the per-iteration diagnostics records the run emitted.
	Snapshots int `json:"snapshots"`
	// MeanCoverage1/MeanCoverage2 are the settled-half LOO calibration
	// coverages (nominal 0.683 / 0.954).
	MeanCoverage1 float64 `json:"mean_coverage1"`
	MeanCoverage2 float64 `json:"mean_coverage2"`
	// FinalLogMarginal is the last fit's log evidence.
	FinalLogMarginal float64 `json:"final_log_marginal"`
	// MaxJitterLevel is the worst jitter escalation any fit needed.
	MaxJitterLevel int `json:"max_jitter_level"`
	// Healthy reports whether no search-health verdict flag fired.
	Healthy bool `json:"healthy"`
}

// Filter selects records from the index. Zero fields match everything.
type Filter struct {
	Scenario string    // exact scenario hash
	Target   string    // exact target description
	Since    time.Time // FinishedAt >= Since
	Until    time.Time // FinishedAt <= Until
	// Limit keeps only the most recent N matches (index order; 0 = all).
	Limit int
}

// Corpus is an open run index. All methods are safe for concurrent use within
// one process; cross-process appends rely on O_APPEND whole-line writes.
type Corpus struct {
	dir string

	mu        sync.Mutex
	f         *os.File // index append handle
	records   []Record
	malformed int
	compacted bool
}

// Open loads (or creates) the corpus under dir. Truncated or otherwise
// malformed index lines are counted, skipped, and compacted away; duplicate
// IDs keep the latest record.
func Open(dir string) (*Corpus, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	c := &Corpus{dir: dir}
	dirty, err := c.load()
	if err != nil {
		return nil, err
	}
	if dirty {
		if err := c.rewriteIndex(); err != nil {
			return nil, err
		}
		c.compacted = true
	}
	f, err := os.OpenFile(c.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	c.f = f
	return c, nil
}

func (c *Corpus) indexPath() string { return filepath.Join(c.dir, "index.jsonl") }

// Dir reports the corpus root directory.
func (c *Corpus) Dir() string { return c.dir }

// load parses index.jsonl into c.records, returning whether the on-disk index
// needs compaction (malformed lines or duplicate IDs).
func (c *Corpus) load() (dirty bool, err error) {
	f, err := os.Open(c.indexPath())
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()

	byID := make(map[string]int)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" {
			c.malformed++
			dirty = true
			continue
		}
		if i, ok := byID[rec.ID]; ok {
			c.records[i] = rec // latest wins
			dirty = true
			continue
		}
		byID[rec.ID] = len(c.records)
		c.records = append(c.records, rec)
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("corpus: reading index: %w", err)
	}
	return dirty, nil
}

// rewriteIndex writes the in-memory records back out atomically (tmp+rename).
func (c *Corpus) rewriteIndex() error {
	tmp := c.indexPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, rec := range c.records {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("corpus: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("corpus: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("corpus: %w", err)
	}
	if err := os.Rename(tmp, c.indexPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// Close releases the index append handle. The corpus remains readable.
func (c *Corpus) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// Add appends rec to the index and, when artifact is non-empty, stores the
// full run artifact content-addressed under runs/. The returned record has
// ArtifactSHA (and a FinishedAt default) filled in.
func (c *Corpus) Add(rec Record, artifact []byte) (Record, error) {
	if rec.ID == "" {
		return rec, fmt.Errorf("corpus: record has no ID")
	}
	if rec.FinishedAt.IsZero() {
		rec.FinishedAt = time.Now().UTC()
	}
	if len(artifact) > 0 {
		sha, err := c.storeArtifact(artifact)
		if err != nil {
			return rec, err
		}
		rec.ArtifactSHA = sha
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return rec, fmt.Errorf("corpus: %w", err)
	}
	line = append(line, '\n')

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return rec, fmt.Errorf("corpus: closed")
	}
	// One Write call per record: O_APPEND makes whole lines atomic with
	// respect to concurrent appenders, so a reader never sees interleaving.
	if _, err := c.f.Write(line); err != nil {
		return rec, fmt.Errorf("corpus: %w", err)
	}
	c.records = append(c.records, rec)
	return rec, nil
}

// storeArtifact writes the artifact under its content address, skipping the
// write when the same bytes are already stored.
func (c *Corpus) storeArtifact(artifact []byte) (string, error) {
	sum := sha256.Sum256(artifact)
	sha := hex.EncodeToString(sum[:])
	path := filepath.Join(c.dir, "runs", sha+".jsonl")
	if _, err := os.Stat(path); err == nil {
		return sha, nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, artifact, 0o644); err != nil {
		return "", fmt.Errorf("corpus: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("corpus: %w", err)
	}
	return sha, nil
}

// Artifact loads the full JSONL artifact of rec.
func (c *Corpus) Artifact(rec Record) ([]byte, error) {
	if rec.ArtifactSHA == "" {
		return nil, fmt.Errorf("corpus: run %s has no stored artifact", rec.ID)
	}
	b, err := os.ReadFile(c.ArtifactPath(rec))
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return b, nil
}

// ArtifactPath returns the on-disk path of rec's artifact.
func (c *Corpus) ArtifactPath(rec Record) string {
	return filepath.Join(c.dir, "runs", rec.ArtifactSHA+".jsonl")
}

// Len reports the number of indexed records.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}

// Malformed reports how many index lines were skipped as truncated or
// unparseable when the corpus was opened.
func (c *Corpus) Malformed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.malformed
}

// Compacted reports whether Open rewrote a dirty index.
func (c *Corpus) Compacted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compacted
}

// Records returns a copy of every record in index (append) order.
func (c *Corpus) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, len(c.records))
	copy(out, c.records)
	return out
}

// Select returns the records matching f, in index order.
func (c *Corpus) Select(f Filter) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Record
	for _, rec := range c.records {
		if f.Scenario != "" && rec.Scenario != f.Scenario {
			continue
		}
		if f.Target != "" && rec.Target != f.Target {
			continue
		}
		if !f.Since.IsZero() && rec.FinishedAt.Before(f.Since) {
			continue
		}
		if !f.Until.IsZero() && rec.FinishedAt.After(f.Until) {
			continue
		}
		out = append(out, rec)
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Find returns the record with the given job ID.
func (c *Corpus) Find(id string) (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range c.records {
		if rec.ID == id {
			return rec, true
		}
	}
	return Record{}, false
}

// Baseline returns the earliest indexed record for scenario, skipping the
// record with ID exclude (the run being assessed). The first run of a
// scenario is its reference point; later regressions are judged against it.
func (c *Corpus) Baseline(scenario, exclude string) (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range c.records {
		if rec.Scenario == scenario && rec.ID != exclude {
			return rec, true
		}
	}
	return Record{}, false
}

// Scenarios returns the distinct scenario hashes in first-seen order.
func (c *Corpus) Scenarios() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, rec := range c.records {
		if !seen[rec.Scenario] {
			seen[rec.Scenario] = true
			out = append(out, rec.Scenario)
		}
	}
	return out
}

// Compact rewrites the index deduplicated (latest record per ID wins) and
// reopens the append handle. Safe to call on a live corpus.
func (c *Corpus) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	byID := make(map[string]int)
	var out []Record
	for _, rec := range c.records {
		if i, ok := byID[rec.ID]; ok {
			out[i] = rec
			continue
		}
		byID[rec.ID] = len(out)
		out = append(out, rec)
	}
	c.records = out
	if err := c.rewriteIndex(); err != nil {
		return err
	}
	if c.f != nil {
		c.f.Close()
		f, err := os.OpenFile(c.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			c.f = nil
			return fmt.Errorf("corpus: %w", err)
		}
		c.f = f
	}
	return nil
}

// TrajectoryHash fingerprints a best-error series bit-for-bit: SHA-256 over
// the big-endian IEEE-754 encoding of each sample. Empty series hash to "".
func TrajectoryHash(series []float64) string {
	if len(series) == 0 {
		return ""
	}
	h := sha256.New()
	var buf [8]byte
	for _, v := range series {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashJSON hashes v's canonical JSON encoding (encoding/json sorts map keys
// and emits struct fields in declaration order, so equal values hash equally)
// and returns the first 16 hex characters — short enough for URLs, wide
// enough (64 bits) that collisions are not a practical concern for a run
// index.
func HashJSON(v interface{}) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("corpus: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
