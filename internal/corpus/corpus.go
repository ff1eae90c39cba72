// Package corpus is the view of datamimed's run history: the longitudinal
// memory of the service. Each succeeded search carries a summary Record
// (scenario hash, seed, backend, best error, per-component attribution,
// counts, job wall time, build version, and the watchdog's verdict) as one
// line of its own job log, <id>.jsonl:
//
//	{"type":"corpus.record","record":{…}}
//
// The corpus is the set of those lines. Its artifacts are the logs
// themselves (inspect.LoadRun reads one, skipping the job.* and record
// lines). Load reads the records back from a checkpoint directory; Select
// and Trends query a list of them.
package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"datamime/internal/telemetry"
)

// TypeRecord is the type of a job log's record line.
const TypeRecord = "corpus.record"

// Record is one succeeded run's summary entry in the corpus.
type Record struct {
	// ID is the coordinator's job ID, the name of the log the record is in.
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

	// Verdict, BaselineID, and BaselineDelta record the watchdog's judgment
	// at index time: VerdictBaseline for a scenario's first run, otherwise
	// inspect.DiffRuns' verdict and best-error delta against the baseline
	// job's events.
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

// Load reads the corpus of the checkpoint directory dir: the record line of
// each <id>.jsonl log in it (the last, should a log hold several), in corpus
// order (Sort). A log without one — an unfinished or failed job, or one
// written before records were logged — contributes nothing, and a torn or
// malformed line is skipped, as inspect.LoadRun skips it.
func Load(dir string) ([]Record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var recs []Record
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		rec, err := loadRecord(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if rec != nil {
			recs = append(recs, *rec)
		}
	}
	Sort(recs)
	return recs, nil
}

// recordLine is what Load reads of a job log line.
type recordLine struct {
	Type   string  `json:"type"`
	Record *Record `json:"record"`
}

// loadRecord returns the record line of the job log at path, nil if it has
// none.
func loadRecord(path string) (*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	var rec *Record
	_, err = telemetry.ScanJSONL(f, func(l recordLine) error {
		if l.Type == TypeRecord && l.Record != nil {
			rec = l.Record
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", path, err)
	}
	return rec, nil
}

// Sort puts records in corpus order: by FinishedAt, the lower job number
// first on a tie. A scenario's first record in that order is its baseline.
func Sort(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if !a.FinishedAt.Equal(b.FinishedAt) {
			return a.FinishedAt.Before(b.FinishedAt)
		}
		// "job-9" before "job-10": the shorter ID has the smaller number.
		return len(a.ID) < len(b.ID) || len(a.ID) == len(b.ID) && a.ID < b.ID
	})
}

// Filter selects records. Zero fields match everything.
type Filter struct {
	Scenario string    // exact scenario hash
	Target   string    // exact target description
	Since    time.Time // FinishedAt >= Since
	Until    time.Time // FinishedAt <= Until
	// Limit keeps only the most recent N matches (corpus order; 0 = all).
	Limit int
}

// Select returns the records of recs matching f, in their order.
func Select(recs []Record, f Filter) []Record {
	var out []Record
	for _, rec := range recs {
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
