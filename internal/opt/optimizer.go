package opt

import (
	"math"
	"slices"
	"time"

	"datamime/internal/stats"
)

// Optimizer is the sequential black-box minimization interface Datamime's
// search loop drives: ask for the next point, evaluate the expensive
// objective (generate dataset → run benchmark → profile → EMD), then report
// the observation back (§III-C).
//
// Points are in the normalized unit cube; callers denormalize through the
// Space.
type Optimizer interface {
	// Next proposes the next unit-cube point to evaluate.
	Next() []float64
	// Observe records the objective value measured at x.
	Observe(x []float64, y float64)
	// Best returns the incumbent: the lowest-error point observed so far.
	// ok is false before any observation.
	Best() (x []float64, y float64, ok bool)
	// Name identifies the optimizer for experiment output.
	Name() string
}

// Timings aggregates where an optimizer's proposal time went, for
// telemetry: GP surrogate fitting versus acquisition-function maximization.
// Durations accumulate across proposals until TakeTimings resets them, so
// one read covers a whole batch proposal.
type Timings struct {
	// GPFit is the time spent fitting the GP surrogate.
	GPFit time.Duration
	// Acquisition is the time spent maximizing Expected Improvement.
	Acquisition time.Duration
	// Proposals counts surrogate-backed proposals in the window
	// (initial-design points cost neither phase and are not counted).
	Proposals int
	// CholeskyAppends and CholeskyRebuilds count how surrogate factors were
	// brought up to date in the window: O(n²) incremental bordered appends
	// versus O(n³) refactorization fallbacks: a rebuild follows a failed
	// append, or several observations arriving between two fits (a batch).
	CholeskyAppends  int
	CholeskyRebuilds int
}

// TimingReporter is implemented by optimizers that track internal phase
// timings. Timing collection must not perturb the proposal stream: it only
// reads the clock around existing work.
type TimingReporter interface {
	// TakeTimings returns the accumulation since the previous call and
	// resets it; ok is false when no surrogate-backed proposal ran.
	TakeTimings() (t Timings, ok bool)
}

// Observation is one (point, value) pair in an optimizer's history.
type Observation struct {
	X []float64
	Y float64
}

// history provides the shared bookkeeping all optimizers need.
type history struct {
	obs   []Observation
	bestX []float64
	bestY float64
}

func (h *history) Observe(x []float64, y float64) {
	cp := make([]float64, len(x))
	copy(cp, x)
	h.obs = append(h.obs, Observation{X: cp, Y: y})
	if len(h.obs) == 1 || y < h.bestY {
		h.bestY = y
		h.bestX = cp
	}
}

func (h *history) Best() ([]float64, float64, bool) {
	if len(h.obs) == 0 {
		return nil, 0, false
	}
	return h.bestX, h.bestY, true
}

// Trace returns the full observation history (copies are not made; callers
// must not mutate).
func (h *history) Trace() []Observation { return h.obs }

// BayesOpt is the paper's optimizer: GP surrogate + Expected Improvement.
// The first InitPoints proposals come from a Latin-hypercube design; after
// that, each proposal maximizes EI over a random candidate set refined with
// local perturbations around the incumbent and the best candidate.
type BayesOpt struct {
	history
	space      *Space
	rng        *stats.RNG
	initPoints int
	candidates int
	xi         float64
	pending    [][]float64
	timings    Timings
	cache      *surrogateCache
	// Pending search-health snapshot for DiagnosticsReporter: the first
	// surrogate-backed proposal since the last TakeDiagnostics drain.
	diag   Diagnostics
	diagOK bool
	// A proposal's working storage, reused by the next: the candidate pool
	// (views into one array), the scorer's buffer, the history as the
	// surrogate fit reads it, and the ranking topAnchors sorts. A proposal
	// hands out only a copy of its winner.
	pool    []float64
	cands   [][]float64
	scorer  scorer
	xs      [][]float64
	ys      []float64
	ranking []Observation
}

// BayesOptConfig tunes the optimizer. Zero values select defaults.
type BayesOptConfig struct {
	// InitPoints is the size of the initial Latin-hypercube design
	// (default: max(5, 2·dim)).
	InitPoints int
	// Candidates is the number of acquisition candidates per step
	// (default 512).
	Candidates int
	// Xi is the EI exploration margin (default 0.01).
	Xi float64
	// Seed seeds the proposal RNG.
	Seed uint64
}

// NewBayesOpt builds a Bayesian optimizer over space.
func NewBayesOpt(space *Space, cfg BayesOptConfig) *BayesOpt {
	if cfg.InitPoints <= 0 {
		cfg.InitPoints = 2 * space.Dim()
		if cfg.InitPoints < 5 {
			cfg.InitPoints = 5
		}
	}
	if cfg.Candidates <= 0 {
		cfg.Candidates = 512
	}
	if cfg.Xi <= 0 {
		cfg.Xi = 0.01
	}
	rng := stats.NewRNG(stats.HashSeed(cfg.Seed, "bayesopt"))
	b := &BayesOpt{
		space:      space,
		rng:        rng,
		initPoints: cfg.InitPoints,
		candidates: cfg.Candidates,
		xi:         cfg.Xi,
	}
	b.pending = LatinHypercube(cfg.InitPoints, space.Dim(), rng)
	return b
}

// Name returns "bayesopt".
func (b *BayesOpt) Name() string { return "bayesopt" }

// Next proposes the next point: initial-design points first, then the EI
// maximizer over the surrogate.
func (b *BayesOpt) Next() []float64 {
	if len(b.pending) > 0 {
		x := b.pending[0]
		b.pending = b.pending[1:]
		return x
	}
	fitStart := time.Now()
	gp, err := b.fitSurrogate()
	b.timings.GPFit += time.Since(fitStart)
	b.timings.Proposals++
	if b.cache != nil {
		app, reb := b.cache.takeFitStats()
		b.timings.CholeskyAppends += app
		b.timings.CholeskyRebuilds += reb
	}
	if err != nil {
		// Surrogate fit failed (degenerate observations); fall back to
		// random exploration rather than aborting the search.
		return b.space.Sample(b.rng)
	}
	acqStart := time.Now()
	defer func() { b.timings.Acquisition += time.Since(acqStart) }()
	_, bestY, _ := b.Best()

	radii := [3]float64{0.2, 0.05, 0.01}
	anchors := b.topAnchors(3)
	local := b.candidates / 8
	cands := b.candidatePool(b.candidates + len(anchors)*len(radii)*local)
	// Global random candidates.
	for i := 0; i < b.candidates; i++ {
		b.space.sampleInto(cands[i], b.rng)
	}
	// Local candidates around the incumbent and previously-observed good
	// points, at shrinking perturbation radii: EI surfaces are often peaked
	// near the incumbent when the objective is locally improvable.
	next := b.candidates
	for _, anchor := range anchors {
		for _, radius := range radii {
			for i := 0; i < local; i++ {
				b.perturbInto(cands[next], anchor, radius)
				next++
			}
		}
	}
	if idx, exploit, explore, sampleMean := b.argmaxEI(gp, cands, b.candidates, bestY); idx >= 0 {
		// Snapshot search health from state this proposal already
		// materialized (factor, alpha, EI scores) — read-only, so the
		// proposal stream is unchanged whether anyone drains it or not.
		b.captureDiagnostics(gp, len(cands), exploit, explore, sampleMean)
		return append([]float64(nil), cands[idx]...)
	}
	return b.space.Sample(b.rng)
}

// candidatePool returns n candidate slots of the space's dimension, views
// into the optimizer's reused pool.
func (b *BayesOpt) candidatePool(n int) [][]float64 {
	dim := b.space.Dim()
	b.pool = slices.Grow(b.pool[:0], n*dim)[:n*dim]
	b.cands = b.cands[:0]
	for i := 0; i < n; i++ {
		b.cands = append(b.cands, b.pool[i*dim:(i+1)*dim:(i+1)*dim])
	}
	return b.cands
}

// TakeTimings implements TimingReporter.
func (b *BayesOpt) TakeTimings() (Timings, bool) {
	t := b.timings
	b.timings = Timings{}
	return t, t.Proposals > 0
}

// fitSurrogate fits the GP to the normalized observation history via the
// incremental surrogate cache (see incremental.go): each hyperparameter
// candidate's Cholesky factor is extended by one bordered row per new
// observation instead of refactorized from scratch. The objective is
// standardized implicitly by the GP's empirical-mean prior and the
// ML-selected signal variance.
func (b *BayesOpt) fitSurrogate() (*GP, error) {
	b.xs, b.ys = b.xs[:0], b.ys[:0]
	for _, o := range b.obs {
		b.xs = append(b.xs, o.X)
		b.ys = append(b.ys, o.Y)
	}
	if b.cache == nil {
		b.cache = newSurrogateCache()
	}
	return b.cache.fit(b.xs, b.ys)
}

// topAnchors returns the k lowest-error observed points.
func (b *BayesOpt) topAnchors(k int) [][]float64 {
	b.ranking = append(b.ranking[:0], b.obs...)
	obs := b.ranking
	// Selection of the k smallest by simple partial sort (k is tiny).
	for i := 0; i < k && i < len(obs); i++ {
		minIdx := i
		for j := i + 1; j < len(obs); j++ {
			if obs[j].Y < obs[minIdx].Y {
				minIdx = j
			}
		}
		obs[i], obs[minIdx] = obs[minIdx], obs[i]
	}
	if k > len(obs) {
		k = len(obs)
	}
	anchors := make([][]float64, k)
	for i := 0; i < k; i++ {
		anchors[i] = obs[i].X
	}
	return anchors
}

// perturbInto writes a Gaussian perturbation of x with the given radius,
// clipped to the unit cube, into out.
func (b *BayesOpt) perturbInto(out, x []float64, radius float64) {
	for i, v := range x {
		out[i] = stats.Clamp(v+radius*b.rng.NormFloat64(), 0, 1)
	}
}

// RandomSearch is the naive baseline: uniform sampling of the space.
type RandomSearch struct {
	history
	space *Space
	rng   *stats.RNG
}

// NewRandomSearch builds a random-search optimizer.
func NewRandomSearch(space *Space, seed uint64) *RandomSearch {
	return &RandomSearch{space: space, rng: stats.NewRNG(stats.HashSeed(seed, "random-search"))}
}

// Name returns "random".
func (r *RandomSearch) Name() string { return "random" }

// Next returns a uniform point.
func (r *RandomSearch) Next() []float64 { return r.space.Sample(r.rng) }

// Anneal is a simulated-annealing baseline. The paper rules out global
// optimizers like SA for the real search because they need many function
// evaluations (§III-C); including it lets the ablation benches demonstrate
// exactly that.
type Anneal struct {
	history
	space   *Space
	rng     *stats.RNG
	current []float64
	curY    float64
	temp    float64
	cooling float64
}

// NewAnneal builds a simulated-annealing optimizer with initial temperature
// temp and geometric cooling factor cooling in (0, 1).
func NewAnneal(space *Space, seed uint64, temp, cooling float64) *Anneal {
	if temp <= 0 {
		temp = 1.0
	}
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.95
	}
	return &Anneal{
		space:   space,
		rng:     stats.NewRNG(stats.HashSeed(seed, "anneal")),
		temp:    temp,
		cooling: cooling,
	}
}

// Name returns "anneal".
func (a *Anneal) Name() string { return "anneal" }

// Next proposes a neighbor of the current state (or the initial random
// state before any observation).
func (a *Anneal) Next() []float64 {
	if a.current == nil {
		return a.space.Sample(a.rng)
	}
	radius := 0.3*a.temp + 0.02
	x := make([]float64, len(a.current))
	for i, v := range a.current {
		x[i] = stats.Clamp(v+radius*a.rng.NormFloat64(), 0, 1)
	}
	return x
}

// Observe applies the Metropolis acceptance rule and cools the temperature.
func (a *Anneal) Observe(x []float64, y float64) {
	a.history.Observe(x, y)
	if a.current == nil {
		a.current = append([]float64(nil), x...)
		a.curY = y
		return
	}
	accept := y <= a.curY
	if !accept {
		p := math.Exp(-(y - a.curY) / math.Max(a.temp, 1e-9))
		accept = a.rng.Bool(p)
	}
	if accept {
		a.current = append([]float64(nil), x...)
		a.curY = y
	}
	a.temp *= a.cooling
}
