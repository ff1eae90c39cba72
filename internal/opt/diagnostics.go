package opt

import (
	"fmt"
	"math"

	"datamime/internal/opt/linalg"
)

// Diagnostics is one proposal's GP search-health snapshot: which
// hyperparameters won the marginal-likelihood grid, how well-calibrated the
// surrogate's uncertainty is against its own training set (leave-one-out
// residuals), how close the covariance came to losing positive-definiteness,
// and what the acquisition surface looked like when the proposal was chosen.
//
// Everything here is derived read-only from state the proposal already
// materialized — the winning Cholesky factor, alpha vector, and the EI
// argmax's scores — so collecting it cannot perturb the proposal stream: an
// instrumented search is bit-identical to an uninstrumented one.
//
// This struct is the only listing of the snapshot's fields: the JSON tags
// are what reports and endpoints print (inspect.DiagRecord embeds it), and
// fields() below pairs each field with its artifact attribute key. A new
// field needs a line here and a row there.
type Diagnostics struct {
	// Fit: the grid winner and its evidence.
	LengthScale  float64 `json:"length_scale"`
	NoiseFrac    float64 `json:"noise_frac"`
	SignalVar    float64 `json:"signal_var"`
	LogMarginal  float64 `json:"log_marginal"`
	Observations int     `json:"observations"`
	// Condition estimates the covariance condition number as (max/min
	// Cholesky diagonal)².
	Condition float64 `json:"condition"`

	// Leave-one-out calibration: residuals of each training point predicted
	// from the other n−1, standardized by the model's own predictive spread.
	// Coverage1/Coverage2 are the fractions inside the 1σ/2σ bands — a
	// calibrated model sits near 0.68/0.95; far below means overconfident,
	// far above means underconfident.
	LOORMSE   float64 `json:"loo_rmse"`
	LOOMaxZ   float64 `json:"loo_max_z"`
	Coverage1 float64 `json:"coverage1"`
	Coverage2 float64 `json:"coverage2"`

	// Acquisition: the pool size, the chosen candidate's EI against the
	// mean EI of the proposal's first 64 uniform candidates (all of them
	// below 64), and the exploration-vs-exploitation split of the chosen
	// EI's two terms. A collapsing chosen-vs-mean gap means the EI surface
	// has flattened (stagnation); an exploit share near 1 means the search
	// has stopped valuing uncertainty.
	Candidates int     `json:"candidates"`
	ChosenEI   float64 `json:"chosen_ei"`
	PoolMeanEI float64 `json:"pool_mean_ei"`
	ExploitEI  float64 `json:"exploit_ei"`
	ExploreEI  float64 `json:"explore_ei"`
}

// diagField pairs one Diagnostics field (exactly one of f, i is set) with
// the key it travels under in a search.diagnostics event's attributes.
type diagField struct {
	key string
	f   *float64
	i   *int
}

// fields is the snapshot's wire table: every field of d with its artifact
// attribute key. It is the only listing of the keys, and drives both Attrs
// and DiagnosticsFromAttrs, so the two cannot disagree.
func (d *Diagnostics) fields() []diagField {
	return []diagField{
		{key: "gp_length_scale", f: &d.LengthScale},
		{key: "gp_noise_frac", f: &d.NoiseFrac},
		{key: "gp_signal_var", f: &d.SignalVar},
		{key: "gp_log_marginal", f: &d.LogMarginal},
		{key: "gp_observations", i: &d.Observations},
		{key: "gp_condition", f: &d.Condition},
		{key: "loo_rmse", f: &d.LOORMSE},
		{key: "loo_max_z", f: &d.LOOMaxZ},
		{key: "loo_coverage1", f: &d.Coverage1},
		{key: "loo_coverage2", f: &d.Coverage2},
		{key: "acq_candidates", i: &d.Candidates},
		{key: "acq_chosen_ei", f: &d.ChosenEI},
		{key: "acq_pool_mean_ei", f: &d.PoolMeanEI},
		{key: "acq_exploit_ei", f: &d.ExploitEI},
		{key: "acq_explore_ei", f: &d.ExploreEI},
	}
}

// Attrs flattens the snapshot into the attributes of a search.diagnostics
// artifact event. Only deterministic model-derived values enter the map
// — no clocks, no durations — so two identically-seeded runs emit byte-equal
// diagnostics.
func (d Diagnostics) Attrs() map[string]float64 {
	fields := d.fields()
	attrs := make(map[string]float64, len(fields))
	for _, fl := range fields {
		if fl.i != nil {
			attrs[fl.key] = float64(*fl.i)
		} else {
			attrs[fl.key] = *fl.f
		}
	}
	return attrs
}

// DiagnosticsFromAttrs is the inverse of Attrs; absent keys leave their
// field zero and keys no field has are ignored, so snapshots written by
// older builds still decode. An integer
// field outside the whole numbers in [0, 2³¹) is an error: int() would make
// of it whatever the architecture does (amd64 wraps 1e300 to MinInt64).
func DiagnosticsFromAttrs(attrs map[string]float64) (Diagnostics, error) {
	var d Diagnostics
	for _, fl := range d.fields() {
		v := attrs[fl.key]
		if fl.f != nil {
			*fl.f = v
		} else if v >= 0 && v < 1<<31 && v == math.Trunc(v) {
			*fl.i = int(v)
		} else {
			return Diagnostics{}, fmt.Errorf("opt: diagnostics attribute %s is %v, not a count", fl.key, v)
		}
	}
	return d, nil
}

// DiagnosticsReporter is implemented by optimizers that can report
// per-proposal search-health diagnostics. Like TimingReporter, collection
// must not perturb the proposal stream: implementations only read state the
// proposal already computed.
type DiagnosticsReporter interface {
	// TakeDiagnostics returns the diagnostics captured since the previous
	// call and resets them; ok is false when no surrogate-backed proposal
	// ran. When several proposals ran in the window (constant-liar
	// batches), the snapshot describes the first — the only one fit purely
	// on real observations, before lie rows entered the history.
	TakeDiagnostics() (d Diagnostics, ok bool)
}

var _ DiagnosticsReporter = (*BayesOpt)(nil)

// TakeDiagnostics implements DiagnosticsReporter.
func (b *BayesOpt) TakeDiagnostics() (Diagnostics, bool) {
	d, ok := b.diag, b.diagOK
	b.diag, b.diagOK = Diagnostics{}, false
	return d, ok
}

// captureDiagnostics fills the pending diagnostics snapshot after a
// surrogate-backed proposal. Only the first proposal per drain window is
// captured (later constant-liar proposals are fit on lied observations).
// All inputs were materialized by the proposal itself; nothing here touches
// the RNG or mutates optimizer state beyond the snapshot fields.
func (b *BayesOpt) captureDiagnostics(gp *GP, candidates int, exploit, explore, sampleMean float64) {
	if b.diagOK {
		return
	}
	d := Diagnostics{Observations: len(gp.ys)}
	if sel := b.cache.lastFit; sel.ok {
		d.LengthScale = sel.ls
		d.NoiseFrac = sel.nf
		d.SignalVar = sel.signalVar
		d.LogMarginal = sel.lml
	}
	d.Condition = choleskyCondition(&gp.chol)
	d.LOORMSE, d.LOOMaxZ, d.Coverage1, d.Coverage2 = gp.looStats()

	d.Candidates = candidates
	d.ChosenEI = exploit + explore
	d.PoolMeanEI = sampleMean
	d.ExploitEI, d.ExploreEI = exploit, explore
	b.diag, b.diagOK = d, true
}

// looStats computes leave-one-out residual statistics from the already
// factorized covariance (Rasmussen & Williams eq. 5.10–5.12): with
// K = L·Lᵀ, (K⁻¹)ᵢᵢ = ‖L⁻¹eᵢ‖², the LOO residual is αᵢ/(K⁻¹)ᵢᵢ and the LOO
// predictive variance 1/(K⁻¹)ᵢᵢ. Column i of L⁻¹ is zero above row i, so
// its forward substitution starts at row i: the terms it skips, and the
// zeros it does not square into ‖L⁻¹eᵢ‖², are exact +0 and would change no
// sum. O(n³/6) total over the cached factor — no refits, no mutation.
func (g *GP) looStats() (rmse, maxAbsZ, cov1, cov2 float64) {
	n := len(g.ys)
	if n == 0 {
		return 0, 0, 0, 0
	}
	v := make([]float64, n)
	var sumSq float64
	in1, in2 := 0, 0
	for i := 0; i < n; i++ {
		var kinv float64
		for r := i; r < n; r++ {
			row := g.chol.Row(r)
			s := 0.0
			if r == i {
				s = 1
			}
			for k, lk := range row[i:r] {
				s -= lk * v[i+k]
			}
			v[r] = s / row[r]
			kinv += v[r] * v[r]
		}
		if kinv <= 0 || math.IsNaN(kinv) {
			continue
		}
		resid := g.alpha[i] / kinv
		sumSq += resid * resid
		z := math.Abs(resid) * math.Sqrt(kinv)
		if z > maxAbsZ {
			maxAbsZ = z
		}
		if z <= 1 {
			in1++
		}
		if z <= 2 {
			in2++
		}
	}
	rmse = math.Sqrt(sumSq / float64(n))
	cov1 = float64(in1) / float64(n)
	cov2 = float64(in2) / float64(n)
	return rmse, maxAbsZ, cov1, cov2
}

// choleskyCondition estimates the covariance condition number from the
// factor's diagonal: cond(K) ⪆ (max dᵢ / min dᵢ)², a cheap lower bound. Each
// Lᵢᵢ² of a surrogate factor of C + nf·I is a Schur complement of it, so
// nf ≤ Lᵢᵢ² ≤ 1 + nf, and the estimate is at most (1 + nf)/nf.
func choleskyCondition(l *linalg.Tri) float64 {
	if l.N == 0 {
		return 0
	}
	minD, maxD := math.Inf(1), 0.0
	for i := 0; i < l.N; i++ {
		d := math.Abs(l.At(i, i))
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if minD <= 0 {
		return math.Inf(1)
	}
	r := maxD / minD
	return r * r
}
