package opt

import (
	"fmt"
	"math"
	"slices"

	"datamime/internal/opt/linalg"
)

// GP is a Gaussian-process regression model over the unit cube with a
// constant (empirical-mean) prior and homoscedastic observation noise. It
// is refit from scratch on every update — observation counts in a Datamime
// search are small (≤ a few hundred, §IV), so O(n³) refits are cheap
// relative to a single profile evaluation.
//
// A GP fitted by the surrogate cache views the cache's buffers (its scaled
// factor and α), which the next fit overwrites: such a GP never outlives the
// proposal it was fitted for. FitGP's GPs own their storage.
type GP struct {
	kernel   Matern52
	noiseVar float64
	xs       [][]float64
	ys       []float64
	mean     float64
	chol     linalg.Tri
	alpha    []float64 // K⁻¹(y - mean)
}

// FitGP fits a GP with the given kernel and noise variance to the
// observations. The noise variance, floored at 1e-10, on the covariance's
// diagonal keeps it positive definite over duplicate or near-duplicate
// evaluation points (the optimizer may revisit promising regions).
func FitGP(kernel Matern52, noiseVar float64, xs [][]float64, ys []float64) (*GP, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("opt: FitGP got %d points but %d observations", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("opt: FitGP needs at least one observation")
	}
	chol, err := factorize(kernel, xs, max(noiseVar, 1e-10))
	if err != nil {
		return nil, fmt.Errorf("opt: GP covariance not factorizable: %w", err)
	}
	mean, centered := center(ys, nil)
	alpha := make([]float64, len(xs))
	chol.SolveLower(1, centered, alpha)
	chol.SolveUpperT(1, alpha, alpha)
	return &GP{
		kernel:   kernel,
		noiseVar: noiseVar,
		xs:       xs,
		ys:       ys,
		mean:     mean,
		chol:     chol,
		alpha:    alpha,
	}, nil
}

// factorize factorizes the kernel matrix over xs plus jitter·I row by row,
// into fresh storage.
func factorize(k Matern52, xs [][]float64, jitter float64) (linalg.Tri, error) {
	chol := linalg.NewTri(len(xs))
	for i := range xs {
		if err := appendRow(&chol, k, xs, i, jitter); err != nil {
			return linalg.Tri{}, err
		}
	}
	return chol, nil
}

// appendRow borders chol, the factor of the kernel matrix over xs[:i] plus
// jitter·I, with row i: k(x_i, x_j) for j < i, then k(x_i, x_i) + jitter.
func appendRow(chol *linalg.Tri, k Matern52, xs [][]float64, i int, jitter float64) error {
	row := chol.Slot()
	x := xs[i]
	for j := 0; j < i; j++ {
		row[j] = k.Eval(x, xs[j])
	}
	row[i] = k.Eval(x, x) + jitter
	return chol.Append()
}

// center returns the mean of ys and ys minus it, written into buf when it
// has room.
func center(ys, buf []float64) (mean float64, centered []float64) {
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	centered = slices.Grow(buf[:0], len(ys))
	for _, y := range ys {
		centered = append(centered, y-mean)
	}
	return mean, centered
}

// Predict returns the posterior mean and variance at x, as the acquisition
// scorer computes them.
func (g *GP) Predict(x []float64) (mu, sigma2 float64) {
	var s scorer
	mu, sigma2, _ = s.predict(g, x, 0, 0, math.Inf(-1))
	return mu, sigma2
}

// LogMarginalLikelihood returns the GP's log evidence, used to select
// kernel hyperparameters.
func (g *GP) LogMarginalLikelihood() float64 {
	_, centered := center(g.ys, nil)
	return logMarginal(centered, g.alpha, g.chol.LogDet(1))
}

// logMarginal is the log evidence of centered observations given
// α = K⁻¹·centered and log|K|.
func logMarginal(centered, alpha []float64, logDet float64) float64 {
	dataFit := -0.5 * linalg.Dot(centered, alpha)
	complexity := -0.5 * logDet
	norm := -0.5 * float64(len(centered)) * math.Log(2*math.Pi)
	return dataFit + complexity + norm
}

// hyperCandidate is one (lengthScale, signalVar, noiseVar) triple tried
// during hyperparameter selection.
type hyperCandidate struct {
	lengthScale, signalVar, noiseVar float64
}

// hyperLengthScales and hyperNoiseFracs form the hyperparameter grid both
// the from-scratch fit (fitBestGP) and the incremental surrogate cache
// search; the two must iterate the same grid in the same order so their
// first-best tie-breaking matches.
var (
	hyperLengthScales = []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6}
	hyperNoiseFracs   = []float64{1e-4, 1e-3, 1e-2, 0.1}
)

// fitBestGP selects kernel hyperparameters by maximizing the log marginal
// likelihood over a small log-spaced grid. Gradient-free selection is
// deliberately simple: the grid spans the plausible range for unit-cube
// inputs and normalized objectives, and grid ML selection is robust to the
// noisy objectives Datamime faces. It refactorizes every candidate from
// scratch (O(n³) each); the optimizer's hot path uses the incremental
// surrogate cache instead and keeps this as its reference implementation.
func fitBestGP(xs [][]float64, ys []float64) (*GP, error) {
	varY := variance(ys)
	if varY < 1e-12 {
		varY = 1e-12
	}
	var best *GP
	bestLML := math.Inf(-1)
	for _, ls := range hyperLengthScales {
		for _, nf := range hyperNoiseFracs {
			cand := hyperCandidate{lengthScale: ls, signalVar: varY, noiseVar: nf * varY}
			gp, err := FitGP(Matern52{Variance: cand.signalVar, LengthScale: cand.lengthScale}, cand.noiseVar, xs, ys)
			if err != nil {
				continue
			}
			if lml := gp.LogMarginalLikelihood(); lml > bestLML {
				bestLML = lml
				best = gp
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("opt: no GP hyperparameters produced a valid fit")
	}
	return best, nil
}

func variance(ys []float64) float64 {
	if len(ys) < 2 {
		return 0
	}
	var m float64
	for _, y := range ys {
		m += y
	}
	m /= float64(len(ys))
	var s float64
	for _, y := range ys {
		d := y - m
		s += d * d
	}
	return s / float64(len(ys))
}

// ExpectedImprovement returns EI(x) for a minimization problem given the
// incumbent best observed value. xi is the exploration margin. It is the
// acquisition scorer's EI.
func ExpectedImprovement(gp *GP, x []float64, best, xi float64) float64 {
	var s scorer
	mu, s2, _ := s.predict(gp, x, best, xi, math.Inf(-1))
	exploit, explore := eiTerms(mu, s2, gp.noiseVar, best, xi)
	return exploit + explore
}

// eiSlack scales the margin eiBound adds, in units of |imp| + s. With
// u = 2⁻⁵³, a computed EI is within 5u·(|imp| + s) of the exact EI at the
// same computed imp and s: Φ is within 2.5u absolutely, however small (Erf
// is within 1 ulp, 1 + Erf is exact by Sterbenz where it cancels for z ≪ 0,
// and Φ's argument is off by 3u relative, moving Φ by under u), so imp·Φ is
// within 3.5u·|imp|; φ's exponent −z²/2 is off by 3u relative, so s·φ is
// within (1.5z² + 6)u·sφ ≤ 0.4u·|imp| + 2.4u·s, as s·z² = |imp|·|z| and
// |z|φ(z) ≤ 0.242; the sum adds u·(|imp| + 0.4s). The exact EI rises with
// s, and s is computed monotonically from σ², so a candidate with σ² at
// most the bound's has a computed EI at most the bound's computed EI plus
// two such errors and the bound's own rounding: 11u·(|imp| + s). 2⁻⁴⁰ is
// 8 192u, room for Erf and Exp to miss by a thousand ulps. Below s = 1e-12
// eiTerms returns max(imp, 0), which the exact EI never falls below.
const eiSlack = 0x1p-40

// eiBound bounds from above the computed EI of any posterior with mean in
// [mu, mu + dmu] and variance at most s2. The exact EI falls as the mean
// rises, and imp is computed monotonically from it, so a larger mean only
// lowers imp: |imp| grows, by at most dmu and two roundings, where imp is
// negative, which adds 5u·dmu to that EI's error (see eiSlack), well inside
// eiSlack·dmu. A NaN anywhere makes it NaN, which prunes nothing.
func eiBound(mu, dmu, s2, noiseVar, best, xi float64) float64 {
	exploit, explore := eiTerms(mu, s2, noiseVar, best, xi)
	return exploit + explore + eiSlack*(math.Abs(best-xi-mu)+dmu+math.Sqrt(s2+noiseVar))
}

// eiTerms splits EI at a posterior (μ, σ²) into its exploitation term
// (expected improvement of the posterior mean over the incumbent) and its
// exploration term (value of the posterior spread); EI is exploit + explore.
func eiTerms(mu, s2, noiseVar, best, xi float64) (exploit, explore float64) {
	s := math.Sqrt(s2 + noiseVar)
	imp := best - xi - mu
	if s < 1e-12 {
		if imp > 0 {
			return imp, 0
		}
		return 0, 0
	}
	z := imp / s
	return imp * normCDF(z), s * normPDF(z)
}
