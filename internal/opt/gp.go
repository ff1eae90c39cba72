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
type GP struct {
	kernel   Kernel
	noiseVar float64
	xs       [][]float64
	ys       []float64
	mean     float64
	chol     linalg.Tri
	alpha    []float64 // K⁻¹(y - mean)
}

// FitGP fits a GP with the given kernel and noise variance to the
// observations. It escalates diagonal jitter until the covariance matrix
// factorizes, which copes with duplicate or near-duplicate evaluation
// points (the optimizer may revisit promising regions).
func FitGP(kernel Kernel, noiseVar float64, xs [][]float64, ys []float64) (*GP, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("opt: FitGP got %d points but %d observations", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("opt: FitGP needs at least one observation")
	}
	jitter := noiseVar
	if jitter < 1e-10 {
		jitter = 1e-10
	}
	chol, _, _, err := factorize(kernel, xs, jitter)
	if err != nil {
		return nil, fmt.Errorf("opt: GP covariance not factorizable even with jitter: %w", err)
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
// escalating the jitter tenfold from base — at most seven times — until it
// factorizes, and reports the jitter and the escalation level it took. The
// factor is fresh storage.
func factorize[K Kernel](k K, xs [][]float64, base float64) (chol linalg.Tri, jitter float64, level int, err error) {
	chol = linalg.NewTri(len(xs))
	jitter = base
	for level = 0; level < 8; level++ {
		chol = linalg.Tri{Data: chol.Data[:0]}
		for i := range xs {
			if err = appendRow(&chol, k, xs, i, jitter); err != nil {
				break
			}
		}
		if err == nil {
			return chol, jitter, level, nil
		}
		jitter *= 10
	}
	return linalg.Tri{}, 0, 0, err
}

// appendRow borders chol, the factor of the kernel matrix over xs[:i] plus
// jitter·I, with row i: k(x_i, x_j) for j < i, then k(x_i, x_i) + jitter.
// It is generic in the kernel so that a concrete kernel is called directly
// rather than boxed into an interface on every call.
func appendRow[K Kernel](chol *linalg.Tri, k K, xs [][]float64, i int, jitter float64) error {
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

// Predict returns the posterior mean and variance at x: the one-candidate
// case of the acquisition scorer.
func (g *GP) Predict(x []float64) (mu, sigma2 float64) {
	var s scorer
	p := s.predict(g, [][]float64{x})
	return p.mu[0], p.s2[0]
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
// one-candidate case of the acquisition scorer.
func ExpectedImprovement(gp *GP, x []float64, best, xi float64) float64 {
	var s scorer
	exploit, explore := s.eiTermsAt(gp, x, best, xi)
	return exploit + explore
}

// eiBlock is how many candidates the scorer carries through one pass over
// the factor.
const eiBlock = 4

// scorer computes posterior means, variances and Expected Improvement for
// candidates eiBlock at a time. Each pass reads every row of the factor once
// for the whole block instead of once per candidate; every candidate keeps
// its own accumulators and the order of every sum the one-candidate
// arithmetic has, so a candidate's values do not depend on the block it
// rides in or the lanes beside it. Its buffers are reused from pass to pass:
// one scorer per goroutine.
type scorer struct {
	v [eiBlock][]float64 // per lane: k* in, then L⁻¹k* in place
}

// posterior is one block's posterior means and variances, lane by lane.
type posterior struct{ mu, s2 [eiBlock]float64 }

// predict returns the posterior of the up to eiBlock candidates in block.
// Per candidate, in this order: k* as kernel evaluations in xs order; μ as
// the mean plus k*·α summed in ascending i; v = L⁻¹k* by forward
// substitution, each row's sum in ascending k; σ² = k(x,x) − ‖v‖² summed in
// ascending i, clamped at 0. Lanes past the block hold zeros.
func (s *scorer) predict(g *GP, block [][]float64) (p posterior) {
	n := len(g.xs)
	alpha := g.alpha[:n]
	for l := range s.v {
		if cap(s.v[l]) < n {
			s.v[l] = make([]float64, n)
		}
		v := s.v[l][:n]
		s.v[l] = v
		if l >= len(block) {
			clear(v)
			continue
		}
		x := block[l]
		var dot float64
		for i, xi := range g.xs {
			k := g.kernel.Eval(x, xi)
			v[i] = k
			dot += k * alpha[i]
		}
		p.mu[l] = g.mean + dot
	}
	v0, v1, v2, v3 := s.v[0], s.v[1], s.v[2], s.v[3]
	var q [eiBlock]float64
	for i, off := 0, 0; i < n; off, i = off+i+1, i+1 {
		row := g.chol.Data[off : off+i+1]
		done := row[:i]
		a0, a1, a2, a3 := v0[:len(done)], v1[:len(done)], v2[:len(done)], v3[:len(done)]
		y0, y1, y2, y3 := v0[i], v1[i], v2[i], v3[i]
		for k, lk := range done {
			y0 -= lk * a0[k]
			y1 -= lk * a1[k]
			y2 -= lk * a2[k]
			y3 -= lk * a3[k]
		}
		d := row[i]
		y0, y1, y2, y3 = y0/d, y1/d, y2/d, y3/d
		v0[i], v1[i], v2[i], v3[i] = y0, y1, y2, y3
		q[0] += y0 * y0
		q[1] += y1 * y1
		q[2] += y2 * y2
		q[3] += y3 * y3
	}
	for l, x := range block {
		s2 := g.kernel.Eval(x, x) - q[l]
		if s2 < 0 {
			s2 = 0
		}
		p.s2[l] = s2
	}
	return p
}

// expectedImprovements writes EI(cands[i]) into eis[i] for every candidate.
func (s *scorer) expectedImprovements(g *GP, cands [][]float64, best, xi float64, eis []float64) {
	for start := 0; start < len(cands); start += eiBlock {
		block := cands[start:min(start+eiBlock, len(cands))]
		p := s.predict(g, block)
		for l := range block {
			exploit, explore := eiTerms(p.mu[l], p.s2[l], g.noiseVar, best, xi)
			eis[start+l] = exploit + explore
		}
	}
}

// eiTermsAt splits EI(x) into its exploitation and exploration terms; EI is
// their sum.
func (s *scorer) eiTermsAt(g *GP, x []float64, best, xi float64) (exploit, explore float64) {
	p := s.predict(g, [][]float64{x})
	return eiTerms(p.mu[0], p.s2[0], g.noiseVar, best, xi)
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
