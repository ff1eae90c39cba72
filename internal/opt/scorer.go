package opt

import (
	"math"
	"slices"
)

// scorer computes posterior means, variances and Expected Improvement one
// candidate at a time, in buffers reused from candidate to candidate and from
// proposal to proposal: one scorer per goroutine.
//
// Per GP, prepare copies the observations column-major, so that a
// candidate's squared distances are straight passes over one dimension at a
// time, and takes |α|. Per candidate, predict (a) computes the squared
// distances to every observation; (b) when a floor may prune, bounds the
// posterior mean from below at no math.Exp and no division (meanBound); and
// (c) computes the exact kernel row one block of boundEvery rows at a time,
// each block followed by its rows' forward substitution, testing the EI
// bound before each block. A candidate given up on before a block never pays
// for that block's kernel values.
type scorer struct {
	g    *GP       // the GP the buffers below hold (a GP is not written once fitted)
	n    int       // its observations
	dim  int       // their dimension
	c5   float64   // √5/ℓ, the cheap path's scale
	tiny float64   // meanBound's underflow term, 2⁻¹⁰⁰⁰·(1 + Σ|α|)
	cols []float64 // the observations column-major: cols[d·n+j] is x_j[d]
	absA []float64 // |α|
	d2   []float64 // the candidate's squared distance to each observation
	v    []float64 // k*, one block at a time, then L⁻¹k* in place
}

// boundEvery is how many rows of a candidate's forward substitution run
// between two tests of its EI bound.
const boundEvery = 16

// grow returns buf resized to n, reallocated only when it has no room.
func grow(buf []float64, n int) []float64 { return slices.Grow(buf[:0], n)[:n] }

// prepare points the scorer at g.
func (s *scorer) prepare(g *GP) {
	s.g, s.n, s.dim = g, len(g.xs), len(g.xs[0])
	s.cols = grow(s.cols, s.n*s.dim)
	for j, x := range g.xs {
		for d, v := range x[:s.dim] {
			s.cols[d*s.n+j] = v
		}
	}
	s.absA = grow(s.absA, s.n)
	var sum float64
	for j, a := range g.alpha[:s.n] {
		s.absA[j] = math.Abs(a)
		sum += s.absA[j]
	}
	s.tiny = 0x1p-1000 * (1 + sum)
	s.c5 = math.Sqrt(5) / g.kernel.LengthScale
	s.d2 = grow(s.d2, s.n)
	s.v = grow(s.v, s.n)
}

// predict returns the posterior at x. In this order: k* as kernel
// evaluations in xs order; μ as the mean plus k*·α summed in ascending i;
// v = L⁻¹k* by forward substitution, each row's sum in ascending k;
// σ² = k(x,x) − ‖v‖² summed in ascending i, clamped at 0. Against a floor
// above −Inf it gives up, with ok false and μ and σ² zero, once eiBound over
// the means [μ_lo, μ_lo + dμ] of meanBound and at σ² = k(x,x) − q, q the sum
// so far, is below floor: tested before row 0 and every boundEvery rows.
// Adding squares never rounds q down, so the finished σ² is at most any
// tested one, and the finished μ lies in the tested interval.
func (s *scorer) predict(g *GP, x []float64, best, xi, floor float64) (mu, s2 float64, ok bool) {
	if s.g != g {
		s.prepare(g)
	}
	n := s.n
	s.sqDists(x)
	kxx := g.kernel.Eval(x, x)
	prune := floor > math.Inf(-1)
	var muLo, dmu float64
	if prune {
		muLo, dmu = s.meanBound()
	}
	alpha, v := g.alpha[:n], s.v[:n]
	var dot, q float64
	for lo := 0; lo < n; lo += boundEvery {
		if prune && eiBound(muLo, dmu, max(kxx-q, 0), g.noiseVar, best, xi) < floor {
			return 0, 0, false
		}
		hi := min(lo+boundEvery, n)
		g.kernel.fromSqBlock(s.d2[lo:hi], v[lo:hi])
		a := alpha[lo:hi]
		for i, k := range v[lo:hi] {
			dot += k * a[i]
		}
		g.chol.Forward(v, lo, hi)
		for _, y := range v[lo:hi] {
			q += y * y
		}
	}
	return g.mean + dot, max(kxx-q, 0), true
}

// sqDists writes x's squared distance to each observation into d2, sqDist's
// order for every observation: one pass per pair of dimensions in ascending
// order adds both squares as (e + ta²) + tb², and a last pass the odd one.
func (s *scorer) sqDists(x []float64) {
	n := s.n
	e := s.d2[:n]
	clear(e)
	d := 0
	for ; d+2 <= s.dim; d += 2 {
		xa, xb := x[d], x[d+1]
		ca, cb := s.cols[d*n:][:n], s.cols[(d+1)*n:][:n]
		for j := range e {
			ta, tb := xa-ca[j], xb-cb[j]
			e[j] = (e[j] + float64(ta*ta)) + float64(tb*tb)
		}
	}
	if d < s.dim {
		xa, ca := x[d], s.cols[d*n:][:n]
		for j := range e {
			ta := xa - ca[j]
			e[j] += float64(ta * ta)
		}
	}
}

// meanBound returns μ_lo and dμ with μ_lo ≤ μ ≤ μ_lo + dμ, where μ is the
// posterior mean predict computes at the candidate whose squared distances
// are in d2. It sums μ̃ = mean + Σ k̃ⱼαⱼ over cheap kernel values k̃ (√5/ℓ
// and 1/3 as multiplies, expNeg for the exponential, s clamped at sClamp),
// then takes δ = meanSlack·(Σ k̃ⱼ|αⱼ| + |mean| + |Σ k̃ⱼαⱼ|), plus the clamped
// rows' k̃ⱼ|αⱼ| and the underflow term: μ_lo = μ̃ − δ and dμ = 2δ, as μ is
// within δ of μ̃ by more than μ̃ − δ rounds (see meanSlack). Past 2¹⁰⁰⁰ a
// sum may overflow on one path and not the other: μ_lo is then NaN, which
// prunes nothing.
func (s *scorer) meanBound() (muLo, dmu float64) {
	g, n := s.g, s.n
	variance, c5 := g.kernel.Variance, s.c5
	alpha, absA := g.alpha[:n], s.absA[:n]
	var sum, abs, clamped float64
	for j, e := range s.d2[:n] {
		t := math.Sqrt(e) * c5
		far := t > sClamp
		if far {
			t = sClamp
		}
		k := variance * (1 + t + t*t*(1.0/3)) * expNeg(t)
		sum += k * alpha[j]
		a := k * absA[j]
		abs += a
		if far {
			clamped += a
		}
	}
	if !(abs < 0x1p1000) {
		return math.NaN(), 0
	}
	delta := meanSlack*(abs+math.Abs(g.mean)+math.Abs(sum)) + clamped + s.tiny
	return g.mean + sum - delta, 2 * delta
}

// meanSlack is c in meanBound's margin. With u = 2⁻⁵³, over the n rows of a
// GP (n < 2²⁶: a packed factor with more rows does not fit in memory):
//   - a cheap k̃ is within ρ = 2⁻²⁷ of the exact row's value, relative.
//     expNeg is within 7.31e−9 (its truncation) plus under 1 100u (k·ln2 is
//     off by at most 2⁻⁴³ at k ≤ 1 021, and Horner rounds under 40u); the
//     two paths' s differ by at most 4u relative (one
//     rounds √5/ℓ, the other √5·r, then /ℓ; both share the rounded √d2),
//     which moves e^−s by 4u·s ≤ 2 832u at s ≤ sClamp; poly(s), 1/3 and the
//     products add under 24u; math.Exp is within 1 ulp, 2u. A clamped row's
//     exact value lies in [0, (1 + ρ)·k̃], as the kernel falls with s, so it
//     is within k̃ of k̃;
//   - the exact k*·α and the cheap Σ k̃α are each within γₙ = nu/(1 − nu)
//     < 1.01·2⁻²⁷ of their real sums, times Σ|k̃α|(1 + ρ);
//   - mean + k*·α, mean + Σ k̃α and μ̃ − δ round by u·(|mean| + |Σ k̃α| + δ)
//     each, up to a factor 1 + 2⁻²⁶.
//
// So |μ − μ̃| is at most (ρ + 2.02·2⁻²⁷ + 3u)·Σ k̃|α| + 3u·(|mean| + |Σ k̃α|)
// plus the clamped rows' k̃|α|, which is under 3.1·2⁻²⁷·(Σ k̃|α| + |mean| +
// |Σ k̃α|) plus those rows. c = 2⁻²⁴ = 8·2⁻²⁷ leaves δ above that by more
// than 4.8·2⁻²⁷·(Σ k̃|α| + |mean| + |Σ k̃α|), far more than δ's own rounding
// (4u) and that of μ̃ − δ: μ_lo ≤ μ ≤ μ_lo + 2δ. Where a kernel value or a
// product falls below 2⁻¹⁰²², its error
// is absolute instead: at most 2⁻¹⁰⁷⁴ times the |α| it multiplies, and
// 2⁻¹⁰⁷⁵ per rounding in a sum, which the term 2⁻¹⁰⁰⁰·(1 + Σ|α|) covers.
const meanSlack = 0x1p-24

// sClamp caps meanBound's s: beyond it 2⁻ᵏ in expNeg would leave the normal
// range (k ≤ 1 021 at s ≤ 708).
const sClamp = 708

// expNeg approximates e^−t for t in [0, sClamp] within 7.31e−9 relative, with
// no call and no division. k = round(t·log₂e), by adding and subtracting
// 1.5·2⁵², and r = k·ln2 − t in [−ln2/2, ln2/2] give e^−t = 2⁻ᵏ·e^r; e^r is
// its degree-7 Taylor polynomial, whose truncation error |r|⁸/8!·e^|r| is
// under 7.31e−9 of e^r.
func expNeg(t float64) float64 {
	const round = 0x1.8p52
	k := (t*math.Log2E + round) - round
	r := k*math.Ln2 - t
	p := 1 + r*(1+r*(1.0/2+r*(1.0/6+r*(1.0/24+r*(1.0/120+r*(1.0/720+r*(1.0/5040)))))))
	return p * math.Float64frombits(uint64(1023-int64(k))<<52)
}
