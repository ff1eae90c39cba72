package opt

import (
	"math"
	"testing"

	"datamime/internal/opt/linalg"
	"datamime/internal/stats"
)

// sameBits reports whether two vectors hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The one-candidate loops the blocked scorer and the unit-factor selection
// replaced, kept verbatim as their oracle: the factor read element by
// element through At, one accumulator, one candidate at a time.

func refSolveLower(l *linalg.Tri, b []float64) []float64 {
	y := make([]float64, l.N)
	for i := 0; i < l.N; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	return y
}

func refSolveUpperT(l *linalg.Tri, y []float64) []float64 {
	x := make([]float64, l.N)
	for i := l.N - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < l.N; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

func refPredict(g *GP, x []float64) (mu, sigma2 float64) {
	n := len(g.xs)
	kstar := make([]float64, n)
	for i, xi := range g.xs {
		kstar[i] = g.kernel.Eval(x, xi)
	}
	mu = g.mean + linalg.Dot(kstar, g.alpha)
	v := refSolveLower(&g.chol, kstar)
	sigma2 = g.kernel.Eval(x, x) - linalg.Dot(v, v)
	if sigma2 < 0 {
		sigma2 = 0
	}
	return mu, sigma2
}

func refExpectedImprovement(gp *GP, x []float64, best, xi float64) float64 {
	mu, s2 := refPredict(gp, x)
	s := math.Sqrt(s2 + gp.noiseVar)
	if s < 1e-12 {
		if imp := best - xi - mu; imp > 0 {
			return imp
		}
		return 0
	}
	z := (best - xi - mu) / s
	return (best-xi-mu)*normCDF(z) + s*normPDF(z)
}

// refSurrogateFit is the selection the cache ran before it solved against
// its unit factors: every entry's factor scaled into a copy, α solved and
// the evidence taken against the copy, first best wins.
func refSurrogateFit(c *surrogateCache, ys []float64) (alpha []float64, chol linalg.Tri, lml float64) {
	varY := max(variance(ys), 1e-12)
	sd := math.Sqrt(varY)
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	centered := make([]float64, len(ys))
	for i, y := range ys {
		centered[i] = y - mean
	}
	lml = math.Inf(-1)
	for _, e := range c.entries {
		if !e.ok {
			continue
		}
		scaled := linalg.Tri{N: e.chol.N, Data: make([]float64, len(e.chol.Data))}
		for i, v := range e.chol.Data {
			scaled.Data[i] = v * sd
		}
		a := refSolveUpperT(&scaled, refSolveLower(&scaled, centered))
		var logDet float64
		for i := 0; i < scaled.N; i++ {
			logDet += math.Log(scaled.At(i, i))
		}
		l := -0.5*linalg.Dot(centered, a) + -0.5*(2*logDet) + -0.5*float64(len(ys))*math.Log(2*math.Pi)
		if l > lml {
			alpha, chol, lml = a, scaled, l
		}
	}
	return alpha, chol, lml
}

// TestBlockedScorerMatchesReference: for random GPs — fitted by the
// surrogate cache and by FitGP, n from 1 to 80, with duplicate observations
// and candidates that duplicate observations or each other — the blocked
// scorer gives every candidate's μ, σ² and EI, and the unit-factor
// selection the winner's α, scaled factor and evidence, with the bit
// patterns of the one-candidate reference loops. Pools of 1 to 13
// candidates end in blocks of every width; one scorer serves every case, so
// its buffers carry the previous case's values into the next.
func TestBlockedScorerMatchesReference(t *testing.T) {
	rng := stats.NewRNG(26)
	var s scorer
	tails := map[int]int{}
	for c := 0; c < 400; c++ {
		n, dim := 1+rng.IntN(80), 1+rng.IntN(6)
		point := func() []float64 {
			x := make([]float64, dim)
			for d := range x {
				x[d] = rng.Float64()
			}
			return x
		}
		xs, ys := make([][]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = point()
			if i > 0 && rng.IntN(4) == 0 {
				xs[i] = xs[rng.IntN(i)]
			}
			ys[i] = rng.NormFloat64()
		}

		var g *GP
		var err error
		if c%2 == 0 {
			cache := newSurrogateCache()
			if g, err = cache.fit(xs, ys); err != nil {
				t.Fatalf("case %d: %v", c, err)
			}
			alpha, chol, lml := refSurrogateFit(cache, ys)
			if !sameBits(g.alpha, alpha) || g.chol.N != chol.N || !sameBits(g.chol.Data, chol.Data) ||
				math.Float64bits(cache.lastFit.lml) != math.Float64bits(lml) {
				t.Fatalf("case %d (n %d): the unit-factor selection differs from solving against scaled copies", c, n)
			}
		} else {
			kernel := Matern52{Variance: rng.Range(0.1, 3), LengthScale: rng.Range(0.05, 2)}
			noise := [3]float64{0, 1e-6, 1e-2}[rng.IntN(3)]
			if g, err = FitGP(kernel, noise, xs, ys); err != nil {
				t.Fatalf("case %d: %v", c, err)
			}
		}

		pool := make([][]float64, 1+rng.IntN(13))
		tails[len(pool)%eiBlock]++
		for i := range pool {
			switch rng.IntN(4) {
			case 0:
				pool[i] = xs[rng.IntN(n)]
			case 1:
				pool[i] = pool[rng.IntN(i+1)]
				if pool[i] == nil {
					pool[i] = point()
				}
			default:
				pool[i] = point()
			}
		}
		best, xi := ys[0], 0.01
		for _, y := range ys {
			best = min(best, y)
		}

		eis := make([]float64, len(pool))
		s.expectedImprovements(g, pool, best, xi, eis)
		for start := 0; start < len(pool); start += eiBlock {
			block := pool[start:min(start+eiBlock, len(pool))]
			p := s.predict(g, block)
			for l, x := range block {
				mu, s2 := refPredict(g, x)
				ei := refExpectedImprovement(g, x, best, xi)
				if math.Float64bits(p.mu[l]) != math.Float64bits(mu) || math.Float64bits(p.s2[l]) != math.Float64bits(s2) ||
					math.Float64bits(eis[start+l]) != math.Float64bits(ei) {
					t.Fatalf("case %d (n %d, pool %d) candidate %d: blocked (μ %v, σ² %v, EI %v), reference (μ %v, σ² %v, EI %v)",
						c, n, len(pool), start+l, p.mu[l], p.s2[l], eis[start+l], mu, s2, ei)
				}
				if m1, v1 := g.Predict(x); math.Float64bits(m1) != math.Float64bits(mu) || math.Float64bits(v1) != math.Float64bits(s2) {
					t.Fatalf("case %d candidate %d: Predict (%v, %v), reference (%v, %v)", c, start+l, m1, v1, mu, s2)
				}
				if e1 := ExpectedImprovement(g, x, best, xi); math.Float64bits(e1) != math.Float64bits(ei) {
					t.Fatalf("case %d candidate %d: ExpectedImprovement %v, reference %v", c, start+l, e1, ei)
				}
			}
		}
	}
	for tail := 0; tail < eiBlock; tail++ {
		if tails[tail] == 0 {
			t.Fatalf("no pool ending in a block of %d: %v", (tail+eiBlock-1)%eiBlock+1, tails)
		}
	}
}
