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

// sameFactor reports whether two factors hold the same rows, bit for bit.
func sameFactor(a, b *linalg.Tri) bool {
	if a.N != b.N {
		return false
	}
	for i := 0; i < a.N; i++ {
		if !sameBits(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

// sameRows reports whether a factor holds rows, bit for bit.
func sameRows(l *linalg.Tri, rows rowsTri) bool {
	if l.N != len(rows) {
		return false
	}
	for i, r := range rows {
		if !sameBits(l.Row(i), r) {
			return false
		}
	}
	return true
}

// lowerTri is a lower-triangular matrix read element by element: a
// linalg.Tri, or the reference's own rows.
type lowerTri interface{ At(i, j int) float64 }

// rowsTri is a lower-triangular matrix stored as its rows.
type rowsTri [][]float64

func (r rowsTri) At(i, j int) float64 {
	if j > i {
		return 0
	}
	return r[i][j]
}

// The loops the scorer and the unit-factor selection replaced, kept verbatim
// as their oracle: the factor read element by element through At, one
// accumulator, one candidate at a time.

func refSolveLower(l lowerTri, b []float64) []float64 {
	n := len(b)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	return y
}

func refSolveUpperT(l lowerTri, y []float64) []float64 {
	n := len(y)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
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
func refSurrogateFit(c *surrogateCache, ys []float64) (alpha []float64, chol rowsTri, lml float64) {
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
		scaled := make(rowsTri, e.chol.N)
		for i := range scaled {
			for _, v := range e.chol.Row(i) {
				scaled[i] = append(scaled[i], v*sd)
			}
		}
		a := refSolveUpperT(scaled, refSolveLower(scaled, centered))
		var logDet float64
		for i := range scaled {
			logDet += math.Log(scaled.At(i, i))
		}
		l := -0.5*linalg.Dot(centered, a) + -0.5*(2*logDet) + -0.5*float64(len(ys))*math.Log(2*math.Pi)
		if l > lml {
			alpha, chol, lml = a, scaled, l
		}
	}
	return alpha, chol, lml
}

// TestScorerMatchesReference: for random GPs — fitted by the surrogate
// cache and by FitGP, n from 1 to 80, with duplicate observations and
// candidates that duplicate observations or each other — the scorer gives
// every candidate's μ, σ² and EI, and the unit-factor selection the winner's
// α, scaled factor and evidence, with the bit patterns of the reference
// loops. Scored again against a random floor, a candidate is either given
// up on with its reference EI below the floor, or scored to the same bits.
// One scorer serves every case, so its buffer carries the previous case's
// values into the next.
func TestScorerMatchesReference(t *testing.T) {
	rng := stats.NewRNG(26)
	var s scorer
	pruned := 0
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
			if !sameBits(g.alpha, alpha) || !sameRows(&g.chol, chol) ||
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

		for i, x := range pool {
			mu, s2, _ := s.predict(g, x, best, xi, math.Inf(-1))
			exploit, explore := eiTerms(mu, s2, g.noiseVar, best, xi)
			rmu, rs2 := refPredict(g, x)
			ei := refExpectedImprovement(g, x, best, xi)
			if math.Float64bits(mu) != math.Float64bits(rmu) || math.Float64bits(s2) != math.Float64bits(rs2) ||
				math.Float64bits(exploit+explore) != math.Float64bits(ei) {
				t.Fatalf("case %d (n %d) candidate %d: scorer (μ %v, σ² %v, EI %v), reference (μ %v, σ² %v, EI %v)",
					c, n, i, mu, s2, exploit+explore, rmu, rs2, ei)
			}
			if m1, v1 := g.Predict(x); math.Float64bits(m1) != math.Float64bits(rmu) || math.Float64bits(v1) != math.Float64bits(rs2) {
				t.Fatalf("case %d candidate %d: Predict (%v, %v), reference (%v, %v)", c, i, m1, v1, rmu, rs2)
			}
			if e1 := ExpectedImprovement(g, x, best, xi); math.Float64bits(e1) != math.Float64bits(ei) {
				t.Fatalf("case %d candidate %d: ExpectedImprovement %v, reference %v", c, i, e1, ei)
			}
			floor := ei * rng.Range(0.5, 1.5)
			mu, s2, ok := s.predict(g, x, best, xi, floor)
			switch {
			case !ok && ei >= floor:
				t.Fatalf("case %d candidate %d: given up on below floor %v with EI %v", c, i, floor, ei)
			case !ok:
				pruned++
			case math.Float64bits(mu) != math.Float64bits(rmu) || math.Float64bits(s2) != math.Float64bits(rs2):
				t.Fatalf("case %d candidate %d: scored against a floor (μ %v, σ² %v), reference (μ %v, σ² %v)", c, i, mu, s2, rmu, rs2)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no candidate was given up on: the floors never bit")
	}
}

// fullScan is the argmax the pruned one replaced: every candidate's EI, in
// index order, the first index attaining the maximum, and the mean of the
// first min(global, poolSample).
func fullScan(eis []float64, global int) (idx int, best, sampleMean float64) {
	idx, best = -1, math.Inf(-1)
	for i, ei := range eis {
		if ei > best {
			idx, best = i, ei
		}
	}
	sample := min(global, poolSample)
	var sum float64
	for _, ei := range eis[:sample] {
		sum += ei
	}
	return idx, best, sum / float64(sample)
}

// TestPrunedArgmaxMatchesFullScan: over 500 random GPs — n from 1 to 250,
// dimensions 1 to 8, duplicate observations, FitGP's jitter ladder — and
// pools of up to 150 global and 60 local candidates sprinkled with copies
// and 1-ulp perturbations of one point, with the incumbent set so that a
// reference candidate's z runs from −40 to +10, the pruned argmax returns
// the full scan's index, its EI bits and the sample mean's bits; the full
// scan scores every candidate to the end, to the reference's bits
// (TestScorerMatchesReference). Each pool is then rearranged so that its
// winner sits in a local slot, visited before the later global ones, and a
// copy of it in a global slot past the sample, visited last but at the lower
// index: the copy must still win the tie.
func TestPrunedArgmaxMatchesFullScan(t *testing.T) {
	rng := stats.NewRNG(39)
	b := &BayesOpt{xi: 0.01}
	var full scorer
	ties := 0
	for c := 0; c < 500; c++ {
		n, dim := 1+rng.IntN(250), 1+rng.IntN(8)
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
			if i > 0 && rng.IntN(5) == 0 {
				xs[i] = xs[rng.IntN(i)]
			}
			ys[i] = rng.NormFloat64()
		}
		kernel := Matern52{Variance: rng.Range(0.1, 3), LengthScale: rng.Range(0.05, 1)}
		noise := [3]float64{0, 1e-6, 1e-2}[rng.IntN(3)]
		g, err := FitGP(kernel, noise, xs, ys)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}

		global, local := 1+rng.IntN(150), rng.IntN(61)
		cands := make([][]float64, global+local)
		base := point()
		for i := range cands {
			switch rng.IntN(6) {
			case 0:
				cands[i] = append([]float64(nil), base...)
			case 1:
				x := append([]float64(nil), base...)
				d := rng.IntN(dim)
				x[d] = math.Nextafter(x[d], float64(rng.IntN(2)))
				cands[i] = x
			case 2:
				cands[i] = append([]float64(nil), xs[rng.IntN(n)]...)
			default:
				cands[i] = point()
			}
		}
		mu, s2 := g.Predict(base)
		best := b.xi + mu + rng.Range(-40, 10)*math.Sqrt(s2+g.noiseVar)

		eis := make([]float64, len(cands))
		for i, x := range cands {
			mu, s2, _ := full.predict(g, x, best, b.xi, math.Inf(-1))
			exploit, explore := eiTerms(mu, s2, g.noiseVar, best, b.xi)
			eis[i] = exploit + explore
		}
		check := func(what string) {
			t.Helper()
			wantIdx, wantEI, wantMean := fullScan(eis, global)
			idx, exploit, explore, mean := b.argmaxEI(g, cands, global, best)
			ei := exploit + explore
			if idx != wantIdx || math.Float64bits(ei) != math.Float64bits(wantEI) ||
				math.Float64bits(mean) != math.Float64bits(wantMean) {
				t.Fatalf("case %d (n %d, %d+%d candidates) %s: pruned (%d, EI %v, mean %v), full scan (%d, EI %v, mean %v)",
					c, n, global, local, what, idx, ei, mean, wantIdx, wantEI, wantMean)
			}
		}
		check("as drawn")

		sample := min(global, poolSample)
		if local == 0 || global <= sample {
			continue
		}
		w, _, _ := fullScan(eis, global)
		l, j := global+rng.IntN(local), sample+rng.IntN(global-sample)
		cands[w], cands[l] = cands[l], cands[w]
		eis[w], eis[l] = eis[l], eis[w]
		cands[j], eis[j] = append([]float64(nil), cands[l]...), eis[l]
		if w, _, _ := fullScan(eis, global); w == j {
			ties++
		}
		check("with the winner local and a copy at a later-visited global index")
	}
	if ties < 100 {
		t.Fatalf("only %d cases had a later-visited global copy win the tie", ties)
	}
	t.Logf("%d cases had a later-visited global copy win the tie", ties)
}
