package opt

import (
	"fmt"
	"math"
	"testing"

	"datamime/internal/stats"
)

// boundPoints draws n points in dim dimensions: a quarter of them copies of
// an earlier point and a quarter 1-ulp neighbours of one.
func boundPoints(rng *stats.RNG, n, dim int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		if i > 0 {
			switch rng.IntN(4) {
			case 0:
				copy(x, xs[rng.IntN(i)])
			case 1:
				copy(x, xs[rng.IntN(i)])
				d := rng.IntN(dim)
				x[d] = math.Nextafter(x[d], float64(rng.IntN(2)))
			}
		}
		xs[i] = x
	}
	return xs
}

// TestExactRowMatchesEval: the kernel rows the scorer builds in passes (the
// squared distances dimension-major over its column-major copy of the
// observations, then fromSqBlock one block at a time) and the surrogate
// fit's shared row of the newest observation are Matern52.Eval, bit for bit:
// dimensions 1 to 8, duplicate points and 1-ulp neighbours, ℓ from 0.01 to 2.
func TestExactRowMatchesEval(t *testing.T) {
	rng := stats.NewRNG(52)
	var s scorer
	var fitRow newRow
	for c := 0; c < 300; c++ {
		n, dim := 1+rng.IntN(70), 1+rng.IntN(8)
		xs := boundPoints(rng, n+8, dim)
		xs, cands := xs[:n], xs[n:]
		ls := 0.01 * math.Pow(200, rng.Float64())
		k := Matern52{Variance: [3]float64{1, 0.37, 2.9}[rng.IntN(3)], LengthScale: ls}
		s.prepare(&GP{kernel: k, xs: xs, alpha: make([]float64, n)})
		row := make([]float64, n)
		for _, x := range append(cands, xs[rng.IntN(n)]) {
			s.sqDists(x)
			for lo := 0; lo < n; lo += boundEvery {
				hi := min(lo+boundEvery, n)
				k.fromSqBlock(s.d2[lo:hi], row[lo:hi])
			}
			for j, p := range xs {
				if want := k.Eval(x, p); math.Float64bits(row[j]) != math.Float64bits(want) {
					t.Fatalf("case %d (dim %d, ℓ %g) row %d: pass-built %v, Eval %v", c, dim, ls, j, row[j], want)
				}
			}
		}
		fitRow.reset()
		unit := Matern52{Variance: 1, LengthScale: ls}
		for j, v := range fitRow.at(xs, ls) {
			if want := unit.Eval(xs[n-1], xs[j]); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("case %d (dim %d, ℓ %g): the fit's row %d is %v, Eval %v", c, dim, ls, j, v, want)
			}
		}
	}
}

// checkMeanBound scores each candidate in full and checks that meanBound,
// taken on the same squared distances, brackets the μ predict computed:
// μ_lo ≤ μ ≤ μ_lo + dμ. It returns how many rows had s beyond sClamp.
func checkMeanBound(t *testing.T, s *scorer, g *GP, cands [][]float64, what string) (clamped int) {
	t.Helper()
	for i, x := range cands {
		mu, _, _ := s.predict(g, x, 0, 0, math.Inf(-1))
		lo, dmu := s.meanBound()
		if !(lo <= mu && mu <= lo+dmu) {
			t.Fatalf("%s candidate %d: μ %v outside [μ_lo %v, μ_lo + dμ %v]", what, i, mu, lo, lo+dmu)
		}
		for _, e := range s.d2[:s.n] {
			if math.Sqrt(e)*s.c5 > sClamp {
				clamped++
			}
		}
	}
	return clamped
}

// TestMeanBoundBracketsMean: over 400 random GPs, the cheap mean's bound
// never lies above the μ the scorer computes exactly, nor further below it
// than dμ. The GPs are fitted by the surrogate cache, near-singular (noise
// fraction 1e-4 at ℓ 1.6 over duplicate points, where Σ|α|σ² reaches the
// hundreds a search-cached proposal sees), or at a random ℓ from 10⁻³ to 2 and
// a random noise down to 10⁻¹⁰, whose smallest scales put s beyond sClamp;
// the objective's scale runs from 10⁻³ to 10³.
func TestMeanBoundBracketsMean(t *testing.T) {
	rng := stats.NewRNG(53)
	var s scorer
	clamped, maxMass := 0, 0.0
	for c := 0; c < 400; c++ {
		n, dim := 1+rng.IntN(150), 1+rng.IntN(8)
		xs := boundPoints(rng, n+12, dim)
		xs, cands := xs[:n], xs[n:]
		cands = append(cands, xs[rng.IntN(n)])
		scale := math.Pow(10, rng.Range(-3, 3))
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = scale * (rng.NormFloat64() + math.Sin(7*xs[i][0]))
		}
		varY := max(variance(ys), 1e-12)
		var g *GP
		var err error
		switch c % 3 {
		case 0:
			g, err = newSurrogateCache().fit(xs, ys)
		case 1:
			g, err = FitGP(Matern52{Variance: varY, LengthScale: 1.6}, 1e-4*varY, xs, ys)
		default:
			k := Matern52{Variance: varY * rng.Range(0.1, 10), LengthScale: 0.001 * math.Pow(2000, rng.Float64())}
			g, err = FitGP(k, math.Pow(10, rng.Range(-10, -2))*varY, xs, ys)
		}
		if err != nil {
			continue
		}
		if c%3 == 1 {
			var mass float64
			for _, a := range g.alpha {
				mass += math.Abs(a) * g.kernel.Variance
			}
			maxMass = max(maxMass, mass)
		}
		clamped += checkMeanBound(t, &s, g, cands, fmt.Sprintf("case %d (n %d, dim %d, ℓ %g)", c, n, dim, g.kernel.LengthScale))
	}
	if maxMass < 100 {
		t.Errorf("the near-singular GPs reached Σ|α|σ² = %g, want the hundreds", maxMass)
	}
	if clamped == 0 {
		t.Error("no row had s beyond the clamp")
	}
	t.Logf("largest Σ|α|σ² %.3g; %d rows beyond the clamp", maxMass, clamped)
}

// FuzzMeanBound: the bracket of TestMeanBoundBracketsMean for a GP drawn
// from the fuzzer's seed, size, dimension, length scale (10⁻³ to 2), noise
// fraction (10⁻¹⁰ to 1) and signal variance (10⁻⁶ to 10⁶).
func FuzzMeanBound(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(6), uint16(40000), uint16(36000), uint16(32768))
	f.Add(uint64(2), uint8(63), uint8(1), uint16(0), uint16(0), uint16(0))
	f.Add(uint64(3), uint8(20), uint8(8), uint16(65535), uint16(65535), uint16(65535))
	f.Fuzz(func(t *testing.T, seed uint64, size, dims uint8, lsq, nfq, vq uint16) {
		rng := stats.NewRNG(seed)
		n, dim := 1+int(size%64), 1+int(dims%8)
		xs := boundPoints(rng, n+8, dim)
		xs, cands := xs[:n], xs[n:]
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = rng.NormFloat64()
		}
		k := Matern52{
			Variance:    math.Pow(10, -6+12*float64(vq)/65535),
			LengthScale: 0.001 * math.Pow(2000, float64(lsq)/65535),
		}
		g, err := FitGP(k, math.Pow(10, -10+10*float64(nfq)/65535)*k.Variance, xs, ys)
		if err != nil {
			return
		}
		var s scorer
		checkMeanBound(t, &s, g, cands, "fuzz")
	})
}

// TestMeanBoundClampedRows: a candidate every observation is beyond the
// clamp from: one point at 0.1 observed at 99 and 99 copies of a point at 0.3
// observed at −1, so the prior mean is 0 exactly, at a signal variance (10⁶)
// that puts the cheap kernel value at sClamp, about 5e−303·σ², above the
// underflow term. The exact kernel values underflow to 0 and μ is 0, while
// μ̃ adds k̃(sClamp)·Σα, about 98·5e−303: only the clamped rows' term keeps
// μ_lo at most μ, whichever sign Σα takes.
func TestMeanBoundClampedRows(t *testing.T) {
	xs := [][]float64{{0.1}}
	for len(xs) < 100 {
		xs = append(xs, []float64{0.3})
	}
	var s scorer
	for _, sign := range []float64{1, -1} {
		ys := []float64{99 * sign}
		for len(ys) < len(xs) {
			ys = append(ys, -sign)
		}
		g, err := FitGP(Matern52{Variance: 1e6, LengthScale: 0.001}, 1e-2, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if g.mean != 0 {
			t.Fatalf("prior mean %v, want 0", g.mean)
		}
		if checkMeanBound(t, &s, g, [][]float64{{0.9}}, fmt.Sprintf("sign %v", sign)) != len(xs) {
			t.Fatal("the candidate's rows are not all beyond the clamp")
		}
	}
}

// TestExpNegAccuracy: expNeg is within the 7.31e−9 relative error meanSlack's
// derivation takes for it, against math.Exp, over a sweep of [0, sClamp]
// that crosses every reduction interval, and at the interval ends, where
// |r| is largest.
func TestExpNegAccuracy(t *testing.T) {
	worst := 0.0
	check := func(x float64) {
		if e := math.Abs(expNeg(x)/math.Exp(-x) - 1); e > worst {
			worst = e
		}
	}
	for x := 0.0; x <= sClamp; x += 0.000713 {
		check(x)
	}
	for k := 0.0; k <= 1021; k++ {
		for _, x := range []float64{(k - 0.5) * math.Ln2, (k + 0.5) * math.Ln2} {
			if x >= 0 && x <= sClamp {
				check(math.Nextafter(x, 0))
				check(math.Nextafter(x, sClamp))
			}
		}
	}
	check(sClamp)
	if worst > 7.31e-9 {
		t.Fatalf("expNeg's relative error reaches %g, above 7.31e-9", worst)
	}
	t.Logf("largest relative error %.4g", worst)
}
