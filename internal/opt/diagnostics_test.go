package opt

import (
	"math"
	"testing"
)

func diagSpace(t *testing.T) *Space {
	t.Helper()
	space, err := NewSpace(
		Param{Name: "a", Lo: 0, Hi: 1},
		Param{Name: "b", Lo: 0, Hi: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestTakeDiagnosticsDrains: no snapshot exists during the initial design;
// the first surrogate-backed proposal produces one; taking it drains the
// window until the next proposal.
func TestTakeDiagnosticsDrains(t *testing.T) {
	space := diagSpace(t)
	b := NewBayesOpt(space, BayesOptConfig{Seed: 11, Candidates: 64, InitPoints: 4})

	for i := 0; i < 4; i++ {
		x := b.Next()
		if _, ok := b.TakeDiagnostics(); ok {
			t.Fatalf("diagnostics during initial design (iteration %d)", i)
		}
		b.Observe(x, math.Sin(4*x[0])+x[1]*x[1])
	}

	x := b.Next()
	d, ok := b.TakeDiagnostics()
	if !ok {
		t.Fatal("no diagnostics after the first surrogate-backed proposal")
	}
	b.Observe(x, math.Sin(4*x[0])+x[1]*x[1])

	if d.Observations != 4 {
		t.Errorf("Observations = %d, want 4", d.Observations)
	}
	if d.Candidates == 0 || d.LengthScale <= 0 || d.SignalVar <= 0 {
		t.Errorf("fit figures missing: %+v", d)
	}
	if d.Coverage1 < 0 || d.Coverage1 > 1 || d.Coverage2 < d.Coverage1 || d.Coverage2 > 1 {
		t.Errorf("coverage out of range or inverted: cov1=%g cov2=%g", d.Coverage1, d.Coverage2)
	}
	if d.Condition < 1 {
		t.Errorf("condition estimate %g < 1", d.Condition)
	}
	if d.ChosenEI < d.PoolMeanEI {
		t.Errorf("chosen EI %g below pool mean %g (argmax must win)", d.ChosenEI, d.PoolMeanEI)
	}
	// The EI split reconstructs the chosen EI (both computed from the same
	// posterior; degenerate variance makes one term zero, never negative).
	if got := d.ExploitEI + d.ExploreEI; math.Abs(got-d.ChosenEI) > 1e-9*math.Max(1, math.Abs(d.ChosenEI)) {
		t.Errorf("exploit %g + explore %g = %g != chosen EI %g",
			d.ExploitEI, d.ExploreEI, got, d.ChosenEI)
	}

	if _, ok := b.TakeDiagnostics(); ok {
		t.Fatal("window did not drain")
	}
	b.Next()
	if _, ok := b.TakeDiagnostics(); !ok {
		t.Fatal("no diagnostics after the next surrogate-backed proposal")
	}
}

// TestDiagnosticsFirstFitPerBatch: within one NextBatch window, diagnostics
// describe the fit over real observations only (the constant-liar lies come
// after), and the drain captures exactly one snapshot per batch.
func TestDiagnosticsFirstFitPerBatch(t *testing.T) {
	space := diagSpace(t)
	b := NewBayesOpt(space, BayesOptConfig{Seed: 5, Candidates: 64, InitPoints: 4})
	for i := 0; i < 6; i++ {
		for _, x := range b.NextBatch(1) {
			b.Observe(x, math.Cos(3*x[0])-x[1])
		}
		b.TakeDiagnostics()
	}

	batch := b.NextBatch(3)
	if len(batch) != 3 {
		t.Fatalf("batch of %d, want 3", len(batch))
	}
	d, ok := b.TakeDiagnostics()
	if !ok {
		t.Fatal("no diagnostics for a surrogate-backed batch")
	}
	// 6 real observations; the lied fits (7, 8 observations) must not leak
	// into the snapshot.
	if d.Observations != 6 {
		t.Errorf("Observations = %d, want 6 (the pre-lie fit)", d.Observations)
	}
	if _, ok := b.TakeDiagnostics(); ok {
		t.Fatal("batch produced more than one snapshot")
	}
}

// solveDense solves Ax = b by Gaussian elimination with partial pivoting —
// a deliberately naive reference implementation independent of the linalg
// package the production path uses.
func solveDense(a [][]float64, b []float64) []float64 {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		m[col], m[p] = m[p], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return x
}

// TestLOOStatsMatchDirectRefit: the O(n²)-per-point leave-one-out residuals
// read off the factorization (R&W 5.10-5.12) must match brute-force
// leave-one-out predictions computed from scratch with the prior mean held
// fixed (the GP's empirical-mean prior is a fixed constant, not re-estimated
// per fold).
func TestLOOStatsMatchDirectRefit(t *testing.T) {
	xs := [][]float64{{0.1, 0.2}, {0.8, 0.3}, {0.4, 0.9}, {0.6, 0.6}, {0.2, 0.7}, {0.9, 0.8}}
	ys := []float64{0.5, -0.2, 0.8, 0.1, 0.4, -0.5}
	kernel := Matern52{Variance: 1, LengthScale: 0.5}
	const noise = 1e-4

	gp, err := FitGP(kernel, noise, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	rmse, maxZ, cov1, cov2 := gp.looStats(make([]float64, 4*len(ys)))

	n := len(xs)
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(n)

	// The noise-inclusive covariance the fit factorizes (jitter = noise).
	cov := func(i, j int) float64 {
		v := kernel.Eval(xs[i], xs[j])
		if i == j {
			v += noise
		}
		return v
	}
	var sq, wantMaxZ float64
	within1, within2 := 0, 0
	for i := 0; i < n; i++ {
		idx := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				idx = append(idx, j)
			}
		}
		a := make([][]float64, n-1)
		rhs := make([]float64, n-1)
		kstar := make([]float64, n-1)
		for r, j := range idx {
			a[r] = make([]float64, n-1)
			for c, l := range idx {
				a[r][c] = cov(j, l)
			}
			rhs[r] = ys[j] - mean
			kstar[r] = cov(i, j)
		}
		w := solveDense(a, rhs)
		mu, kk := mean, 0.0
		for r := range w {
			mu += kstar[r] * w[r]
		}
		for r, v := range solveDense(a, kstar) {
			kk += kstar[r] * v
		}
		resid := ys[i] - mu
		variance := cov(i, i) - kk
		sq += resid * resid
		z := math.Abs(resid) / math.Sqrt(variance)
		if z > wantMaxZ {
			wantMaxZ = z
		}
		if z <= 1 {
			within1++
		}
		if z <= 2 {
			within2++
		}
	}
	wantRMSE := math.Sqrt(sq / float64(n))

	if math.Abs(rmse-wantRMSE) > 1e-7*math.Max(1, wantRMSE) {
		t.Errorf("LOO rmse = %g, brute force = %g", rmse, wantRMSE)
	}
	if math.Abs(maxZ-wantMaxZ) > 1e-7*math.Max(1, wantMaxZ) {
		t.Errorf("LOO max |z| = %g, brute force = %g", maxZ, wantMaxZ)
	}
	if want := float64(within1) / float64(n); cov1 != want {
		t.Errorf("coverage1 = %g, brute force = %g", cov1, want)
	}
	if want := float64(within2) / float64(n); cov2 != want {
		t.Errorf("coverage2 = %g, brute force = %g", cov2, want)
	}
}
