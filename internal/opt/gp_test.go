package opt

import (
	"math"
	"testing"

	"datamime/internal/stats"
)

func TestKernelProperties(t *testing.T) {
	k := Matern52{Variance: 2, LengthScale: 0.3}
	a := []float64{0.1, 0.2}
	b := []float64{0.4, 0.9}
	// Symmetry.
	if math.Abs(k.Eval(a, b)-k.Eval(b, a)) > 1e-15 {
		t.Fatal("not symmetric")
	}
	// k(x, x) = variance.
	if math.Abs(k.Eval(a, a)-2) > 1e-12 {
		t.Fatalf("k(x,x) = %g, want 2", k.Eval(a, a))
	}
	// Decay with distance.
	far := []float64{0.9, 0.05}
	if k.Eval(a, far) >= k.Eval(a, []float64{0.12, 0.22}) {
		t.Fatal("does not decay with distance")
	}
	// Positivity.
	if k.Eval(a, far) <= 0 {
		t.Fatal("non-positive")
	}
}

func TestGPInterpolatesNoiseless(t *testing.T) {
	xs := [][]float64{{0.1}, {0.3}, {0.5}, {0.7}, {0.9}}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(6 * x[0])
	}
	gp, err := FitGP(Matern52{Variance: 1, LengthScale: 0.3}, 1e-8, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, s2 := gp.Predict(x)
		if math.Abs(mu-ys[i]) > 1e-3 {
			t.Fatalf("GP does not interpolate training point %d: %g vs %g", i, mu, ys[i])
		}
		if s2 > 1e-3 {
			t.Fatalf("GP variance at training point %d too high: %g", i, s2)
		}
	}
	// Uncertainty must grow away from data.
	_, sFar := gp.Predict([]float64{2.5})
	_, sNear := gp.Predict([]float64{0.5})
	if sFar <= sNear {
		t.Fatalf("GP uncertainty does not grow away from data: far=%g near=%g", sFar, sNear)
	}
}

func TestGPPredictionAccuracy(t *testing.T) {
	// Fit a smooth 1-D function densely; mid-point predictions should be
	// close.
	f := func(x float64) float64 { return x*x - 0.3*x }
	var xs [][]float64
	var ys []float64
	for x := 0.0; x <= 1.0; x += 0.05 {
		xs = append(xs, []float64{x})
		ys = append(ys, f(x))
	}
	gp, err := fitBestGP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.025; x < 1; x += 0.1 {
		mu, _ := gp.Predict([]float64{x})
		if math.Abs(mu-f(x)) > 0.02 {
			t.Fatalf("GP prediction at %g: %g, want %g", x, mu, f(x))
		}
	}
}

func TestGPHandlesDuplicatePoints(t *testing.T) {
	xs := [][]float64{{0.5}, {0.5}, {0.5}, {0.2}}
	ys := []float64{1.0, 1.1, 0.9, 2.0}
	gp, err := FitGP(Matern52{Variance: 1, LengthScale: 0.3}, 1e-6, xs, ys)
	if err != nil {
		t.Fatalf("GP failed on duplicate points: %v", err)
	}
	mu, _ := gp.Predict([]float64{0.5})
	if math.Abs(mu-1.0) > 0.15 {
		t.Fatalf("duplicate-point posterior mean = %g, want ~1.0", mu)
	}
}

func TestGPErrors(t *testing.T) {
	if _, err := FitGP(Matern52{Variance: 1, LengthScale: 1}, 0, nil, nil); err == nil {
		t.Fatal("empty fit must error")
	}
	if _, err := FitGP(Matern52{Variance: 1, LengthScale: 1}, 0, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestLogMarginalLikelihoodPrefersTruth(t *testing.T) {
	// Data drawn from a smooth function should prefer a moderate length
	// scale over a tiny one.
	rng := stats.NewRNG(71)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 25; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(4*x)+0.01*rng.NormFloat64())
	}
	smooth, err := FitGP(Matern52{Variance: 1, LengthScale: 0.4}, 1e-4, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	wiggly, err := FitGP(Matern52{Variance: 1, LengthScale: 0.001}, 1e-4, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if smooth.LogMarginalLikelihood() <= wiggly.LogMarginalLikelihood() {
		t.Fatal("LML should prefer the smooth model for smooth data")
	}
}

func TestExpectedImprovement(t *testing.T) {
	xs := [][]float64{{0.0}, {1.0}}
	ys := []float64{1.0, 0.5}
	gp, err := FitGP(Matern52{Variance: 0.5, LengthScale: 0.3}, 1e-6, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// EI must be non-negative everywhere.
	for x := 0.0; x <= 1; x += 0.05 {
		if ei := ExpectedImprovement(gp, []float64{x}, 0.5, 0.01); ei < 0 {
			t.Fatalf("EI negative at %g: %g", x, ei)
		}
	}
	// EI at an unexplored region (high variance) should exceed EI exactly
	// at the worst observed point.
	eiUnexplored := ExpectedImprovement(gp, []float64{0.5}, 0.5, 0.01)
	eiWorst := ExpectedImprovement(gp, []float64{0.0}, 0.5, 0.01)
	if eiUnexplored <= eiWorst {
		t.Fatalf("EI does not favor unexplored region: %g vs %g", eiUnexplored, eiWorst)
	}
}

func TestNormFunctions(t *testing.T) {
	if math.Abs(normCDF(0)-0.5) > 1e-12 {
		t.Fatalf("normCDF(0) = %g", normCDF(0))
	}
	if math.Abs(normCDF(1.96)-0.975) > 1e-3 {
		t.Fatalf("normCDF(1.96) = %g", normCDF(1.96))
	}
	if math.Abs(normPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("normPDF(0) = %g", normPDF(0))
	}
}
