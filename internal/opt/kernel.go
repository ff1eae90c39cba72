package opt

import "math"

// Matern52 is the Matérn-5/2 kernel, the standard choice for Bayesian
// optimization of engineering objectives (twice-differentiable sample
// paths; less smooth than the squared-exponential kernel, which suits noisy
// profile measurements).
type Matern52 struct {
	Variance    float64 // signal variance σ²
	LengthScale float64 // isotropic length scale ℓ
}

// Eval computes σ²(1 + √5 r/ℓ + 5r²/3ℓ²)·exp(−√5 r/ℓ). It is the one kernel
// formula: fromSq of sqDist, which the scorer and the surrogate fit call as
// passes over many rows, so every kernel value they compute has Eval's bits.
func (k Matern52) Eval(a, b []float64) float64 {
	return k.fromSq(sqDist(a, b))
}

// fromSq is the kernel at squared distance d2.
func (k Matern52) fromSq(d2 float64) float64 {
	s := k.scale(d2)
	return k.poly(s) * math.Exp(-s)
}

// scale is s = √5·r/ℓ at squared distance d2.
func (k Matern52) scale(d2 float64) float64 {
	return math.Sqrt(5) * math.Sqrt(d2) / k.LengthScale
}

// poly is σ²(1 + s + s²/3), the factor of the kernel that multiplies
// exp(−s).
func (k Matern52) poly(s float64) float64 {
	return k.Variance * (1 + s + s*s/3)
}

// fromSqBlock sets out[j] = fromSq(d2[j]) for at most boundEvery values: a
// pass that forms every s and poly(s), then a pass of math.Exp calls, so
// the call does not break up the arithmetic of the first. Each value has
// fromSq's bits.
func (k Matern52) fromSqBlock(d2, out []float64) {
	var pb [boundEvery]float64
	p := pb[:len(d2)]
	out = out[:len(d2)]
	for j, e := range d2 {
		s := k.scale(e)
		out[j] = s
		p[j] = k.poly(s)
	}
	for j, s := range out {
		out[j] = p[j] * math.Exp(-s)
	}
}

// sqDist is the squared Euclidean distance, the dimensions summed in
// ascending order from 0. The explicit float64 conversion rounds each square
// before it is added, so no architecture fuses the two and every site that
// sums squares this way, as the scorer's dimension-major passes do, gets
// these bits.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

func pow(x, y float64) float64 { return math.Pow(x, y) }
func log(x float64) float64    { return math.Log(x) }

// normPDF is the standard normal density.
func normPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// normCDF is the standard normal cumulative distribution function.
func normCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

func roundClamp(v, lo, hi float64) float64 {
	r := math.Round(v)
	if r < lo {
		r = math.Ceil(lo)
	}
	if r > hi {
		r = math.Floor(hi)
	}
	return r
}
