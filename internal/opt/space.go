// Package opt implements the black-box optimization layer of Datamime
// (§III-C): a Gaussian-process Bayesian optimizer with an Expected-
// Improvement acquisition function, plus the baseline optimizers (random
// search, simulated annealing) used for ablations. The objective — the
// summed EMD between a benchmark's and the target's performance profiles —
// is black-box, expensive, and noisy, which is exactly the regime Bayesian
// optimization targets.
package opt

import (
	"fmt"

	"datamime/internal/stats"
)

// Param describes one dataset-generator parameter: a bounded scalar that
// may be integer-valued (e.g., number of TPC-C warehouses) or continuous
// (e.g., Zipfian skew). Log-scaled parameters search multiplicative ranges
// (e.g., QPS from 1e3 to 1e6) uniformly in log space.
type Param struct {
	Name    string
	Lo, Hi  float64
	Integer bool
	Log     bool
}

// Space is an ordered set of parameters defining the search domain. All
// optimizers work in the normalized unit hypercube [0,1]^d and convert to
// parameter units at evaluation time, following standard BO practice.
type Space struct {
	Params []Param
}

// NewSpace validates and wraps a parameter list. Each parameter must have
// Lo < Hi (Lo > 0 for log-scaled parameters) and a unique name.
func NewSpace(params ...Param) (*Space, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("opt: space needs at least one parameter")
	}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if p.Name == "" {
			return nil, fmt.Errorf("opt: parameter with empty name")
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("opt: duplicate parameter %q", p.Name)
		}
		seen[p.Name] = true
		if !(p.Lo < p.Hi) {
			return nil, fmt.Errorf("opt: parameter %q has empty range [%g, %g]", p.Name, p.Lo, p.Hi)
		}
		if p.Log && p.Lo <= 0 {
			return nil, fmt.Errorf("opt: log-scaled parameter %q needs positive lower bound", p.Name)
		}
	}
	return &Space{Params: params}, nil
}

// MustSpace is NewSpace that panics on error; for statically-known spaces.
func MustSpace(params ...Param) *Space {
	s, err := NewSpace(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the dimensionality of the space.
func (s *Space) Dim() int { return len(s.Params) }

// Names returns the parameter names in order.
func (s *Space) Names() []string {
	names := make([]string, len(s.Params))
	for i, p := range s.Params {
		names[i] = p.Name
	}
	return names
}

// Denormalize maps a unit-cube point to parameter units, applying log
// scaling and integer rounding as declared.
func (s *Space) Denormalize(u []float64) []float64 {
	if len(u) != len(s.Params) {
		panic("opt: Denormalize dimension mismatch")
	}
	x := make([]float64, len(u))
	for i, p := range s.Params {
		t := stats.Clamp(u[i], 0, 1)
		var v float64
		if p.Log {
			v = p.Lo * pow(p.Hi/p.Lo, t)
		} else {
			v = p.Lo + t*(p.Hi-p.Lo)
		}
		if p.Integer {
			v = roundClamp(v, p.Lo, p.Hi)
		}
		x[i] = v
	}
	return x
}

// Normalize maps parameter units back into the unit cube.
func (s *Space) Normalize(x []float64) []float64 {
	if len(x) != len(s.Params) {
		panic("opt: Normalize dimension mismatch")
	}
	u := make([]float64, len(x))
	for i, p := range s.Params {
		v := stats.Clamp(x[i], p.Lo, p.Hi)
		if p.Log {
			u[i] = log(v/p.Lo) / log(p.Hi/p.Lo)
		} else {
			u[i] = (v - p.Lo) / (p.Hi - p.Lo)
		}
	}
	return u
}

// Sample draws a uniform point in the unit cube.
func (s *Space) Sample(rng *stats.RNG) []float64 {
	u := make([]float64, s.Dim())
	s.sampleInto(u, rng)
	return u
}

// sampleInto draws Sample's point into u.
func (s *Space) sampleInto(u []float64, rng *stats.RNG) {
	for i := range u {
		u[i] = rng.Float64()
	}
}

// Clip limits a unit-cube point into [0, 1]^d in place and returns it.
func (s *Space) Clip(u []float64) []float64 {
	for i := range u {
		u[i] = stats.Clamp(u[i], 0, 1)
	}
	return u
}

// Values renders a denormalized point as name=value pairs for logging.
func (s *Space) Values(x []float64) string {
	out := ""
	for i, p := range s.Params {
		if i > 0 {
			out += " "
		}
		if p.Integer {
			out += fmt.Sprintf("%s=%d", p.Name, int(x[i]))
		} else {
			out += fmt.Sprintf("%s=%.4g", p.Name, x[i])
		}
	}
	return out
}

// LatinHypercube generates n space-filling points in the unit cube: each
// dimension is stratified into n bins and the bin order is shuffled
// independently per dimension. Used to seed the GP with a well-spread
// initial design.
func LatinHypercube(n, dim int, rng *stats.RNG) [][]float64 {
	if n <= 0 || dim <= 0 {
		return nil
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
	}
	for d := 0; d < dim; d++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			pts[i][d] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return pts
}
