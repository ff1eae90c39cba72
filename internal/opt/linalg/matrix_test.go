package linalg

import (
	"math"
	"testing"

	"datamime/internal/stats"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// factor grows the Cholesky factor of the symmetric matrix a row by row,
// each row's lower triangle through Slot and Append.
func factor(a [][]float64) (Tri, error) {
	l := NewTri(len(a))
	for i := range a {
		copy(l.Slot(), a[i][:i+1])
		if err := l.Append(); err != nil {
			return l, err
		}
	}
	return l, nil
}

// triOf lays rows packed one after another out as a Tri, as they are.
func triOf(data []float64) Tri {
	var l Tri
	for packed(l.N) < len(data) {
		copy(l.Slot(), data[packed(l.N):packed(l.N+1)])
		l.N++
	}
	return l
}

// mulVec returns a·x.
func mulVec(a [][]float64, x []float64) []float64 {
	out := make([]float64, len(a))
	for i, row := range a {
		out[i] = Dot(row, x)
	}
	return out
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4, 12, -16], [12, 37, -43], [-16, -43, 98]]
	// L = [[2, 0, 0], [6, 1, 0], [-8, 5, 3]]
	l, err := factor([][]float64{{4, 12, -16}, {12, 37, -43}, {-16, -43, 98}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0, 0}, {6, 1, 0}, {-8, 5, 3}}
	for i := range want {
		for j := range want[i] {
			if !almostEqual(l.At(i, j), want[i][j], 1e-10) {
				t.Fatalf("L[%d][%d] = %g, want %g", i, j, l.At(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := stats.NewRNG(51)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(10)
		// Build SPD matrix A = B·Bᵀ + n·I.
		b := make([][]float64, n)
		for i := range b {
			b[i] = make([]float64, n)
			for j := range b[i] {
				b[i][j] = rng.Range(-1, 1)
			}
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = Dot(b[i], b[j])
				if i == j {
					a[i][j] += float64(n)
				}
			}
		}
		l, err := factor(a)
		if err != nil {
			t.Fatal(err)
		}
		// Verify L·Lᵀ == A.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if !almostEqual(s, a[i][j], 1e-8) {
					t.Fatalf("trial %d: (L·Lᵀ)[%d][%d] = %g, want %g", trial, i, j, s, a[i][j])
				}
			}
		}
	}
}

// TestCholeskyRejectsNonPD: a row whose pivot is not positive is refused,
// and the factor keeps the rows it had.
func TestCholeskyRejectsNonPD(t *testing.T) {
	// Eigenvalues 3, -1 => not PD.
	l, err := factor([][]float64{{1, 2}, {2, 1}})
	if err != ErrNotPositiveDefinite {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
	if l.N != 1 || len(l.Row(0)) != 1 || l.At(0, 0) != 1 {
		t.Fatalf("refused append left the factor at N=%d, row 0 %v, want the one row [1]", l.N, l.Row(0))
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := stats.NewRNG(52)
	n := 6
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Range(-1, 1)
			a[i][j], a[j][i] = v, v
		}
		a[i][i] += float64(n) + 1
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.Range(-3, 3)
	}
	b := mulVec(a, xTrue)
	l, err := factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	l.SolveLower(1, b, x)
	l.SolveUpperT(1, x, x)
	for i := range x {
		if !almostEqual(x[i], xTrue[i], 1e-8) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
}

func TestTriangularSolves(t *testing.T) {
	// L = [[2, 0, 0], [1, 3, 0], [4, 5, 6]], packed by rows.
	l := triOf([]float64{2, 1, 3, 4, 5, 6})
	y := make([]float64, 3)
	l.SolveLower(1, []float64{2, 5, 32}, y)
	want := []float64{1, 4.0 / 3, 32.0 / 9}
	for i := range want {
		if !almostEqual(y[i], want[i], 1e-12) {
			t.Fatalf("SolveLower[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	// Round-trip: SolveUpperT(L, SolveLower(L, A·x)) == x for A = L·Lᵀ.
	xTrue := []float64{1, -2, 0.5}
	// Compute b = L·(Lᵀ·x).
	lt := make([]float64, 3)
	for i := 0; i < 3; i++ {
		for k := i; k < 3; k++ {
			lt[i] += l.At(k, i) * xTrue[k]
		}
	}
	b := make([]float64, 3)
	for i := range b {
		b[i] = Dot(l.Row(i), lt[:i+1])
	}
	x := make([]float64, 3)
	l.SolveLower(1, b, x)
	l.SolveUpperT(1, x, x)
	for i := range xTrue {
		if !almostEqual(x[i], xTrue[i], 1e-10) {
			t.Fatalf("round-trip x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
}

func TestLogDetFromCholesky(t *testing.T) {
	// A = diag(4, 9): |A| = 36, log|A| = log 36.
	l, err := factor([][]float64{{4, 0}, {0, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LogDet(1); !almostEqual(got, math.Log(36), 1e-12) {
		t.Fatalf("logdet = %g, want %g", got, math.Log(36))
	}
}

func TestDot(t *testing.T) {
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Fatalf("Dot = %g", d)
	}
}

func TestPanics(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	l, err := factor([][]float64{{4, 0}, {0, 9}})
	if err != nil {
		t.Fatal(err)
	}
	check("Dot", func() { Dot([]float64{1}, []float64{1, 2}) })
	check("SolveLower", func() { l.SolveLower(1, []float64{1}, []float64{1}) })
	check("SolveUpperT", func() { l.SolveUpperT(1, []float64{1}, []float64{1}) })
}
