// Package linalg provides the small linear-algebra kernel the Bayesian
// optimizer needs: Cholesky factorization and triangular solves. The
// reproduction bands note that Go lacks mainstream optimization/statistics
// libraries, so this is implemented from scratch on the standard library
// only.
//
// A Cholesky factor is a Tri: lower-triangular, packed by rows, grown one
// bordered row at a time by the one recurrence in Tri.Append.
package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Tri.Append when the matrix being
// factorized is not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Tri is a lower-triangular matrix packed by rows: row i's entries
// (i,0)…(i,i) sit at Data[i(i+1)/2:], so a factor's rows are contiguous and
// a new row goes on the end. The zero value is the empty factor.
//
// A factor grows in place (Slot, then Append) and rows already in it are
// never rewritten, so a copy of the struct is a snapshot of the factor at
// its N rows: appends made after the copy write only past the copy's end.
type Tri struct {
	N    int       // rows
	Data []float64 // len N(N+1)/2; spare capacity holds the next rows
}

// packed is the storage of n packed rows.
func packed(n int) int { return n * (n + 1) / 2 }

// NewTri returns an empty factor with storage for rows rows, allocated as
// Slot grows it: twice what it must hold.
func NewTri(rows int) Tri { return Tri{Data: make([]float64, 0, 2*packed(rows))} }

// Row returns row i's entries (i,0)…(i,i).
func (l *Tri) Row(i int) []float64 {
	o := packed(i)
	return l.Data[o : o+i+1 : o+i+1]
}

// At returns element (i, j); it is 0 above the diagonal.
func (l *Tri) At(i, j int) float64 {
	if j > i {
		return 0
	}
	return l.Data[packed(i)+j]
}

// Slot returns the storage of row N, the row Append adds: N+1 entries past
// the factor's end, for the caller to fill with the new row of the matrix
// being factorized, (A_{N,0}, …, A_{N,N}). When the backing array has no
// room it moves to a new one of twice the size it must hold; the old array,
// and any snapshot reading it, is left as it was.
func (l *Tri) Slot() []float64 {
	end := len(l.Data) + l.N + 1
	if end > cap(l.Data) {
		grown := make([]float64, len(l.Data), 2*end)
		copy(grown, l.Data)
		l.Data = grown
	}
	return l.Data[len(l.Data):end]
}

// Append factorizes the row in Slot in place and makes it row N: given the
// factor L of an N×N matrix A, the factor of A bordered by that row, in
// O(N²). It is the only Cholesky recurrence — entry (N,j) is
// (A_{N,j} − Σ_{k<j} L_{N,k}·L_{j,k}) / L_{j,j} with k ascending, and the
// diagonal the square root of the same sum at j = N — so a factor grown row
// by row from empty is the factorization of the whole matrix, bit for bit.
// It returns ErrNotPositiveDefinite, and leaves the factor at N rows, when
// the diagonal's sum is not positive: the bordered matrix is not positive
// definite in floating point.
func (l *Tri) Append() error {
	n, base := l.N, len(l.Data)
	row := l.Data[base : base+n+1]
	for j, off := 0, 0; j < n; off, j = off+j+1, j+1 {
		lj := l.Data[off : off+j+1]
		done := row[:j]
		lk := lj[:len(done)]
		sum := row[j]
		for k, v := range done {
			sum -= v * lk[k]
		}
		row[j] = sum / lj[j]
	}
	sum := row[n]
	for _, v := range row[:n] {
		sum -= v * v
	}
	if sum <= 0 || math.IsNaN(sum) {
		return ErrNotPositiveDefinite
	}
	row[n] = math.Sqrt(sum)
	l.Data = l.Data[:base+n+1]
	l.N++
	return nil
}

// Scaled returns s·L in fresh storage, each element rounded as
// float64(L_ik·s): the factor of s²·A given the factor L of A, exact in real
// arithmetic.
func (l *Tri) Scaled(s float64) Tri {
	out := Tri{N: l.N, Data: make([]float64, len(l.Data))}
	for i, v := range l.Data {
		out.Data[i] = float64(v * s)
	}
	return out
}

// SolveLower solves (s·L)·y = b by forward substitution, writing y (which
// may be b). Each element of s·L is formed as float64(L_ik·s) — the value
// Scaled(s) stores — before it multiplies anything, so solving against a
// scale is solving against the scaled copy, bit for bit; s = 1 solves
// against L.
func (l *Tri) SolveLower(s float64, b, y []float64) {
	n := l.N
	if len(b) != n || len(y) != n {
		panic("linalg: SolveLower dimension mismatch")
	}
	for i := 0; i < n; i++ {
		row := l.Row(i)
		done := row[:i]
		yk := y[:len(done)]
		sum := b[i]
		for k, v := range done {
			sum -= float64(v*s) * yk[k]
		}
		y[i] = sum / float64(row[i]*s)
	}
}

// SolveUpperT solves (s·L)ᵀ·x = y by back substitution, writing x (which
// may be y), with s·L formed as in SolveLower.
func (l *Tri) SolveUpperT(s float64, y, x []float64) {
	n := l.N
	if len(y) != n || len(x) != n {
		panic("linalg: SolveUpperT dimension mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k, off := i+1, packed(i+1)+i; k < n; off, k = off+k+1, k+1 {
			sum -= float64(l.Data[off]*s) * x[k]
		}
		x[i] = sum / float64(l.Data[packed(i)+i]*s)
	}
}

// LogDet returns log|A| = 2·Σ log (s·L)_ii for the factor s·L of A, the
// diagonal formed as in SolveLower.
func (l *Tri) LogDet(s float64) float64 {
	var sum float64
	for i := 0; i < l.N; i++ {
		sum += math.Log(float64(l.Data[packed(i)+i] * s))
	}
	return 2 * sum
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot dimension mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
