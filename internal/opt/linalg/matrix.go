// Package linalg provides the small linear-algebra kernel the Bayesian
// optimizer needs: Cholesky factorization and triangular solves. The
// reproduction bands note that Go lacks mainstream optimization/statistics
// libraries, so this is implemented from scratch on the standard library
// only.
//
// A Cholesky factor is a Tri: lower-triangular, packed by rows in chunks of
// chunkRows rows, grown one bordered row at a time by the one recurrence in
// Tri.Append. A chunk is allocated at its final size when its first row is
// slotted and never moves, so growing a factor copies nothing; a copy of the
// struct is a snapshot of the factor (see Tri).
package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Tri.Append when the matrix being
// factorized is not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// chunkRows is how many rows one chunk of a Tri holds.
const chunkRows = 16

// Tri is a lower-triangular matrix packed by rows into chunks: chunk c
// holds rows [c·chunkRows, (c+1)·chunkRows), row i's entries (i,0)…(i,i)
// contiguous and each row right after the one before it. The zero value is
// the empty factor.
//
// A factor grows in place (Slot, then Append), rows already in it are never
// rewritten, and a chunk never moves once allocated, so a copy of the struct
// is a snapshot of the factor at its N rows: rows appended after the copy go
// past the copy's N, into the chunk the two share or into chunks the copy
// does not hold. Growing the copy afterwards reuses that storage — it
// overwrites the rows past its N and takes over the chunks past its last —
// so of a copy and the factor it was taken from only one may go on growing
// and be read (the constant liar's rewind: grow, then restore the copy).
type Tri struct {
	N      int         // rows
	chunks [][]float64 // chunk c packs rows [c·chunkRows, (c+1)·chunkRows)
}

// packed is the storage of n packed rows.
func packed(n int) int { return n * (n + 1) / 2 }

// chunkLen is the storage of chunk c: its chunkRows rows, packed.
func chunkLen(c int) int { return packed((c+1)*chunkRows) - packed(c*chunkRows) }

// locate returns the chunk holding row i and the offset of (i,0) in it.
func locate(i int) (c, off int) {
	c = i / chunkRows
	return c, packed(i) - packed(c*chunkRows)
}

// NewTri returns an empty factor with room for the chunk list of rows rows;
// the chunks themselves are allocated as Slot reaches them.
func NewTri(rows int) Tri {
	return Tri{chunks: make([][]float64, 0, (rows+chunkRows-1)/chunkRows)}
}

// Row returns row i's entries (i,0)…(i,i).
func (l *Tri) Row(i int) []float64 {
	c, o := locate(i)
	return l.chunks[c][o : o+i+1 : o+i+1]
}

// At returns element (i, j); it is 0 above the diagonal.
func (l *Tri) At(i, j int) float64 {
	if j > i {
		return 0
	}
	return l.Row(i)[j]
}

// grow adds the chunk past the factor's last: the one a snapshot's factor
// left there when there is one (its rows lie past every row this factor
// holds), else a new one at its final size.
func (l *Tri) grow() {
	c := len(l.chunks)
	if c < cap(l.chunks) && l.chunks[:c+1][c] != nil {
		l.chunks = l.chunks[:c+1]
		return
	}
	l.chunks = append(l.chunks, make([]float64, chunkLen(c)))
}

// Slot returns the storage of row N, the row Append adds: N+1 entries past
// the factor's end, for the caller to fill with the new row of the matrix
// being factorized, (A_{N,0}, …, A_{N,N}). When row N starts a chunk the
// factor does not hold yet, Slot adds it; no row already in the factor
// moves.
func (l *Tri) Slot() []float64 {
	c, o := locate(l.N)
	if c == len(l.chunks) {
		l.grow()
	}
	return l.chunks[c][o : o+l.N+1]
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
	n, row := l.N, l.Slot()
	l.Forward(row, 0, n)
	sum := row[n]
	for _, v := range row[:n] {
		sum -= v * v
	}
	if sum <= 0 || math.IsNaN(sum) {
		return ErrNotPositiveDefinite
	}
	row[n] = math.Sqrt(sum)
	l.N++
	return nil
}

// Forward runs rows [lo, hi) of the forward substitution L·y = b in place:
// on entry x[:lo] holds y's rows already solved and x[lo:hi] b's, on return
// x[lo:hi] holds y's. Row i is (b_i − Σ_{k<i} L_ik·y_k) / L_ii with k
// ascending. Rows go four at a time where four lie in one chunk, sharing
// each load of y below the first of them, so a row's sum is still the
// one-row loop's, bit for bit.
func (l *Tri) Forward(x []float64, lo, hi int) {
	for i := lo; i < hi; {
		if i+4 > hi || i%chunkRows > chunkRows-4 {
			row := l.Row(i)
			a := x[:i]
			y := x[i]
			for k, lk := range row[:len(a)] {
				y -= lk * a[k]
			}
			x[i] = y / row[i]
			i++
			continue
		}
		c, o0 := locate(i)
		rows := l.chunks[c]
		o1 := o0 + i + 1
		o2 := o1 + i + 2
		o3 := o2 + i + 3
		r0, r1, r2, r3 := rows[o0:o0+i+1], rows[o1:o1+i+2], rows[o2:o2+i+3], rows[o3:o3+i+4]
		a := x[:i]
		l0, l1, l2, l3 := r0[:len(a)], r1[:len(a)], r2[:len(a)], r3[:len(a)]
		y0, y1, y2, y3 := x[i], x[i+1], x[i+2], x[i+3]
		for k, v := range a {
			y0 -= l0[k] * v
			y1 -= l1[k] * v
			y2 -= l2[k] * v
			y3 -= l3[k] * v
		}
		y0 /= r0[i]
		y1 -= r1[i] * y0
		y1 /= r1[i+1]
		y2 -= r2[i] * y0
		y2 -= r2[i+1] * y1
		y2 /= r2[i+2]
		y3 -= r3[i] * y0
		y3 -= r3[i+1] * y1
		y3 -= r3[i+2] * y2
		y3 /= r3[i+3]
		x[i], x[i+1], x[i+2], x[i+3] = y0, y1, y2, y3
		i += 4
	}
}

// Scaled returns s·L, each element rounded as float64(L_ik·s), in buf's
// chunks where it has them: the factor of s²·A given the factor L of A,
// exact in real arithmetic. The result shares buf's storage, which no
// factor buf was taken from may read again.
func (l *Tri) Scaled(s float64, buf Tri) Tri {
	out := Tri{N: l.N, chunks: buf.chunks[:0]}
	for c, lo := 0, 0; lo < l.N; c, lo = c+1, lo+chunkRows {
		out.grow()
		dst := out.chunks[c]
		for k, v := range l.chunks[c][:packed(min(lo+chunkRows, l.N))-packed(lo)] {
			dst[k] = float64(v * s)
		}
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
	for c, i := 0, 0; i < n; c++ {
		rows, end := l.chunks[c], min(i+chunkRows, n)
		for o := 0; i < end; o, i = o+i+1, i+1 {
			row := rows[o : o+i+1]
			done := row[:i]
			yk := y[:len(done)]
			sum := b[i]
			for k, v := range done {
				sum -= float64(v*s) * yk[k]
			}
			y[i] = sum / float64(row[i]*s)
		}
	}
}

// SolveUpperT solves (s·L)ᵀ·x = y by back substitution, writing x (which
// may be y), with s·L formed as in SolveLower. Row i's sum runs down column
// i in ascending k, one chunk's stretch of the column at a time.
func (l *Tri) SolveUpperT(s float64, y, x []float64) {
	n := l.N
	if len(y) != n || len(x) != n {
		panic("linalg: SolveUpperT dimension mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		k := i + 1
		c, off := locate(k)
		for off += i; k < n; c, off = c+1, i {
			// (k, i) is at off in chunk c, and at i once k starts the next chunk.
			chunk, end := l.chunks[c], min((c+1)*chunkRows, n)
			for ; k < end; off, k = off+k+1, k+1 {
				sum -= float64(chunk[off]*s) * x[k]
			}
		}
		x[i] = sum / float64(l.Row(i)[i]*s)
	}
}

// LogDet returns log|A| = 2·Σ log (s·L)_ii for the factor s·L of A, the
// diagonal formed as in SolveLower.
func (l *Tri) LogDet(s float64) float64 {
	var sum float64
	for i := 0; i < l.N; i++ {
		sum += math.Log(float64(l.Row(i)[i] * s))
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
