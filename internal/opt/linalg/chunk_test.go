package linalg

import (
	"math"
	"testing"

	"datamime/internal/stats"
)

// contiguous is the factor as it was stored before chunking, one packed
// array with row i at Data[i(i+1)/2:], grown by doubling. Its methods are
// that code, kept as the oracle the chunked Tri must match bit for bit.
type contiguous struct {
	N    int
	Data []float64
}

func (l *contiguous) Row(i int) []float64 {
	o := packed(i)
	return l.Data[o : o+i+1 : o+i+1]
}

func (l *contiguous) Slot() []float64 {
	end := len(l.Data) + l.N + 1
	if end > cap(l.Data) {
		grown := make([]float64, len(l.Data), 2*end)
		copy(grown, l.Data)
		l.Data = grown
	}
	return l.Data[len(l.Data):end]
}

func (l *contiguous) Append() error {
	n, base := l.N, len(l.Data)
	row := l.Data[base : base+n+1]
	l.Forward(row, 0, n)
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

func (l *contiguous) Forward(x []float64, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		o0 := packed(i)
		o1 := o0 + i + 1
		o2 := o1 + i + 2
		o3 := o2 + i + 3
		r0, r1, r2, r3 := l.Data[o0:o0+i+1], l.Data[o1:o1+i+2], l.Data[o2:o2+i+3], l.Data[o3:o3+i+4]
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
	}
	for ; i < hi; i++ {
		row := l.Row(i)
		a := x[:i]
		y := x[i]
		for k, lk := range row[:len(a)] {
			y -= lk * a[k]
		}
		x[i] = y / row[i]
	}
}

func (l *contiguous) Scaled(s float64) contiguous {
	out := contiguous{N: l.N, Data: make([]float64, len(l.Data))}
	for i, v := range l.Data {
		out.Data[i] = float64(v * s)
	}
	return out
}

func (l *contiguous) SolveLower(s float64, b, y []float64) {
	for i := 0; i < l.N; i++ {
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

func (l *contiguous) SolveUpperT(s float64, y, x []float64) {
	n := l.N
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k, off := i+1, packed(i+1)+i; k < n; off, k = off+k+1, k+1 {
			sum -= float64(l.Data[off]*s) * x[k]
		}
		x[i] = sum / float64(l.Data[packed(i)+i]*s)
	}
}

func (l *contiguous) LogDet(s float64) float64 {
	var sum float64
	for i := 0; i < l.N; i++ {
		sum += math.Log(float64(l.Data[packed(i)+i] * s))
	}
	return 2 * sum
}

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

// spd returns a random n×n symmetric positive definite matrix, B·Bᵀ/n + I
// with B's entries in [-1, 1].
func spd(rng *stats.RNG, n int) [][]float64 {
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
			a[i][j] = Dot(b[i], b[j]) / float64(n)
		}
		a[i][i]++
	}
	return a
}

// TestChunkedMatchesContiguous grows a factor row by row across four chunk
// boundaries and, at every size, holds its rows, Forward (from every row
// and to every row past it), SolveLower, SolveUpperT, LogDet and Scaled to
// the contiguous code's bits, at scale 1 and at a scale that rounds.
func TestChunkedMatchesContiguous(t *testing.T) {
	const n = 4*chunkRows + 7
	rng := stats.NewRNG(71)
	a := spd(rng, n)
	var got Tri
	var want contiguous
	var scaled Tri
	for m := 1; m <= n; m++ {
		copy(got.Slot(), a[m-1][:m])
		copy(want.Slot(), a[m-1][:m])
		if err, werr := got.Append(), want.Append(); err != nil || werr != nil {
			t.Fatalf("row %d: append %v, contiguous %v", m-1, err, werr)
		}
		for i := 0; i < m; i++ {
			if !sameBits(got.Row(i), want.Row(i)) {
				t.Fatalf("%d rows: row %d differs from the contiguous factor", m, i)
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.Range(-2, 2)
		}
		for lo := 0; lo < m; lo += 1 + rng.IntN(5) {
			hi := lo + rng.IntN(m-lo+1)
			x, y := append([]float64(nil), b...), append([]float64(nil), b...)
			want.Forward(y, 0, lo)
			copy(x[:lo], y[:lo])
			got.Forward(x, lo, hi)
			want.Forward(y, lo, hi)
			if !sameBits(x, y) {
				t.Fatalf("%d rows: Forward over [%d, %d) differs", m, lo, hi)
			}
		}
		for _, s := range []float64{1, 1.37} {
			x, y := make([]float64, m), make([]float64, m)
			got.SolveLower(s, b, x)
			want.SolveLower(s, b, y)
			if !sameBits(x, y) {
				t.Fatalf("%d rows, scale %g: SolveLower differs", m, s)
			}
			got.SolveUpperT(s, x, x)
			want.SolveUpperT(s, y, y)
			if !sameBits(x, y) {
				t.Fatalf("%d rows, scale %g: SolveUpperT differs", m, s)
			}
			if g, w := got.LogDet(s), want.LogDet(s); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%d rows, scale %g: LogDet %v, contiguous %v", m, s, g, w)
			}
			scaled = got.Scaled(s, scaled)
			ws := want.Scaled(s)
			if scaled.N != m {
				t.Fatalf("%d rows, scale %g: Scaled has %d rows", m, s, scaled.N)
			}
			for i := 0; i < m; i++ {
				if !sameBits(scaled.Row(i), ws.Row(i)) {
					t.Fatalf("%d rows, scale %g: Scaled row %d differs", m, s, i)
				}
			}
		}
	}
}

// TestSnapshotAcrossChunks: a struct copy taken part-way through a chunk
// keeps its rows while the factor grows lie rows across two chunk
// boundaries, and after the copy is restored and grown again on other rows:
// the regrown factor is the factorization of its own rows, bit for bit, and
// it takes over the chunks the lie rows started instead of allocating new
// ones.
func TestSnapshotAcrossChunks(t *testing.T) {
	const snap, lies, real = chunkRows + 9, 2*chunkRows + 3, 3*chunkRows + 5
	a := spd(stats.NewRNG(72), real)
	lie := make([][]float64, real) // a plus 1 on the diagonal past the snapshot: other rows, still positive definite
	for i := range lie {
		lie[i] = append([]float64(nil), a[i]...)
		if i >= snap {
			lie[i][i]++
		}
	}
	grow := func(l *Tri, m [][]float64, to int) {
		t.Helper()
		for l.N < to {
			copy(l.Slot(), m[l.N][:l.N+1])
			if err := l.Append(); err != nil {
				t.Fatal(err)
			}
		}
	}
	l := NewTri(real)
	grow(&l, a, snap)
	saved := l
	rows := make([][]float64, snap)
	for i := range rows {
		rows[i] = append([]float64(nil), l.Row(i)...)
	}
	kept := func(when string) {
		t.Helper()
		if saved.N != snap {
			t.Fatalf("%s: the snapshot has %d rows, want %d", when, saved.N, snap)
		}
		for i, r := range rows {
			if !sameBits(saved.Row(i), r) {
				t.Fatalf("%s: the snapshot's row %d changed", when, i)
			}
		}
	}
	grow(&l, lie, lies)
	kept("after the lie rows")
	lieChunks := append([][]float64(nil), l.chunks...)

	l = saved
	grow(&l, a, lies)
	for c := range lieChunks {
		if &l.chunks[c][0] != &lieChunks[c][0] {
			t.Fatalf("chunk %d moved when the restored factor regrew", c)
		}
	}
	grow(&l, a, real)
	kept("after the restore and regrowth")
	var want contiguous
	for want.N < real {
		copy(want.Slot(), a[want.N][:want.N+1])
		if err := want.Append(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < real; i++ {
		if !sameBits(l.Row(i), want.Row(i)) {
			t.Fatalf("regrown row %d is not the factorization of the real rows", i)
		}
	}
}
