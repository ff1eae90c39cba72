package trace

import "testing"

// TestRegionLikeResumesCursor: a region allocated like another has its name
// and footprint at the new layout's address, and its next block starts on
// the line the other's would.
func TestRegionLikeResumesCursor(t *testing.T) {
	r := NewCodeLayout().Region("loop", 10*LineSize)
	Null{}.Exec(r, 3*InstrBytesPerLine)

	cl := NewCodeLayoutAt(0x800000)
	cl.Region("before", LineSize)
	like := cl.RegionLike(r)
	if like.Name != r.Name || like.Lines != r.Lines || like.Base == r.Base {
		t.Fatalf("like = %+v, of %+v", like, r)
	}
	if next := cl.Region("after", LineSize); next.Base < like.Base+uint64(like.Lines)*LineSize {
		t.Fatal("the layout did not advance past the region")
	}
	got, _ := like.NextLines(InstrBytesPerLine)
	want, _ := r.NextLines(InstrBytesPerLine)
	if got != want || want != 3 {
		t.Fatalf("like resumes at line %d, the original at %d, want 3", got, want)
	}
}
