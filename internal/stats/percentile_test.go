package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75},
		{-3, 1}, {250, 10}, // clamped
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Fatal("P50 of empty slice must be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentilesConsistentWithSingle(t *testing.T) {
	check := func(raw []int8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		ps := []float64{5, 25, 50, 75, 95}
		batch := Percentiles(xs, ps...)
		for i, p := range ps {
			if batch[i] != Percentile(xs, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotone(t *testing.T) {
	check := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFFull(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	pts := CDF(xs, 0)
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	wantX := []float64{1, 2, 3, 4}
	wantP := []float64{0.25, 0.5, 0.75, 1}
	for i, pt := range pts {
		if pt.X != wantX[i] || pt.P != wantP[i] {
			t.Fatalf("point %d = %+v, want {%g %g}", i, pt, wantX[i], wantP[i])
		}
	}
}

func TestCDFSubsampled(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	pts := CDF(xs, 10)
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
	if pts[len(pts)-1].P != 1 {
		t.Fatalf("last CDF point P = %g, want 1", pts[len(pts)-1].P)
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
		t.Fatal("CDF points not sorted by X")
	}
}

func TestCDFEmpty(t *testing.T) {
	if CDF(nil, 10) != nil {
		t.Fatal("CDF of empty input must be nil")
	}
}
