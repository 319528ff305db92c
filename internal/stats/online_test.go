package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// naive computes reference statistics directly.
func naive(xs []float64) (mean, variance, lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0, 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		mean += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	mean /= float64(len(xs))
	if len(xs) > 1 {
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(len(xs) - 1)
	}
	return mean, variance, lo, hi
}

func TestOnlineMatchesNaive(t *testing.T) {
	check := func(raw []int16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 7
		}
		var o Online
		for _, x := range xs {
			o.Add(x)
		}
		mean, variance, lo, hi := naive(xs)
		if len(xs) == 0 {
			return o.N() == 0 && o.Mean() == 0 && o.Var() == 0
		}
		return math.Abs(o.Mean()-mean) < 1e-9*(1+math.Abs(mean)) &&
			math.Abs(o.Var()-variance) < 1e-6*(1+variance) &&
			o.Min() == lo && o.Max() == hi && o.N() == int64(len(xs))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineSumAndCV(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 6} {
		o.Add(x)
	}
	if o.Sum() != 12 {
		t.Fatalf("Sum = %g, want 12", o.Sum())
	}
	if cv := o.CV(); math.Abs(cv-0.5) > 1e-12 {
		t.Fatalf("CV = %g, want 0.5", cv)
	}
	var zero Online
	if zero.CV() != 0 {
		t.Fatal("CV of empty accumulator must be 0")
	}
}

func TestOnlineSingleObservation(t *testing.T) {
	var o Online
	o.Add(7)
	if o.Var() != 0 || o.Std() != 0 {
		t.Fatalf("variance of single observation = %g, want 0", o.Var())
	}
	if o.Min() != 7 || o.Max() != 7 {
		t.Fatalf("min/max = %g/%g, want 7/7", o.Min(), o.Max())
	}
}
