package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (p in [0,100]) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice and does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// Percentiles returns the requested percentiles of xs with a single sort.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		out[i] = percentileSorted(s, p)
	}
	return out
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDFPoint is one point of an empirical cumulative distribution.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of observations <= X
}

// CDF returns the empirical CDF of xs subsampled to at most maxPoints
// evenly spaced quantiles (all points if maxPoints <= 0 or the data is
// smaller). The result is sorted by X.
func CDF(xs []float64, maxPoints int) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if maxPoints <= 0 || n <= maxPoints {
		out := make([]CDFPoint, n)
		for i, v := range s {
			out[i] = CDFPoint{X: v, P: float64(i+1) / float64(n)}
		}
		return out
	}
	out := make([]CDFPoint, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := (i + 1) * n / maxPoints
		if idx > n {
			idx = n
		}
		out[i] = CDFPoint{X: s[idx-1], P: float64(idx) / float64(n)}
	}
	return out
}
