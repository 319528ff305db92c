package stats

import "math"

// Online accumulates count, mean, variance, min and max of a stream of
// observations in O(1) memory using Welford's algorithm. The zero value
// is ready to use.
type Online struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int64 { return o.n }

// Mean returns the running mean, or 0 if empty.
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest observation, or 0 if empty.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation, or 0 if empty.
func (o *Online) Max() float64 { return o.max }

// Sum returns mean*n, the total of all observations.
func (o *Online) Sum() float64 { return o.mean * float64(o.n) }

// CV returns the coefficient of variation (stddev/mean), or 0 when the
// mean is 0.
func (o *Online) CV() float64 {
	if o.mean == 0 {
		return 0
	}
	return o.Std() / o.mean
}
