package workload

import (
	"fmt"
	"math"

	"dismem/internal/stats"
)

// GenConfig parameterises the synthetic workload generator. The defaults
// (DefaultGenConfig) are calibrated to the published shapes of
// production traces: bursty Weibull inter-arrivals with a diurnal cycle,
// power-of-two-biased job sizes with a heavy tail, log-normal runtimes,
// and a bimodal per-node memory footprint whose upper mode models the
// data-intensive jobs that motivate memory disaggregation.
type GenConfig struct {
	// Jobs is the number of jobs to generate.
	Jobs int
	// Seed fixes the generator stream.
	Seed uint64

	// MeanInterarrival is the mean time between submissions in seconds.
	MeanInterarrival float64
	// ArrivalBurstiness is the Weibull shape k of inter-arrivals;
	// k = 1 is Poisson, k < 1 is burstier. Typical traces fit 0.6-0.8.
	ArrivalBurstiness float64
	// DiurnalAmplitude in [0,1) modulates the arrival rate with a
	// 24-hour sine: 0 disables the day/night cycle.
	DiurnalAmplitude float64

	// MaxNodes caps the per-job node request (machine size).
	MaxNodes int
	// SizeZipfExponent shapes the distribution over log2 size classes;
	// larger means more small jobs. 0 picks the default 1.4.
	SizeZipfExponent float64
	// SerialFraction is the extra probability mass on 1-node jobs.
	SerialFraction float64

	// RuntimeLogMean/RuntimeLogSigma parameterise the log-normal base
	// runtime in seconds (Lublin-style; defaults give a ~1.1 h mean
	// with a long tail).
	RuntimeLogMean, RuntimeLogSigma float64
	// MaxRuntime truncates runtimes (site walltime cap), seconds.
	MaxRuntime int64

	// MemSmall and MemLarge are the per-node footprint distributions
	// (MiB) of the "capacity" and "data-intensive" job populations;
	// LargeMemFraction is the weight of the latter.
	MemSmall, MemLarge stats.Dist
	LargeMemFraction   float64
	// MaxMemPerNode truncates footprints (no job can exceed what the
	// largest configuration could ever serve), MiB.
	MaxMemPerNode int64

	// EstimateAccuracy in (0,1] scales how tight user estimates are:
	// the generator draws accuracy a ~ classes calibrated so that
	// E[a] ≈ EstimateAccuracy and sets Estimate = BaseRuntime/a,
	// rounded up to the next estimate quantum.
	EstimateAccuracy float64
	// EstimateQuantum rounds estimates up (users request round
	// numbers); seconds, default 300.
	EstimateQuantum int64

	// Users is the size of the simulated user population.
	Users int
}

// DefaultGenConfig returns the calibrated defaults for n jobs with the
// given seed, sized for a machine with maxNodes nodes.
func DefaultGenConfig(n int, seed uint64, maxNodes int) GenConfig {
	return GenConfig{
		Jobs:              n,
		Seed:              seed,
		MeanInterarrival:  90,
		ArrivalBurstiness: 0.7,
		DiurnalAmplitude:  0.4,
		MaxNodes:          maxNodes,
		SizeZipfExponent:  1.4,
		SerialFraction:    0.25,
		RuntimeLogMean:    7.4, // median ≈ 27 min
		RuntimeLogSigma:   1.5,
		MaxRuntime:        24 * 3600,
		MemSmall:          stats.Truncated{Inner: stats.LogNormal{Mu: 8.0, Sigma: 0.8}, Lo: 256, Hi: 64 * 1024},
		MemLarge:          stats.Truncated{Inner: stats.LogNormal{Mu: 11.8, Sigma: 0.6}, Lo: 32 * 1024, Hi: 256 * 1024},
		LargeMemFraction:  0.18,
		MaxMemPerNode:     256 * 1024,
		EstimateAccuracy:  0.4,
		EstimateQuantum:   300,
		Users:             64,
	}
}

// Validate reports the first invalid generator parameter, or nil.
func (c *GenConfig) Validate() error {
	switch {
	case c.Jobs <= 0:
		return fmt.Errorf("workload: gen: jobs %d <= 0", c.Jobs)
	case c.MeanInterarrival <= 0:
		return fmt.Errorf("workload: gen: mean interarrival %g <= 0", c.MeanInterarrival)
	case c.ArrivalBurstiness <= 0:
		return fmt.Errorf("workload: gen: burstiness %g <= 0", c.ArrivalBurstiness)
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1:
		return fmt.Errorf("workload: gen: diurnal amplitude %g outside [0,1)", c.DiurnalAmplitude)
	case c.MaxNodes <= 0:
		return fmt.Errorf("workload: gen: max nodes %d <= 0", c.MaxNodes)
	case c.MaxRuntime <= 0:
		return fmt.Errorf("workload: gen: max runtime %d <= 0", c.MaxRuntime)
	case c.MaxMemPerNode <= 0:
		return fmt.Errorf("workload: gen: max mem/node %d <= 0", c.MaxMemPerNode)
	case c.EstimateAccuracy <= 0 || c.EstimateAccuracy > 1:
		return fmt.Errorf("workload: gen: estimate accuracy %g outside (0,1]", c.EstimateAccuracy)
	case c.LargeMemFraction < 0 || c.LargeMemFraction > 1:
		return fmt.Errorf("workload: gen: large-memory fraction %g outside [0,1]", c.LargeMemFraction)
	case c.Users <= 0:
		return fmt.Errorf("workload: gen: users %d <= 0", c.Users)
	}
	return nil
}

// Generate produces a synthetic workload from the configuration. The
// output is sorted by submit time and validates cleanly. It is the
// materialising wrapper over GenStream: pulling a fresh stream cfg.Jobs
// times yields the identical job sequence.
func Generate(cfg GenConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := NewGenStream(cfg)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("synthetic(n=%d,seed=%d)", cfg.Jobs, cfg.Seed)
	return drainStream(name, "generator", cfg.Jobs, st.Next)
}

// MustGenerate is Generate for configurations known valid at compile
// time (tests, examples); it panics on error.
func MustGenerate(cfg GenConfig) *Workload {
	w, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

func sampleNodes(r *stats.RNG, zipf *stats.Zipf, cfg GenConfig) int {
	if r.Float64() < cfg.SerialFraction {
		return 1
	}
	class := zipf.Sample(r) - 1 // 0-based log2 class
	lo := 1 << class
	hi := lo * 2
	if hi > cfg.MaxNodes+1 {
		hi = cfg.MaxNodes + 1
	}
	if lo >= hi {
		lo = hi - 1
	}
	n := lo
	if hi > lo {
		n = lo + r.Intn(hi-lo)
	}
	if n < 1 {
		n = 1
	}
	if n > cfg.MaxNodes {
		n = cfg.MaxNodes
	}
	return n
}

func sampleMem(r *stats.RNG, cfg GenConfig) int64 {
	var v float64
	if r.Float64() < cfg.LargeMemFraction {
		v = cfg.MemLarge.Sample(r)
	} else {
		v = cfg.MemSmall.Sample(r)
	}
	m := int64(v)
	if m < 1 {
		m = 1
	}
	if m > cfg.MaxMemPerNode {
		m = cfg.MaxMemPerNode
	}
	return m
}

func sampleRuntime(r *stats.RNG, d stats.Dist, cfg GenConfig) int64 {
	v := int64(d.Sample(r))
	if v < 1 {
		v = 1
	}
	if v > cfg.MaxRuntime {
		v = cfg.MaxRuntime
	}
	return v
}

// sampleEstimate models user over-estimation. Users fall into rough
// accuracy classes (the "f-model"): some request the site maximum, most
// pad generously. Mean accuracy is steered by cfg.EstimateAccuracy.
func sampleEstimate(r *stats.RNG, base int64, cfg GenConfig) int64 {
	// Draw an accuracy in (0, 1]: Beta-like via min of uniforms biased
	// toward cfg.EstimateAccuracy.
	a := cfg.EstimateAccuracy * (0.25 + 1.5*r.Float64())
	if a > 1 {
		a = 1
	}
	if a < 0.02 {
		a = 0.02
	}
	est := int64(float64(base) / a)
	if est < base {
		est = base
	}
	q := cfg.EstimateQuantum
	est = (est + q - 1) / q * q
	if est > cfg.MaxRuntime*4 {
		est = cfg.MaxRuntime * 4
	}
	if est < base {
		est = base
	}
	return est
}

// weibullMeanFactor returns Γ(1 + 1/k), the mean of a unit-scale Weibull
// with shape k, used to hit a target mean inter-arrival exactly.
func weibullMeanFactor(k float64) float64 {
	lg, _ := math.Lgamma(1 + 1/k)
	return math.Exp(lg)
}
