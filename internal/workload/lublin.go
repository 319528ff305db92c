package workload

import (
	"fmt"
	"math"

	"dismem/internal/stats"
)

// LublinConfig parameterises a workload model following Lublin &
// Feitelson, "The workload on parallel supercomputers: modeling the
// characteristics of rigid jobs" (JPDC 2003): two-stage log-uniform job
// sizes with power-of-two emphasis, hyper-Gamma runtimes whose mixing
// probability depends on job size, and a Gamma daily arrival cycle.
//
// This is the higher-fidelity alternative to the simpler calibrated
// generator in GenConfig; both emit the same Job type, and the memory
// model (absent from the 2003 paper, which predates the disaggregation
// question) is borrowed from GenConfig's bimodal footprint.
type LublinConfig struct {
	// Jobs and Seed as in GenConfig.
	Jobs int
	Seed uint64
	// MaxNodes bounds job width.
	MaxNodes int

	// Size model: log2(size) ~ two-stage uniform over [ULow, UHi] with
	// mid-point break UMed and probability UProb of the low range;
	// jobs are rounded to a power of two with probability Pow2Prob.
	ULow, UMed, UHi float64
	UProb, Pow2Prob float64

	// Runtime model: hyper-Gamma with size-dependent mixing
	// p(nodes) = PA*nodes + PB (clamped to [0,1]); the low component is
	// Gamma(A1,B1), the high component Gamma(A2,B2), runtimes in
	// seconds, truncated at MaxRuntime.
	A1, B1, A2, B2 float64
	PA, PB         float64
	MaxRuntime     int64

	// Arrival model: per-bucket Poisson arrivals where the rate follows
	// the classic daily cycle weights (peak in working hours); the
	// whole trace is scaled so the mean inter-arrival equals
	// MeanInterarrival seconds.
	MeanInterarrival float64

	// Memory and estimates: reused from the calibrated generator so
	// the disaggregation experiments remain meaningful.
	MemSmall, MemLarge stats.Dist
	LargeMemFraction   float64
	MaxMemPerNode      int64
	EstimateAccuracy   float64
	EstimateQuantum    int64
	Users              int
}

// DefaultLublinConfig returns the published model constants (batch
// partition) scaled to maxNodes, with this repository's default memory
// and estimate models attached.
func DefaultLublinConfig(n int, seed uint64, maxNodes int) LublinConfig {
	base := DefaultGenConfig(n, seed, maxNodes)
	uHi := math.Log2(float64(maxNodes))
	return LublinConfig{
		Jobs: n, Seed: seed, MaxNodes: maxNodes,
		// Size constants from the paper (uLow≈0.8, uMed≈uHi-2.5).
		ULow: 0.8, UMed: uHi - 2.5, UHi: uHi,
		UProb: 0.7, Pow2Prob: 0.24,
		// Runtime hyper-Gamma constants (batch model, seconds).
		A1: 4.2, B1: 400, A2: 12, B2: 800,
		PA: -0.0054, PB: 0.78,
		MaxRuntime:       base.MaxRuntime,
		MeanInterarrival: base.MeanInterarrival,
		MemSmall:         base.MemSmall,
		MemLarge:         base.MemLarge,
		LargeMemFraction: base.LargeMemFraction,
		MaxMemPerNode:    base.MaxMemPerNode,
		EstimateAccuracy: base.EstimateAccuracy,
		EstimateQuantum:  base.EstimateQuantum,
		Users:            base.Users,
	}
}

// Validate reports the first invalid parameter, or nil.
func (c *LublinConfig) Validate() error {
	switch {
	case c.Jobs <= 0:
		return fmt.Errorf("workload: lublin: jobs %d <= 0", c.Jobs)
	case c.MaxNodes <= 0:
		return fmt.Errorf("workload: lublin: max nodes %d <= 0", c.MaxNodes)
	case c.UHi < c.ULow:
		return fmt.Errorf("workload: lublin: uHi %g < uLow %g", c.UHi, c.ULow)
	case c.UProb < 0 || c.UProb > 1:
		return fmt.Errorf("workload: lublin: uProb %g outside [0,1]", c.UProb)
	case c.Pow2Prob < 0 || c.Pow2Prob > 1:
		return fmt.Errorf("workload: lublin: pow2Prob %g outside [0,1]", c.Pow2Prob)
	case c.A1 <= 0 || c.B1 <= 0 || c.A2 <= 0 || c.B2 <= 0:
		return fmt.Errorf("workload: lublin: non-positive gamma parameters")
	case c.MaxRuntime <= 0:
		return fmt.Errorf("workload: lublin: max runtime %d <= 0", c.MaxRuntime)
	case c.MeanInterarrival <= 0:
		return fmt.Errorf("workload: lublin: mean interarrival %g <= 0", c.MeanInterarrival)
	case c.MaxMemPerNode <= 0:
		return fmt.Errorf("workload: lublin: max mem %d <= 0", c.MaxMemPerNode)
	case c.EstimateAccuracy <= 0 || c.EstimateAccuracy > 1:
		return fmt.Errorf("workload: lublin: estimate accuracy %g outside (0,1]", c.EstimateAccuracy)
	case c.LargeMemFraction < 0 || c.LargeMemFraction > 1:
		return fmt.Errorf("workload: lublin: large-memory fraction %g outside [0,1]", c.LargeMemFraction)
	case c.Users <= 0:
		return fmt.Errorf("workload: lublin: users %d <= 0", c.Users)
	}
	return nil
}

// dailyCycleWeights is the relative arrival intensity per hour of day
// (normalised at use); the shape follows the published daily cycle:
// low at night, ramp through the morning, peak in the afternoon.
var dailyCycleWeights = [24]float64{
	0.28, 0.22, 0.20, 0.19, 0.18, 0.20,
	0.30, 0.50, 0.75, 1.00, 1.15, 1.20,
	1.18, 1.22, 1.25, 1.20, 1.10, 0.95,
	0.85, 0.75, 0.62, 0.50, 0.40, 0.33,
}

// GenerateLublin produces a workload from the Lublin-Feitelson model.
// It is the materialising wrapper over LublinStream: pulling a fresh
// stream cfg.Jobs times yields the identical job sequence.
func GenerateLublin(cfg LublinConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := NewLublinStream(cfg)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("lublin(n=%d,seed=%d)", cfg.Jobs, cfg.Seed)
	return drainStream(name, "lublin generator", cfg.Jobs, st.Next)
}

// lublinSize draws a job width: two-stage log-uniform, snapped to a
// power of two with probability Pow2Prob.
func lublinSize(r *stats.RNG, cfg *LublinConfig) int {
	var l float64
	if r.Float64() < cfg.UProb {
		l = cfg.ULow + r.Float64()*(cfg.UMed-cfg.ULow)
	} else {
		l = cfg.UMed + r.Float64()*(cfg.UHi-cfg.UMed)
	}
	n := int(math.Round(math.Pow(2, l)))
	if r.Float64() < cfg.Pow2Prob {
		n = 1 << int(math.Round(l))
	}
	if n < 1 {
		n = 1
	}
	if n > cfg.MaxNodes {
		n = cfg.MaxNodes
	}
	return n
}

// lublinRuntime draws a runtime from the size-dependent hyper-Gamma.
func lublinRuntime(r *stats.RNG, cfg *LublinConfig, nodes int) int64 {
	p := cfg.PA*float64(nodes) + cfg.PB
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	hg := stats.HyperGamma{
		Low:  stats.Gamma{Alpha: cfg.A1, Theta: cfg.B1},
		High: stats.Gamma{Alpha: cfg.A2, Theta: cfg.B2},
		P:    p,
	}
	rt := int64(hg.Sample(r))
	if rt < 1 {
		rt = 1
	}
	if rt > cfg.MaxRuntime {
		rt = cfg.MaxRuntime
	}
	return rt
}

// MustGenerateLublin is GenerateLublin, panicking on error.
func MustGenerateLublin(cfg LublinConfig) *Workload {
	w, err := GenerateLublin(cfg)
	if err != nil {
		panic(err)
	}
	return w
}
