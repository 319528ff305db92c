package workload

import (
	"math"
	"testing"
)

func TestLublinValidAndDeterministic(t *testing.T) {
	cfg := DefaultLublinConfig(800, 3, 256)
	a := MustGenerateLublin(cfg)
	b := MustGenerateLublin(cfg)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != 800 {
		t.Fatalf("generated %d jobs, want 800", len(a.Jobs))
	}
	for i := range a.Jobs {
		if *a.Jobs[i] != *b.Jobs[i] {
			t.Fatalf("same seed diverged at job %d", i)
		}
	}
}

func TestLublinEnvelopes(t *testing.T) {
	cfg := DefaultLublinConfig(3000, 7, 128)
	w := MustGenerateLublin(cfg)
	for _, j := range w.Jobs {
		if j.Nodes < 1 || j.Nodes > cfg.MaxNodes {
			t.Fatalf("job %d: nodes %d outside [1,%d]", j.ID, j.Nodes, cfg.MaxNodes)
		}
		if j.BaseRuntime < 1 || j.BaseRuntime > cfg.MaxRuntime {
			t.Fatalf("job %d: runtime %d outside bounds", j.ID, j.BaseRuntime)
		}
		if j.Estimate < j.BaseRuntime {
			t.Fatalf("job %d: estimate below runtime", j.ID)
		}
		if j.MemPerNode < 1 || j.MemPerNode > cfg.MaxMemPerNode {
			t.Fatalf("job %d: memory %d outside bounds", j.ID, j.MemPerNode)
		}
	}
}

func TestLublinSizeDependentRuntimes(t *testing.T) {
	// The mixing probability p = PA*nodes + PB falls with size, so
	// wide jobs draw from the long-runtime component more often: mean
	// runtime of wide jobs must exceed that of serial jobs.
	cfg := DefaultLublinConfig(20000, 11, 256)
	w := MustGenerateLublin(cfg)
	var narrow, wide struct {
		sum float64
		n   int
	}
	for _, j := range w.Jobs {
		if j.Nodes <= 2 {
			narrow.sum += float64(j.BaseRuntime)
			narrow.n++
		} else if j.Nodes >= 64 {
			wide.sum += float64(j.BaseRuntime)
			wide.n++
		}
	}
	if narrow.n == 0 || wide.n == 0 {
		t.Fatalf("size strata empty: %d narrow, %d wide", narrow.n, wide.n)
	}
	if wide.sum/float64(wide.n) <= narrow.sum/float64(narrow.n) {
		t.Fatalf("wide jobs (%0.f s) not longer than narrow (%0.f s)",
			wide.sum/float64(wide.n), narrow.sum/float64(narrow.n))
	}
}

func TestLublinDailyCycle(t *testing.T) {
	cfg := DefaultLublinConfig(30000, 13, 64)
	w := MustGenerateLublin(cfg)
	// Working hours (9-17) must receive clearly more arrivals than the
	// small hours (1-5).
	var day, night int
	for _, j := range w.Jobs {
		h := (j.Submit % 86400) / 3600
		switch {
		case h >= 9 && h < 17:
			day++
		case h >= 1 && h < 5:
			night++
		}
	}
	// Normalise per hour: 8 day hours vs 4 night hours.
	dayRate, nightRate := float64(day)/8, float64(night)/4
	if dayRate < 1.5*nightRate {
		t.Fatalf("daily cycle too flat: day %.0f/h vs night %.0f/h", dayRate, nightRate)
	}
}

func TestLublinMeanInterarrival(t *testing.T) {
	cfg := DefaultLublinConfig(20000, 17, 64)
	w := MustGenerateLublin(cfg)
	first, last := w.Span()
	gap := float64(last-first) / float64(len(w.Jobs)-1)
	// The cycle modulation preserves the mean within sampling noise.
	if math.Abs(gap-cfg.MeanInterarrival)/cfg.MeanInterarrival > 0.15 {
		t.Fatalf("mean inter-arrival %.1f, want ~%.1f", gap, cfg.MeanInterarrival)
	}
}

func TestLublinValidateErrors(t *testing.T) {
	bad := []func(*LublinConfig){
		func(c *LublinConfig) { c.Jobs = 0 },
		func(c *LublinConfig) { c.MaxNodes = 0 },
		func(c *LublinConfig) { c.UHi = c.ULow - 1 },
		func(c *LublinConfig) { c.UProb = 2 },
		func(c *LublinConfig) { c.Pow2Prob = -0.1 },
		func(c *LublinConfig) { c.A1 = 0 },
		func(c *LublinConfig) { c.MaxRuntime = 0 },
		func(c *LublinConfig) { c.MeanInterarrival = 0 },
		func(c *LublinConfig) { c.EstimateAccuracy = 0 },
		func(c *LublinConfig) { c.LargeMemFraction = 1.5 },
		func(c *LublinConfig) { c.LargeMemFraction = -0.1 },
		func(c *LublinConfig) { c.Users = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultLublinConfig(10, 1, 8)
		mutate(&cfg)
		if _, err := GenerateLublin(cfg); err == nil {
			t.Errorf("bad lublin config %d accepted", i)
		}
	}
}

func TestLublinPowerOfTwoEmphasis(t *testing.T) {
	cfg := DefaultLublinConfig(20000, 19, 256)
	w := MustGenerateLublin(cfg)
	pow2 := 0
	for _, j := range w.Jobs {
		if j.Nodes&(j.Nodes-1) == 0 {
			pow2++
		}
	}
	frac := float64(pow2) / float64(len(w.Jobs))
	// Rounded log-uniform sizes plus the explicit 24% snap give a
	// clear power-of-two excess over the ~3% a uniform draw would give.
	if frac < 0.3 {
		t.Fatalf("power-of-two fraction %.2f, want > 0.3", frac)
	}
}
