package workload

import (
	"math"
	"testing"
)

func TestGenerateValidAndDeterministic(t *testing.T) {
	cfg := DefaultGenConfig(500, 7, 256)
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != 500 {
		t.Fatalf("generated %d jobs, want 500", len(a.Jobs))
	}
	for i := range a.Jobs {
		if *a.Jobs[i] != *b.Jobs[i] {
			t.Fatalf("same seed diverged at job %d: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	c := MustGenerate(DefaultGenConfig(500, 8, 256))
	same := 0
	for i := range a.Jobs {
		if a.Jobs[i].BaseRuntime == c.Jobs[i].BaseRuntime {
			same++
		}
	}
	if same == len(a.Jobs) {
		t.Fatal("different seeds produced identical runtimes")
	}
}

func TestGenerateEnvelopes(t *testing.T) {
	cfg := DefaultGenConfig(3000, 11, 128)
	w := MustGenerate(cfg)
	for _, j := range w.Jobs {
		if j.Nodes < 1 || j.Nodes > cfg.MaxNodes {
			t.Fatalf("job %d: nodes %d outside [1,%d]", j.ID, j.Nodes, cfg.MaxNodes)
		}
		if j.BaseRuntime < 1 || j.BaseRuntime > cfg.MaxRuntime {
			t.Fatalf("job %d: runtime %d outside [1,%d]", j.ID, j.BaseRuntime, cfg.MaxRuntime)
		}
		if j.MemPerNode < 1 || j.MemPerNode > cfg.MaxMemPerNode {
			t.Fatalf("job %d: mem %d outside [1,%d]", j.ID, j.MemPerNode, cfg.MaxMemPerNode)
		}
		if j.Estimate < j.BaseRuntime {
			t.Fatalf("job %d: estimate %d < runtime %d (would be killed instantly)",
				j.ID, j.Estimate, j.BaseRuntime)
		}
		if j.Estimate%cfg.EstimateQuantum != 0 {
			t.Fatalf("job %d: estimate %d not a multiple of quantum %d",
				j.ID, j.Estimate, cfg.EstimateQuantum)
		}
		if j.User < 0 || j.User >= cfg.Users {
			t.Fatalf("job %d: user %d outside [0,%d)", j.ID, j.User, cfg.Users)
		}
	}
}

func TestGenerateInterarrivalMean(t *testing.T) {
	cfg := DefaultGenConfig(20000, 3, 64)
	cfg.DiurnalAmplitude = 0 // isolate the Weibull mean
	w := MustGenerate(cfg)
	first, last := w.Span()
	gap := float64(last-first) / float64(len(w.Jobs)-1)
	if math.Abs(gap-cfg.MeanInterarrival)/cfg.MeanInterarrival > 0.1 {
		t.Fatalf("mean inter-arrival %.1f s, want ~%.1f", gap, cfg.MeanInterarrival)
	}
}

func TestGenerateAccuracySteering(t *testing.T) {
	// Higher configured accuracy must produce tighter estimates.
	loose := DefaultGenConfig(4000, 5, 64)
	loose.EstimateAccuracy = 0.2
	tight := DefaultGenConfig(4000, 5, 64)
	tight.EstimateAccuracy = 0.9
	accMean := func(w *Workload) float64 {
		var sum float64
		for _, j := range w.Jobs {
			sum += j.Accuracy()
		}
		return sum / float64(len(w.Jobs))
	}
	la, ta := accMean(MustGenerate(loose)), accMean(MustGenerate(tight))
	if la >= ta {
		t.Fatalf("accuracy not steered: loose %.3f >= tight %.3f", la, ta)
	}
	if ta < 0.5 {
		t.Fatalf("tight config mean accuracy %.3f, want > 0.5", ta)
	}
}

func TestGenerateMemoryBimodal(t *testing.T) {
	cfg := DefaultGenConfig(5000, 9, 64)
	w := MustGenerate(cfg)
	large := 0
	for _, j := range w.Jobs {
		if j.MemPerNode > 64*1024 {
			large++
		}
	}
	frac := float64(large) / float64(len(w.Jobs))
	// The large-memory mode is 18% of jobs; its lower truncation is
	// 32 GiB so a bit more than half of it exceeds 64 GiB.
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("large-memory fraction %.3f outside plausible [0.08,0.25]", frac)
	}
}

func TestGenerateSerialFraction(t *testing.T) {
	cfg := DefaultGenConfig(5000, 13, 256)
	w := MustGenerate(cfg)
	serial := 0
	for _, j := range w.Jobs {
		if j.Nodes == 1 {
			serial++
		}
	}
	frac := float64(serial) / float64(len(w.Jobs))
	// SerialFraction direct mass (0.25) plus the smallest Zipf class.
	if frac < 0.25 || frac > 0.75 {
		t.Fatalf("serial fraction %.3f outside [0.25,0.75]", frac)
	}
}

func TestGenerateValidateErrors(t *testing.T) {
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.Jobs = 0 },
		func(c *GenConfig) { c.MeanInterarrival = 0 },
		func(c *GenConfig) { c.ArrivalBurstiness = -1 },
		func(c *GenConfig) { c.DiurnalAmplitude = 1 },
		func(c *GenConfig) { c.MaxNodes = 0 },
		func(c *GenConfig) { c.MaxRuntime = 0 },
		func(c *GenConfig) { c.MaxMemPerNode = 0 },
		func(c *GenConfig) { c.EstimateAccuracy = 0 },
		func(c *GenConfig) { c.EstimateAccuracy = 1.5 },
		func(c *GenConfig) { c.LargeMemFraction = 1.5 },
		func(c *GenConfig) { c.LargeMemFraction = -0.1 },
		func(c *GenConfig) { c.Users = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultGenConfig(10, 1, 8)
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateDiurnalCycleThinsNight(t *testing.T) {
	// With a strong diurnal cycle, more jobs must land in the "day"
	// half-phase (sin > 0) than the "night" half.
	cfg := DefaultGenConfig(20000, 17, 64)
	cfg.DiurnalAmplitude = 0.9
	w := MustGenerate(cfg)
	day := 0
	for _, j := range w.Jobs {
		if j.Submit%86400 < 43200 {
			day++
		}
	}
	frac := float64(day) / float64(len(w.Jobs))
	if frac < 0.55 {
		t.Fatalf("day-half fraction %.3f, want > 0.55 with amplitude 0.9", frac)
	}
}
