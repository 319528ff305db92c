package queueing

import (
	"math"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/sched"
	"dismem/internal/sim"
	"dismem/internal/stats"
	"dismem/internal/workload"
)

func TestErlangCKnownValues(t *testing.T) {
	// Classic tabulated case: c=2, a=1 (rho=0.5) → C = 1/3.
	q := MMc{Lambda: 1, Mu: 1, C: 2}
	if got := q.ErlangC(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("ErlangC(c=2,a=1) = %g, want 1/3", got)
	}
	// M/M/1: C equals rho.
	q1 := MMc{Lambda: 0.7, Mu: 1, C: 1}
	if got := q1.ErlangC(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("ErlangC(M/M/1, rho=0.7) = %g, want 0.7", got)
	}
}

func TestMMcMeanWaitMM1ClosedForm(t *testing.T) {
	// M/M/1: W_q = rho/(mu-lambda).
	q := MMc{Lambda: 0.5, Mu: 1, C: 1}
	want := 0.5 / (1 - 0.5)
	if got := q.MeanWait(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanWait = %g, want %g", got, want)
	}
}

func TestMMcValidate(t *testing.T) {
	bad := []MMc{
		{Lambda: 0, Mu: 1, C: 1},
		{Lambda: 1, Mu: 0, C: 1},
		{Lambda: 1, Mu: 1, C: 0},
		{Lambda: 2, Mu: 1, C: 1}, // unstable
	}
	for _, q := range bad {
		if q.Validate() == nil {
			t.Errorf("invalid queue %+v accepted", q)
		}
		if !math.IsNaN(q.ErlangC()) || !math.IsNaN(q.MeanWait()) {
			t.Errorf("invalid queue %+v returned non-NaN predictions", q)
		}
	}
}

// TestSimulatorMatchesErlangC is the simulator-validation experiment in
// unit-test form: exponential single-node jobs under FCFS on a small
// machine must reproduce the analytic M/M/c mean wait within sampling
// tolerance.
func TestSimulatorMatchesErlangC(t *testing.T) {
	const (
		nodes   = 4
		meanSvc = 1000.0
		rho     = 0.8
		jobs    = 40000
		seeds   = 3
		tol     = 0.08 // relative, on the pooled mean
	)
	lambda := rho * nodes / meanSvc
	q := MMc{Lambda: lambda, Mu: 1 / meanSvc, C: nodes}
	want := q.MeanWait()

	// Queue waits are heavily autocorrelated at rho=0.8, so one run's
	// mean is noisy; pool several independent seeds.
	var pooled, n float64
	for seed := uint64(1); seed <= seeds; seed++ {
		// Build the memoryless workload directly (the calibrated
		// generator is deliberately NOT memoryless).
		rng := stats.NewRNG(4242 * seed)
		w := &workload.Workload{Name: "mmc"}
		now := 0.0
		for i := 1; i <= jobs; i++ {
			now += rng.ExpFloat64() / lambda
			rt := int64(rng.ExpFloat64()*meanSvc) + 1
			w.Jobs = append(w.Jobs, &workload.Job{
				ID: i, Submit: int64(now), Nodes: 1, MemPerNode: 1,
				// Exact estimates so nothing is killed and FCFS order
				// is unaffected by estimate noise.
				Estimate: rt, BaseRuntime: rt,
			})
		}
		res, err := sim.Run(sim.Config{
			Machine: cluster.Config{
				Racks: 1, NodesPerRack: nodes, CoresPerNode: 1, LocalMemMiB: 10,
				Topology: cluster.TopologyNone,
			},
			Model: memmodel.Linear{Beta: 0},
			Scheduler: &sched.Batch{
				Order: sched.FCFS{}, Backfill: sched.BackfillNone, Placer: sched.LocalOnly{},
			},
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		pooled += res.Report.Wait.Sum()
		n += float64(res.Report.Wait.N())
	}
	got := pooled / n
	if rel := math.Abs(got-want) / want; rel > tol {
		t.Fatalf("simulated mean wait %.1f vs Erlang-C %.1f (rel err %.3f > %.2f)",
			got, want, rel, tol)
	}
}
