package dismem_test

// Plan-call budget: the EASY backfill scan rejects candidates that are
// too wide for the free nodes, or too wide for the nodes spare at the
// head's shadow and unable to end before it, from their queue entries,
// without asking the placer. On an overloaded run that takes Plan calls
// from ~27 per job (one per queued job behind the head, every pass) to
// ~1.1. The count is deterministic, so this test pins it in ordinary
// `go test ./...` without a clock: a scan that regresses to planning
// every queued job fails here.

import (
	"sync"
	"testing"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/memmodel"
	"dismem/internal/sched"
	"dismem/internal/workload"
)

const (
	planBudgetJobs = 5000
	// planCallsPerJob bounds Placer.Plan calls per job. Measured ~1.1
	// today.
	planCallsPerJob = 2.0
)

// countingPlacer counts Plan calls on the memaware placer.
type countingPlacer struct {
	*core.MemAware
	calls int
}

func (p *countingPlacer) Plan(job *workload.Job, m *cluster.Machine, model memmodel.Model) *sched.Plan {
	p.calls++
	return p.MemAware.Plan(job, m, model)
}

// planBudgetPlacer is the counting placer the last policy built from
// the registered factory; registerPlanBudget registers it once per
// process, so the test also runs under -count.
var (
	planBudgetPlacer   *countingPlacer
	registerPlanBudget = sync.OnceValue(func() error {
		return dismem.RegisterPlacer("plan-budget-memaware", func() dismem.Placer {
			planBudgetPlacer = &countingPlacer{MemAware: core.New()}
			return planBudgetPlacer
		})
	})
)

func TestPlanCallBudget(t *testing.T) {
	if err := registerPlanBudget(); err != nil {
		t.Fatal(err)
	}
	res, err := dismem.Simulate(dismem.Options{
		// memaware with the counting placer: the default dmsched run,
		// which the synthetic load overloads.
		Policy:   "order=fcfs backfill=easy placer=plan-budget-memaware",
		Model:    "bandwidth:1,1",
		Workload: dismem.SyntheticWorkload(planBudgetJobs, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Report.Jobs() + res.Report.Rejected; n != planBudgetJobs {
		t.Fatalf("%d of %d jobs terminated", n, planBudgetJobs)
	}
	placer := planBudgetPlacer
	perJob := float64(placer.calls) / planBudgetJobs
	t.Logf("%d Plan calls, %.2f per job", placer.calls, perJob)
	if perJob > planCallsPerJob {
		t.Errorf("EASY pass makes %.2f Plan calls per job (%d in all), budget %.1f: the backfill scan plans candidates it could reject from their queue entries",
			perJob, placer.calls, planCallsPerJob)
	}
}
