package sched

import (
	"testing"

	"dismem/internal/workload"
)

func jobsForOrder() []Queued {
	return queueOf([]*workload.Job{
		{ID: 1, Submit: 100, Nodes: 4, Estimate: 1000, BaseRuntime: 500},
		{ID: 2, Submit: 50, Nodes: 16, Estimate: 100, BaseRuntime: 50},
		{ID: 3, Submit: 200, Nodes: 1, Estimate: 5000, BaseRuntime: 2000},
		{ID: 4, Submit: 50, Nodes: 2, Estimate: 100, BaseRuntime: 80},
	})
}

// queueOf returns the queue entries of jobs, in the given order.
func queueOf(jobs []*workload.Job) []Queued {
	q := make([]Queued, len(jobs))
	for i, j := range jobs {
		q[i] = QueuedOf(j)
	}
	return q
}

// runningOf returns a RunningFn serving a fixed running set.
func runningOf(running []RunningJob) func() []RunningJob {
	return func() []RunningJob { return running }
}

func ids(q []Queued) []int {
	out := make([]int, len(q))
	for i, e := range q {
		out[i] = e.Job.ID
	}
	return out
}

func equalIDs(a []int, b ...int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFCFSOrder(t *testing.T) {
	q := jobsForOrder()
	FCFS{}.Sort(300, q)
	if got := ids(q); !equalIDs(got, 2, 4, 1, 3) {
		t.Fatalf("FCFS order = %v, want [2 4 1 3] (submit, then id)", got)
	}
}

func TestSJFOrder(t *testing.T) {
	q := jobsForOrder()
	SJF{}.Sort(300, q)
	if got := ids(q); !equalIDs(got, 2, 4, 1, 3) {
		t.Fatalf("SJF order = %v, want [2 4 1 3] (estimate, then id)", got)
	}
}

func TestLargestFirstOrder(t *testing.T) {
	q := jobsForOrder()
	LargestFirst{}.Sort(300, q)
	if got := ids(q); !equalIDs(got, 2, 1, 4, 3) {
		t.Fatalf("LargestFirst order = %v, want [2 1 4 3]", got)
	}
}

func TestWFPOrder(t *testing.T) {
	// At now=1050: job2 has wait 1000, estimate 100 → (10)^3*16 huge;
	// job3 wait 850/5000 → tiny. Large old short-estimate jobs first.
	q := jobsForOrder()
	WFP{}.Sort(1050, q)
	if got := ids(q); got[0] != 2 {
		t.Fatalf("WFP order = %v, want job 2 first", got)
	}
	// Jobs never waiting get score 0 and keep ID order among ties.
	q2 := queueOf([]*workload.Job{
		{ID: 5, Submit: 1050, Nodes: 4, Estimate: 100},
		{ID: 6, Submit: 1050, Nodes: 9, Estimate: 100},
	})
	WFP{}.Sort(1050, q2)
	if got := ids(q2); !equalIDs(got, 5, 6) {
		t.Fatalf("WFP tie order = %v, want [5 6]", got)
	}
}

func TestWFPNegativeWaitClamped(t *testing.T) {
	// A job "arriving in the future" (clock skew) must not produce NaN
	// or panic; it sorts as zero-score.
	q := queueOf([]*workload.Job{
		{ID: 1, Submit: 2000, Nodes: 4, Estimate: 100},
		{ID: 2, Submit: 0, Nodes: 4, Estimate: 100},
	})
	WFP{}.Sort(1000, q)
	if got := ids(q); !equalIDs(got, 2, 1) {
		t.Fatalf("WFP with future submit = %v, want [2 1]", got)
	}
}

func TestOrderNames(t *testing.T) {
	for _, o := range []Order{FCFS{}, SJF{}, LargestFirst{}, WFP{}} {
		if o.Name() == "" {
			t.Errorf("%T has empty name", o)
		}
	}
}

func TestOrderStability(t *testing.T) {
	// Identical jobs (same keys) must keep their relative order.
	q := queueOf([]*workload.Job{
		{ID: 1, Submit: 10, Nodes: 2, Estimate: 100},
		{ID: 2, Submit: 10, Nodes: 2, Estimate: 100},
		{ID: 3, Submit: 10, Nodes: 2, Estimate: 100},
	})
	for _, o := range []Order{FCFS{}, SJF{}, LargestFirst{}, WFP{}} {
		o.Sort(500, q)
		if got := ids(q); !equalIDs(got, 1, 2, 3) {
			t.Fatalf("%s broke tie stability: %v", o.Name(), got)
		}
	}
}
