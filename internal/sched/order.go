package sched

import (
	"cmp"
	"math"
	"slices"
)

// Order is a queue-ordering policy. Sort must be deterministic: all
// comparisons fall back to job ID so equal-priority jobs keep arrival
// order.
//
// Because every comparator below is a strict total order (the job-ID
// tiebreak leaves no equal pairs), the sorted permutation is unique and
// slices.SortFunc — unstable but allocation-free — produces exactly the
// ordering the historical sort.SliceStable implementation did.
type Order interface {
	// Name identifies the policy.
	Name() string
	// Sort orders queue entries in place, highest scheduling priority
	// first.
	Sort(now int64, q []Queued)
}

// FCFS orders by (submit time, id) — first come, first served.
type FCFS struct{}

// Name implements Order.
func (FCFS) Name() string { return "fcfs" }

// Sort implements Order.
func (FCFS) Sort(_ int64, q []Queued) { slices.SortFunc(q, CompareFCFS) }

// CompareFCFS orders queue entries by their jobs' (submit time, id):
// the FCFS priority order, and the order the engine keeps its pending
// queue in (see Context.Queue).
func CompareFCFS(a, b Queued) int {
	if a.Job.Submit != b.Job.Submit {
		return cmp.Compare(a.Job.Submit, b.Job.Submit)
	}
	return cmp.Compare(a.Job.ID, b.Job.ID)
}

// SJF orders by shortest walltime estimate first. Classic
// utilization-friendly, starvation-prone policy; used as an ablation.
type SJF struct{}

// Name implements Order.
func (SJF) Name() string { return "sjf" }

// Sort implements Order.
func (SJF) Sort(_ int64, q []Queued) {
	slices.SortFunc(q, func(a, b Queued) int {
		if a.Estimate != b.Estimate {
			return cmp.Compare(a.Estimate, b.Estimate)
		}
		return cmp.Compare(a.Job.ID, b.Job.ID)
	})
}

// LargestFirst orders by node request, widest job first — the
// "leadership computing" policy that prioritises capability jobs.
type LargestFirst struct{}

// Name implements Order.
func (LargestFirst) Name() string { return "largest" }

// Sort implements Order.
func (LargestFirst) Sort(_ int64, q []Queued) {
	slices.SortFunc(q, func(a, b Queued) int {
		if a.Nodes != b.Nodes {
			return cmp.Compare(b.Nodes, a.Nodes)
		}
		return cmp.Compare(a.Job.ID, b.Job.ID)
	})
}

// WFP is the ALCF-style utility policy favouring large and old jobs:
// score = nodes * (wait/estimate)^3, highest first.
type WFP struct{}

// Name implements Order.
func (WFP) Name() string { return "wfp" }

// Sort implements Order.
func (WFP) Sort(now int64, q []Queued) {
	score := func(e Queued) float64 {
		wait := float64(now - e.Job.Submit)
		if wait < 0 {
			wait = 0
		}
		return float64(e.Nodes) * math.Pow(wait/float64(e.Estimate), 3)
	}
	slices.SortFunc(q, func(a, b Queued) int {
		sa, sb := score(a), score(b)
		if sa != sb {
			return cmp.Compare(sb, sa)
		}
		return cmp.Compare(a.Job.ID, b.Job.ID)
	})
}
