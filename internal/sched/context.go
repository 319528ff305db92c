// Package sched implements batch schedulers for the simulated machine:
// queue-ordering policies (FCFS, SJF, WFP, largest-first), backfilling
// (EASY and conservative), and placement policies (local-DRAM-only and
// disaggregation-oblivious spill). The disaggregation-aware placement
// policy — the paper's contribution — lives in internal/core and plugs
// into the same interfaces.
package sched

import (
	"sort"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/workload"
)

// RunningJob is the scheduler-visible state of a dispatched job.
type RunningJob struct {
	Job   *workload.Job
	Start int64
	// Limit is the job's wall-clock limit in seconds (the user estimate,
	// possibly extended for predicted dilation by the engine's limit
	// rule). Start+Limit is the latest instant the job can hold nodes.
	Limit int64
	Alloc *cluster.Allocation
}

// GuaranteedEnd returns the latest time the job's resources are held.
func (r *RunningJob) GuaranteedEnd() int64 { return r.Start + r.Limit }

// Queued is one pending job as the engine queues it: the job plus the
// keys the EASY backfill scan rejects candidates on, copied from the job
// when it is queued, so a rejected candidate costs no load of the job
// itself.
type Queued struct {
	Job      *workload.Job
	Nodes    int
	Estimate int64
}

// QueuedOf returns job's queue entry.
func QueuedOf(job *workload.Job) Queued {
	return Queued{Job: job, Nodes: job.Nodes, Estimate: job.Estimate}
}

// Context is everything a scheduler may consult during one pass. The
// machine is live: committing an allocation immediately updates it so
// later placements in the same pass see the new state.
type Context struct {
	Now     int64
	Machine *cluster.Machine
	Model   memmodel.Model
	// Queue holds the pending jobs' entries in FCFS order, ascending
	// (Submit, ID) (see CompareFCFS). It is read-only: the engine owns
	// it, so a scheduler with another queue policy orders a copy.
	Queue []Queued
	// RunningFn returns the dispatched jobs, unordered. Running calls
	// it at most once per pass, so a pass that never consults the
	// running set never materialises it.
	RunningFn func() []RunningJob
	// ExtendLimit mirrors the engine's limit rule: when true, a job
	// placed with predicted dilation D gets limit = ceil(estimate*D)
	// instead of estimate, and planners must reserve accordingly.
	ExtendLimit bool
	// ByEndFn, when set by the engine, returns Running sorted by
	// (GuaranteedEnd, JobID) from incrementally maintained state, so a
	// pass never re-sorts the running set. ByEnd falls back to sorting
	// a copy when it is nil.
	ByEndFn func() []RunningJob

	running      []RunningJob
	runningValid bool
	userRunning  map[int]int
	userBuilt    bool
	byEnd        []RunningJob
	byEndValid   bool
}

// Reset clears the per-pass memoized state (the lazy running set,
// per-user counts and ByEnd view) so one Context value can be reused
// across passes without reallocating its internals. The exported
// fields are left for the caller to refill.
func (c *Context) Reset() {
	c.running = nil
	c.runningValid = false
	clear(c.userRunning)
	c.userBuilt = false
	c.byEnd = nil
	c.byEndValid = false
}

// Running returns the dispatched jobs, unordered (nil when RunningFn
// is unset). The view is computed at most once per Context.
func (c *Context) Running() []RunningJob {
	if !c.runningValid {
		if c.RunningFn != nil {
			c.running = c.RunningFn()
		}
		c.runningValid = true
	}
	return c.running
}

// RunningOfUser returns how many jobs of user are in the Running
// view (jobs dispatched during the current pass are not counted).
// The per-user counts are built once per pass, so per-job throttling
// checks are O(1) instead of O(running).
func (c *Context) RunningOfUser(user int) int {
	if !c.userBuilt {
		running := c.Running()
		if c.userRunning == nil {
			c.userRunning = make(map[int]int, len(running))
		}
		for i := range running {
			c.userRunning[running[i].Job.User]++
		}
		c.userBuilt = true
	}
	return c.userRunning[user]
}

// ByEnd returns the running jobs sorted by (GuaranteedEnd, JobID), the
// order reservation planners consume releases in. The view is computed
// at most once per Context.
func (c *Context) ByEnd() []RunningJob {
	if c.byEndValid {
		return c.byEnd
	}
	if c.ByEndFn != nil {
		c.byEnd = c.ByEndFn()
	} else {
		c.byEnd = append([]RunningJob(nil), c.Running()...)
		sort.Slice(c.byEnd, func(i, j int) bool {
			ei, ej := c.byEnd[i].GuaranteedEnd(), c.byEnd[j].GuaranteedEnd()
			if ei != ej {
				return ei < ej
			}
			return c.byEnd[i].Job.ID < c.byEnd[j].Job.ID
		})
	}
	c.byEndValid = true
	return c.byEnd
}

// Limit returns the wall-clock limit the engine will assign to job if
// started now with predicted dilation. It is never below job.Estimate,
// whatever the dilation: the EASY backfill scan relies on that to
// reject a candidate from its queue entry alone.
func (c *Context) Limit(job *workload.Job, dilation float64) int64 {
	if !c.ExtendLimit || dilation <= 1 {
		return job.Estimate
	}
	l := int64(float64(job.Estimate)*dilation + 0.999999)
	if l < job.Estimate {
		l = job.Estimate
	}
	return l
}

// Dispatch is one job started during a pass; its allocation is already
// committed to the machine. Plan.Alloc is the committed allocation (the
// machine-owned copy when the scheduler commits via AllocateCopy), so
// it stays valid for the job's whole residency even when the placer
// recycles its planning scratch.
type Dispatch struct {
	Job  *workload.Job
	Plan Plan
}

// Scheduler examines the queue and starts jobs. Pass commits the
// allocations of returned dispatches to ctx.Machine before returning.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Pass runs one scheduling cycle and returns the started jobs in
	// dispatch order. The returned slice may be scheduler-owned scratch,
	// valid only until the next Pass call; callers that need it longer
	// must copy it.
	Pass(ctx *Context) []Dispatch
	// Feasible reports whether job could ever run on an idle machine m
	// under the given memory model; the engine rejects infeasible jobs
	// at submission so they cannot block the queue forever.
	Feasible(job *workload.Job, m *cluster.Machine, model memmodel.Model) bool
}
