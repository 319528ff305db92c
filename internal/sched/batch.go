package sched

import (
	"fmt"
	"math"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/workload"
)

// BackfillMode selects the backfilling discipline of a Batch scheduler.
type BackfillMode int

const (
	// BackfillNone dispatches strictly in queue order; the first job
	// that cannot start blocks everything behind it.
	BackfillNone BackfillMode = iota
	// BackfillEASY lets later jobs jump ahead if they do not delay the
	// queue head's reservation (aggressive backfilling).
	BackfillEASY
	// BackfillConservative lets jobs jump ahead only if they delay no
	// earlier job's reservation.
	BackfillConservative
)

// String implements fmt.Stringer.
func (m BackfillMode) String() string {
	switch m {
	case BackfillNone:
		return "none"
	case BackfillEASY:
		return "easy"
	case BackfillConservative:
		return "conservative"
	default:
		return fmt.Sprintf("backfill(%d)", int(m))
	}
}

// Batch composes a queue order, a backfill discipline, and a placement
// policy into a scheduler. It is the chassis for every policy in the
// evaluation; the memory-aware contribution plugs in as the Placer.
type Batch struct {
	// PolicyName overrides the derived name when non-empty.
	PolicyName string
	Order      Order
	Backfill   BackfillMode
	Placer     Placer
	// MaxBackfillScan caps how many queued jobs one EASY pass examines
	// behind the head (0 = all). Production schedulers cap this to
	// bound pass latency.
	MaxBackfillScan int
	// MaxReservations caps conservative planning depth (0 = 128).
	MaxReservations int
	// SpillPatience delays spilling: a job that would be placed with
	// dilation > 1 while younger than this many seconds keeps waiting
	// for local capacity instead (0 disables). Jobs past their
	// patience spill normally, so nothing starves.
	SpillPatience int64
	// MaxPerUser caps concurrently running jobs per user (0 =
	// unlimited); throttled jobs are skipped, not treated as blocking.
	MaxPerUser int

	// Per-pass scratch, reused across passes so the steady-state pass
	// allocates nothing: the sorted queue copy (orders other than FCFS
	// only), the dispatch list Pass returns (valid until the next Pass,
	// see Scheduler), and the conservative planning profile. A Batch
	// instance is owned by one run at a time (see sim.Resume).
	qScratch   []Queued
	outScratch []Dispatch
	prof       Profile
}

// tryPlan applies the chassis-level admission knobs around the
// placement policy; free is the machine's free node count. blocking
// reports whether a nil plan represents a genuine resource block (an
// EASY head candidate) rather than a policy choice to skip this job for
// now. A job wider than free is a block without consulting the placer:
// a plan occupies exactly job.Nodes free nodes (see Placer), so Plan
// would return nil.
func (b *Batch) tryPlan(ctx *Context, e Queued, free int) (plan *Plan, blocking bool) {
	job := e.Job
	if b.MaxPerUser > 0 && ctx.RunningOfUser(job.User) >= b.MaxPerUser {
		return nil, false
	}
	if e.Nodes > free {
		return nil, true
	}
	p := b.Placer.Plan(job, ctx.Machine, ctx.Model)
	if p == nil {
		return nil, true
	}
	if b.SpillPatience > 0 && p.Dilation > 1 && ctx.Now-job.Submit < b.SpillPatience {
		return nil, false
	}
	return p, false
}

// Name implements Scheduler.
func (b *Batch) Name() string {
	if b.PolicyName != "" {
		return b.PolicyName
	}
	return fmt.Sprintf("%s+%s+%s", b.Order.Name(), b.Backfill, b.Placer.Name())
}

// Feasible implements Scheduler by delegating to the placement policy.
func (b *Batch) Feasible(job *workload.Job, m *cluster.Machine, model memmodel.Model) bool {
	return b.Placer.Feasible(job, m, model)
}

// Pass implements Scheduler. The queue arrives in FCFS order (see
// Context.Queue), so an FCFS pass scans it in place; the other orders
// sort a copy. Every job needs at least one node, so a pass that starts
// with no node free, or whose scan runs the free count to zero, stops
// there: no later job could start.
func (b *Batch) Pass(ctx *Context) []Dispatch {
	if ctx.Machine.FreeNodes() == 0 {
		return b.outScratch[:0]
	}
	q := ctx.Queue
	if _, fcfs := b.Order.(FCFS); !fcfs {
		b.qScratch = append(b.qScratch[:0], ctx.Queue...)
		q = b.qScratch
		b.Order.Sort(ctx.Now, q)
	}
	var out []Dispatch
	switch b.Backfill {
	case BackfillConservative:
		out = b.passConservative(ctx, q)
	default:
		out = b.passEASY(ctx, q)
	}
	b.outScratch = out
	return out
}

// commit commits plan for job through the machine's allocation free
// list and returns the dispatch carrying the committed (machine-owned)
// copy. A commit failure is a planner bug, not a recoverable condition.
func commit(ctx *Context, job *workload.Job, plan *Plan) Dispatch {
	alloc, err := ctx.Machine.AllocateCopy(plan.Alloc)
	if err != nil {
		panic(fmt.Sprintf("sched: committing plan for job %d: %v", job.ID, err))
	}
	return Dispatch{Job: job, Plan: Plan{Alloc: alloc, Dilation: plan.Dilation}}
}

// passEASY handles both BackfillNone and BackfillEASY: dispatch in
// order until the first blocked job; with EASY, continue scanning and
// start any job that cannot delay the head's reservation.
//
// The backfill scan rejects a candidate from its queue entry, without
// loading the job or calling the placer, when either test below holds;
// both are exact, since the full test would reject it too:
//   - it is wider than the free node count, so Plan would return nil;
//   - it is wider than the nodes spare at the shadow and cannot end
//     before it: its limit is at least its estimate (see
//     Context.Limit), so with any plan it would run past the shadow on
//     more nodes than the head leaves over.
//
// Throttled and patient candidates are skipped whether or not they
// fit, so the order of these tests relative to tryPlan's knobs does not
// matter. MaxBackfillScan bounds the scan by index: a rejected entry
// counts as examined.
func (b *Batch) passEASY(ctx *Context, q []Queued) []Dispatch {
	out := b.outScratch[:0]
	free := ctx.Machine.FreeNodes()
	i := 0
	for ; i < len(q); i++ {
		plan, blocking := b.tryPlan(ctx, q[i], free)
		if plan == nil {
			if blocking {
				break
			}
			continue // throttled or patient: does not block the queue
		}
		out = append(out, commit(ctx, q[i].Job, plan))
		free = ctx.Machine.FreeNodes()
	}
	if b.Backfill == BackfillNone || i >= len(q) || free == 0 {
		return out
	}

	shadow, extraNodes, extraPool := b.headReservation(ctx, q[i].Job)
	end := len(q)
	if b.MaxBackfillScan > 0 && i+1+b.MaxBackfillScan < end {
		end = i + 1 + b.MaxBackfillScan
	}
	for j := i + 1; j < end && free > 0; j++ {
		e := q[j]
		if e.Nodes > free || (e.Nodes > extraNodes && ctx.Now+e.Estimate > shadow) {
			continue
		}
		plan, _ := b.tryPlan(ctx, e, free)
		if plan == nil {
			continue
		}
		cand := e.Job
		endsBeforeShadow := ctx.Now+ctx.Limit(cand, plan.Dilation) <= shadow
		remote := plan.Alloc.RemoteMiB()
		if !endsBeforeShadow && (e.Nodes > extraNodes || remote > extraPool) {
			continue
		}
		out = append(out, commit(ctx, cand, plan))
		free = ctx.Machine.FreeNodes()
		if !endsBeforeShadow {
			extraNodes -= e.Nodes
			extraPool -= remote
		}
	}
	return out
}

// headReservation computes the EASY shadow time for the blocked queue
// head — the earliest instant aggregate free nodes and pool memory
// cover the head's minimal needs — plus the extra capacity that will
// remain at that instant, which backfilled jobs running past the shadow
// may consume.
func (b *Batch) headReservation(ctx *Context, head *workload.Job) (shadow int64, extraNodes int, extraPool int64) {
	needNodes := head.Nodes
	needPool := RemoteNeed(head, ctx.Machine)

	freeNodes := ctx.Machine.FreeNodes()
	var freePool int64
	for _, p := range ctx.Machine.Pools() {
		freePool += p.FreeMiB()
	}
	if freeNodes >= needNodes && freePool >= needPool {
		// The head fits by aggregate counts but exact placement failed
		// (per-rack fragmentation). Treat now as the shadow.
		return ctx.Now, freeNodes - needNodes, freePool - needPool
	}

	for _, r := range ctx.ByEnd() {
		freeNodes += len(r.Alloc.Shares)
		freePool += r.Alloc.RemoteMiB()
		if freeNodes >= needNodes && freePool >= needPool {
			return r.GuaranteedEnd(), freeNodes - needNodes, freePool - needPool
		}
	}
	// Unsatisfiable even with everything free: the head is infeasible
	// for this machine (the engine rejects such jobs at submission, so
	// this is defensive). No backfill.
	return math.MaxInt64, 0, 0
}

// passConservative plans every queued job (up to MaxReservations) into
// an aggregate capacity profile, dispatching those whose reservation
// starts now and an exact placement exists.
func (b *Batch) passConservative(ctx *Context, q []Queued) []Dispatch {
	maxRes := b.MaxReservations
	if maxRes <= 0 {
		maxRes = 128
	}
	freeNodes := ctx.Machine.FreeNodes()
	var freePool int64
	for _, p := range ctx.Machine.Pools() {
		freePool += p.FreeMiB()
	}
	// Feeding releases in ascending end order keeps every AddRelease an
	// O(1) append to the profile tail instead of a mid-slice insert.
	prof := &b.prof
	prof.Reset(ctx.Now, freeNodes, freePool)
	for _, r := range ctx.ByEnd() {
		prof.AddRelease(r.GuaranteedEnd(), len(r.Alloc.Shares), r.Alloc.RemoteMiB())
	}

	out := b.outScratch[:0]
	for k, e := range q {
		if k >= maxRes || ctx.Machine.FreeNodes() == 0 {
			break
		}
		job := e.Job
		if b.MaxPerUser > 0 && ctx.RunningOfUser(job.User) >= b.MaxPerUser {
			continue // throttled: try again next pass, no reservation
		}
		needPool := RemoteNeed(job, ctx.Machine)
		dur := ctx.Limit(job, b.Placer.PlanDilation(job, ctx.Machine, ctx.Model))
		start := prof.EarliestFit(ctx.Now, dur, job.Nodes, needPool)
		if start == ctx.Now {
			if plan, _ := b.tryPlan(ctx, e, ctx.Machine.FreeNodes()); plan != nil {
				d := commit(ctx, job, plan)
				end := ctx.Now + ctx.Limit(job, plan.Dilation)
				prof.Reserve(ctx.Now, end, job.Nodes, d.Plan.Alloc.RemoteMiB())
				out = append(out, d)
				continue
			}
			// Aggregate capacity exists but the placement is
			// fragmented; hold the reservation at now so no later job
			// overtakes it (conservative guarantee).
		}
		if start < math.MaxInt64 {
			prof.Reserve(start, start+dur, job.Nodes, needPool)
		}
	}
	return out
}
