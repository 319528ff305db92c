package sched_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/memmodel"
	"dismem/internal/sched"
	"dismem/internal/workload"
)

// This file pins the Batch pass against a reference copy of the
// straightforward algorithm it replaced: copy the queue, sort it with
// the Order, and ask the placer for a plan for every candidate, reading
// nothing but the jobs themselves. The production pass scans an FCFS
// queue in place, treats a job wider than the free node count as
// blocked without calling Plan, stops once no node is free, and rejects
// backfill candidates from their queue entries' keys; none of that may
// change a decision.

// refCoverage counts the reference's backfill candidates that exercise
// the production pass's shortcuts, so the test can insist each one is
// actually hit.
type refCoverage struct {
	tooWide      int // wider than the free node count
	pastShadow   int // fits now, too wide for the spare nodes, ends past the shadow
	tooWideInCap int // too wide, inside a MaxBackfillScan window
	extended     int // planned with dilation > 1 under ExtendLimit
}

// refPass is the reference pass.
func refPass(b *sched.Batch, ctx *sched.Context, cov *refCoverage) []sched.Dispatch {
	entries := slices.Clone(ctx.Queue)
	b.Order.Sort(ctx.Now, entries)
	q := make([]*workload.Job, len(entries))
	for i, e := range entries {
		q[i] = e.Job
	}
	if b.Backfill == sched.BackfillConservative {
		return refConservative(b, ctx, q)
	}
	return refEASY(b, ctx, q, cov)
}

func refTryPlan(b *sched.Batch, ctx *sched.Context, job *workload.Job) (*sched.Plan, bool) {
	if b.MaxPerUser > 0 && ctx.RunningOfUser(job.User) >= b.MaxPerUser {
		return nil, false
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

func refCommit(ctx *sched.Context, job *workload.Job, plan *sched.Plan) sched.Dispatch {
	alloc, err := ctx.Machine.AllocateCopy(plan.Alloc)
	if err != nil {
		panic(fmt.Sprintf("reference commit of job %d: %v", job.ID, err))
	}
	return sched.Dispatch{Job: job, Plan: sched.Plan{Alloc: alloc, Dilation: plan.Dilation}}
}

func refEASY(b *sched.Batch, ctx *sched.Context, q []*workload.Job, cov *refCoverage) []sched.Dispatch {
	var out []sched.Dispatch
	i := 0
	for ; i < len(q); i++ {
		plan, blocking := refTryPlan(b, ctx, q[i])
		if plan == nil {
			if blocking {
				break
			}
			continue
		}
		out = append(out, refCommit(ctx, q[i], plan))
	}
	if b.Backfill == sched.BackfillNone || i >= len(q) {
		return out
	}
	shadow, extraNodes, extraPool := refHeadReservation(ctx, q[i])
	scanned := 0
	for j := i + 1; j < len(q); j++ {
		if b.MaxBackfillScan > 0 && scanned >= b.MaxBackfillScan {
			break
		}
		scanned++
		cand := q[j]
		free := ctx.Machine.FreeNodes()
		switch {
		case cand.Nodes > free:
			cov.tooWide++
			if b.MaxBackfillScan > 0 {
				cov.tooWideInCap++
			}
		case cand.Nodes > extraNodes && ctx.Now+cand.Estimate > shadow:
			cov.pastShadow++
		}
		plan, _ := refTryPlan(b, ctx, cand)
		if plan == nil {
			continue
		}
		if ctx.ExtendLimit && plan.Dilation > 1 {
			cov.extended++
		}
		endsBeforeShadow := ctx.Now+ctx.Limit(cand, plan.Dilation) <= shadow
		remote := plan.Alloc.RemoteMiB()
		if !endsBeforeShadow && (cand.Nodes > extraNodes || remote > extraPool) {
			continue
		}
		out = append(out, refCommit(ctx, cand, plan))
		if !endsBeforeShadow {
			extraNodes -= cand.Nodes
			extraPool -= remote
		}
	}
	return out
}

func refHeadReservation(ctx *sched.Context, head *workload.Job) (int64, int, int64) {
	needNodes := head.Nodes
	needPool := sched.RemoteNeed(head, ctx.Machine)
	freeNodes := ctx.Machine.FreeNodes()
	var freePool int64
	for _, p := range ctx.Machine.Pools() {
		freePool += p.FreeMiB()
	}
	if freeNodes >= needNodes && freePool >= needPool {
		return ctx.Now, freeNodes - needNodes, freePool - needPool
	}
	for _, r := range ctx.ByEnd() {
		freeNodes += len(r.Alloc.Shares)
		freePool += r.Alloc.RemoteMiB()
		if freeNodes >= needNodes && freePool >= needPool {
			return r.GuaranteedEnd(), freeNodes - needNodes, freePool - needPool
		}
	}
	return math.MaxInt64, 0, 0
}

func refConservative(b *sched.Batch, ctx *sched.Context, q []*workload.Job) []sched.Dispatch {
	maxRes := b.MaxReservations
	if maxRes <= 0 {
		maxRes = 128
	}
	var freePool int64
	for _, p := range ctx.Machine.Pools() {
		freePool += p.FreeMiB()
	}
	prof := sched.NewProfile(ctx.Now, ctx.Machine.FreeNodes(), freePool)
	for _, r := range ctx.ByEnd() {
		prof.AddRelease(r.GuaranteedEnd(), len(r.Alloc.Shares), r.Alloc.RemoteMiB())
	}
	var out []sched.Dispatch
	for k, job := range q {
		if k >= maxRes {
			break
		}
		if b.MaxPerUser > 0 && ctx.RunningOfUser(job.User) >= b.MaxPerUser {
			continue
		}
		needPool := sched.RemoteNeed(job, ctx.Machine)
		dur := ctx.Limit(job, b.Placer.PlanDilation(job, ctx.Machine, ctx.Model))
		start := prof.EarliestFit(ctx.Now, dur, job.Nodes, needPool)
		if start == ctx.Now {
			if plan, _ := refTryPlan(b, ctx, job); plan != nil {
				d := refCommit(ctx, job, plan)
				prof.Reserve(ctx.Now, ctx.Now+ctx.Limit(job, plan.Dilation), job.Nodes, d.Plan.Alloc.RemoteMiB())
				out = append(out, d)
				continue
			}
		}
		if start < math.MaxInt64 {
			prof.Reserve(start, start+dur, job.Nodes, needPool)
		}
	}
	return out
}

// countingPlacer records which jobs the pass asked its placer to plan.
type countingPlacer struct {
	sched.Placer
	planned map[int]int // job ID -> Plan calls
}

func (p *countingPlacer) Plan(job *workload.Job, m *cluster.Machine, model memmodel.Model) *sched.Plan {
	p.planned[job.ID]++
	return p.Placer.Plan(job, m, model)
}

// diffCase is one randomized pass: a machine with running jobs, a
// queue, and the Batch knobs. instance returns an independent copy of
// the machine, running set and placer, so the reference and the
// production pass each mutate their own.
type diffCase struct {
	running  []sched.RunningJob // against the template machine
	template *cluster.Machine
	queue    []sched.Queued // FCFS order
	placer   func() sched.Placer
	model    memmodel.Model
	extend   bool
	knobs    sched.Batch // Order/Backfill/knob fields; Placer unset
}

func randomDiffCase(r *rand.Rand) diffCase {
	cfg := cluster.Config{
		Racks: 1 + r.IntN(4), NodesPerRack: 2 + r.IntN(7), CoresPerNode: 8,
		LocalMemMiB: 1000,
	}
	switch r.IntN(3) {
	case 1:
		cfg.Topology = cluster.TopologyRack
		cfg.PoolMiB = int64(500 + r.IntN(6000))
	case 2:
		cfg.Topology = cluster.TopologyGlobal
		cfg.PoolMiB = int64(1000 + r.IntN(12000))
	}
	if cfg.Topology != cluster.TopologyNone {
		cfg.FabricGiBps = 4 + 8*r.Float64()
		cfg.TrafficGiBpsPerNode = 2
	}
	total := cfg.Racks * cfg.NodesPerRack
	m := cluster.MustNew(cfg)
	c := diffCase{template: m, extend: r.IntN(2) == 0}

	placers := []func() sched.Placer{
		func() sched.Placer { return sched.LocalOnly{} },
		func() sched.Placer { return sched.Spill{} },
		func() sched.Placer { return core.New() },
		func() sched.Placer { return &core.MemAware{SlowdownCap: 1.3} },
	}
	c.placer = placers[r.IntN(len(placers))]
	models := []memmodel.Model{nil, memmodel.Linear{Beta: 0.5}, memmodel.Bandwidth{Beta: 1, Gamma: 1}}
	c.model = models[r.IntN(len(models))]

	// Fill part of the machine with running jobs, then fail a few free
	// nodes so the free count differs from the idle count.
	filler := sched.Spill{}
	id := 1
	for n := r.IntN(2 * total); n > 0; n-- {
		j := &workload.Job{
			ID: id, User: r.IntN(4), Nodes: 1 + r.IntN(max(1, total/2)),
			MemPerNode: int64(200 + r.IntN(1600)), Estimate: 100, BaseRuntime: 100,
		}
		id++
		p := filler.Plan(j, m, nil)
		if p == nil {
			continue
		}
		if err := m.Allocate(p.Alloc); err != nil {
			panic(err)
		}
		c.running = append(c.running, sched.RunningJob{
			Job: j, Start: -int64(r.IntN(500)), Limit: int64(100 + r.IntN(2000)), Alloc: p.Alloc,
		})
	}
	for n := r.IntN(3); n > 0; n-- {
		var down cluster.NodeID = -1
		m.ForEachFree(func(nid cluster.NodeID) bool { down = nid; return r.IntN(3) != 0 })
		if down >= 0 {
			if err := m.SetDown(down); err != nil {
				panic(err)
			}
		}
	}

	// The queue: coarse submit times so equal-submit ties are common,
	// mostly narrow jobs so several fit and the free count can reach 0.
	for n := r.IntN(30); n > 0; n-- {
		nodes := 1 + r.IntN(max(1, total/3))
		if r.IntN(4) == 0 {
			nodes = 1 + r.IntN(total)
		}
		est := int64(50 + r.IntN(3000))
		c.queue = append(c.queue, sched.QueuedOf(&workload.Job{
			ID: 1000 + 30*r.IntN(1000) + n, User: r.IntN(4),
			Submit: -100 * int64(r.IntN(10)), Nodes: nodes,
			MemPerNode: int64(100 + r.IntN(2400)), Estimate: est, BaseRuntime: est,
		}))
	}
	slices.SortFunc(c.queue, sched.CompareFCFS)

	orders := []sched.Order{sched.FCFS{}, sched.SJF{}, sched.LargestFirst{}, sched.WFP{}}
	c.knobs = sched.Batch{
		Order:           orders[r.IntN(len(orders))],
		Backfill:        sched.BackfillMode(r.IntN(3)),
		MaxPerUser:      []int{0, 0, 1, 2}[r.IntN(4)],
		SpillPatience:   []int64{0, 0, 300}[r.IntN(3)],
		MaxBackfillScan: []int{0, 0, 3}[r.IntN(3)],
		MaxReservations: []int{0, 4}[r.IntN(2)],
	}
	return c
}

// instance clones the template machine and rebinds the running set to
// the clone's allocations. The placer counts its Plan calls.
func (c diffCase) instance() (*sched.Batch, *sched.Context, *countingPlacer) {
	m := c.template.Clone()
	running := make([]sched.RunningJob, len(c.running))
	for i, rj := range c.running {
		a, ok := m.AllocationOf(rj.Job.ID)
		if !ok {
			panic("clone lost an allocation")
		}
		rj.Alloc = a
		running[i] = rj
	}
	b := c.knobs
	p := &countingPlacer{Placer: c.placer(), planned: map[int]int{}}
	b.Placer = p
	ctx := &sched.Context{
		Now: 0, Machine: m, Model: c.model, Queue: c.queue,
		RunningFn:   func() []sched.RunningJob { return running },
		ExtendLimit: c.extend,
	}
	return &b, ctx, p
}

func TestPassMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 1))
	type key struct {
		order    string
		backfill sched.BackfillMode
	}
	cells := map[key]int{}
	var cov refCoverage
	var throttledHead, drainedMidPass, dispatched, refPlans, plans int
	for trial := 0; trial < 6000; trial++ {
		c := randomDiffCase(r)
		refB, refCtx, refPlacer := c.instance()
		// The reference sorts a copy, so it is handed the queue in a
		// scrambled order: the production pass on the FCFS queue must
		// match it whatever order the reference started from.
		refCtx.Queue = slices.Clone(c.queue)
		r.Shuffle(len(refCtx.Queue), func(i, j int) {
			refCtx.Queue[i], refCtx.Queue[j] = refCtx.Queue[j], refCtx.Queue[i]
		})
		want := refPass(refB, refCtx, &cov)

		b, ctx, placer := c.instance()
		free := ctx.Machine.FreeNodes()
		if len(c.queue) > 0 && b.MaxPerUser > 0 {
			head := slices.Clone(c.queue)
			b.Order.Sort(0, head)
			if ctx.RunningOfUser(head[0].Job.User) >= b.MaxPerUser {
				throttledHead++
			}
			ctx.Reset()
		}
		got := b.Pass(ctx)

		if len(got) > 0 {
			dispatched++
		}
		if free > 0 && ctx.Machine.FreeNodes() == 0 && len(got) < len(c.queue) {
			drainedMidPass++
		}
		cells[key{b.Order.Name(), b.Backfill}]++

		if err := sameDispatches(got, want); err != nil {
			t.Fatalf("trial %d (%s, MaxPerUser=%d SpillPatience=%d MaxBackfillScan=%d): %v",
				trial, b.Name(), b.MaxPerUser, b.SpillPatience, b.MaxBackfillScan, err)
		}
		if !reflect.DeepEqual(ctx.Machine.State(), refCtx.Machine.State()) {
			t.Fatalf("trial %d (%s): machine state differs after the pass", trial, b.Name())
		}
		if err := ctx.Machine.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The pass may skip Plan, never add a call the reference did
		// not make.
		for id, n := range placer.planned {
			if n > refPlacer.planned[id] {
				t.Fatalf("trial %d (%s): job %d planned %d times, reference %d",
					trial, b.Name(), id, n, refPlacer.planned[id])
			}
			plans += n
		}
		for _, n := range refPlacer.planned {
			refPlans += n
		}
	}
	for _, o := range []string{"fcfs", "sjf", "largest", "wfp"} {
		for _, bf := range []sched.BackfillMode{sched.BackfillNone, sched.BackfillEASY, sched.BackfillConservative} {
			if cells[key{o, bf}] == 0 {
				t.Errorf("no trial covered order %s with backfill %s", o, bf)
			}
		}
	}
	t.Logf("%d throttled heads, %d passes drained to 0 free nodes, %d passes dispatched; "+
		"backfill candidates: %d too wide (%d in a scan window), %d past the shadow, %d extended; Plan calls %d, reference %d",
		throttledHead, drainedMidPass, dispatched, cov.tooWide, cov.tooWideInCap, cov.pastShadow, cov.extended, plans, refPlans)
	if throttledHead == 0 || drainedMidPass == 0 || dispatched == 0 ||
		cov.tooWide == 0 || cov.tooWideInCap == 0 || cov.pastShadow == 0 || cov.extended == 0 || plans >= refPlans {
		t.Errorf("weak coverage: %d throttled heads, %d passes drained to 0 free nodes, %d passes dispatched, "+
			"%d too-wide candidates (%d in a scan window), %d past-shadow candidates, %d extended plans, Plan calls %d of %d",
			throttledHead, drainedMidPass, dispatched, cov.tooWide, cov.tooWideInCap, cov.pastShadow, cov.extended, plans, refPlans)
	}
}

func sameDispatches(got, want []sched.Dispatch) error {
	if len(got) != len(want) {
		return fmt.Errorf("dispatched %v, reference %v", ids(got), ids(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Job != w.Job || g.Plan.Dilation != w.Plan.Dilation ||
			!reflect.DeepEqual(g.Plan.Alloc.Shares, w.Plan.Alloc.Shares) {
			return fmt.Errorf("dispatch %d: job %d dilation %g, reference job %d dilation %g",
				i, g.Job.ID, g.Plan.Dilation, w.Job.ID, w.Plan.Dilation)
		}
	}
	return nil
}

func ids(ds []sched.Dispatch) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = d.Job.ID
	}
	return out
}
