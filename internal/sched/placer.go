package sched

import (
	"sort"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/workload"
)

// Plan is a candidate placement: an uncommitted allocation plus the
// dilation the memory model predicts for it at planning time.
type Plan struct {
	Alloc *cluster.Allocation
	// Dilation is the predicted runtime multiplier (>= 1).
	Dilation float64
}

// Placer builds placement plans. Implementations must be deterministic
// given identical machine state.
type Placer interface {
	// Name identifies the policy.
	Name() string
	// Plan returns a placement for job on m, or nil if the job cannot
	// start now. It must be pure given m's state: it must not mutate m,
	// and its result must not depend on which earlier Plan calls were
	// made, because the Batch chassis skips Plan for candidates it can
	// reject without it (see Batch.passEASY). A non-nil plan occupies
	// exactly job.Nodes free nodes, so a job wider than m.FreeNodes()
	// cannot start and the chassis skips Plan for it. The returned plan
	// (including its Alloc and Shares) may be placer-owned scratch,
	// valid only until the next Plan call on the same placer: callers
	// commit it with Machine.AllocateCopy, which deep-copies, rather
	// than retaining it.
	Plan(job *workload.Job, m *cluster.Machine, model memmodel.Model) *Plan
	// Feasible reports whether the job could ever run on an idle m
	// under the given memory model (admission policies may depend on
	// predicted dilation). Infeasible jobs are rejected at submission.
	Feasible(job *workload.Job, m *cluster.Machine, model memmodel.Model) bool
	// PlanDilation estimates the dilation job would suffer if placed on
	// an otherwise-idle machine: the figure planners use to reserve
	// walltime before an exact placement exists.
	PlanDilation(job *workload.Job, m *cluster.Machine, model memmodel.Model) float64
}

// PredictDilation computes the model dilation of an uncommitted
// allocation against machine m, accounting for the congestion its own
// demand would add to each backing pool.
func PredictDilation(a *cluster.Allocation, m *cluster.Machine, model memmodel.Model) float64 {
	if model == nil || a.RemoteMiB() == 0 {
		return 1
	}
	// Aggregate the allocation's added demand per pool. Allocations
	// touch few pools, so a linear scan over small stack-backed slices
	// beats a map and keeps the hot path allocation-free.
	trafficPerNode := m.Config().TrafficGiBpsPerNode
	var pidsArr [16]cluster.PoolID
	var addedArr [16]float64
	pids, added := pidsArr[:0], addedArr[:0]
	for _, s := range a.Shares {
		if s.RemoteMiB == 0 {
			continue
		}
		tot := s.LocalMiB + s.RemoteMiB
		d := trafficPerNode * float64(s.RemoteMiB) / float64(tot)
		k := 0
		for ; k < len(pids); k++ {
			if pids[k] == s.Pool {
				added[k] += d
				break
			}
		}
		if k == len(pids) {
			pids = append(pids, s.Pool)
			added = append(added, d)
		}
	}
	worst := 0.0
	for k, pid := range pids {
		p, ok := m.Pool(pid)
		if !ok || p.FabricGiBps <= 0 {
			continue
		}
		if c := (p.DemandGiBps + added[k]) / p.FabricGiBps; c > worst {
			worst = c
		}
	}
	return model.Dilation(a.RemoteFraction(), worst)
}

// RemoteNeedPerNode returns how much of the job's per-node footprint
// cannot fit in local DRAM.
func RemoteNeedPerNode(job *workload.Job, m *cluster.Machine) int64 {
	need := job.MemPerNode - m.Config().LocalMemMiB
	if need < 0 {
		return 0
	}
	return need
}

// RemoteNeed returns the job's total unavoidable pool demand in MiB.
func RemoteNeed(job *workload.Job, m *cluster.Machine) int64 {
	return RemoteNeedPerNode(job, m) * int64(job.Nodes)
}

// LocalOnly places jobs exclusively in node-local DRAM: the
// conventional-machine baseline. Jobs whose footprint exceeds local
// DRAM never start.
type LocalOnly struct{}

// Name implements Placer.
func (LocalOnly) Name() string { return "local" }

// Feasible implements Placer.
func (LocalOnly) Feasible(job *workload.Job, m *cluster.Machine, _ memmodel.Model) bool {
	return job.Nodes <= m.Config().TotalNodes() && job.MemPerNode <= m.Config().LocalMemMiB
}

// PlanDilation implements Placer: local placements never dilate.
func (LocalOnly) PlanDilation(*workload.Job, *cluster.Machine, memmodel.Model) float64 { return 1 }

// Plan implements Placer with first-fit over node IDs.
func (LocalOnly) Plan(job *workload.Job, m *cluster.Machine, _ memmodel.Model) *Plan {
	if job.MemPerNode > m.Config().LocalMemMiB || m.FreeNodes() < job.Nodes {
		return nil
	}
	shares := make([]cluster.NodeShare, 0, job.Nodes)
	m.ForEachFree(func(id cluster.NodeID) bool {
		shares = append(shares, cluster.NodeShare{
			Node: id, LocalMiB: job.MemPerNode, Pool: cluster.NoPool,
		})
		return len(shares) < job.Nodes
	})
	if len(shares) < job.Nodes {
		return nil
	}
	return &Plan{
		Alloc:    &cluster.Allocation{JobID: job.ID, Shares: shares},
		Dilation: 1,
	}
}

// Spill is the disaggregation-oblivious policy: fill local DRAM first
// and overflow the remainder into the node's pool whenever the pool has
// space, ignoring the slowdown this inflicts. It is the "just use the
// pool" strawman the memory-aware scheduler is compared against.
type Spill struct{}

// Name implements Placer.
func (Spill) Name() string { return "spill" }

// Feasible implements Placer.
func (Spill) Feasible(job *workload.Job, m *cluster.Machine, _ memmodel.Model) bool {
	cfg := m.Config()
	if job.Nodes > cfg.TotalNodes() {
		return false
	}
	if job.MemPerNode <= cfg.LocalMemMiB {
		return true
	}
	if cfg.Topology == cluster.TopologyNone {
		return false
	}
	// Whole-machine check: every node needs its overflow poolable.
	need := RemoteNeedPerNode(job, m)
	switch cfg.Topology {
	case cluster.TopologyGlobal:
		return need*int64(job.Nodes) <= cfg.PoolMiB
	default: // rack pools: cap by what fits per rack on an idle machine
		perRack := cfg.PoolMiB / max64(need, 1)
		if perRack > int64(cfg.NodesPerRack) {
			perRack = int64(cfg.NodesPerRack)
		}
		return int64(job.Nodes) <= perRack*int64(cfg.Racks)
	}
}

// PlanDilation implements Placer: the unavoidable remote fraction at
// current congestion.
func (Spill) PlanDilation(job *workload.Job, m *cluster.Machine, model memmodel.Model) float64 {
	if model == nil || job.MemPerNode == 0 {
		return 1
	}
	f := float64(RemoteNeedPerNode(job, m)) / float64(job.MemPerNode)
	worst := 0.0
	for _, p := range m.Pools() {
		if c := p.Congestion(); c > worst {
			worst = c
		}
	}
	return model.Dilation(f, worst)
}

// Plan implements Placer: first-fit over racks ordered by descending
// free pool capacity, so overflow lands where space exists.
func (Spill) Plan(job *workload.Job, m *cluster.Machine, model memmodel.Model) *Plan {
	cfg := m.Config()
	if m.FreeNodes() < job.Nodes {
		return nil
	}
	local := job.MemPerNode
	if local > cfg.LocalMemMiB {
		local = cfg.LocalMemMiB
	}
	remote := job.MemPerNode - local
	if remote == 0 {
		return LocalOnly{}.Plan(job, m, model)
	}
	if cfg.Topology == cluster.TopologyNone {
		return nil
	}

	// Rack order: most free pool first; stable on rack index.
	type rackInfo struct {
		rack int
		pool cluster.PoolID
		free int64
	}
	racks := make([]rackInfo, 0, cfg.Racks)
	pools := m.Pools()
	for r := 0; r < cfg.Racks; r++ {
		pid := cluster.PoolID(0)
		if cfg.Topology == cluster.TopologyRack {
			pid = cluster.PoolID(r)
		}
		racks = append(racks, rackInfo{rack: r, pool: pid, free: pools[pid].FreeMiB()})
	}
	sort.SliceStable(racks, func(i, j int) bool {
		if racks[i].free != racks[j].free {
			return racks[i].free > racks[j].free
		}
		return racks[i].rack < racks[j].rack
	})

	shares := make([]cluster.NodeShare, 0, job.Nodes)
	poolLeft := make([]int64, len(pools))
	for i, p := range pools {
		poolLeft[i] = p.FreeMiB()
	}
	for _, ri := range racks {
		if poolLeft[ri.pool] < remote {
			continue
		}
		m.FreeInRack(ri.rack, func(id cluster.NodeID) bool {
			if poolLeft[ri.pool] < remote {
				return false
			}
			poolLeft[ri.pool] -= remote
			shares = append(shares, cluster.NodeShare{
				Node: id, LocalMiB: local, RemoteMiB: remote, Pool: ri.pool,
			})
			return len(shares) < job.Nodes
		})
		if len(shares) == job.Nodes {
			break
		}
	}
	if len(shares) < job.Nodes {
		return nil
	}
	alloc := &cluster.Allocation{JobID: job.ID, Shares: shares}
	return &Plan{Alloc: alloc, Dilation: PredictDilation(alloc, m, model)}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
