package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"dismem"
	"dismem/internal/sweep"
)

const (
	// sweepExperiment runs every policy of the paper's headline table.
	sweepExperiment = "table2"
	sweepSeeds      = 2
	sweepWorkers    = 2
	sweepCells      = 8
	sweepSetups     = 5
)

// sweepJobs derives the per-run trace length from the benchmark seed:
// the sweep fixes its own workload seeds (1..Seeds), so the job count
// is how the benchmark seed reaches the sweep's inputs.
func sweepJobs(seed uint64) int { return 1900 + int(seed%201) }

// runSweep runs one repetition of paper-sweep.
func runSweep(a childArgs, start time.Time, res *repResult) error {
	jobs := sweepJobs(a.seed)

	// Set-up: generate the inputs the sweep will replay (all of its
	// machines have the default node count, so one generator config per
	// seed covers every cell) and check their size; the sweep generates
	// them again inside the timed phase, in this fresh process, as
	// dmsweep does. The set-up takes a few milliseconds, so it is done
	// sweepSetups times and its median is the repetition's set-up time.
	var gen []int64
	for range sweepSetups {
		t0 := time.Now()
		for s := 1; s <= sweepSeeds; s++ {
			wl, err := dismem.GenerateWorkload(dismem.DefaultGen(jobs, uint64(s), dismem.DefaultMachine()))
			if err != nil {
				return err
			}
			if len(wl.Jobs) != jobs {
				res.fail("seed %d generated %d jobs, want %d", s, len(wl.Jobs), jobs)
			}
		}
		gen = append(gen, int64(time.Since(t0)))
	}
	res.SetupNs = int64(medianInt(gen))
	res.Layers["workload.gen_ms"] = medianInt(gen) / 1e6
	var (
		mu   sync.Mutex
		done []time.Duration
	)
	runtime.GC()

	heap := newHeapSampler()
	before := readRT()
	timed := time.Now()
	tables, err := sweep.Run(sweepExperiment, sweep.Options{
		Jobs: jobs, Seeds: sweepSeeds, Workers: sweepWorkers,
		UnitDone: func() {
			d := time.Since(timed)
			heap.sample()
			mu.Lock()
			done = append(done, d)
			mu.Unlock()
		},
	})
	res.TimedNs = int64(time.Since(timed) - heap.spent)
	res.PeakLiveBytes = heap.peak
	if err != nil {
		return err
	}
	res.setRuntime(before, readRT())

	units := len(done)
	res.Jobs = int64(units * jobs)
	res.Attempted = 1
	if units != sweepCells*sweepSeeds {
		res.fail("sweep completed %d units, want %d", units, sweepCells*sweepSeeds)
	}
	var csv []string
	for _, t := range tables {
		csv = append(csv, t.CSV())
	}
	if len(tables) != 1 || len(tables[0].Rows) != sweepCells {
		res.fail("sweep produced %d tables, want one of %d rows", len(tables), sweepCells)
	}
	res.Hash = digest(csv...)

	// Per-layer figures need no wrappers here: the sweep is timed from
	// its unit-completion callback.
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	res.Layers["sweep.units"] = float64(units)
	if units >= 2 {
		res.Layers["sweep.tail_s"] = (done[units-1] - done[units-2]).Seconds()
	}
	return nil
}
