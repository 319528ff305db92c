package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/workload"
)

const (
	// overloadJobs is the overload-replay trace length: long enough
	// for the queue to grow into the thousands on the default machine.
	overloadJobs = 30_000
	// steadyJobs and steadyInterarrival shape steady-stream: a long
	// Lublin trace at an arrival rate the default machine keeps up
	// with (node utilization about 0.7), so the queue stays shallow.
	steadyJobs         = 300_000
	steadyInterarrival = 1800
	// replayPolicy and replayModel are what dmsched runs by default.
	replayPolicy = "memaware"
	replayModel  = "bandwidth:1,1"
	// heapSamples is how many live-heap samples a replay takes, at
	// evenly spaced termination counts.
	heapSamples = 20
	// tracedPolicy is replayPolicy with the placer swapped for the
	// span-recording wrapper registered under tracedPlacer.
	tracedPlacer = "perfbench-memaware"
	tracedPolicy = "order=fcfs backfill=easy placer=" + tracedPlacer + " name=memaware"
)

// countingWriter counts bytes and lines and keeps nothing.
type countingWriter struct{ bytes, lines int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.bytes += int64(len(p))
	c.lines += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// steadyTrace generates the steady-stream input and serialises it to
// SWF bytes, as an archive trace would arrive.
func steadyTrace(seed uint64) ([]byte, error) {
	cfg := workload.DefaultLublinConfig(0, seed, cluster.DefaultConfig().TotalNodes())
	cfg.MeanInterarrival = steadyInterarrival
	src, err := dismem.LublinSource(cfg, steadyJobs, 0)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sw := workload.NewSWFWriter(&buf)
	if err := sw.WriteAll(src.Next); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runReplay runs one repetition of overload-replay or steady-stream.
func runReplay(a childArgs, start time.Time, res *repResult) error {
	steady := a.workload == "steady-stream"
	n := overloadJobs
	if steady {
		n = steadyJobs
	}

	// Set-up: generate the input and build the options.
	var (
		wl  *dismem.Workload
		swf []byte
		err error
	)
	genStart := time.Now()
	if steady {
		swf, err = steadyTrace(a.seed)
	} else {
		wl = dismem.SyntheticWorkload(n, a.seed)
	}
	if err != nil {
		return err
	}
	res.Layers["workload.gen_ms"] = msSince(genStart)

	heap := newHeapSampler()
	obs := &replayObserver{heap: heap, every: n / heapSamples}
	opts := dismem.Options{
		Machine:  dismem.DefaultMachine(),
		Policy:   replayPolicy,
		Model:    replayModel,
		Workload: wl,
		Observer: obs,
	}
	var (
		t                     *tracer
		sch                   *schedSpan
		placer                *placerSpan
		model                 *modelCount
		recOut, trOut, serOut countingWriter
		series                *seriesSpan
		traceSink             *traceSpan
	)
	if a.traced {
		t = newTracer(start)
		obs.t = t
		// A repetition is its own process, so it registers the
		// span-recording placer once; the policy builds one instance.
		err := dismem.RegisterPlacer(tracedPlacer, func() dismem.Placer {
			placer = &placerSpan{inner: core.New(), t: t}
			return placer
		})
		if err != nil {
			return err
		}
		inner, err := dismem.ParsePolicy(tracedPolicy)
		if err != nil {
			return err
		}
		sch = &schedSpan{inner: inner, t: t}
		m, err := dismem.ParseModel(replayModel)
		if err != nil {
			return err
		}
		model = &modelCount{inner: m}
		opts.SchedulerImpl, opts.ModelImpl = sch, model
	}
	if steady {
		src := dismem.SWFSource(bytes.NewReader(swf), dismem.SWFReadOptions{DefaultMemPerNode: 32 * 1024})
		opts.Source = src
		opts.RecordSink = dismem.NewJSONLSink(&recOut)
		opts.TraceSink = dismem.NewJSONLTraceSink(&trOut)
		opts.SeriesSink = dismem.NewJSONLSeriesSink(&serOut)
		opts.SampleEvery = 3600
		if a.traced {
			opts.Source = &sourceSpan{inner: src, t: t}
			opts.RecordSink = &recordSpan{inner: opts.RecordSink, t: t}
			traceSink = &traceSpan{inner: opts.TraceSink, t: t}
			series = &seriesSpan{inner: opts.SeriesSink, t: t}
			opts.TraceSink, opts.SeriesSink = traceSink, series
		}
	}
	runtime.GC()
	res.SetupNs = int64(time.Since(start))

	// Timed phase: construct and run the simulation.
	before := readRT()
	timed := time.Now()
	if t != nil {
		t.begin(lRun)
	}
	h, err := dismem.New(opts)
	if err != nil {
		return err
	}
	out, err := h.Run()
	if err != nil {
		return err
	}
	if t != nil {
		t.end()
	}
	res.TimedNs = int64(time.Since(timed) - heap.spent)
	res.setRuntime(before, readRT())
	res.PeakLiveBytes = heap.peak

	// Checks.
	rep := out.Report
	res.Jobs = int64(obs.tally.terminated)
	res.Attempted = 1
	if got := rep.Completed + rep.Killed + rep.Rejected; got != n {
		res.fail("report counts %d terminated jobs, want %d", got, n)
	}
	if obs.tally.terminated != n || obs.tally.dups != 0 {
		res.fail("observer saw %d terminations (%d duplicates) for %d jobs", obs.tally.terminated, obs.tally.dups, n)
	}
	if steady && recOut.lines != int64(n) {
		res.fail("record sink wrote %d lines for %d jobs", recOut.lines, n)
	}
	if steady {
		res.Hash = outcomeDigest(out, fmt.Sprint(recOut, trOut, serOut))
	} else {
		res.Hash = outcomeDigest(out)
	}
	res.Info["node_util"] = rep.NodeUtil
	res.Info["events"] = float64(out.Events)
	if steady {
		res.Info["records_bytes"] = float64(recOut.bytes)
		res.Info["trace_bytes"] = float64(trOut.bytes)
		res.Info["series_bytes"] = float64(serOut.bytes)
	}

	if t == nil {
		return nil
	}
	jobs := float64(res.Jobs)
	L := res.Layers
	L["sched.pass_self_ns_per_job"] = float64(t.self[lPass]) / jobs
	L["sched.pass_p50_us"] = t.p(lPass, 0.50) / 1e3
	L["sched.pass_p99_us"] = t.p(lPass, 0.99) / 1e3
	L["sched.passes_per_job"] = float64(sch.passes) / jobs
	if sch.passes > 0 {
		L["sched.queue_depth_mean"] = float64(sch.depthSum) / float64(sch.passes)
		L["sched.empty_pass_ratio"] = float64(sch.empty) / float64(sch.passes)
	}
	L["sched.queue_depth_max"] = float64(sch.depthMax)
	if c := t.count[lPlan]; c > 0 {
		L["core.plan_hit_ratio"] = float64(placer.hits) / float64(c)
		L["core.plan_ns_per_call"] = float64(t.total[lPlan]) / float64(c)
	}
	L["core.plan_calls_per_job"] = float64(t.count[lPlan]) / jobs
	L["core.plan_ns_per_job"] = float64(t.total[lPlan]+t.total[lPlanDilation]+t.total[lPlacerFeasible]) / jobs
	L["sim.self_ns_per_job"] = float64(t.self[lRun]) / jobs
	L["des.events_per_job"] = float64(out.Events) / jobs
	L["memmodel.dilation_calls_per_job"] = float64(model.calls) / jobs
	L["source.next_ns_per_job"] = float64(t.total[lSource]) / jobs
	L["metrics.record_ns_per_job"] = float64(t.total[lRecord]) / jobs
	L["trace.emit_ns_per_job"] = float64(t.total[lTrace]) / jobs
	if traceSink != nil {
		L["trace.events_per_job"] = float64(traceSink.events) / jobs
	}
	if series != nil && series.adds > 0 {
		L["metrics.series_ns_per_sample"] = float64(t.total[lSeries]) / float64(series.adds)
	}
	res.Info["sched.feasible_ns_per_job"] = float64(t.total[lSchedFeasible]) / jobs
	if a.spans != "" {
		return writeSpans(filepath.Clean(a.spans), t)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
