package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/metrics"
	"dismem/internal/sched"
	"dismem/internal/trace"
	"dismem/internal/workload"
)

// layer names one span kind: a call across a layer boundary that the
// benchmark wraps from outside the program, through a public seam.
type layer uint8

const (
	lRun            layer = iota // Simulation.Run: the engine itself
	lPass                        // Scheduler.Pass
	lSchedFeasible               // Scheduler.Feasible (submission-time admission)
	lPlan                        // Placer.Plan
	lPlanDilation                // Placer.PlanDilation
	lPlacerFeasible              // Placer.Feasible
	lSource                      // Source.Next / PeekSubmit
	lRecord                      // RecordSink.Add / Close
	lSeries                      // SeriesSink.Add / Close
	lTrace                       // TraceSink.Add / Close
	lObserver                    // the benchmark's own Observer callbacks
	lDecode                      // ReadCheckpointFile
	lEncode                      // WriteCheckpointFile
	lFork                        // dismem.Fork
	lTail                        // running a forked Simulation to its horizon
	lHTTP                        // one POST /v1/whatif round trip
	nLayers
)

var layerNames = [nLayers]string{
	"sim.run", "sched.pass", "sched.feasible", "core.plan", "core.plan_dilation",
	"core.feasible", "source.next", "metrics.record", "metrics.series", "trace.emit",
	"bench.observer", "ckpt.decode", "ckpt.encode", "fork.fork", "fork.tail", "serve.http",
}

// keepSpans bounds how many individual spans one tracer keeps for the
// span file; every span, kept or not, is folded into the per-layer
// totals, so the bound only limits the file.
const keepSpans = 50_000

// span is one kept span: times are nanoseconds since the tracer's
// epoch; parent indexes the kept span that caused it (-1 for a root,
// -2 when the parent was past keepSpans).
type span struct {
	name       layer
	parent     int32
	start, end int64
}

type openSpan struct {
	idx    int32
	name   layer
	weight int64 // calls this span stands for (see sampleEvery)
	start  int64
	child  int64 // time covered by already-closed child spans
}

// sampleEvery is the sampling interval of the layers called many times
// per job (placement, source pulls, sink adds). Each of their calls is
// counted, but only every sampleEvery-th is timed, and it stands for
// sampleEvery calls in the totals and in its parent's child coverage.
// Two clock reads cost about as much as one Plan call, so timing every
// call would distort both the run and the split between layers.
const sampleEvery = 16

// tracer records nested spans of one goroutine. A span's self time is
// its duration minus the time its child spans cover; spans nest
// strictly on one goroutine, so the coverage is the sum of the
// children's durations (weighted, for sampled children).
type tracer struct {
	epoch time.Time
	stack []openSpan
	spans []span
	count [nLayers]int64 // calls, sampled or not
	total [nLayers]int64
	self  [nLayers]int64
	durs  [nLayers][]int64 // per-span durations, for layers with percentiles
	// overhead is the duration an empty span measures: the clock reads
	// and bookkeeping between them. It is taken off every span.
	overhead int64
}

func newTracer(epoch time.Time) *tracer {
	t := &tracer{epoch: epoch}
	t.durs[lRun] = make([]int64, 0, 1000)
	for range 1000 {
		t.begin(lRun)
		t.end()
	}
	slices.Sort(t.durs[lRun])
	t.overhead = t.durs[lRun][len(t.durs[lRun])/2]
	*t = tracer{epoch: epoch, overhead: t.overhead}
	for _, l := range []layer{lPass, lFork, lTail, lHTTP, lDecode, lEncode} {
		t.durs[l] = []int64{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(l layer) {
	t.count[l]++
	t.open(l, 1)
}

// beginSampled counts a call of a sampled layer and opens a span for
// every sampleEvery-th one; it reports whether it did, and only then
// must the caller call end.
func (t *tracer) beginSampled(l layer) bool {
	t.count[l]++
	if t.count[l]%sampleEvery != 0 {
		return false
	}
	t.open(l, sampleEvery)
	return true
}

func (t *tracer) open(l layer, weight int64) {
	now := t.now()
	idx := int32(-1)
	if len(t.spans) < keepSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
			if parent < 0 {
				parent = -2
			}
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: l, parent: parent, start: now})
	}
	t.stack = append(t.stack, openSpan{idx: idx, name: l, weight: weight, start: now})
}

func (t *tracer) end() {
	now := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := now - o.start - t.overhead
	t.total[o.name] += d * o.weight
	t.self[o.name] += (d - o.child) * o.weight
	if n > 0 {
		t.stack[n-1].child += d * o.weight
	}
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
	if t.durs[o.name] != nil {
		t.durs[o.name] = append(t.durs[o.name], d)
	}
}

// merge folds another goroutine's tracer into t (totals and durations;
// kept spans are written per tracer).
func (t *tracer) merge(o *tracer) {
	for l := range nLayers {
		t.count[l] += o.count[l]
		t.total[l] += o.total[l]
		t.self[l] += o.self[l]
		if t.durs[l] != nil {
			t.durs[l] = append(t.durs[l], o.durs[l]...)
		}
	}
}

// p returns the q-quantile of layer l's span durations in ns (0 when
// no span was recorded).
func (t *tracer) p(l layer, q float64) float64 {
	d := append([]int64(nil), t.durs[l]...)
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[int(q*float64(len(d)-1)+0.5)])
}

// writeSpans appends t's kept spans to path, one
// "goroutine name parent start_ns end_ns" line each.
func writeSpans(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# goroutine name parent start_ns end_ns (parent: index of the causing span within the goroutine, -1 root, -2 not kept)")
	for g, t := range tracers {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d %s %d %d %d\n", g, layerNames[s.name], s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// schedSpan wraps a Scheduler (Options.SchedulerImpl) and times every
// pass; it also keeps the queue statistics of the passes it sees.
type schedSpan struct {
	inner sched.Scheduler
	t     *tracer

	passes, empty      int64
	depthSum, depthMax int64
}

func (s *schedSpan) Name() string { return s.inner.Name() }

func (s *schedSpan) Pass(ctx *sched.Context) []sched.Dispatch {
	depth := int64(len(ctx.Queue))
	s.t.begin(lPass)
	out := s.inner.Pass(ctx)
	s.t.end()
	s.passes++
	s.depthSum += depth
	s.depthMax = max(s.depthMax, depth)
	if len(out) == 0 {
		s.empty++
	}
	return out
}

func (s *schedSpan) Feasible(job *workload.Job, m *cluster.Machine, model memmodel.Model) bool {
	s.t.begin(lSchedFeasible)
	ok := s.inner.Feasible(job, m, model)
	s.t.end()
	return ok
}

// placerSpan wraps the memaware placer (registered with RegisterPlacer)
// and times Plan, PlanDilation and Feasible.
type placerSpan struct {
	inner sched.Placer
	t     *tracer
	hits  int64 // Plan calls that returned a plan
}

func (p *placerSpan) Name() string { return p.inner.Name() }

func (p *placerSpan) Plan(job *workload.Job, m *cluster.Machine, model memmodel.Model) *sched.Plan {
	timed := p.t.beginSampled(lPlan)
	pl := p.inner.Plan(job, m, model)
	if timed {
		p.t.end()
	}
	if pl != nil {
		p.hits++
	}
	return pl
}

func (p *placerSpan) Feasible(job *workload.Job, m *cluster.Machine, model memmodel.Model) bool {
	timed := p.t.beginSampled(lPlacerFeasible)
	ok := p.inner.Feasible(job, m, model)
	if timed {
		p.t.end()
	}
	return ok
}

func (p *placerSpan) PlanDilation(job *workload.Job, m *cluster.Machine, model memmodel.Model) float64 {
	timed := p.t.beginSampled(lPlanDilation)
	d := p.inner.PlanDilation(job, m, model)
	if timed {
		p.t.end()
	}
	return d
}

// modelCount wraps the memory model (Options.ModelImpl). Dilation is a
// few floating-point operations, so it is counted, not timed: two clock
// reads would cost more than the call.
type modelCount struct {
	inner memmodel.Model
	calls int64
}

func (m *modelCount) Dilation(f, c float64) float64 { m.calls++; return m.inner.Dilation(f, c) }
func (m *modelCount) Name() string                  { return m.inner.Name() }

// sourceSpan wraps a Source and times every pull.
type sourceSpan struct {
	inner dismem.Source
	t     *tracer
}

func (s *sourceSpan) Next() (*workload.Job, bool) {
	timed := s.t.beginSampled(lSource)
	j, ok := s.inner.Next()
	if timed {
		s.t.end()
	}
	return j, ok
}

func (s *sourceSpan) PeekSubmit() int64 {
	timed := s.t.beginSampled(lSource)
	v := s.inner.PeekSubmit()
	if timed {
		s.t.end()
	}
	return v
}

func (s *sourceSpan) Err() error { return s.inner.Err() }

// recordSpan, seriesSpan and traceSpan wrap the three output sinks.
type recordSpan struct {
	inner metrics.Sink
	t     *tracer
}

func (s *recordSpan) Add(r metrics.JobRecord) {
	if s.t.beginSampled(lRecord) {
		defer s.t.end()
	}
	s.inner.Add(r)
}
func (s *recordSpan) Close() error {
	s.t.begin(lRecord)
	err := s.inner.Close()
	s.t.end()
	return err
}

type seriesSpan struct {
	inner metrics.SeriesSink
	t     *tracer
	adds  int64
}

func (s *seriesSpan) Add(p metrics.SeriesPoint) {
	s.adds++
	s.t.begin(lSeries)
	s.inner.Add(p)
	s.t.end()
}
func (s *seriesSpan) Close() error {
	s.t.begin(lSeries)
	err := s.inner.Close()
	s.t.end()
	return err
}

type traceSpan struct {
	inner  trace.TraceSink
	t      *tracer
	events int64
}

func (s *traceSpan) Add(ev trace.Event) {
	s.events++
	if s.t.beginSampled(lTrace) {
		defer s.t.end()
	}
	s.inner.Add(ev)
}
func (s *traceSpan) Close() error {
	s.t.begin(lTrace)
	err := s.inner.Close()
	s.t.end()
	return err
}
