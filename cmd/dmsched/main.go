// Command dmsched runs one batch-scheduling simulation and prints the
// resulting report.
//
// The workload is either synthetic (default) or an SWF trace given with
// -swf. The machine, policy and memory model are set with flags:
//
//	dmsched -policy memaware -local 64 -pool 4096 -model linear:0.5
//	dmsched -swf trace.swf -node-cores 32 -policy easy-oblivious
//
// Beyond the registered policy names, -policy accepts a composable
// policy description (the report is labelled with its canonical name),
// and -progress streams live simulation state to stderr while the run
// is in flight:
//
//	dmsched -policy "order=sjf backfill=easy placer=memaware cap=3" -progress 6h
//
// The machine, workload, policy and model flags are one experiment
// description (internal/config), shared with dmserve. -write-config
// prints the description the flags give as JSON, and -config runs such
// a file in their place; every other flag composes with it:
//
//	dmsched -jobs 20000 -topology global -write-config > exp.json
//	dmsched -config exp.json -scenario "at=21600 down rack=2; at=64800 up rack=2"
//
// -scenario perturbs the run with a deterministic intervention
// timeline (outages, pool resizes, penalty shifts, surges; see
// dismem.ParseScenario for the grammar):
//
//	dmsched -scenario "at=21600 down rack=2; at=64800 up rack=2"
//
// For archive-scale traces, -swf-stream replays the trace with memory
// bounded by live simulation state (not trace length), and
// -records-out streams per-job records to a JSONL/CSV file instead of
// retaining them (report percentiles become P² estimates beyond the
// exact-buffer threshold):
//
//	dmsched -swf trace.swf -swf-stream -records-out records.jsonl
//
// -checkpoint-at freezes the run at a virtual instant and replays a
// forked future from it — identical by default (a determinism check),
// or under a different intervention tail with -fork-scenario:
//
//	dmsched -checkpoint-at 43200 -fork-scenario "at=50000 down rack=2; at=64800 up rack=2"
//
// Long runs are interruptible: with -ckpt-save, SIGINT/SIGTERM freezes
// the run, writes a durable versioned checkpoint file (atomic
// temp+rename), prints the partial report, and exits with status 3.
// -ckpt-load resumes such a file and completes the run — bit-identical
// to the uninterrupted run:
//
//	dmsched -jobs 50000 -ckpt-save run.dmckpt     # ^C to interrupt
//	dmsched -ckpt-load run.dmckpt                 # finish the run
//
// -interrupt-at takes the same path at a virtual instant instead of on
// a signal, so an interrupt/resume check does not depend on how fast
// the host simulates:
//
//	dmsched -jobs 50000 -ckpt-save run.dmckpt -interrupt-at 864000
//
// -series-out streams the utilization time series (queue depth,
// running jobs, memory and pool usage per sampling tick) to a
// JSONL/CSV file, and -metrics-addr serves the same live state as a
// Prometheus text-format /metrics endpoint while the run is in
// flight. The sampling tick chain is part of the checkpointed state,
// so series files compose across -ckpt-save/-ckpt-load: the resumed
// run's series is exactly the suffix of an uninterrupted run's.
//
//	dmsched -jobs 50000 -series-out util.jsonl -metrics-addr :9090
//
// -trace-out streams the per-job lifecycle trace (submit, dispatch
// with placement detail, terminate with reason, restarts, scenario
// interventions) to a file; -trace-format picks JSONL (default) or
// Chrome trace-event JSON loadable in Perfetto / chrome://tracing.
// Tracing is event-driven — it needs no sampling period. The JSONL
// form composes across -ckpt-save/-ckpt-load exactly like the series:
// an interrupted run's trace plus the resumed run's concatenate to the
// uninterrupted run's file, byte for byte.
//
//	dmsched -jobs 50000 -trace-out trace.json -trace-format perfetto
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dismem"
	"dismem/internal/cli"
	"dismem/internal/config"
	"dismem/internal/profiling"
	"dismem/internal/report"
	"dismem/internal/telemetry"
	"dismem/internal/workload"
)

// exitInterrupted is the distinct status for a resumable interruption
// (signal mid-run), as opposed to 1 (failure) and 2 (bad usage).
const exitInterrupted = 3

func main() {
	exp := config.Default()
	exp.Bind(flag.CommandLine)
	var (
		scenFlag  = flag.String("scenario", "", `scenario timeline, e.g. "at=3600 down rack=2; at=7200 up rack=2; from=0 period=86400 amp=0.5 diurnal"`)
		progress  = flag.Duration("progress", 0, "print live progress to stderr every given span of simulated time (e.g. 6h; 0 = off)")
		swfStream = flag.Bool("swf-stream", false, "stream the -swf trace instead of loading it: memory stays bounded by live simulation state, not trace length (requires a submit-sorted trace; implies bounded metrics recording, so report percentiles are streaming estimates: exact up to 1024 jobs, P² beyond)")
		recordOut = flag.String("records-out", "", "stream per-job records to this file (.csv for CSV, else JSONL) with bounded metrics recording; report percentiles become streaming estimates (exact up to 1024 jobs, P² beyond)")
		cpAt      = flag.Int64("checkpoint-at", 0, "virtual time (seconds) to checkpoint the run at: the run is frozen there, completed, and a forked future is replayed from the same instant and printed after the original report (0 = off; not with -swf-stream, whose source cannot fork)")
		forkScen  = flag.String("fork-scenario", "", `scenario timeline for the forked future (requires -checkpoint-at): replaces the interventions remaining after the checkpoint, e.g. "at=50000 down rack=2; at=60000 up rack=2"`)
		ckptSave  = flag.String("ckpt-save", "", "on SIGINT/SIGTERM, freeze the run, write a durable checkpoint to this file, and exit with status 3 (resume with -ckpt-load)")
		intrAt    = flag.Int64("interrupt-at", 0, "act as if SIGINT/SIGTERM arrived when the run reaches this virtual time (seconds): freeze, write the -ckpt-save checkpoint, report the prefix and exit with status 3 (0 = off)")
		ckptLoad  = flag.String("ckpt-load", "", "resume a run from a checkpoint file written by -ckpt-save; workload, machine and policy flags are ignored (the checkpoint carries them)")
		seriesOut = flag.String("series-out", "", "stream the utilization series to this file (.csv for CSV, else JSONL), one row per sampling tick; composes with -ckpt-save/-ckpt-load (the resumed series is the clean run's suffix)")
		traceOut  = flag.String("trace-out", "", "stream the per-job lifecycle trace to this file; JSONL composes with -ckpt-save/-ckpt-load (the resumed trace is the clean run's suffix)")
		traceFmt  = flag.String("trace-format", "jsonl", "trace encoding for -trace-out: jsonl | perfetto (Chrome trace-event JSON for Perfetto / chrome://tracing)")
		seriesEv  = flag.Duration("series-every", 0, "sampling period for -series-out and -metrics-addr in simulated time (default 1h; on -ckpt-load, 0 keeps the checkpointed period and phase)")
		metrAddr  = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text format) with live run state on this address while the run is in flight")
		verbose   = flag.Bool("v", false, "also print workload summary")
		cfgPath   = flag.String("config", "", "JSON experiment config (replaces the machine, workload, policy and model flags)")
		writeCfg  = flag.Bool("write-config", false, "print the experiment the flags describe as config JSON and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile (pprof allocs: cumulative sites plus post-GC in-use heap) to this file at exit")
	)
	flag.Parse()

	flush, err := profiling.Start("dmsched", *cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	flushProfiles = flush
	defer flushProfiles()

	if *cfgPath != "" {
		loaded, err := config.Load(*cfgPath)
		if err != nil {
			fatalf("%v", err)
		}
		exp = *loaded
	}
	if *writeCfg {
		if err := exp.Write(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *forkScen != "" && *cpAt <= 0 {
		fatalf("-fork-scenario requires -checkpoint-at")
	}
	if *seriesEv > 0 && *seriesOut == "" && *metrAddr == "" {
		fatalf("-series-every requires -series-out or -metrics-addr")
	}
	if *traceFmt != "jsonl" && *traceFmt != "perfetto" {
		fatalf("-trace-format %q: want jsonl or perfetto", *traceFmt)
	}
	if *intrAt < 0 {
		fatalf("-interrupt-at %d: want a virtual time >= 0", *intrAt)
	}
	if *intrAt > 0 && *cpAt > 0 {
		fatalf("-interrupt-at cannot be combined with -checkpoint-at")
	}
	if *ckptSave != "" && *traceOut != "" && *traceFmt == "perfetto" {
		// A perfetto file is one JSON document, not a line stream: an
		// interrupted file and a resumed file are each valid on their
		// own but do not concatenate. Only JSONL traces compose.
		fatalf("-ckpt-save composes only with -trace-format jsonl (a perfetto trace is a single JSON document and cannot be concatenated across an interrupt)")
	}
	if *ckptSave != "" {
		if *swfStream {
			fatalf("-ckpt-save cannot be combined with -swf-stream (a streamed trace source cannot checkpoint)")
		}
		if *recordOut != "" {
			fatalf("-ckpt-save cannot be combined with -records-out (a streamed record sink cannot be carried across a checkpoint)")
		}
		// -series-out IS allowed with -ckpt-save: the sampling tick
		// chain is checkpointed, so an interrupted series file plus the
		// resumed run's file concatenate to the uninterrupted series.
		if *cpAt > 0 {
			fatalf("-ckpt-save cannot be combined with -checkpoint-at")
		}
	}
	if *ckptLoad != "" && (exp.Workload.SWF != "" || *scenFlag != "" || *cfgPath != "" || *cpAt > 0 || *swfStream || *recordOut != "") {
		fatalf("-ckpt-load resumes a self-contained run; it only combines with -progress, -series-out, -series-every, -metrics-addr, -trace-out, -trace-format, -v, -ckpt-save and -interrupt-at")
	}
	if *cpAt > 0 && *swfStream {
		// Fail in milliseconds, not after simulating the whole prefix:
		// a streamed SWF source cannot fork (see source.Forkable).
		fatalf("-checkpoint-at cannot be combined with -swf-stream (a streamed trace source cannot fork; load the trace with -swf alone)")
	}
	if *swfStream && exp.Workload.SWF == "" {
		fatalf("-swf-stream requires -swf")
	}
	// Parse the fork scenario up front for the same reason: a grammar
	// typo or an unsupported modulation must not cost a full prefix
	// simulation before erroring.
	var forkSc *dismem.Scenario
	if *forkScen != "" {
		var err error
		forkSc, err = dismem.ParseScenario(*forkScen)
		if err != nil {
			fatalf("-fork-scenario: %v", err)
		}
		if forkSc.Modulates() {
			fatalf("-fork-scenario must not modulate arrivals (surge/diurnal warp submit times before a run starts and cannot be re-applied at a fork)")
		}
	}

	outs := cli.Outputs{Records: *recordOut, Series: *seriesOut, Trace: *traceOut, TraceFormat: *traceFmt}
	sinks, err := outs.Open("")
	if err != nil {
		fatalf("%v", err)
	}
	tele := newTelemetry(*progress, *seriesEv, *metrAddr, sinks)
	if *ckptLoad != "" {
		runFromCheckpoint(*ckptLoad, *ckptSave, *intrAt, tele)
		return
	}

	var src dismem.Source
	if *swfStream {
		f, err := os.Open(exp.Workload.SWF)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		// Bounded-memory replay: jobs decode lazily as the clock
		// reaches them; nothing is materialised (so no upfront
		// skipped-record count and no -v summary).
		src = dismem.SWFSource(f, exp.SWFReadOptions())
	}
	opts, err := exp.Options(src, os.Stderr)
	if err != nil {
		fatalf("%v", err)
	}
	if *verbose {
		if opts.Workload == nil {
			fmt.Fprintln(os.Stderr, "note: -v workload summary unavailable when streaming (-swf-stream)")
		} else {
			fmt.Print(workload.Summarize(opts.Workload, opts.Machine.LocalMemMiB))
			fmt.Println()
		}
	}
	// The report names the resolved scheduler: a legacy name labels
	// itself, a spec string its canonical name.
	sched, err := dismem.NewScheduler(opts.Policy)
	if err != nil {
		fatalf("%v", err)
	}
	label := sched.Name()
	if *scenFlag != "" {
		sc, err := dismem.ParseScenario(*scenFlag)
		if err != nil {
			fatalf("%v", err)
		}
		opts.Scenario = sc
	}
	opts = tele.apply(opts)
	if opts.RecordSink == nil && *swfStream {
		// Streaming a trace only to retain every record would defeat
		// the point: without -records-out, drop records and keep the
		// whole run flat-memory.
		opts.RecordSink = dismem.DiscardRecords
	}
	if *cpAt > 0 {
		runCheckpointed(label, opts, *cpAt, forkSc, outs)
		return
	}
	h, err := dismem.New(opts)
	if err != nil {
		fatalf("%v", err)
	}
	driveAndReport(h, label, *ckptSave, *intrAt)
}

// driveAndReport advances the simulation to completion from the main
// goroutine, handling SIGINT/SIGTERM gracefully: the run is truncated
// at a clean event boundary, optionally frozen to a durable checkpoint
// file, reported as a prefix, and the process exits with status 3.
// interruptAt > 0 interrupts the same way at that virtual instant.
func driveAndReport(h *dismem.Simulation, label, ckptSave string, interruptAt int64) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	interrupted := drive(ctx, h, ckptSave, interruptAt)
	res, err := h.Result()
	if err != nil {
		fatalf("%v", err)
	}
	printReport(label, res)
	if interrupted {
		flushProfiles()
		os.Exit(exitInterrupted)
	}
}

// drive runs the simulation in bounded chunks of virtual time, checking
// for cancellation between chunks so an interrupt is acted on at an
// event boundary on the main goroutine (never a cross-goroutine Stop
// racing the event loop). On interruption it writes the requested
// checkpoint before truncating, so the saved state is exactly the
// reported prefix. A run that reaches interruptAt (> 0) is interrupted
// there, at exactly that virtual instant. A stalled run (no event left
// to fire, jobs still queued) stops driving: its Result is the error.
func drive(ctx context.Context, h *dismem.Simulation, ckptSave string, interruptAt int64) bool {
	const chunk = 3600 // virtual seconds between interrupt checks
	for !h.Done() && !h.Stalled() {
		if ctx.Err() != nil || (interruptAt > 0 && h.Now() >= interruptAt) {
			if ckptSave != "" {
				cp, err := h.Checkpoint()
				if err != nil {
					fatalf("checkpoint at t=%d: %v", h.Now(), err)
				}
				if err := dismem.WriteCheckpointFile(ckptSave, cp); err != nil {
					fatalf("%v", err)
				}
				fmt.Fprintf(os.Stderr, "dmsched: interrupted at t=%d s; resume with -ckpt-load %s\n", h.Now(), ckptSave)
			} else {
				fmt.Fprintf(os.Stderr, "dmsched: interrupted at t=%d s (no -ckpt-save; reporting the partial run)\n", h.Now())
			}
			h.Stop()
			return true
		}
		next := h.Now() + chunk
		if interruptAt > h.Now() && interruptAt < next {
			next = interruptAt
		}
		h.RunUntil(next)
	}
	return false
}

// runFromCheckpoint resumes a durable checkpoint file and completes the
// run — or freezes it again on a further interrupt when ckptSave is
// set (checkpoints chain across any number of interruptions). The
// sampling tick chain is part of the checkpointed state, so with an
// equal (or unset) period the resumed run's -series-out file is
// exactly the suffix the uninterrupted run would have produced after
// the interrupt instant; a different explicit period restarts the
// chain fresh at the resume instant. The -trace-out file likewise
// holds exactly the clean run's trace suffix (tracing is event-driven
// and needs no period at all).
func runFromCheckpoint(path, ckptSave string, interruptAt int64, tele *liveTelemetry) {
	cp, err := dismem.ReadCheckpointFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	fo := dismem.ForkOptions{
		Observer: tele.observer,
		// 0 keeps the checkpointed period and phase (the series
		// suffix-composition contract); a nonzero equal value is the
		// same, a different one re-arms the chain at the resume
		// instant.
		SampleEvery: tele.sampleEvery,
		SeriesSink:  tele.sinks.Series,
		TraceSink:   tele.sinks.Trace,
	}
	if fo.SampleEvery == 0 && tele.wantsSampling() && cp.SampleEvery() == 0 {
		// The checkpointed run never sampled, so there is no phase to
		// preserve: arm a fresh chain at the default period rather
		// than silently producing an empty series.
		fo.SampleEvery = defaultSampleEvery
	}
	h, err := dismem.Fork(cp, fo)
	if err != nil {
		fatalf("%v", err)
	}
	driveAndReport(h, "resumed:"+filepath.Base(path), ckptSave, interruptAt)
}

// runCheckpointed freezes the run at virtual time at, completes the
// original, then replays a forked future from the same instant —
// under forkSc's intervention tail when given, otherwise identical:
// both printed reports must match, which the CI fork-determinism
// smoke checks. The sampling tick chain is checkpointed state, and the
// fork is re-armed at the same period, so the reports match even with
// -progress/-series-out active — the fork's samples stay in phase
// with the original's. The forked run's records, series and trace
// stream to sibling <path>.fork files (a sink cannot be shared across
// runs).
func runCheckpointed(label string, opts dismem.Options, at int64, forkSc *dismem.Scenario, outs cli.Outputs) {
	h, err := dismem.New(opts)
	if err != nil {
		fatalf("%v", err)
	}
	h.RunUntil(at)
	cp, err := h.Checkpoint()
	if err != nil {
		fatalf("checkpoint at t=%d: %v", at, err)
	}
	res, err := h.Run()
	if err != nil {
		fatalf("%v", err)
	}
	printReport(label, res)

	// The fork gets the same observer (observers are never carried
	// across a checkpoint; see dismem.ForkOptions), the same sampling
	// period (equal period = in-phase continuation of the checkpointed
	// tick chain), and its own sink files.
	sinks, err := outs.Open(".fork")
	if err != nil {
		fatalf("%v", err)
	}
	for _, path := range []string{outs.Records, outs.Series, outs.Trace} {
		if path != "" {
			fmt.Fprintf(os.Stderr, "note: forked run output streams to %s.fork\n", path)
		}
	}
	fork, err := dismem.Fork(cp, dismem.ForkOptions{
		Observer:    opts.Observer,
		SampleEvery: opts.SampleEvery,
		Scenario:    forkSc,
		RecordSink:  sinks.Records,
		SeriesSink:  sinks.Series,
		TraceSink:   sinks.Trace,
	})
	if err != nil {
		fatalf("fork: %v", err)
	}
	fres, err := fork.Run()
	if err != nil {
		fatalf("fork: %v", err)
	}
	fmt.Printf("--- fork at t=%d ---\n", at)
	printReport(label, fres)
}

// defaultSampleEvery is the sampling period (simulated seconds) used
// when -series-out or -metrics-addr need ticks but no explicit period
// was given via -series-every or -progress.
const defaultSampleEvery = 3600

// liveTelemetry bundles the consumers of the engine's observation
// hooks — the -progress printer, the -series-out sink and the
// -metrics-addr gauges on the sampling clock, plus the event-driven
// -trace-out sink — resolved from their flags once and wired
// identically into every run path.
type liveTelemetry struct {
	sampleEvery int64           // explicit period from flags (0 = none given)
	observer    dismem.Observer // progress printer and/or gauge mirror (nil = neither)
	sinks       cli.Sinks       // -records-out, -series-out and -trace-out (nil = off)
}

// newTelemetry resolves the observation flags. It is also the flag
// validator: -progress and -series-every drive the same clock, so
// disagreeing periods are a fatal usage error, not a silent pick.
func newTelemetry(progress, seriesEv time.Duration, metrAddr string, sinks cli.Sinks) *liveTelemetry {
	prog := periodSeconds(progress)
	ser := periodSeconds(seriesEv)
	if prog > 0 && ser > 0 && prog != ser {
		fatalf("-progress %v and -series-every %v disagree; the run has a single sampling clock, so pass equal periods (or drop one)", progress, seriesEv)
	}
	t := &liveTelemetry{sampleEvery: prog, sinks: sinks}
	if ser > 0 {
		t.sampleEvery = ser
	}
	var obs []dismem.Observer
	if prog > 0 {
		obs = append(obs, progressPrinter{})
	}
	if metrAddr != "" {
		g := telemetry.NewGaugeSet()
		if err := cli.ServeMetrics("dmsched", metrAddr, g); err != nil {
			fatalf("%v", err)
		}
		obs = append(obs, &gaugeObserver{g: g})
	}
	switch len(obs) {
	case 0:
	case 1:
		t.observer = obs[0]
	default:
		t.observer = fanObserver{targets: obs}
	}
	return t
}

// periodSeconds converts a duration flag to whole simulated seconds;
// sub-second values still mean "sample" (clamped up to 1s).
func periodSeconds(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	if s := int64(d / time.Second); s >= 1 {
		return s
	}
	return 1
}

// wantsSampling reports whether any consumer needs the sampling tick
// chain armed. The trace sink deliberately does not count: tracing is
// event-driven and works with sampling off entirely.
func (t *liveTelemetry) wantsSampling() bool {
	return t.observer != nil || t.sinks.Series != nil
}

// apply wires the resolved consumers into a fresh run's options,
// defaulting the period when a consumer needs ticks and no explicit
// period was given.
func (t *liveTelemetry) apply(opts dismem.Options) dismem.Options {
	opts.Observer = t.observer
	opts.RecordSink = t.sinks.Records
	opts.SeriesSink = t.sinks.Series
	opts.TraceSink = t.sinks.Trace
	opts.SampleEvery = t.sampleEvery
	if opts.SampleEvery == 0 && t.wantsSampling() {
		opts.SampleEvery = defaultSampleEvery
	}
	return opts
}

// fanObserver fans each sample out to several consumers in order.
type fanObserver struct {
	dismem.NopObserver
	targets []dismem.Observer
}

// OnSample implements dismem.Observer.
func (f fanObserver) OnSample(s dismem.Sample) {
	for _, o := range f.targets {
		o.OnSample(s)
	}
}

// gaugeObserver mirrors each sample into the /metrics gauges, with the
// same metric families dmserve exports for its baseline.
type gaugeObserver struct {
	dismem.NopObserver
	g *telemetry.GaugeSet
}

// OnSample implements dismem.Observer.
func (o *gaugeObserver) OnSample(s dismem.Sample) { cli.SampleGauges(o.g, s) }

// progressPrinter streams one status line per sample tick.
type progressPrinter struct{ dismem.NopObserver }

// OnSample implements dismem.Observer.
func (progressPrinter) OnSample(s dismem.Sample) {
	fmt.Fprintf(os.Stderr,
		"t=%7.1fh  queued %4d  running %4d  done %6d  busy %3d nodes  pool %5.1f%%  %d events\n",
		float64(s.Now)/3600, s.QueueDepth, s.Running, s.Done,
		s.Usage.BusyNodes, 100*s.Usage.MaxPoolUtil, s.Events)
}

func printReport(policy string, res *dismem.Result) {
	fmt.Print(report.Format(policy, res))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dmsched: "+format+"\n", args...)
	flushProfiles()
	os.Exit(1)
}

// flushProfiles finalises -cpuprofile/-memprofile (see profiling.Start);
// fatalf and the interrupt exit call it ahead of os.Exit.
var flushProfiles = func() {}
