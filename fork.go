package dismem

import (
	"fmt"

	"dismem/internal/sim"
)

// Checkpoint is a frozen deep copy of a live Simulation at one event
// boundary: machine, queue, running jobs, metrics, source cursor,
// failure RNG and the pending event queue (captured as serializable
// records, not closures). A checkpoint is immutable and reusable —
// Fork from it any number of times, each future fully independent —
// and taking it does not disturb the parent, which can keep running.
//
// Concurrency contract: a Checkpoint is never mutated after it is
// taken, and Fork only reads it (everything handed to a new future is
// deep-copied first), so any number of goroutines may Fork the same
// Checkpoint simultaneously with no external locking — the property
// the serving layer's concurrent what-if queries (internal/serve) rely
// on, pinned by a -race test that requires 8 concurrent forks to be
// bit-identical to a serial one. The single exception is a run built
// with Options.SchedulerImpl: its forks share that live scheduler
// instance (see Fork).
//
// Determinism contract (DESIGN.md §8): a fork taken with zero
// ForkOptions replays exactly the future the parent would have run —
// bit-identical events, report and records to a from-scratch run of
// the same configuration. Overridden forks (new scenario tail, policy,
// failure seed) are each deterministic per override.
//
// What cannot be checkpointed: a streaming SWF source (an io.Reader's
// position cannot be duplicated — materialise the trace first), and
// Observers, RecordSinks, SeriesSinks and TraceSinks (live callbacks
// and writers; forks attach their own via ForkOptions — the sampling
// tick chain itself IS checkpointed, so a fork's samples stay in phase
// with the parent's).
type Checkpoint struct {
	cp   *sim.Checkpoint
	opts Options
}

// At returns the virtual time the checkpoint was taken at.
func (c *Checkpoint) At() int64 { return c.cp.Now() }

// Policy returns the policy name or spec string the checkpointed run
// was built with ("" for a run built with Options.SchedulerImpl).
func (c *Checkpoint) Policy() string { return c.opts.Policy }

// Model returns the memory-model spec of the checkpointed run ("" for
// a run built with Options.ModelImpl; the engine default is
// "linear:0.5").
func (c *Checkpoint) Model() string { return c.opts.Model }

// SampleEvery returns the sampling period the checkpointed run was
// built with (0 = sampling was off). A Fork that passes
// ForkOptions.SampleEvery equal to this value — or 0 — continues the
// checkpointed tick chain in phase; any other value re-arms it fresh
// at the fork instant.
func (c *Checkpoint) SampleEvery() int64 { return c.opts.SampleEvery }

// Checkpoint captures the simulation's complete state at the current
// event boundary. The simulation must still be live: not stopped and
// not finished. Advance to the capture instant first, e.g.
//
//	s, _ := dismem.New(opts)
//	s.RunUntil(21600)          // replay the morning
//	cp, err := s.Checkpoint()  // freeze 06:00
//
// and fork divergent futures with Fork.
func (s *Simulation) Checkpoint() (*Checkpoint, error) {
	cp, err := s.eng.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("dismem: %w", err)
	}
	return &Checkpoint{cp: cp, opts: s.opts}, nil
}

// ForkOptions adjusts a forked future relative to the checkpointed
// run. The zero value resumes the identical future.
type ForkOptions struct {
	// Policy replaces the scheduling policy for the future (name or
	// spec string, as Options.Policy). Empty keeps the checkpointed
	// policy; SchedulerImpl overrides both. The replacement scheduler
	// starts fresh — schedulers are stateless between passes, so this
	// only matters for custom stateful implementations.
	Policy string
	// SchedulerImpl overrides Policy with a concrete scheduler.
	SchedulerImpl Scheduler
	// Scenario replaces the REMAINING intervention timeline: pending
	// interventions from the original scenario are dropped, and the
	// replacement's events fire instead (events dated before the
	// checkpoint are skipped — that part of the timeline already
	// happened or didn't). Pass an empty Scenario to cancel all
	// pending interventions; nil keeps the original timeline. The
	// replacement must not modulate arrivals (surge/diurnal): the
	// arrival process was warped before the run started.
	Scenario *Scenario
	// ScenarioSpec is Scenario as a grammar string (ParseScenario
	// syntax) — the form serving layers pass straight through from
	// request bodies. It is parsed and validated before any engine
	// state is touched, so a malformed spec or one that modulates
	// arrivals is a pointed error from Fork, never a failure deep
	// inside the replayed future. Setting both ScenarioSpec and
	// Scenario is an error.
	ScenarioSpec string
	// Horizon bounds the forked future: when > 0, Run advances the
	// fork only to virtual time Horizon and truncates there
	// (Result.Stopped marks a future cut short; a future that drains
	// before the horizon completes normally). 0 runs to completion.
	// A horizon earlier than the checkpoint's frozen clock is an
	// error — that part of the timeline is already decided.
	Horizon int64
	// ReseedFailures redraws the future failure stream from
	// FailureSeed (the pending next-failure event is discarded;
	// repairs of already-failed nodes still complete). Requires the
	// checkpointed run to have failure injection configured.
	ReseedFailures bool
	FailureSeed    uint64
	// Observer receives the fork's lifecycle callbacks. When the
	// checkpointed run was sampling, the fork continues the tick chain
	// in phase: its sample instants are identical to the uninterrupted
	// run's. Parent observers are never carried over.
	Observer Observer
	// SampleEvery overrides the sampling period (0 keeps the original
	// period and phase; a different period restarts the chain at the
	// fork instant).
	SampleEvery int64
	// RecordSink receives the fork's per-job records. When nil and the
	// original run recorded boundedly, the fork uses DiscardRecords
	// (prefix records already streamed to the parent's sink and cannot
	// be re-emitted).
	RecordSink Sink
	// SeriesSink receives the fork's utilization series (nil = none;
	// parent sinks are never carried over). For a resumed run this
	// yields exactly the suffix of the clean run's series:
	// concatenating the parent's JSONL series with the fork's
	// reproduces an uninterrupted run's file byte for byte.
	SeriesSink SeriesSink
	// TraceSink receives the fork's lifecycle trace events (nil = none;
	// parent sinks are never carried over). Like the series, a resumed
	// run's JSONL trace is exactly the suffix of the clean run's:
	// concatenating the parent's trace with the fork's reproduces an
	// uninterrupted run's file byte for byte.
	TraceSink TraceSink
}

// Fork resumes one divergent future from a checkpoint: same prefix,
// then the future o describes. The canonical what-if shape —
//
//	cp, _ := s.Checkpoint()
//	base, _ := dismem.Fork(cp, dismem.ForkOptions{})
//	hit, _ := dismem.Fork(cp, dismem.ForkOptions{Scenario: outage})
//
// runs the same warmed-up morning into both futures without replaying
// it. Each fork is an independent Simulation: drive it with
// Step/RunUntil/Run and collect Result as usual.
//
// When neither Policy nor SchedulerImpl is set and the original run
// selected its scheduler by policy string, the fork gets a fresh
// scheduler built from that same string, so concurrent forks never
// share scheduler internals. An original built with
// Options.SchedulerImpl shares that instance across its forks — drive
// such forks sequentially or provide per-fork schedulers.
func Fork(cp *Checkpoint, o ForkOptions) (*Simulation, error) {
	if cp == nil {
		return nil, fmt.Errorf("dismem: fork of a nil checkpoint")
	}
	// Validate every override up front, before any engine state is
	// rebuilt: a bad what-if request must fail here with a pointed
	// error, not surface as a confusing failure deep inside sim (or
	// worse, cost a full future replay first).
	if o.Horizon != 0 && o.Horizon < cp.At() {
		return nil, fmt.Errorf("dismem: fork horizon t=%d precedes the checkpoint's frozen clock t=%d (that part of the timeline is already decided; fork from an earlier checkpoint)", o.Horizon, cp.At())
	}
	if o.ScenarioSpec != "" {
		if o.Scenario != nil {
			return nil, fmt.Errorf("dismem: both ScenarioSpec and Scenario set; choose one")
		}
		sc, err := ParseScenario(o.ScenarioSpec)
		if err != nil {
			return nil, fmt.Errorf("dismem: fork scenario: %w", err)
		}
		o.Scenario = sc
	}
	if o.Scenario != nil && o.Scenario.Modulates() {
		return nil, fmt.Errorf("dismem: fork scenario must not modulate arrivals (surge/diurnal warp submit times before a run starts and cannot be re-applied at a fork)")
	}
	over := sim.Overrides{
		Scenario:       o.Scenario,
		ReseedFailures: o.ReseedFailures,
		FailureSeed:    o.FailureSeed,
		Observer:       o.Observer,
		SampleEvery:    o.SampleEvery,
		RecordSink:     o.RecordSink,
		SeriesSink:     o.SeriesSink,
		TraceSink:      o.TraceSink,
	}
	switch {
	case o.SchedulerImpl != nil:
		over.Scheduler = o.SchedulerImpl
	case o.Policy != "":
		s, err := NewScheduler(o.Policy)
		if err != nil {
			return nil, fmt.Errorf("dismem: fork policy: %w", err)
		}
		over.Scheduler = s
	case cp.opts.SchedulerImpl == nil:
		// Rebuild from the original policy string so every fork owns
		// its scheduler (instances carry internal caches).
		s, err := NewScheduler(cp.opts.Policy)
		if err != nil {
			return nil, err
		}
		over.Scheduler = s
	}
	eng, err := sim.Resume(cp.cp, over)
	if err != nil {
		return nil, fmt.Errorf("dismem: %w", err)
	}
	// The fork's recorded options track its effective configuration, so
	// checkpointing a fork works like checkpointing an original run.
	opts := cp.opts
	if o.SchedulerImpl != nil {
		opts.SchedulerImpl, opts.Policy = o.SchedulerImpl, ""
	} else if o.Policy != "" {
		opts.SchedulerImpl, opts.Policy = nil, o.Policy
	}
	if o.Scenario != nil {
		opts.Scenario = o.Scenario
	}
	if o.RecordSink != nil {
		opts.RecordSink = o.RecordSink
	}
	opts.Observer = o.Observer
	opts.SeriesSink = o.SeriesSink
	opts.TraceSink = o.TraceSink
	// SampleEvery 0 keeps the checkpointed period, so the recorded
	// options keep it too: a re-checkpointed fork must persist the
	// period its live tick chain actually runs at, or resuming that
	// second-generation checkpoint would reject its pending tick.
	if o.SampleEvery > 0 {
		opts.SampleEvery = o.SampleEvery
	}
	return &Simulation{eng: eng, opts: opts, horizon: o.Horizon}, nil
}
