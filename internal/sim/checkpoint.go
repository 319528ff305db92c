package sim

import (
	"fmt"
	"maps"
	"slices"

	"dismem/internal/cluster"
	"dismem/internal/des"
	"dismem/internal/memmodel"
	"dismem/internal/metrics"
	"dismem/internal/source"
	"dismem/internal/stats"
)

// This file implements checkpoint/fork of a live engine. A Checkpoint
// is a passive deep snapshot taken between events: machine, recorder,
// queue, running set, source cursor, failure RNG and the DES queue as
// event records (des.Snapshot — the closures themselves are never
// copied; Resume rebuilds them from their kind tags). Both directions
// copy the engine's runState with one clone: Checkpoint clones the
// live engine's, and Resume clones the checkpoint's again into a fresh
// engine, so one checkpoint can seed any number of divergent futures.
// A future resumed under the checkpointed configuration is
// bit-identical to running the original on: same events in the same
// order, same report, same records (DESIGN.md §8).

// Checkpoint is a frozen engine state. It is immutable once taken:
// Resume deep-copies everything it hands to the new engine, and the
// checkpointed source cursor is forked, never advanced.
type Checkpoint struct {
	cfg    Config // without live consumers (see frozen)
	now    int64
	fired  uint64
	events []des.EventRecord

	// runState is the engine's, cloned: its running jobs hold their
	// allocations on the checkpoint's machine and no end events (those
	// are in events), and its source is a frozen fork of the live
	// cursor, nil once exhausted.
	runState
}

// Now returns the virtual time the checkpoint was taken at.
func (cp *Checkpoint) Now() int64 { return cp.now }

// frozen returns cfg without its live consumers — the observer and the
// record, series and trace sinks — which a checkpoint never carries.
func frozen(cfg Config) Config {
	cfg.Observer, cfg.RecordSink, cfg.SeriesSink, cfg.TraceSink = nil, nil, nil, nil
	return cfg
}

// clone deep-copies the run state so the copy and the original evolve
// independently: scalars by assignment; the machine, recorder, queue,
// running set, restarts, scenario-held nodes and failure RNG by copy;
// the source by fork. Running jobs get their allocations from the
// cloned machine and no end event; the caller rewires those from the
// DES records. It fails when a source with arrivals left cannot fork.
func (s *runState) clone() (runState, error) {
	c := *s
	c.src = nil
	if !s.srcDone {
		f, ok := s.src.(source.Forkable)
		if !ok {
			return runState{}, fmt.Errorf("sim: source %T does not support forking (see source.Forkable)", s.src)
		}
		if c.src = f.Fork(); c.src == nil {
			return runState{}, fmt.Errorf("sim: source %T declined to fork", s.src)
		}
	}
	c.m = s.m.Clone()
	c.rec = s.rec.Clone()
	c.queue = slices.Clone(s.queue)
	c.runIDs = slices.Clone(s.runIDs)
	c.endOrder = slices.Clone(s.endOrder)
	c.running = make(map[int]*runningState, len(s.running))
	for id, rs := range s.running {
		alloc, ok := c.m.AllocationOf(id)
		if !ok {
			return runState{}, fmt.Errorf("sim: running job %d has no allocation on the cloned machine", id)
		}
		c.running[id] = &runningState{
			job: rs.job, alloc: alloc, start: rs.start, limit: rs.limit,
			dilAtStart: rs.dilAtStart, workLeft: rs.workLeft,
			rate: rs.rate, lastUpdate: rs.lastUpdate,
		}
	}
	c.restarts = make(map[int]int, len(s.restarts))
	maps.Copy(c.restarts, s.restarts)
	c.scenarioDown = make(map[cluster.NodeID]bool, len(s.scenarioDown))
	maps.Copy(c.scenarioDown, s.scenarioDown)
	if s.failRNG != nil {
		c.failRNG = s.failRNG.Clone()
	}
	return c, nil
}

// Checkpoint captures the engine's complete state at the current event
// boundary. The engine must be started, not finished and not stopped;
// with a streaming source, the source must implement source.Forkable
// (SWF streams do not — materialise the trace to checkpoint it).
// Checkpointing does not disturb the engine: it can keep running, and
// its future is unaffected by any forks taken from the checkpoint.
//
// The pending periodic sampling tick IS captured (it is an ordinary
// tagged event; only the consumers — observer, series sink, trace
// sink — are live and cleared). A future resumed with its own Observer or
// SeriesSink therefore continues the checkpointed tick chain in phase:
// its sample instants, and their order relative to same-instant
// events, are identical to the uninterrupted run's (DESIGN.md §11).
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	if !e.started {
		return nil, fmt.Errorf("sim: checkpoint of an unstarted engine")
	}
	if e.finished {
		return nil, fmt.Errorf("sim: checkpoint of a finished engine")
	}
	if e.sim.Stopped() {
		return nil, fmt.Errorf("sim: checkpoint of a stopped engine")
	}
	st, err := e.runState.clone()
	if err != nil {
		return nil, err
	}
	events, err := e.sim.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		cfg:      frozen(e.cfg),
		now:      int64(e.sim.Now()),
		fired:    e.sim.Fired(),
		events:   events,
		runState: st,
	}, nil
}

// Overrides adjusts a resumed future beyond its configuration. The zero
// value continues the checkpointed failure stream.
type Overrides struct {
	// ReseedFailures redraws the future failure stream from
	// FailureSeed: the pending next-failure event is discarded and
	// re-armed from the new stream (repairs of already-failed nodes
	// still complete on schedule). Requires failure injection to have
	// been configured.
	ReseedFailures bool
	FailureSeed    uint64
}

// Resume builds a fresh engine that continues a checkpoint under cfg,
// the future's configuration. cfg keeps the checkpointed run's machine,
// model, limit policy and failure injection; the rest may change:
//
//   - Scheduler runs the future's passes. Reusing the checkpointed
//     instance is fine for sequential use, but concurrent forks should
//     each get a fresh scheduler, since schedulers carry internal
//     caches.
//   - A Scenario other than the checkpoint's replaces the REMAINING
//     intervention timeline: pending interventions are discarded and
//     the new scenario's events are scheduled instead (events dated
//     before the checkpoint are skipped — this timeline's past already
//     happened). Nil or an empty scenario cancels every pending
//     intervention. The replacement must not modulate arrivals: the
//     arrival process was warped before the run started and cannot be
//     rewarped mid-flight.
//   - With the checkpoint's SampleEvery, the restored tick chain
//     continues in phase, so the future's sample instants are the
//     uninterrupted run's. A different period discards the restored
//     tick and starts a fresh chain at the resume instant, as does a
//     sampling future of a checkpoint that held no tick.
//   - Observer, SeriesSink and TraceSink are the future's own consumers
//     (a checkpoint never carries the parent's). A resumed run's JSONL
//     series and trace are the uninterrupted run's minus what the
//     parent already streamed: concatenating the two reproduces the
//     clean run's files byte for byte.
//   - RecordSink receives the future's records. When nil and the
//     checkpointed run recorded boundedly, the future uses
//     metrics.Discard: a bounded run cannot re-emit the records the
//     prefix already streamed.
//
// The checkpoint is not consumed: resume from it as many times as
// needed, including concurrently (each future gets fully independent
// state except the scheduler cfg names).
func Resume(cp *Checkpoint, cfg Config, o Overrides) (*Engine, error) {
	replaceScenario := cfg.Scenario != cp.cfg.Scenario
	if replaceScenario {
		if err := cfg.Scenario.Validate(); err != nil {
			return nil, err
		}
		if cfg.Scenario.Modulates() {
			return nil, fmt.Errorf("sim: fork scenario must not modulate arrivals (the arrival process is warped before the run starts)")
		}
	}
	if o.ReseedFailures && cfg.Failures == nil {
		return nil, fmt.Errorf("sim: cannot reseed failures: checkpointed run has no failure injection")
	}
	// A changed sampling period cannot continue the checkpointed tick
	// chain: the restored tick (scheduled one old period after the last
	// fire) is dropped and a fresh chain starts at the resume instant.
	periodChanged := cfg.SampleEvery != cp.cfg.SampleEvery
	if cfg.RecordSink == nil && cp.rec.Bounded() {
		cfg.RecordSink = metrics.Discard
	}

	st, err := cp.runState.clone()
	if err != nil {
		return nil, err
	}
	if cfg.RecordSink != nil {
		st.rec.SetSink(cfg.RecordSink)
	}
	e := &Engine{
		cfg:      cfg,
		obs:      cfg.Observer,
		series:   cfg.SeriesSink,
		trace:    cfg.TraceSink,
		started:  true,
		reDilate: memmodel.ContentionSensitive(cfg.Model),
		runState: st,
	}
	e.bindHandlers()
	if cfg.Scenario != nil {
		// scenEvs is indexed by intervention index (the evScenario
		// payload); slots are filled from the restored records or the
		// replacement timeline below.
		e.scenEvs = make([]*des.Event, len(cfg.Scenario.Events))
	}

	// Rebuild the DES queue from the records: each kind maps back to
	// the engine's per-family handler — the record's payload travels in
	// des.Event.Data, exactly as a live-scheduled event's would. Records
	// the future replaces (a new scenario, a reseeded failure stream, a
	// changed or unconsumed tick chain) are dropped here (nil handler); a kind
	// this switch does not know is a maintenance bug (a new event family
	// without a Resume arm) and must fail the restore, not silently
	// drop the event and break the bit-identical contract.
	var rebuildErr error
	sim2, evs, err := des.Restore(des.Time(cp.now), cp.fired, cp.events, func(r des.EventRecord) des.Handler {
		switch r.Kind {
		case evArrival:
			return e.hArrival
		case evPass:
			return e.hPass
		case evEnd:
			return e.hEnd
		case evFailure:
			if o.ReseedFailures {
				return nil // re-armed below from the new stream
			}
			return e.hFailure
		case evRepair:
			return e.hRepair
		case evScenario:
			if replaceScenario {
				return nil // the new timeline is scheduled below
			}
			return e.hScenario
		case evSample:
			if !e.sampling() || periodChanged {
				return nil // no consumer, or a fresh chain is armed below
			}
			return e.hSample
		default:
			rebuildErr = fmt.Errorf("sim: checkpoint holds event of unknown kind %d (Resume not updated for a new event family?)", r.Kind)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	if rebuildErr != nil {
		return nil, rebuildErr
	}
	e.sim = sim2

	// Rewire the event handles the engine tracks.
	for i, r := range cp.events {
		ev := evs[i]
		if ev == nil {
			continue
		}
		switch r.Kind {
		case evEnd:
			p := r.Data.(endPayload)
			rs, ok := e.running[p.ID]
			if !ok {
				return nil, fmt.Errorf("sim: checkpoint end event for job %d not in running set", p.ID)
			}
			rs.endEv = ev
		case evFailure:
			e.failEv = ev
		case evScenario:
			e.scenEvs[r.Data.(int)] = ev
		case evPass:
			e.passQueue = true
		case evSample:
			e.sampleEv = ev
		}
	}
	for id, rs := range e.running {
		if rs.endEv == nil {
			return nil, fmt.Errorf("sim: checkpoint running job %d has no end event", id)
		}
	}

	if e.outstanding() {
		// Post-restore arming, in a fixed order for determinism: the
		// replacement scenario's future events, a reseeded failure
		// stream, then fresh sampling ticks.
		if replaceScenario && cfg.Scenario != nil {
			for i := range cfg.Scenario.Events {
				ev := cfg.Scenario.Events[i]
				if ev.At < cp.now {
					continue // this timeline's past already happened
				}
				e.scenEvs[i] = e.sim.ScheduleKind(des.Time(ev.At), evScenario, i, e.hScenario)
			}
		}
		if o.ReseedFailures {
			e.failRNG = stats.NewRNG(o.FailureSeed)
			e.scheduleNextFailure()
		}
		if e.sampling() && e.sampleEv == nil {
			// The checkpointed run was not sampling (or the period
			// changed): start a fresh tick chain at the resume instant.
			// A restored tick takes precedence — it keeps the resumed
			// run's sample instants identical to the uninterrupted
			// run's.
			e.scheduleNextSample()
		}
	}
	return e, nil
}
