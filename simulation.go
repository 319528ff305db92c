package dismem

import (
	"fmt"

	"dismem/internal/memmodel"
	"dismem/internal/sim"
)

// Simulation is a long-lived handle on one in-flight simulation. Unlike
// Simulate, which runs to completion, a Simulation can be advanced
// event by event (Step) or to a virtual deadline (RunUntil), queried
// for live state between advances (Now, QueueDepth, Running, Usage),
// and stopped early (Stop). It is single-goroutine state: drive it from
// one goroutine only.
type Simulation struct {
	eng *sim.Engine
	// opts is retained so Checkpoint can record how the run was built
	// (Fork rebuilds a fresh scheduler from the policy spec when the
	// fork does not override it).
	opts Options
	// horizon, when > 0, is where Run truncates this forked future
	// (ForkOptions.Horizon); Fork has already validated it against the
	// checkpoint's frozen clock.
	horizon int64
}

// New validates o, builds the engine and primes the event queue without
// firing any event: the returned handle sits at virtual time 0 with
// every arrival scheduled. Drive it with Step / RunUntil / Run and
// collect the outcome with Result.
func New(o Options) (*Simulation, error) { return newSimulation(o, nil) }

// newSimulation builds a Simulation, optionally recycling a finished
// prior engine's run-independent state (machine, event pool, scratch).
// prev == nil is a plain fresh construction; see sim.NewReusing for
// what reuse preserves and the bit-identity contract it keeps.
func newSimulation(o Options, prev *sim.Engine) (*Simulation, error) {
	if o.Workload == nil && o.Source == nil {
		return nil, fmt.Errorf("dismem: nil workload (set Options.Workload or Options.Source)")
	}
	if o.Workload != nil && o.Source != nil {
		return nil, fmt.Errorf("dismem: both Workload and Source set; choose one")
	}
	cfg, err := o.simConfig()
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewReusing(cfg, prev)
	if err != nil {
		return nil, err
	}
	if o.Source != nil {
		err = eng.StartSource(o.Source)
	} else {
		err = eng.Start(o.Workload)
	}
	if err != nil {
		return nil, err
	}
	return &Simulation{eng: eng, opts: o}, nil
}

// simConfig turns o into the engine configuration: it applies the
// defaults (DefaultMachine, DefaultModel) to o itself, so o records
// what the run uses, then validates the machine, parses the model,
// builds the scheduler and wires the consumers. It is the one place
// Options become a sim.Config; New, Runner, LoadCheckpoint and Fork all
// build through it.
func (o *Options) simConfig() (sim.Config, error) {
	if o.Machine.IsZero() {
		o.Machine = DefaultMachine()
	}
	if err := o.Machine.Validate(); err != nil {
		return sim.Config{}, fmt.Errorf("dismem: %w", err)
	}
	model := o.ModelImpl
	if model == nil {
		if o.Model == "" {
			o.Model = DefaultModel
		}
		var err error
		if model, err = memmodel.Parse(o.Model); err != nil {
			return sim.Config{}, err
		}
	}
	s := o.SchedulerImpl
	if s == nil {
		var err error
		if s, err = NewScheduler(o.Policy); err != nil {
			return sim.Config{}, err
		}
	}
	return sim.Config{
		Machine:         o.Machine,
		Model:           model,
		Scheduler:       s,
		ExtendLimit:     !o.StrictKill,
		CheckInvariants: o.CheckInvariants,
		Failures:        o.Failures,
		Scenario:        o.Scenario,
		Observer:        o.Observer,
		SampleEvery:     o.SampleEvery,
		RecordSink:      o.RecordSink,
		SeriesSink:      o.SeriesSink,
		TraceSink:       o.TraceSink,
	}, nil
}

// Step fires the single earliest event. It returns false once the
// simulation is done (drained or stopped).
func (s *Simulation) Step() bool { return s.eng.Step() }

// RunUntil fires every event scheduled at or before virtual time t and
// leaves the clock at exactly t, even when the simulation's last event
// is earlier (use the final Report, not Now, to recover the true end
// of a run).
func (s *Simulation) RunUntil(t int64) { s.eng.RunUntil(t) }

// Run advances the simulation to completion and returns the result:
// New + Run is equivalent to Simulate. A fork taken with
// ForkOptions.Horizon > 0 instead advances to that horizon and
// truncates there (Result.Stopped set), unless it drains first.
func (s *Simulation) Run() (*Result, error) {
	if s.horizon > 0 {
		s.eng.RunUntil(s.horizon)
		if !s.eng.Done() {
			s.eng.Stop()
		}
	} else {
		s.eng.RunAll()
	}
	return s.eng.Finish()
}

// Stop halts the simulation after the current event: a deliberate
// early exit, not an error. Result then covers the simulated prefix
// with Result.Stopped set. Safe to call from Observer callbacks.
func (s *Simulation) Stop() { s.eng.Stop() }

// Now returns the virtual clock in seconds since simulation start.
func (s *Simulation) Now() int64 { return s.eng.Now() }

// Done reports whether the simulation can make no more progress:
// everything terminated, or Stop was called.
func (s *Simulation) Done() bool { return s.eng.Done() }

// Stalled reports whether the run can make no more progress although
// it has not finished: its event queue drained with jobs still queued
// or running, for example behind nodes a scenario took down for good.
// Result then returns the error Simulate would.
func (s *Simulation) Stalled() bool { return s.eng.Stalled() }

// QueueDepth returns the number of jobs waiting to be dispatched.
func (s *Simulation) QueueDepth() int { return s.eng.QueueDepth() }

// Running returns the number of jobs currently holding resources.
func (s *Simulation) Running() int { return s.eng.RunningCount() }

// Usage returns the live machine occupancy snapshot; O(pools).
func (s *Simulation) Usage() Usage { return s.eng.Usage() }

// Events returns the number of DES events fired so far.
func (s *Simulation) Events() uint64 { return s.eng.Events() }

// Sample returns the full live-state snapshot observers receive.
func (s *Simulation) Sample() Sample { return s.eng.Sample() }

// Result closes the metrics window and returns the outcome. It errors
// while events or arrivals are still pending (advance with Run, or
// truncate with Stop, first), and for a stalled run (see Stalled);
// afterwards it is idempotent.
func (s *Simulation) Result() (*Result, error) {
	if !s.eng.Done() && !s.eng.Stalled() {
		return nil, fmt.Errorf("dismem: simulation has pending work at t=%d; call Run to finish or Stop to truncate", s.eng.Now())
	}
	return s.eng.Finish()
}
