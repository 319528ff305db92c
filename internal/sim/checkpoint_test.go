package sim

import (
	"strings"
	"testing"

	"dismem/internal/des"
	"dismem/internal/metrics"
	"dismem/internal/scenario"
	"dismem/internal/source"
	"dismem/internal/workload"
)

// forkCfg is the adversarial full-stack configuration for fork tests:
// contention-sensitive model (re-dilation), pool spills, random
// failures and a scenario timeline all at once.
func forkCfg() Config {
	cfg := streamCfg()
	cfg.CheckInvariants = true
	cfg.Failures = &FailureConfig{MTBFPerNodeSec: 50000, RepairSec: 4000, Seed: 11}
	cfg.Scenario = mustScenario("at=25000 resize pool=0 cap=2000; at=30000 down node=0; at=36000 up node=0; at=40000 beta scale=2; at=60000 resize pool=0 cap=4000")
	return cfg
}

func mustScenario(spec string) *scenario.Scenario {
	sc, err := scenario.Parse(spec)
	if err != nil {
		panic(err)
	}
	return sc
}

// withCfg returns the checkpoint's configuration changed by edit: the
// Config a future that overrides part of the run resumes under.
func withCfg(cp *Checkpoint, edit func(*Config)) Config {
	cfg := cp.cfg
	edit(&cfg)
	return cfg
}

// finish runs the engine to completion and returns the result.
func finish(t *testing.T, e *Engine) *Result {
	t.Helper()
	e.RunAll()
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult compares two results field by field: report, event count,
// scenario interventions and per-job records.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if *a.Report != *b.Report {
		t.Fatalf("%s: reports differ:\n%+v\n%+v", label, a.Report, b.Report)
	}
	if a.Events != b.Events {
		t.Fatalf("%s: events %d != %d", label, a.Events, b.Events)
	}
	if a.ScenarioEvents != b.ScenarioEvents {
		t.Fatalf("%s: scenario events %d != %d", label, a.ScenarioEvents, b.ScenarioEvents)
	}
	ra, rb := a.Recorder.Records(), b.Recorder.Records()
	if len(ra) != len(rb) {
		t.Fatalf("%s: %d records != %d", label, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%s: record %d differs:\n%+v\n%+v", label, i, ra[i], rb[i])
		}
	}
	fa, fb := a.Recorder.Fairness(), b.Recorder.Fairness()
	if fa.JainWait != fb.JainWait {
		t.Fatalf("%s: Jain(wait) %v != %v", label, fa.JainWait, fb.JainWait)
	}
}

// TestForkBitIdentical is the golden fork-determinism test: run to T,
// checkpoint, fork with no overrides — the fork's completion must be
// bit-identical to a from-scratch run (events, report, records), and
// the parent must be undisturbed by having been checkpointed.
func TestForkBitIdentical(t *testing.T) {
	w := testWorkload(250, 3)

	fresh := runSlice(t, forkCfg(), w)

	for _, at := range []int64{1, 20000, 45000} {
		parent, err := New(forkCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := parent.Start(w); err != nil {
			t.Fatal(err)
		}
		parent.RunUntil(at)
		cp, err := parent.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", at, err)
		}
		if cp.Now() != at {
			t.Fatalf("checkpoint time %d, want %d", cp.Now(), at)
		}

		fork, err := Resume(cp, cp.cfg, Overrides{})
		if err != nil {
			t.Fatalf("resume at %d: %v", at, err)
		}
		sameResult(t, "fork vs fresh", fresh, finish(t, fork))
		sameResult(t, "parent vs fresh", fresh, finish(t, parent))
	}
}

// TestForkMidStepBitIdentical checkpoints between single Steps — in the
// middle of an instant's event cascade — where pending pass events and
// same-time arrivals are in flight.
func TestForkMidStepBitIdentical(t *testing.T) {
	w := testWorkload(120, 5)
	fresh := runSlice(t, forkCfg(), w)

	parent, err := New(forkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Start(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		if !parent.Step() {
			t.Fatal("engine drained before 37 steps")
		}
	}
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := Resume(cp, cp.cfg, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "mid-step fork vs fresh", fresh, finish(t, fork))
}

// TestForkStreamingSource forks a run fed by a generator stream: the
// source cursor must fork with the engine.
func TestForkStreamingSource(t *testing.T) {
	cfg := streamCfg()
	cfg.CheckInvariants = true
	newSrc := func() source.Source {
		st, err := workload.NewGenStream(testGenConfig(150, 9))
		if err != nil {
			t.Fatal(err)
		}
		return source.Gen(st, 150, 0)
	}

	freshEng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := freshEng.StartSource(newSrc()); err != nil {
		t.Fatal(err)
	}
	fresh := finish(t, freshEng)

	parent, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.StartSource(newSrc()); err != nil {
		t.Fatal(err)
	}
	parent.RunUntil(15000)
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := Resume(cp, cp.cfg, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "streamed fork vs fresh", fresh, finish(t, fork))
	sameResult(t, "streamed parent vs fresh", fresh, finish(t, parent))
}

// TestForkBounded forks a bounded-recording run; the fork (with no sink
// of its own) must produce the same report as a fresh bounded run.
func TestForkBounded(t *testing.T) {
	w := testWorkload(200, 7)
	cfg := forkCfg()
	cfg.RecordSink = metrics.Discard

	fresh := runSlice(t, cfg, w)

	parent, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Start(w); err != nil {
		t.Fatal(err)
	}
	parent.RunUntil(30000)
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := Resume(cp, cp.cfg, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	res := finish(t, fork)
	if *res.Report != *fresh.Report {
		t.Fatalf("bounded fork report differs:\n%+v\n%+v", res.Report, fresh.Report)
	}
	if res.Recorder.Records() != nil {
		t.Fatal("bounded fork retained records")
	}
}

// TestForkTwiceDivergence forks one checkpoint under two failure seeds:
// the futures must diverge from each other, deterministically per seed.
func TestForkTwiceDivergence(t *testing.T) {
	w := testWorkload(250, 3)
	parent, err := New(forkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Start(w); err != nil {
		t.Fatal(err)
	}
	parent.RunUntil(20000)
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	results := map[uint64]*Result{}
	for _, seed := range []uint64{101, 202} {
		a, err := Resume(cp, cp.cfg, Overrides{ReseedFailures: true, FailureSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Resume(cp, cp.cfg, Overrides{ReseedFailures: true, FailureSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := finish(t, a), finish(t, b)
		sameResult(t, "same-seed forks", ra, rb)
		results[seed] = ra
	}
	if *results[101].Report == *results[202].Report {
		t.Fatal("forks with different failure seeds produced identical reports")
	}
}

// TestForkScenarioReplacement replaces the remaining timeline at fork:
// pending original interventions must not fire, the new ones must, and
// the future stays deterministic.
func TestForkScenarioReplacement(t *testing.T) {
	w := testWorkload(250, 3)
	mk := func() *Engine {
		e, err := New(forkCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(w); err != nil {
			t.Fatal(err)
		}
		e.RunUntil(27000) // one intervention (resize@25000) already applied
		return e
	}
	cp, err := mk().Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Empty replacement: every pending intervention is cancelled.
	none, err := Resume(cp, withCfg(cp, func(c *Config) { c.Scenario = &scenario.Scenario{} }), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	resNone := finish(t, none)
	if resNone.ScenarioEvents != 1 {
		t.Fatalf("empty-replacement fork applied %d interventions, want 1 (the prefix's)", resNone.ScenarioEvents)
	}

	// Real replacement: a different outage tail; events dated before
	// the checkpoint are skipped.
	tail := mustScenario("at=1000 beta scale=3; at=35000 down node=1; at=42000 up node=1")
	a, err := Resume(cp, withCfg(cp, func(c *Config) { c.Scenario = tail }), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resume(cp, withCfg(cp, func(c *Config) { c.Scenario = tail }), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := finish(t, a), finish(t, b)
	sameResult(t, "scenario-tail forks", ra, rb)
	if ra.ScenarioEvents != 3 { // prefix resize + down + up (beta@1000 skipped)
		t.Fatalf("tail fork applied %d interventions, want 3", ra.ScenarioEvents)
	}

	// A modulating replacement is rejected: arrivals were warped before
	// the run started.
	if _, err := Resume(cp, withCfg(cp, func(c *Config) { c.Scenario = mustScenario("from=0 until=10 rate=2 surge") }), Overrides{}); err == nil ||
		!strings.Contains(err.Error(), "modulate") {
		t.Fatalf("modulating fork scenario accepted: %v", err)
	}
}

// TestCheckpointErrors pins the refusal cases.
func TestCheckpointErrors(t *testing.T) {
	w := testWorkload(50, 1)

	e, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint of unstarted engine succeeded")
	}
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(5000)
	e.Stop()
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint of stopped engine succeeded")
	}

	e2, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Start(w); err != nil {
		t.Fatal(err)
	}
	e2.RunAll()
	if _, err := e2.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Checkpoint(); err == nil {
		t.Fatal("checkpoint of finished engine succeeded")
	}

	// An unforkable source (SWF stream over a reader) must refuse with
	// a pointed error.
	e3, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	swf := source.SWF(strings.NewReader(
		"1 10 0 3600 1 -1 500 1 7200 -1 1 1 1 -1 -1 -1 -1 -1\n"+
			"2 99999999 0 3600 1 -1 500 1 7200 -1 1 1 1 -1 -1 -1 -1 -1\n"),
		workload.SWFReadOptions{})
	if err := e3.StartSource(swf); err != nil {
		t.Fatal(err)
	}
	e3.RunUntil(20)
	if _, err := e3.Checkpoint(); err == nil || !strings.Contains(err.Error(), "fork") {
		t.Fatalf("checkpoint of SWF stream: %v, want forkability error", err)
	}

	// Reseeding failures without failure injection configured.
	e4, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e4.Start(w); err != nil {
		t.Fatal(err)
	}
	e4.RunUntil(5000)
	cp, err := e4.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(cp, cp.cfg, Overrides{ReseedFailures: true, FailureSeed: 1}); err == nil {
		t.Fatal("reseed without failure config succeeded")
	}
}

// TestDoneReconciliation pins the satellite bugfix: Done must never
// report true while the source still has arrivals to deliver, even if
// the DES queue is (wrongly) empty — the hazard a restore bug would
// create.
func TestDoneReconciliation(t *testing.T) {
	w := testWorkload(20, 1)
	e, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if !e.Done() {
		t.Fatal("drained engine not done")
	}
	// Simulate the inconsistent state: queue empty but the source
	// claims more arrivals. Done must side with the source.
	e.srcDone = false
	if e.Done() {
		t.Fatal("Done() true while the source still has arrivals")
	}
	// Finish must refuse the same state instead of reporting a silently
	// truncated run (Run's path does not consult Done).
	if _, err := e.Finish(); err == nil || !strings.Contains(err.Error(), "undelivered") {
		t.Fatalf("Finish on undelivered-arrivals state: %v, want wiring-bug error", err)
	}
	e.srcDone = true
	if !e.Done() {
		t.Fatal("reconciled engine not done")
	}
}

// TestResumeRejectsUnknownEventKind pins that a checkpoint holding an
// event kind Resume does not know fails the restore instead of
// silently dropping the event.
func TestResumeRejectsUnknownEventKind(t *testing.T) {
	w := testWorkload(30, 1)
	e, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(5000)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.events = append(cp.events, des.EventRecord{Time: des.Time(cp.now + 10), Kind: 999})
	if _, err := Resume(cp, cp.cfg, Overrides{}); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("Resume with unknown event kind: %v, want error", err)
	}
}

// TestRestoreRejectsArrivalPastSource: a serialized state whose source
// is exhausted cannot hold a pending arrival (the engine pulls the next
// job before it schedules one), so the restore refuses it rather than
// resume an engine with no source to pull from.
func TestRestoreRejectsArrivalPastSource(t *testing.T) {
	e, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(testWorkload(30, 1)); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(5000)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	st, err := cp.State()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckpointFromState(streamCfg(), st); err != nil {
		t.Fatalf("restoring the unmodified state: %v", err)
	}
	st.Source, st.SrcDone = nil, true
	if _, err := CheckpointFromState(streamCfg(), st); err == nil || !strings.Contains(err.Error(), "source is exhausted") {
		t.Fatalf("restore of a pending arrival past the source's end: %v, want an error", err)
	}
}
