package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dismem"
	"dismem/internal/metrics"
)

// aggJSON flattens an Agg (including the per-seed reports and records)
// to its JSON encoding, the byte-identity yardstick for resume and
// worker-count invariance.
func aggJSON(t *testing.T, a Agg) string {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// memawareFactory builds the registered memaware scheduler, as a
// factory for live-code cells in tests.
func memawareFactory() dismem.Scheduler {
	s, err := dismem.NewScheduler("memaware")
	if err != nil {
		panic(err)
	}
	return s
}

func openManifest(t *testing.T, path string, o Options, resume bool) *Manifest {
	t.Helper()
	m, err := OpenManifest(path, o, resume)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestWorkerPoolMatchesSerial(t *testing.T) {
	c := Cell{Policy: "memaware"}
	serial, err := c.Run(Options{Jobs: 200, Seeds: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := c.Run(Options{Jobs: 200, Seeds: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if aggJSON(t, serial) != aggJSON(t, pooled) {
		t.Fatal("4-worker aggregate differs from serial aggregate")
	}
}

func TestWorkerPoolOverlapsUnits(t *testing.T) {
	// Every unit blocks at its first sample until all n are inside the
	// predicate simultaneously. A pool that actually runs units
	// concurrently releases the barrier; a serial pool would deadlock
	// on the first unit — guarded by the timeout below.
	const n = 3
	barrier := make(chan struct{})
	var arrived atomic.Int32
	c := Cell{Policy: "memaware", StopWhen: func(dismem.Sample) bool {
		if arrived.Add(1) == n {
			close(barrier)
		}
		<-barrier
		return true
	}}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(Options{Jobs: 200, Seeds: n, Workers: n})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("worker pool did not overlap units: barrier never released")
	}
}

func TestManifestJournalsUnits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	o := Options{Jobs: 150, Seeds: 2}
	m := openManifest(t, path, o, false)
	o.Manifest = m
	if _, err := (Cell{Policy: "memaware"}).Run(o); err != nil {
		t.Fatal(err)
	}
	if got := m.Units(); got != o.Seeds {
		t.Fatalf("journaled %d units, want %d", got, o.Seeds)
	}
	// Re-running the same cell must not append duplicate entries.
	if _, err := (Cell{Policy: "memaware"}).Run(o); err != nil {
		t.Fatal(err)
	}
	if got := m.Units(); got != o.Seeds {
		t.Fatalf("re-run grew the journal to %d units, want %d", got, o.Seeds)
	}
}

func TestManifestServesJournaledUnits(t *testing.T) {
	// Plant a fabricated result under the cell's real unit key: if Run
	// surfaces the marker, the unit came from the journal, not a
	// simulation.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	o := Options{Jobs: 150, Seeds: 1}.withDefaults()
	c := Cell{Policy: "memaware"}
	mc := dismem.DefaultMachine()
	key, err := c.unitKey(o, mc, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := openManifest(t, path, o, false)
	marker := &metrics.Report{Completed: 123456}
	if err := m.record(key, "planted", 0, &UnitResult{Report: marker, JainWait: 0.75}); err != nil {
		t.Fatal(err)
	}
	o.Manifest = m
	agg, err := c.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Reports) != 1 || agg.Reports[0].Completed != 123456 {
		t.Fatal("run did not serve the journaled unit")
	}
	if agg.JainWait != 0.75 {
		t.Fatalf("seed-0 fairness %v not taken from the journal", agg.JainWait)
	}
}

func TestManifestResumeAfterTornCrash(t *testing.T) {
	clean, err := (Cell{Policy: "memaware"}).Run(Options{Jobs: 150, Seeds: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// First attempt journals all three units; simulate a crash that cut
	// the process after the first unit line, mid-write of the second.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	o := Options{Jobs: 150, Seeds: 3}
	m := openManifest(t, path, o, false)
	o.Manifest = m
	if _, err := (Cell{Policy: "memaware"}).Run(o); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal has %d lines, want header + 3 units", len(lines))
	}
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2] // header + unit + torn half-line
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := openManifest(t, path, o, true)
	if got := m2.Units(); got != 1 {
		t.Fatalf("salvaged %d units from torn journal, want 1", got)
	}
	o.Manifest = m2
	o.Workers = 4
	resumed, err := (Cell{Policy: "memaware"}).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if aggJSON(t, clean) != aggJSON(t, resumed) {
		t.Fatal("resumed aggregate differs from clean serial run")
	}
	if got := m2.Units(); got != 3 {
		t.Fatalf("journal holds %d units after resume, want 3", got)
	}
}

// TestManifestResumeTwiceAfterTornCrash: a resume that salvaged a torn
// journal must truncate the torn tail before appending, so the journal
// it leaves behind resumes again — all units, no corrupt line.
func TestManifestResumeTwiceAfterTornCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	o := Options{Jobs: 150, Seeds: 3}
	m := openManifest(t, path, o, false)
	o.Manifest = m
	if _, err := (Cell{Policy: "memaware"}).Run(o); err != nil {
		t.Fatal(err)
	}
	m.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := openManifest(t, path, o, true)
	o.Manifest = m2
	if _, err := (Cell{Policy: "memaware"}).Run(o); err != nil {
		t.Fatal(err)
	}
	m2.Close()

	m3, err := OpenManifest(path, o, true)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	defer m3.Close()
	if got := m3.Units(); got != 3 {
		t.Fatalf("second resume loaded %d units, want 3", got)
	}
}

// TestManifestSchemaPinned pins the result-schema fingerprint:
// journals written by earlier builds carry it in their header and must
// keep resuming. A deliberate change to manifestLine, UnitResult or
// metrics.Report moves it; update the pin only together with
// manifestFormat.
func TestManifestSchemaPinned(t *testing.T) {
	if got, want := manifestSchema(), "c75478192d2fe505"; got != want {
		t.Fatalf("manifestSchema() = %s, want %s", got, want)
	}
}

func TestManifestRejectsScaleMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	m := openManifest(t, path, Options{Jobs: 150, Seeds: 2}, false)
	m.Close()
	if _, err := OpenManifest(path, Options{Jobs: 300, Seeds: 2}, true); err == nil {
		t.Fatal("resume with different -jobs accepted")
	}
	if _, err := OpenManifest(path, Options{Jobs: 150, Seeds: 4}, true); err == nil {
		t.Fatal("resume with different -seeds accepted")
	}
}

func TestManifestRejectsCorruptInterior(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	o := Options{Jobs: 150, Seeds: 2}
	m := openManifest(t, path, o, false)
	o.Manifest = m
	if _, err := (Cell{Policy: "memaware"}).Run(o); err != nil {
		t.Fatal(err)
	}
	m.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Corrupt the first unit line but keep its trailing newline: this is
	// interior damage, not a torn tail, and must fail the resume.
	corrupt := lines[0] + "{\"key\": garbage}\n" + strings.Join(lines[2:], "")
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManifest(path, o, true); err == nil {
		t.Fatal("corrupt interior line accepted on resume")
	}
}

func TestManifestRefusesOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	m := openManifest(t, path, Options{Jobs: 150, Seeds: 2}, false)
	m.Close()
	if _, err := OpenManifest(path, Options{Jobs: 150, Seeds: 2}, false); err == nil {
		t.Fatal("fresh open silently truncated an existing journal")
	}
}

func TestLiveCodeCellsAreNotJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	o := Options{Jobs: 150, Seeds: 1}
	m := openManifest(t, path, o, false)
	o.Manifest = m
	c := Cell{Scheduler: memawareFactory}
	if _, err := c.Run(o); err != nil {
		t.Fatal(err)
	}
	stop := Cell{Policy: "memaware", StopWhen: func(dismem.Sample) bool { return false }}
	if _, err := stop.Run(o); err != nil {
		t.Fatal(err)
	}
	if got := m.Units(); got != 0 {
		t.Fatalf("journaled %d units for live-code cells, want 0", got)
	}
}

func TestUnitPanicRetries(t *testing.T) {
	var calls atomic.Int32
	c := Cell{Scheduler: func() dismem.Scheduler {
		if calls.Add(1) == 1 {
			panic("transient unit failure")
		}
		return memawareFactory()
	}}
	if _, err := c.Run(Options{Jobs: 120, Seeds: 1, Workers: 1}); err != nil {
		t.Fatalf("one retry did not absorb a single transient panic: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("unit ran %d times, want 2", got)
	}
}

func TestUnitPanicExhaustsRetries(t *testing.T) {
	c := Cell{Scheduler: func() dismem.Scheduler { panic("persistent unit failure") }}
	_, err := c.Run(Options{Jobs: 120, Seeds: 1, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "panic in simulation unit") {
		t.Fatalf("persistent panic not surfaced as unit error: %v", err)
	}
}

func TestCancelledContextInterrupts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (Cell{Policy: "memaware"}).Run(Options{Jobs: 150, Seeds: 2, Ctx: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled sweep returned %v, want ErrInterrupted", err)
	}
}

func TestMidRunCancellationDiscardsUnit(t *testing.T) {
	// The predicate cancels the sweep's context at the first sample; the
	// observer then stops the run at the next tick. The truncated result
	// must be discarded as interrupted, never aggregated or journaled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := Cell{
		Policy:   "memaware",
		StopWhen: func(dismem.Sample) bool { cancel(); return false },
	}
	_, err := c.Run(Options{Jobs: 400, Seeds: 1, Workers: 1, Ctx: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("mid-run cancellation returned %v, want ErrInterrupted", err)
	}
}

func TestRegistryRunReturnsInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run("table2", Options{Jobs: 150, Seeds: 1, Ctx: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run under cancelled ctx returned %v, want ErrInterrupted", err)
	}
	_, err = RunAll(Options{Jobs: 150, Seeds: 1, Ctx: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("RunAll under cancelled ctx returned %v, want ErrInterrupted", err)
	}
}

func TestExperimentResumeMatchesClean(t *testing.T) {
	// End-to-end over a real experiment: interrupt a journaled sweep,
	// resume it, and demand CSV-identical tables against a clean run.
	o := Options{Jobs: 120, Seeds: 2}
	clean, err := Run("table2", o)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := o
	interrupted.Ctx = ctx
	interrupted.Manifest = openManifest(t, path, o, false)
	var fired atomic.Bool
	go func() {
		// Cancel as soon as at least one unit is journaled.
		for interrupted.Manifest.Units() == 0 {
			runtime.Gosched()
		}
		fired.Store(true)
		cancel()
	}()
	_, err = Run("table2", interrupted)
	if err != nil && !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	if !fired.Load() {
		// The sweep may have finished before the cancel landed; that is
		// still a valid resume input (all units journaled).
		cancel()
	}
	interrupted.Manifest.Close()

	resumed := o
	resumed.Manifest = openManifest(t, path, o, true)
	got, err := Run("table2", resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(clean) {
		t.Fatalf("resumed run yielded %d tables, clean %d", len(got), len(clean))
	}
	for i := range got {
		if got[i].CSV() != clean[i].CSV() {
			t.Fatalf("table %d differs after resume:\n%s\nvs clean:\n%s", i, got[i].CSV(), clean[i].CSV())
		}
	}
}
