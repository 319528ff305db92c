package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dismem"
	"dismem/internal/config"
	"dismem/internal/report"
)

// TestMain lets the tests run the command itself: a child process of
// the test binary with DMSCHED_TEST_MAIN=1 set runs main on its
// arguments.
func TestMain(m *testing.M) {
	if os.Getenv("DMSCHED_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dmsched runs the command with args in dir and returns its stdout and
// exit status.
func dmsched(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DMSCHED_TEST_MAIN=1")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	case err != nil:
		t.Fatalf("dmsched %v: %v", args, err)
	}
	return stdout.String(), 0
}

// mustRun is dmsched for runs that must exit 0.
func mustRun(t *testing.T, dir string, args ...string) string {
	t.Helper()
	out, code := dmsched(t, dir, args...)
	if code != 0 {
		t.Fatalf("dmsched %v exited %d", args, code)
	}
	return out
}

// withoutLabel drops a report's first line, the policy label.
func withoutLabel(report string) string {
	_, rest, _ := strings.Cut(report, "\n")
	return rest
}

// TestBindFlags: the bound flags default to config.Default(), and each
// one sets its own Experiment field.
func TestBindFlags(t *testing.T) {
	e := config.Default()
	fs := flag.NewFlagSet("dmsched", flag.ContinueOnError)
	e.Bind(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if want := config.Default(); !reflect.DeepEqual(e, want) {
		t.Fatalf("bound defaults %+v, want config.Default() %+v", e, want)
	}

	cases := []struct {
		flag, value string
		got         func(*config.Experiment) any
		want        any
	}{
		{"racks", "3", func(e *config.Experiment) any { return e.Machine.Racks }, 3},
		{"nodes", "5", func(e *config.Experiment) any { return e.Machine.NodesPerRack }, 5},
		{"cores", "8", func(e *config.Experiment) any { return e.Machine.CoresPerNode }, 8},
		{"local", "128", func(e *config.Experiment) any { return e.Machine.LocalGiB }, int64(128)},
		{"pool", "512", func(e *config.Experiment) any { return e.Machine.PoolGiB }, int64(512)},
		{"fabric", "12.5", func(e *config.Experiment) any { return e.Machine.FabricGiBps }, 12.5},
		{"topology", "global", func(e *config.Experiment) any { return e.Machine.Topology }, "global"},
		{"jobs", "77", func(e *config.Experiment) any { return e.Workload.Jobs }, 77},
		{"seed", "9", func(e *config.Experiment) any { return e.Workload.Seed }, uint64(9)},
		{"swf", "t.swf", func(e *config.Experiment) any { return e.Workload.SWF }, "t.swf"},
		{"node-cores", "32", func(e *config.Experiment) any { return e.Workload.NodeCores }, 32},
		{"policy", "order=sjf", func(e *config.Experiment) any { return e.Policy }, "order=sjf"},
		{"model", "step:1,2", func(e *config.Experiment) any { return e.Model }, "step:1,2"},
		{"strict-kill", "true", func(e *config.Experiment) any { return e.StrictKill }, true},
	}
	bound := 0
	fs.VisitAll(func(*flag.Flag) { bound++ })
	if bound != len(cases) {
		t.Fatalf("Bind registers %d flags, the table covers %d", bound, len(cases))
	}
	for _, c := range cases {
		e := config.Default()
		fs := flag.NewFlagSet("dmsched", flag.ContinueOnError)
		e.Bind(fs)
		if err := fs.Parse([]string{"-" + c.flag, c.value}); err != nil {
			t.Fatal(err)
		}
		if got := c.got(&e); got != c.want {
			t.Errorf("-%s %s set %v (%T), want %v (%T)", c.flag, c.value, got, got, c.want, c.want)
		}
		if reflect.DeepEqual(e, config.Default()) {
			t.Errorf("-%s %s left the experiment at its default", c.flag, c.value)
		}
	}
}

// TestWriteConfigRoundTrip: -write-config prints the experiment the
// flags describe, and running that file with -config reports exactly
// what the flags do. With no flags the file is config.Default().
func TestWriteConfigRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var def bytes.Buffer
	d := config.Default()
	if err := d.Write(&def); err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, dir, "-write-config"); got != def.String() {
		t.Fatalf("-write-config with no flags:\n%s\nwant config.Default():\n%s", got, def.String())
	}

	flags := []string{"-jobs", "600", "-seed", "4", "-topology", "global", "-policy", "easy-oblivious", "-model", "bandwidth:1,1", "-strict-kill"}
	cfg := mustRun(t, dir, append(flags, "-write-config")...)
	path := filepath.Join(dir, "exp.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, dir, flags...)
	if got := mustRun(t, dir, "-config", path); got != want {
		t.Fatalf("-config report differs from the flag run's:\n%s\nwant:\n%s", got, want)
	}
}

// TestSpecCheckpointResume: a spec given to -policy is labelled with
// its canonical name and checkpoints like a policy name, so an
// interrupted -ckpt-save run resumed with -ckpt-load reports exactly
// the clean run.
func TestSpecCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	spec := "order=sjf backfill=easy placer=memaware cap=3"
	flags := []string{"-jobs", "1500", "-seed", "3", "-policy", spec}
	clean := mustRun(t, dir, flags...)
	s, err := dismem.ParsePolicy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if label, _, _ := strings.Cut(clean, "\n"); !strings.HasSuffix(label, " "+s.Name()) {
		t.Errorf("report label %q, want the canonical name %q", label, s.Name())
	}

	ckpt := filepath.Join(dir, "run.dmckpt")
	if _, code := dmsched(t, dir, append(flags, "-ckpt-save", ckpt, "-interrupt-at", "30000")...); code != exitInterrupted {
		t.Fatalf("interrupted run exited %d, want %d", code, exitInterrupted)
	}
	resumed := mustRun(t, dir, "-ckpt-load", ckpt)
	if withoutLabel(resumed) != withoutLabel(clean) {
		t.Fatalf("resumed report differs from the clean run's:\n%s\nwant:\n%s", resumed, clean)
	}
}

// TestForkIdentity: -checkpoint-at with no fork scenario replays a
// future identical to the original run.
func TestForkIdentity(t *testing.T) {
	out := mustRun(t, t.TempDir(), "-jobs", "2000", "-seed", "3", "-checkpoint-at", "43200")
	orig, fork, ok := strings.Cut(out, "--- fork at t=43200 ---\n")
	if !ok {
		t.Fatalf("no fork report in:\n%s", out)
	}
	if orig != fork {
		t.Fatalf("forked report differs from the original:\n%s\nwant:\n%s", fork, orig)
	}
}

// TestForkScenarioRepeatable: a fork with a divergent outage tail is
// deterministic — two runs print identical output — and its future
// differs from the original's.
func TestForkScenarioRepeatable(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-jobs", "2000", "-seed", "3", "-checkpoint-at", "43200",
		"-fork-scenario", "at=50000 down rack=2; at=86400 up rack=2"}
	a, b := mustRun(t, dir, args...), mustRun(t, dir, args...)
	if a != b {
		t.Fatalf("two runs of the outage fork differ:\n%s\nand:\n%s", a, b)
	}
	orig, fork, ok := strings.Cut(a, "--- fork at t=43200 ---\n")
	if !ok {
		t.Fatalf("no fork report in:\n%s", a)
	}
	if withoutLabel(orig) == withoutLabel(fork) {
		t.Fatalf("the outage fork reports the original's future:\n%s", fork)
	}
}

// TestDriveInterruptAt: -interrupt-at stops the run at exactly the
// requested virtual instant through the interrupt path, the checkpoint
// it writes resumes to the uninterrupted run's report, and a run that
// ends before the instant is not interrupted.
func TestDriveInterruptAt(t *testing.T) {
	opts := dismem.Options{Policy: "memaware", Workload: dismem.SyntheticWorkload(1000, 3)}
	clean, err := dismem.Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}

	const at = 43200 + 1234 // not a multiple of drive's chunk
	h, err := dismem.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.dmckpt")
	if !drive(context.Background(), h, path, at) {
		t.Fatal("run was not interrupted")
	}
	if h.Now() != at {
		t.Fatalf("interrupted at t=%d, want %d", h.Now(), at)
	}
	cp, err := dismem.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := dismem.Fork(cp, dismem.ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := report.Format("", res), report.Format("", clean); got != want {
		t.Fatalf("resumed report differs from the uninterrupted run's:\n%s\n%s", got, want)
	}

	h, err = dismem.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if drive(context.Background(), h, "", 1<<50) {
		t.Fatal("run interrupted at an instant past its end")
	}
}

// TestStalledRunExits: a rack taken down for good strands the jobs
// queued behind it, so the event queue drains with work left. dmsched
// must stop driving there and exit 1 with the engine's "never
// terminated" error, as Simulate fails, instead of advancing the clock
// forever. Sampling (-progress, -series-out) must not keep the stalled
// run alive either. The deadline turns a regression into a failure, not
// a hang.
func TestStalledRunExits(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, extra := range [][]string{
		nil,
		{"-progress", "6h"},
		{"-series-out", filepath.Join(t.TempDir(), "series.jsonl")},
	} {
		args := append([]string{"-jobs", "800", "-scenario", "at=21600 down rack=2"}, extra...)
		cmd := exec.CommandContext(ctx, os.Args[0], args...)
		cmd.Env = append(os.Environ(), "DMSCHED_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ctx.Err() != nil {
			t.Fatalf("dmsched %v still running after %v: the drive loop does not stop on a stalled run", args, time.Minute)
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("dmsched %v: %v, want exit status 1", args, err)
		}
		if !strings.Contains(stderr.String(), "never terminated") {
			t.Fatalf("dmsched %v stderr %q lacks the never-terminated error", args, stderr.String())
		}
	}

	// The library reports the same stall: Stalled is set, and Result
	// returns Simulate's error.
	sc, err := dismem.ParseScenario("at=21600 down rack=2")
	if err != nil {
		t.Fatal(err)
	}
	opts := dismem.Options{Policy: "memaware", Workload: dismem.SyntheticWorkload(800, 1), Scenario: sc}
	_, want := dismem.Simulate(opts)
	if want == nil {
		t.Fatal("Simulate finished the stalled run without error")
	}
	h, err := dismem.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if drive(ctx, h, "", 0) {
		t.Fatal("stalled run reported as interrupted")
	}
	if !h.Stalled() || h.Done() {
		t.Fatalf("after drive: Stalled=%v Done=%v, want a stalled run", h.Stalled(), h.Done())
	}
	if _, err := h.Result(); err == nil || err.Error() != want.Error() {
		t.Fatalf("Result error %v, want Simulate's %v", err, want)
	}
}
