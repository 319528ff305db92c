package main

import (
	"context"
	"path/filepath"
	"testing"

	"dismem"
	"dismem/internal/report"
)

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
