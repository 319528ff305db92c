package dismem_test

import (
	"bytes"
	"os"
	"testing"

	"dismem"
)

// fixtureAt is the instant testdata/fixture.dmckpt was taken at: a
// source still delivering arrivals, jobs queued and running on pool
// memory, and sampling, failure and scenario events pending.
const fixtureAt = 2000

// fixtureOpts is the run testdata/fixture.dmckpt froze: 50 jobs on an
// 8-node machine with small local memory, a contention-sensitive model,
// failures, a scenario and a sampled series.
func fixtureOpts(t *testing.T) dismem.Options {
	t.Helper()
	mc := dismem.DefaultMachine()
	mc.Racks, mc.NodesPerRack = 2, 4
	mc.LocalMemMiB = 4 * 1024
	mc.PoolMiB = 256 * 1024
	mc.FabricGiBps = 8
	wl, err := dismem.GenerateWorkload(dismem.DefaultGen(50, 3, mc))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := dismem.ParseScenario("at=30000 down node=1; at=45000 beta scale=1.5; at=60000 up node=1")
	if err != nil {
		t.Fatal(err)
	}
	return dismem.Options{
		Machine: mc, Policy: "memaware", Model: "bandwidth:1,1", Workload: wl, Scenario: sc,
		Failures:    &dismem.FailureConfig{MTBFPerNodeSec: 400000, RepairSec: 3600, Seed: 5},
		SampleEvery: 1800, SeriesSink: dismem.DiscardSeries,
	}
}

// TestCheckpointFixture pins the durable checkpoint format against a
// file written by an earlier build: it must still load and resume to
// the clean run's result, and this build, checkpointing the same run
// at the same instant, must write the same bytes. A change to the
// envelope, the schema fingerprint or the payload encoding fails here
// and must be declared (and the fixture rewritten) on purpose.
func TestCheckpointFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/fixture.dmckpt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := dismem.SaveCheckpoint(&got, checkpointAt(t, fixtureOpts(t), fixtureAt)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("checkpointing the fixture run at t=%d writes %d bytes that differ from the committed %d-byte fixture", fixtureAt, got.Len(), len(want))
	}

	cp, err := dismem.ReadCheckpointFile("testdata/fixture.dmckpt")
	if err != nil {
		t.Fatal(err)
	}
	if cp.At() != fixtureAt {
		t.Fatalf("fixture checkpoint at t=%d, want %d", cp.At(), fixtureAt)
	}
	clean, err := dismem.Simulate(fixtureOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	resumed := mustRun(t, mustFork(t, cp, dismem.ForkOptions{SeriesSink: dismem.DiscardSeries}))
	sameResults(t, "fixture resume vs clean", clean, resumed)
}
