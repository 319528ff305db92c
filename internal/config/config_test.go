package config

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dismem"
	"dismem/internal/cluster"
)

func TestDefaultValidates(t *testing.T) {
	d := Default()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	d := Default()
	d.Failures = &Failures{MTBFPerNodeSec: 360000, RepairSec: 3600, Seed: 9}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.Policy != d.Policy || got.Machine != d.Machine {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v", got, d)
	}
	if got.Failures == nil || *got.Failures != *d.Failures {
		t.Fatalf("failures lost: %+v", got.Failures)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	in := `{"name":"x","policy":"memaware","machine":{"racks":1,"nodes_per_rack":1,
	"cores_per_node":1,"local_gib":1,"topology":"none"},
	"workload":{"jobs":10},"typo_field":true}`
	if _, err := Read(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "typo_field") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	mutate := []func(*Experiment){
		func(e *Experiment) { e.Policy = "" },
		func(e *Experiment) { e.Model = "bogus:1" },
		func(e *Experiment) { e.Machine.Topology = "mesh" },
		func(e *Experiment) { e.Machine.Racks = 0 },
		func(e *Experiment) { e.Workload.Jobs = 0; e.Workload.SWF = "" },
		func(e *Experiment) { e.Workload.EstimateAccuracy = 2 },
		func(e *Experiment) { e.Workload.LargeMemFraction = 1.5 },
		func(e *Experiment) { e.Workload.LargeMemFraction = -0.1 },
		func(e *Experiment) { e.Failures = &Failures{MTBFPerNodeSec: 0, RepairSec: 1} },
	}
	for i, m := range mutate {
		e := Default()
		m(&e)
		if e.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMachineConfigConversion(t *testing.T) {
	e := Default()
	mc, err := e.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if mc.LocalMemMiB != 64*1024 {
		t.Fatalf("local = %d MiB, want GiB->MiB conversion", mc.LocalMemMiB)
	}
	if mc.Topology != cluster.TopologyRack || mc.PoolMiB != 4096*1024 {
		t.Fatalf("machine = %+v", mc)
	}
}

func TestFailureConfigConversion(t *testing.T) {
	e := Default()
	if e.FailureConfig() != nil {
		t.Fatal("absent failures must convert to nil")
	}
	e.Failures = &Failures{MTBFPerNodeSec: 100, RepairSec: 5, Seed: 2}
	fc := e.FailureConfig()
	if fc == nil || fc.MTBFPerNodeSec != 100 || fc.RepairSec != 5 || fc.Seed != 2 {
		t.Fatalf("failure conversion = %+v", fc)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/config.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestOptionsBuild: the default experiment builds the evaluation
// machine and workload; a pool-less machine gets no pool capacity; the
// generator overrides apply; a given source replaces the workload; and
// an SWF trace is read with its skipped records noted.
func TestOptionsBuild(t *testing.T) {
	e := Default()
	o, err := e.Options(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Machine != dismem.DefaultMachine() || o.Policy != "memaware" || o.Model != "linear:0.5" || o.Failures != nil {
		t.Fatalf("default options = %+v", o)
	}
	if want := dismem.SyntheticWorkload(5000, 1); !reflect.DeepEqual(o.Workload, want) {
		t.Fatal("default workload differs from SyntheticWorkload(5000, 1)")
	}

	e.Machine.Topology = "none"
	e.Workload.Jobs = 50
	e.Workload.LargeMemFraction = 1
	o, err = e.Options(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Machine.PoolMiB != 0 {
		t.Errorf("pool-less machine has %d MiB of pool", o.Machine.PoolMiB)
	}
	gen := dismem.DefaultGen(50, 1, o.Machine)
	gen.LargeMemFraction = 1
	if want, _ := dismem.GenerateWorkload(gen); !reflect.DeepEqual(o.Workload, want) {
		t.Error("large_mem_fraction override not applied")
	}

	src := dismem.WorkloadSource(o.Workload)
	if o, err = e.Options(src, io.Discard); err != nil || o.Source != src || o.Workload != nil {
		t.Errorf("a given source must replace the workload: %+v, %v", o, err)
	}

	path := filepath.Join(t.TempDir(), "t.swf")
	trace := "1 0 -1 3600 4 -1 -1 4 7200 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"2 10 -1 0 4 -1 -1 4 7200 -1 1 1 1 -1 -1 -1 -1 -1\n"
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	e.Workload.SWF = path
	var notes bytes.Buffer
	if o, err = e.Options(nil, &notes); err != nil {
		t.Fatal(err)
	}
	if len(o.Workload.Jobs) != 1 || notes.String() != "note: skipped 1 unusable SWF records\n" {
		t.Errorf("SWF: %d jobs, notes %q", len(o.Workload.Jobs), notes.String())
	}
}
