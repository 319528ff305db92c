// Package config is the one operator-facing description of a run:
// machine shape, workload source, policy, memory model and failure
// injection. dmsched and dmserve bind their shared flags to an
// Experiment (Bind), dmsched -config reads one from a reviewable JSON
// file, and Options is the single builder from an Experiment to the
// simulator's dismem.Options.
package config

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/sim"
	"dismem/internal/workload"
)

// Experiment is the root configuration document. Memory sizes are in
// GiB (the operator-facing unit); they are converted to the simulator's
// MiB internally.
type Experiment struct {
	// Name identifies the document to its readers; the simulator and
	// the reports do not use it.
	Name string `json:"name"`

	Machine  Machine  `json:"machine"`
	Workload Workload `json:"workload"`

	// Policy is a policy name or a composable spec string (see
	// dismem.ParsePolicy).
	Policy string `json:"policy"`
	// Model is a memory-model spec, e.g. "linear:0.5".
	Model string `json:"model"`
	// StrictKill kills jobs at the raw user estimate even when the
	// system dilated them.
	StrictKill bool `json:"strict_kill,omitempty"`

	// Failures optionally injects node failures.
	Failures *Failures `json:"failures,omitempty"`
}

// Machine describes the simulated hardware.
type Machine struct {
	Racks        int     `json:"racks"`
	NodesPerRack int     `json:"nodes_per_rack"`
	CoresPerNode int     `json:"cores_per_node"`
	LocalGiB     int64   `json:"local_gib"`
	Topology     string  `json:"topology"` // none | rack | global
	PoolGiB      int64   `json:"pool_gib,omitempty"`
	FabricGiBps  float64 `json:"fabric_gibps,omitempty"`
	TrafficGiBps float64 `json:"traffic_gibps_per_node,omitempty"`
}

// Workload selects the trace: a synthetic generator or an SWF file.
type Workload struct {
	// Jobs and Seed drive the synthetic generator (used when SWF is
	// empty).
	Jobs int    `json:"jobs,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// EstimateAccuracy overrides the generator's mean user estimate
	// accuracy when > 0.
	EstimateAccuracy float64 `json:"estimate_accuracy,omitempty"`
	// LargeMemFraction overrides the data-intensive job share when > 0
	// (at most 1).
	LargeMemFraction float64 `json:"large_mem_fraction,omitempty"`
	// SWF is a trace file path; NodeCores converts its processors to
	// nodes (0 = processors are nodes).
	SWF       string `json:"swf,omitempty"`
	NodeCores int    `json:"node_cores,omitempty"`
}

// Failures mirrors sim.FailureConfig in GiB-free units.
type Failures struct {
	MTBFPerNodeSec int64  `json:"mtbf_per_node_sec"`
	RepairSec      int64  `json:"repair_sec"`
	Seed           uint64 `json:"seed,omitempty"`
}

// Default returns a runnable starting configuration (the evaluation
// machine with the memory-aware policy).
func Default() Experiment {
	return Experiment{
		Name: "default",
		Machine: Machine{
			Racks: 16, NodesPerRack: 16, CoresPerNode: 32,
			LocalGiB: 64, Topology: "rack", PoolGiB: 4096,
			FabricGiBps: 64, TrafficGiBps: 2,
		},
		Workload: Workload{Jobs: 5000, Seed: 1},
		Policy:   "memaware",
		Model:    dismem.DefaultModel,
	}
}

// Bind registers the run flags dmsched and dmserve share on fs. Each
// flag writes straight into e, and its default is e's current value.
func (e *Experiment) Bind(fs *flag.FlagSet) {
	m, w := &e.Machine, &e.Workload
	fs.IntVar(&m.Racks, "racks", m.Racks, "racks")
	fs.IntVar(&m.NodesPerRack, "nodes", m.NodesPerRack, "nodes per rack")
	fs.IntVar(&m.CoresPerNode, "cores", m.CoresPerNode, "cores per node")
	fs.Int64Var(&m.LocalGiB, "local", m.LocalGiB, "local DRAM per node (GiB)")
	fs.Int64Var(&m.PoolGiB, "pool", m.PoolGiB, "pool capacity (GiB; per rack, or total for -topology global)")
	fs.Float64Var(&m.FabricGiBps, "fabric", m.FabricGiBps, "fabric bandwidth per pool (GiB/s)")
	fs.StringVar(&m.Topology, "topology", m.Topology, "pool topology: none | rack | global")
	fs.IntVar(&w.Jobs, "jobs", w.Jobs, "synthetic workload size")
	fs.Uint64Var(&w.Seed, "seed", w.Seed, "synthetic workload seed")
	fs.StringVar(&w.SWF, "swf", w.SWF, "SWF trace file (overrides the synthetic workload)")
	fs.IntVar(&w.NodeCores, "node-cores", w.NodeCores, "SWF import: processors per node (0 = processors are nodes)")
	fs.StringVar(&e.Policy, "policy", e.Policy, "scheduling policy: "+strings.Join(dismem.Policies(), ", ")+
		`, or a composable spec such as "order=sjf placer=memaware cap=3"`)
	fs.StringVar(&e.Model, "model", e.Model, "memory model spec (linear:b | step:b0,b | bandwidth:b,g)")
	fs.BoolVar(&e.StrictKill, "strict-kill", e.StrictKill, "kill at the raw user estimate (no dilation extension)")
}

// Options builds the simulator run the experiment describes: machine,
// workload, failures, policy, memory model and kill discipline. The
// workload is the SWF trace, read whole with SWFReadOptions (a count
// of skipped records is noted on notes), or else the synthetic
// generator with the document's overrides. A non-nil src replaces that
// workload: dmsched -swf-stream passes a lazy SWF source.
func (e *Experiment) Options(src dismem.Source, notes io.Writer) (dismem.Options, error) {
	if err := e.Validate(); err != nil {
		return dismem.Options{}, err
	}
	mc, err := e.MachineConfig()
	if err != nil {
		return dismem.Options{}, err
	}
	o := dismem.Options{
		Machine:    mc,
		Policy:     e.Policy,
		Model:      e.Model,
		Source:     src,
		StrictKill: e.StrictKill,
		Failures:   e.FailureConfig(),
	}
	if src == nil {
		o.Workload, err = e.readWorkload(mc, notes)
	}
	return o, err
}

// readWorkload loads the SWF trace or generates the synthetic workload.
func (e *Experiment) readWorkload(mc cluster.Config, notes io.Writer) (*dismem.Workload, error) {
	w := e.Workload
	if w.SWF == "" {
		gen := dismem.DefaultGen(w.Jobs, w.Seed, mc)
		if w.EstimateAccuracy > 0 {
			gen.EstimateAccuracy = w.EstimateAccuracy
		}
		if w.LargeMemFraction > 0 {
			gen.LargeMemFraction = w.LargeMemFraction
		}
		return dismem.GenerateWorkload(gen)
	}
	f, err := os.Open(w.SWF)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	wl, skipped, err := workload.ReadSWF(f, e.SWFReadOptions())
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", w.SWF, err)
	}
	if skipped > 0 {
		fmt.Fprintf(notes, "note: skipped %d unusable SWF records\n", skipped)
	}
	return wl, nil
}

// SWFReadOptions is how the experiment imports its SWF trace, loaded
// or streamed: processors per node from the document, and half a
// node's local DRAM for records that declare no memory.
func (e *Experiment) SWFReadOptions() dismem.SWFReadOptions {
	return dismem.SWFReadOptions{
		NodeCores:         e.Workload.NodeCores,
		DefaultMemPerNode: e.Machine.LocalGiB * 1024 / 2,
	}
}

// Read parses an experiment from JSON. Unknown fields are rejected so
// typos fail loudly instead of silently using defaults.
func Read(r io.Reader) (*Experiment, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var e Experiment
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// Load reads an experiment from a file.
func Load(path string) (*Experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Write serialises the experiment as indented JSON.
func (e *Experiment) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// Validate checks the document against the simulator's constraints.
func (e *Experiment) Validate() error {
	if e.Policy == "" {
		return fmt.Errorf("config: missing policy")
	}
	if e.Model != "" {
		if _, err := memmodel.Parse(e.Model); err != nil {
			return err
		}
	}
	mc, err := e.MachineConfig()
	if err != nil {
		return err
	}
	if err := mc.Validate(); err != nil {
		return err
	}
	if e.Workload.SWF == "" && e.Workload.Jobs <= 0 {
		return fmt.Errorf("config: workload needs jobs > 0 or an swf file")
	}
	if acc := e.Workload.EstimateAccuracy; acc < 0 || acc > 1 {
		return fmt.Errorf("config: estimate accuracy %g outside [0,1]", acc)
	}
	if f := e.Workload.LargeMemFraction; f < 0 || f > 1 {
		return fmt.Errorf("config: large-memory fraction %g outside [0,1]", f)
	}
	if f := e.Failures; f != nil {
		fc := sim.FailureConfig{MTBFPerNodeSec: f.MTBFPerNodeSec, RepairSec: f.RepairSec, Seed: f.Seed}
		if err := fc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MachineConfig converts the document's machine section to the
// simulator's representation. A machine without pools gets no pool
// capacity, whatever pool_gib says.
func (e *Experiment) MachineConfig() (cluster.Config, error) {
	topo, err := cluster.ParseTopology(e.Machine.Topology)
	if err != nil {
		return cluster.Config{}, err
	}
	mc := cluster.Config{
		Racks:               e.Machine.Racks,
		NodesPerRack:        e.Machine.NodesPerRack,
		CoresPerNode:        e.Machine.CoresPerNode,
		LocalMemMiB:         e.Machine.LocalGiB * 1024,
		Topology:            topo,
		PoolMiB:             e.Machine.PoolGiB * 1024,
		FabricGiBps:         e.Machine.FabricGiBps,
		TrafficGiBpsPerNode: e.Machine.TrafficGiBps,
	}
	if topo == cluster.TopologyNone {
		mc.PoolMiB = 0
	}
	return mc, nil
}

// FailureConfig converts the failure section (nil when absent).
func (e *Experiment) FailureConfig() *sim.FailureConfig {
	if e.Failures == nil {
		return nil
	}
	return &sim.FailureConfig{
		MTBFPerNodeSec: e.Failures.MTBFPerNodeSec,
		RepairSec:      e.Failures.RepairSec,
		Seed:           e.Failures.Seed,
	}
}
