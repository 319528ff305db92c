package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"dismem"
)

// repResult is what one repetition reports to the parent, as the last
// line of the child's standard output.
type repResult struct {
	Kind   string `json:"kind"` // "main" or "probe"
	Traced bool   `json:"traced"`

	SetupNs int64 `json:"setup_ns"`
	TimedNs int64 `json:"timed_ns"`
	// Jobs counts terminated jobs (completed, killed or rejected) in
	// the timed phase.
	Jobs int64 `json:"jobs"`

	// Hash digests the simulated outcome.
	Hash      string   `json:"hash"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	PeakLiveBytes uint64  `json:"peak_live_bytes"`
	CPUNs         int64   `json:"cpu_ns"` // process CPU time over the timed phase
	AllocBytes    uint64  `json:"alloc_bytes"`
	Allocs        uint64  `json:"allocs"`
	GCCPURatio    float64 `json:"gc_cpu_ratio"`

	// Layers holds per-layer figures, named as in BENCHMARK.json.
	Layers map[string]float64 `json:"layers,omitempty"`
	Whatif *whatifResult      `json:"whatif,omitempty"`
	// Info holds descriptive figures that are not metrics.
	Info map[string]float64 `json:"info,omitempty"`
}

func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// childArgs are the hidden flags the parent passes to one repetition.
type childArgs struct {
	workload string
	kind     string
	seed     uint64
	traced   bool
	workdir  string
	spans    string // span file to write when traced ("" = none)
}

// childMain runs one repetition in a fresh process, so that every
// repetition starts from the same process state: no cache filled and
// no heap grown by an earlier repetition.
func childMain(a childArgs) int {
	start := time.Now()
	res := &repResult{Kind: a.kind, Traced: a.traced, Layers: map[string]float64{}, Info: map[string]float64{}}
	var err error
	switch {
	case a.kind == "probe":
		err = runWhatIf(a, probeSchedule, start, res)
	case a.workload == "overload-replay" || a.workload == "steady-stream":
		err = runReplay(a, start, res)
	case a.workload == "paper-sweep":
		err = runSweep(a, start, res)
	case a.workload == "whatif-open":
		err = runWhatIf(a, fullSchedule, start, res)
	default:
		err = fmt.Errorf("unknown workload %q", a.workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s seed %d: %v\n", a.workload, a.kind, a.seed, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

// rtSnap is a reading of the runtime's allocation and GC counters and
// of the CPU time the process was given.
type rtSnap struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
	procCPU               time.Duration
}

var rtNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRT() rtSnap {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return rtSnap{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64(), cpu}
}

// setRuntime stores the allocation and GC figures between two readings.
// The GC ratio is GC CPU time over the CPU time available to the
// process (GOMAXPROCS times wall time), as the runtime accounts it.
func (r *repResult) setRuntime(before, after rtSnap) {
	r.CPUNs = int64(after.procCPU - before.procCPU)
	r.AllocBytes = after.allocBytes - before.allocBytes
	r.Allocs = after.allocObjs - before.allocObjs
	if d := after.totalCPU - before.totalCPU; d > 0 {
		r.GCCPURatio = (after.gcCPU - before.gcCPU) / d
	}
}

// heapSampler keeps the peak live heap. Each sample forces a GC and
// reads /gc/heap/live:bytes, the heap that GC found reachable: taken
// at fixed points of the run, it is the same from run to run, unlike
// HeapAlloc or a sample of whatever the last automatic GC saw. The
// time the samples take is kept so that timed phases can leave it out.
type heapSampler struct {
	mu    sync.Mutex
	s     []rtmetrics.Sample
	peak  uint64
	spent time.Duration
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	t0 := time.Now()
	runtime.GC()
	rtmetrics.Read(h.s)
	h.peak = max(h.peak, h.s[0].Value.Uint64())
	h.spent += time.Since(t0)
}

// jobTally checks the accounting invariant: every job terminates
// exactly once. It is fed from Observer.OnTerminate.
type jobTally struct {
	seen       []uint64
	terminated int
	dups       int
}

func (t *jobTally) add(id int) {
	t.terminated++
	w := id >> 6
	if w >= len(t.seen) {
		t.seen = append(t.seen, make([]uint64, max(w+1, 2*len(t.seen))-len(t.seen))...)
	}
	bit := uint64(1) << (id & 63)
	if t.seen[w]&bit != 0 {
		t.dups++
	}
	t.seen[w] |= bit
}

// replayObserver samples the live heap at fixed termination counts and
// tallies terminations. When traced, its own sampling work is a span,
// so it is not charged to the engine.
type replayObserver struct {
	dismem.NopObserver
	heap  *heapSampler
	tally jobTally
	every int
	t     *tracer
}

func (o *replayObserver) OnTerminate(_ int64, rec dismem.JobRecord) {
	o.tally.add(rec.ID)
	if o.tally.terminated%o.every != 0 || o.tally.terminated == 0 {
		return
	}
	if o.t != nil {
		o.t.begin(lObserver)
		defer o.t.end()
	}
	o.heap.sample()
}

// digest returns the hex SHA-256 of the given parts.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outcomeDigest hashes a run's full report (every field, unexported
// accumulators included) and its DES event count.
func outcomeDigest(res *dismem.Result, extra ...string) string {
	return digest(append([]string{fmt.Sprintf("%#v", *res.Report), fmt.Sprint(res.Events)}, extra...)...)
}
