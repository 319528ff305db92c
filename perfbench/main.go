// Command perfbench is the repository's benchmark: it runs one named
// workload of the dismem simulator with a seed, checks every output,
// and prints every metric by name and unit. See README.md.
//
//	bash perfbench/run.sh --workload overload-replay --seed 1 --seconds 10 --trace 0
//
// Each repetition runs in a fresh child process (this binary, with the
// hidden --child flag), so every repetition starts from the same
// process state; the parent only schedules repetitions and reduces
// their results to medians.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"dismem/internal/benchkit"
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"overload-replay", "steady-stream", "whatif-open", "paper-sweep"}

// refsJSON holds the reference outcome hash per workload and seed, as
// --print-hash prints them.
//
//go:embed refs.json
var refsJSON []byte

func main() {
	var (
		wl        = flag.String("workload", "", "workload name: "+fmt.Sprint(workloads))
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 10, "how long the repetitions of one run measure")
		traceArg  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child     = flag.String("child", "", "internal: run one repetition of this kind (main or probe)")
		traced    = flag.Bool("traced", false, "internal: the repetition records spans")
		workdir   = flag.String("workdir", "", "internal: scratch directory of the run")
		spans     = flag.String("spans", "", "internal: span file of a traced repetition")
		printHash = flag.Bool("print-hash", false, "run one untraced repetition and print its outcome hash")
	)
	testing.Init()
	flag.Parse()
	if *child != "" {
		os.Exit(childMain(childArgs{workload: *wl, kind: *child, seed: *seed, traced: *traced, workdir: *workdir, spans: *spans}))
	}
	known := false
	for _, w := range workloads {
		known = known || w == *wl
	}
	if !known || *traceArg < 0 || *traceArg > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloads)
		os.Exit(2)
	}
	if err := run(*wl, *seed, *seconds, *traceArg == 1, *printHash); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// outDir is where runs keep their scratch files and span files: the
// build directory of the checkout.
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "perfbench")
	}
	return filepath.Join(".bench_build", "perfbench")
}

type runner struct {
	workload string
	seed     uint64
	workdir  string
	exe      string
	n        int // repetitions started, for span file names
}

// rep runs one repetition in a child process and returns its result.
func (r *runner) rep(kind string, traced bool) (*repResult, error) {
	r.n++
	args := []string{"--child", kind, "--workload", r.workload, "--seed", strconv.FormatUint(r.seed, 10),
		"--workdir", r.workdir, "--traced=" + strconv.FormatBool(traced)}
	if traced {
		args = append(args, "--spans", filepath.Join(filepath.Dir(r.workdir),
			fmt.Sprintf("spans-%s-seed%d-rep%d.txt", r.workload, r.seed, r.n)))
	}
	cmd := exec.Command(r.exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", kind, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res repResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s repetition: bad result: %w", kind, err)
	}
	return &res, nil
}

// minReps is the fewest main repetitions one run makes, even when they
// overrun --seconds; a traced replay run makes at least two traced and
// two untraced repetitions.
var minReps = map[string]int{"overload-replay": 3, "steady-stream": 2, "whatif-open": 2, "paper-sweep": 3}

func run(workload string, seed uint64, seconds float64, traced, printHash bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	workdir, err := os.MkdirTemp(outDir(), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	r := &runner{workload: workload, seed: seed, workdir: workdir, exe: exe}

	if printHash {
		res, err := r.rep("main", false)
		if err != nil {
			return err
		}
		fmt.Println(res.Hash)
		return nil
	}

	calib := calibrate()
	// The replays and the sweep answer no what-if queries themselves;
	// they run two short passes of the what-if service, one before and
	// one after their repetitions, so that whatif_p50_ms samples the
	// machine at two moments of the run.
	var probes []*repResult
	addProbe := func() error {
		if traced || workload == "whatif-open" {
			return nil
		}
		res, err := r.rep("probe", false)
		if err != nil {
			return err
		}
		probes = append(probes, res)
		return nil
	}
	if err := addProbe(); err != nil {
		return err
	}
	// Only the replays have wrappers that a plain repetition leaves
	// out; the what-if and sweep spans are timings every repetition
	// takes, so there a traced run is a plain run.
	alternate := traced && (workload == "overload-replay" || workload == "steady-stream")
	budget := time.Duration(seconds * float64(time.Second))
	var plain, spans []*repResult
	begin := time.Now()
	for {
		enough := len(plain) >= minReps[workload]
		if alternate {
			enough = len(plain) >= 2 && len(spans) >= 2
		}
		if enough && time.Since(begin) >= budget {
			break
		}
		withSpans := traced && (!alternate || len(spans) < len(plain))
		res, err := r.rep("main", withSpans)
		if err != nil {
			return err
		}
		if withSpans && alternate {
			spans = append(spans, res)
		} else {
			plain = append(plain, res)
		}
	}
	if !alternate {
		spans = plain
	}
	if err := addProbe(); err != nil {
		return err
	}
	return report(workload, seed, calib, plain, spans, probes, traced)
}

// calibrate times the fixed reference microbenchmark (the cluster
// allocate/release cycle of benchkit.MachineAllocRelease), so that
// results from different machines can be compared.
func calibrate() float64 {
	if err := flag.Set("test.benchtime", "300ms"); err != nil {
		return 0
	}
	r := testing.Benchmark(benchkit.MachineAllocRelease)
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func report(workload string, seed uint64, calib float64, plain, spans, probes []*repResult, traced bool) error {
	var refs map[string]map[string]string
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return fmt.Errorf("refs.json: %w", err)
	}
	ref, haveRef := refs[workload][strconv.FormatUint(seed, 10)]
	out := result{Metrics: map[string]metric{}}
	var problems []string
	failOp := func(format string, args ...any) {
		out.Failed++
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	oracle := "accounting only: no reference hash is stored for this seed"
	switch {
	case workload == "whatif-open":
		oracle = "every answer compared byte for byte with the offline fork path"
	case haveRef:
		oracle = "reference hash"
	}
	reps := plain
	if traced && (workload == "overload-replay" || workload == "steady-stream") {
		reps = append(append([]*repResult(nil), plain...), spans...)
	}
	for _, res := range append(append([]*repResult(nil), reps...), probes...) {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		problems = append(problems, res.Problems...)
	}
	for i, res := range reps {
		switch {
		case res.Hash != reps[0].Hash:
			failOp("repetition %d (traced: %v) outcome %s differs from repetition 1 (%s)", i+1, res.Traced, res.Hash, reps[0].Hash)
		case haveRef && workload != "whatif-open" && res.Hash != ref:
			failOp("repetition %d outcome %s differs from the reference %s", i+1, res.Hash, ref)
		}
	}
	for i, res := range probes {
		if res.Hash != probes[0].Hash {
			failOp("what-if pass %d outcome %s differs from pass 1 (%s)", i+1, res.Hash, probes[0].Hash)
		}
	}
	out.Correct = out.Failed == 0

	detail := map[string]any{
		"workload": workload, "seed": seed, "oracle": oracle, "problems": problems,
		"calibration_machine_alloc_release_ns": calib, "gomaxprocs": runtime.GOMAXPROCS(0),
		"repetitions": len(reps), "hash": reps[0].Hash,
	}
	if !traced {
		setE2E(out.Metrics, detail, workload, plain, probes)
		detail["repetition_results"] = append(append([]*repResult(nil), plain...), probes...)
	} else {
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{medianOf(spans, func(r *repResult) float64 { return r.Layers[m.name] }), m.unit}
		}
		// The runtime figures come from the untraced repetitions: the
		// tracer's own allocations would inflate them.
		out.Metrics["runtime.alloc_bytes_per_job"] = metric{medianOf(plain, func(r *repResult) float64 { return float64(r.AllocBytes) / float64(r.Jobs) }), "B"}
		out.Metrics["runtime.allocs_per_job"] = metric{medianOf(plain, func(r *repResult) float64 { return float64(r.Allocs) / float64(r.Jobs) }), "count"}
		out.Metrics["runtime.gc_cpu_ratio"] = metric{medianOf(plain, func(r *repResult) float64 { return r.GCCPURatio }), "ratio"}
		if workload == "whatif-open" || workload == "paper-sweep" {
			detail["tracing_overhead"] = "none: this workload's spans are timings every repetition takes"
		} else {
			u, t := medianOf(plain, jobsPerS), medianOf(spans, jobsPerS)
			detail["untraced_jobs_per_s"], detail["traced_jobs_per_s"] = u, t
			detail["tracing_overhead"] = u/t - 1
			detail["traced_hash_equals_untraced"] = spans[0].Hash == plain[0].Hash
		}
		detail["repetition_results"] = reps
		detail["span_files"] = filepath.Join(outDir(), "spans-"+workload+"-*.txt")
	}
	for _, v := range []any{detail, out} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", b)
	}
	return nil
}

// jobsPerS is terminated jobs per host second of one repetition's
// timed phase; on whatif-open, of the offline fork path.
func jobsPerS(r *repResult) float64 {
	if r.Whatif != nil && r.Kind == "main" {
		return r.Whatif.OracleJobsPerS
	}
	return float64(r.Jobs) / (float64(r.TimedNs) / 1e9)
}

// setE2E fills the end-to-end metrics of an untraced run: medians over
// the repetitions, and what-if latencies pooled over the what-if passes
// (whatif-open's repetitions, or the other workloads' probe).
func setE2E(m map[string]metric, detail map[string]any, workload string, plain, probes []*repResult) {
	m["setup_s"] = metric{medianOf(plain, func(r *repResult) float64 { return float64(r.SetupNs) / 1e9 }), "s"}
	m["jobs_per_s"] = metric{medianOf(plain, jobsPerS), "1/s"}
	m["peak_heap_mb"] = metric{medianOf(plain, func(r *repResult) float64 { return float64(r.PeakLiveBytes) / 1e6 }), "MB"}
	passes := probes
	if workload == "whatif-open" {
		passes = plain
	}
	var lat []float64
	for _, r := range passes {
		lat = append(lat, r.Whatif.RefLatMs...)
		r.Whatif.RefLatMs = nil
	}
	sort.Float64s(lat)
	m["whatif_p50_ms"] = metric{lat[len(lat)/2], "ms"}
	detail["whatif_reference_rate"] = refRate
	detail["whatif_reference_answers"] = len(lat)
	detail["whatif_p99_ms"] = lat[len(lat)*99/100]
	detail["whatif_latency_limit_ms"] = ms(p99Limit)
	if workload == "whatif-open" {
		detail["whatif_max_qps"] = medianOf(plain, func(r *repResult) float64 { return r.Whatif.MaxQPS })
	}
}

func medianOf(rs []*repResult, f func(*repResult) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return median(v)
}

type metricName struct{ name, unit string }

// perLayer lists the per-layer metrics a traced repetition records
// itself (the runtime.* ones come from the untraced repetitions).
var perLayer = []metricName{
	{"sched.pass_self_ns_per_job", "ns"}, {"sched.pass_p50_us", "us"}, {"sched.pass_p99_us", "us"},
	{"sched.passes_per_job", "count"}, {"sched.queue_depth_mean", "count"}, {"sched.queue_depth_max", "count"},
	{"sched.empty_pass_ratio", "ratio"},
	{"core.plan_calls_per_job", "count"}, {"core.plan_hit_ratio", "ratio"}, {"core.plan_ns_per_call", "ns"},
	{"core.plan_ns_per_job", "ns"},
	{"sim.self_ns_per_job", "ns"}, {"des.events_per_job", "count"}, {"memmodel.dilation_calls_per_job", "count"},
	{"source.next_ns_per_job", "ns"}, {"metrics.record_ns_per_job", "ns"}, {"metrics.series_ns_per_sample", "ns"},
	{"trace.emit_ns_per_job", "ns"}, {"trace.events_per_job", "count"},
	{"ckpt.encode_ms", "ms"}, {"ckpt.decode_ms", "ms"}, {"ckpt.bytes", "B"}, {"fork.fork_us_p50", "us"},
	{"fork.tail_us_p50", "us"}, {"serve.overhead_us_p50", "us"}, {"serve.baseline_hit_ratio", "ratio"},
	{"gen.lag_p99_ms", "ms"},
	{"sweep.units", "count"}, {"sweep.tail_s", "s"}, {"workload.gen_ms", "ms"},
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}
