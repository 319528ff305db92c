// Command dmbench runs the simulator's headline hot-path benchmarks
// (the same bodies bench_test.go exposes to `go test -bench`) and
// records the results as a BENCH_<date>.json file, so the repository
// tracks its own performance trajectory across PRs (DESIGN.md §6,
// EXPERIMENTS.md).
//
// Usage:
//
//	dmbench                     # writes ./BENCH_<today>.json
//	dmbench -out results.json   # explicit output path
//	dmbench -benchtime 5s       # more stable numbers
//	dmbench -stream             # streaming-replay pair (100k + 1M jobs)
//	                            # -> BENCH_<today>_stream.json
//	dmbench -fork               # checkpoint+fork overhead
//	                            # -> BENCH_<today>_fork.json
//	dmbench -serve              # what-if service queries/s + latency
//	                            # -> BENCH_<today>_serve.json
//	dmbench -series             # sampling/series-export overhead
//	                            # -> BENCH_<today>_series.json
//	dmbench -trace              # lifecycle-trace export overhead
//	                            # -> BENCH_<today>_trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dismem/internal/benchkit"
	"dismem/internal/profiling"
)

// entry is one benchmark's recorded result.
type entry struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// record is the BENCH_<date>.json schema.
type record struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	Benchmarks []entry `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("out", "", "output path (default BENCH_<date>.json)")
		benchtime = flag.Duration("benchtime", time.Second, "target run time per benchmark")
		stream    = flag.Bool("stream", false, "run the streaming-replay benchmarks (100k + 1M jobs; minutes of runtime) instead of the headline set, writing BENCH_<date>_stream.json")
		fork      = flag.Bool("fork", false, "run the checkpoint+fork overhead benchmark instead of the headline set, writing BENCH_<date>_fork.json")
		ckptio    = flag.Bool("ckptio", false, "run the durable checkpoint encode/decode benchmarks instead of the headline set, writing BENCH_<date>_ckptio.json")
		srv       = flag.Bool("serve", false, "run the what-if service benchmark (concurrent /v1/whatif queries against a checkpoint ring) instead of the headline set, writing BENCH_<date>_serve.json")
		series    = flag.Bool("series", false, "run the sampling/series-export overhead benchmark instead of the headline set, writing BENCH_<date>_series.json")
		trc       = flag.Bool("trace", false, "run the lifecycle-trace export overhead benchmark instead of the headline set, writing BENCH_<date>_trace.json")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file (inspect with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile (pprof allocs: cumulative sites plus post-GC in-use heap) to this file at exit")
	)
	flag.Parse()

	flushProfiles, err := profiling.Start("dmbench", *cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmbench:", err)
		os.Exit(1)
	}
	defer flushProfiles()

	type bench struct {
		name string
		fn   func(*testing.B)
	}
	benches := []bench{
		{"MachineAllocRelease", benchkit.MachineAllocRelease},
		{"MemAwarePlan", benchkit.MemAwarePlan},
		{"Simulation", benchkit.Simulation},
		// BatchSimulation rides along as the amortised reference: the
		// jobs/s gap to Simulation is what the Runner's machine and
		// pool reuse saves per run in a batch or sweep.
		{"BatchSimulation", benchkit.BatchSimulation},
		{"ScenarioSimulation", benchkit.ScenarioSimulation},
	}
	exclusive := 0
	for _, f := range []bool{*stream, *fork, *ckptio, *srv, *series, *trc} {
		if f {
			exclusive++
		}
	}
	if exclusive > 1 {
		fmt.Fprintln(os.Stderr, "dmbench: choose one of -stream, -fork, -ckptio, -serve, -series and -trace")
		os.Exit(1)
	}
	suffix := ""
	switch {
	case *trc:
		suffix = "_trace"
		benches = []bench{
			{"TraceSimulation", benchkit.TraceSimulation},
			// Simulation rides along as the nil-sink reference: the jobs/s
			// gap between the two is the whole cost of streaming the
			// lifecycle trace as JSONL.
			{"Simulation", benchkit.Simulation},
		}
	case *series:
		suffix = "_series"
		benches = []bench{
			{"SeriesSampling", benchkit.SeriesSampling},
			// Simulation rides along as the sampling-off reference: the
			// jobs/s gap between the two is the whole observability
			// price at the benchmark's 600 s sampling period.
			{"Simulation", benchkit.Simulation},
		}
	case *srv:
		suffix = "_serve"
		benches = []bench{
			{"ServeQueries", benchkit.ServeQueries},
			// CheckpointFork rides along as the lower bound: a query's
			// floor is one fork plus the divergent-tail replay, and the
			// gap between the two is the serving layer's own overhead.
			{"CheckpointFork", benchkit.CheckpointFork},
		}
	case *ckptio:
		suffix = "_ckptio"
		benches = []bench{
			{"CheckpointEncode", benchkit.CheckpointEncode},
			{"CheckpointDecode", benchkit.CheckpointDecode},
			// CheckpointFork rides along as the in-memory reference: the
			// durable envelope's cost is meaningful relative to the pure
			// in-process snapshot.
			{"CheckpointFork", benchkit.CheckpointFork},
		}
	case *stream:
		suffix = "_stream"
		benches = []bench{
			{"StreamingReplay100k", benchkit.StreamingReplay100k},
			{"StreamingReplay1M", benchkit.StreamingReplay1M},
		}
	case *fork:
		suffix = "_fork"
		benches = []bench{
			{"CheckpointFork", benchkit.CheckpointFork},
			// Simulation rides along as the same-process reference: the
			// fork overhead is meaningful relative to what simulating
			// the prefix from scratch would cost.
			{"Simulation", benchkit.Simulation},
		}
	}

	rec := record{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s%s.json", rec.Date, suffix)
	}

	// testing.Benchmark calibrates b.N against the test.benchtime flag
	// registered by testing.Init (see init below).
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "dmbench:", err)
		os.Exit(1)
	}

	for _, bm := range benches {
		res := testing.Benchmark(bm.fn)
		e := entry{
			Name:        bm.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		if len(res.Extra) > 0 {
			e.Extra = make(map[string]float64, len(res.Extra))
			for k, v := range res.Extra {
				e.Extra[k] = v
			}
		}
		rec.Benchmarks = append(rec.Benchmarks, e)
		fmt.Printf("%-22s %12d ops  %12.1f ns/op  %8d B/op  %6d allocs/op",
			e.Name, e.Iterations, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
		for k, v := range e.Extra {
			fmt.Printf("  %.0f %s", v, k)
		}
		fmt.Println()
	}

	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmbench:", err)
		flushProfiles()
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dmbench:", err)
		flushProfiles()
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}

func init() {
	// Register the testing package's flags (test.benchtime et al) so
	// testing.Benchmark honours the -benchtime mapping above.
	testing.Init()
}
