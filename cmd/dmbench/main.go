// Command dmbench runs the repository benchmark over ten seeds and
// compares two such runs. The benchmark is the one BENCHMARK.json
// declares (perfbench/): its command, run length, workloads and
// end-to-end metrics with their bounds are read from that file.
//
// Usage:
//
//	dmbench run [-out path]             # writes BENCH_<date>.json
//	dmbench compare old.json new.json   # exits 1 on a regression
//
// Run it from the directory holding BENCHMARK.json.
//
// run executes `<command> --workload W --seed s --seconds run_seconds
// --trace 0` for every workload and seeds 1 to 10, one run at a time,
// and records every run's figures with the median and interquartile
// range (IQR) of each end-to-end metric.
//
// compare gives one verdict per workload and end-to-end metric:
// worse when the new median lost more than the metric's bound (a share
// of the old median); unresolved when the old runs spread (IQR over
// median) wider than the bound and not every new run beats every old
// run; better when the new run wins at least nine tenths of the
// seed-paired runs and the medians differ by more than the old IQR;
// same otherwise. It exits 1 on any worse verdict and when a
// workload's share of failed operations grew.
//
// The micro-benchmarks of the hot paths are plain Go benchmarks:
//
//	go test -run '^$' -bench <Name> -benchmem .
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"dismem/internal/stats"
)

// seeds is how many seeds (1..seeds) every workload runs: ten pairs of
// runs are what a claimed gain must win nine of.
const seeds = 10

// benchmark is the part of BENCHMARK.json dmbench reads.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one bounded end-to-end metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the share of the old median it may lose
}

// benchFile is the BENCH_<date>.json schema.
type benchFile struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	// CalibrationNs is the median over every run of perfbench's
	// calibration figure, so that files from different machines can be
	// compared.
	CalibrationNs float64          `json:"calibration_machine_alloc_release_ns"`
	Attempted     int              `json:"attempted"`
	Failed        int              `json:"failed"`
	Correct       bool             `json:"correct"` // every run was correct
	Workloads     []workloadResult `json:"workloads"`
}

// workloadResult holds one workload's runs, one per seed, and the
// median and IQR of each end-to-end metric over them.
type workloadResult struct {
	Name    string    `json:"name"`
	Runs    []run     `json:"runs"`
	Metrics []summary `json:"metrics"`
}

// run is the figures of one perfbench run.
type run struct {
	Seed          int                `json:"seed"`
	Correct       bool               `json:"correct"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	CalibrationNs float64            `json:"calibration_ns"`
	Metrics       map[string]float64 `json:"metrics"`
}

type summary struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
}

func main() {
	out := flag.String("out", "", "run: output path (default BENCH_<date>.json)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dmbench run [-out path]\n       dmbench compare old.json new.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Flags may also follow the subcommand: dmbench run -out x.json.
	if err := flag.CommandLine.Parse(args[1:]); err != nil {
		os.Exit(2)
	}
	cmd, rest := args[0], flag.Args()
	cfg, err := loadBenchmark()
	if err != nil {
		fatalf("%v", err)
	}
	switch {
	case cmd == "run" && len(rest) == 0:
		path := *out
		if path == "" {
			path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
		}
		if err := runAll(cfg, path); err != nil {
			fatalf("%v", err)
		}
	case cmd == "compare" && len(rest) == 2:
		var files [2]benchFile
		for i, p := range rest {
			if err := readJSON(p, &files[i]); err != nil {
				fatalf("%v", err)
			}
		}
		regressed, err := compare(os.Stdout, cfg, files[0], files[1])
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dmbench: "+format+"\n", args...)
	os.Exit(1)
}

// loadBenchmark reads BENCHMARK.json from the working directory.
func loadBenchmark() (benchmark, error) {
	var cfg benchmark
	if err := readJSON("BENCHMARK.json", &cfg); err != nil {
		return cfg, err
	}
	if len(cfg.Command) == 0 || cfg.RunSeconds <= 0 || len(cfg.Workloads) == 0 {
		return cfg, errors.New("BENCHMARK.json: needs command, run_seconds and workloads")
	}
	for _, m := range cfg.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return cfg, fmt.Errorf("BENCHMARK.json: metric %s: better is %q, want lower or higher", m.Name, m.Better)
		}
	}
	return cfg, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runAll runs every workload over seeds 1..seeds, one run at a time,
// and writes the BENCH file to path.
func runAll(cfg benchmark, path string) error {
	byWorkload := make(map[string][]run, len(cfg.Workloads))
	for _, w := range cfg.Workloads {
		for seed := 1; seed <= seeds; seed++ {
			args := append(append([]string(nil), cfg.Command[1:]...), "--workload", w.Name,
				"--seed", strconv.Itoa(seed), "--seconds", strconv.FormatFloat(cfg.RunSeconds, 'f', -1, 64), "--trace", "0")
			c := exec.Command(cfg.Command[0], args...)
			var stdout bytes.Buffer
			c.Stdout, c.Stderr = &stdout, os.Stderr
			if err := c.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			r, err := parseRun(stdout.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			r.Seed = seed
			fmt.Printf("%-16s seed %2d  correct=%v  failed %d/%d\n", w.Name, seed, r.Correct, r.Failed, r.Attempted)
			byWorkload[w.Name] = append(byWorkload[w.Name], r)
		}
	}
	f := aggregate(cfg, byWorkload)
	f.Date = time.Now().UTC().Format("2006-01-02")
	f.GoVersion, f.GOOS, f.GOARCH, f.NumCPU = runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU()
	for _, w := range f.Workloads {
		for _, m := range w.Metrics {
			fmt.Printf("%-16s %-14s median %12.4g %-4s IQR %10.4g\n", w.Name, m.Name, m.Median, m.Unit, m.IQR)
		}
	}
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// parseRun reads one perfbench run's standard output: the last line is
// the result, the line before it the detail, from which only the
// calibration figure is kept.
func parseRun(stdout []byte) (run, error) {
	var r run
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return r, fmt.Errorf("want a detail and a result line, got %d lines", len(lines))
	}
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    int   `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || res.Correct == nil {
		return r, fmt.Errorf("bad result line %q (%v)", lines[len(lines)-1], err)
	}
	var detail struct {
		CalibrationNs float64 `json:"calibration_machine_alloc_release_ns"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &detail); err != nil {
		return r, fmt.Errorf("bad detail line: %w", err)
	}
	r = run{Correct: *res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		CalibrationNs: detail.CalibrationNs, Metrics: make(map[string]float64, len(res.Metrics))}
	for name, m := range res.Metrics {
		r.Metrics[name] = m.Value
	}
	return r, nil
}

// aggregate builds the BENCH file body from the runs of each workload,
// in BENCHMARK.json order.
func aggregate(cfg benchmark, byWorkload map[string][]run) benchFile {
	f := benchFile{Command: cfg.Command, RunSeconds: cfg.RunSeconds, Correct: true}
	var calib []float64
	for _, w := range cfg.Workloads {
		runs := byWorkload[w.Name]
		wr := workloadResult{Name: w.Name, Runs: runs}
		for _, r := range runs {
			f.Attempted += r.Attempted
			f.Failed += r.Failed
			f.Correct = f.Correct && r.Correct
			calib = append(calib, r.CalibrationNs)
		}
		for _, m := range cfg.EndToEnd {
			med, iqr := medianIQR(values(runs, m.Name))
			wr.Metrics = append(wr.Metrics, summary{Name: m.Name, Unit: m.Unit, Median: med, IQR: iqr})
		}
		f.Workloads = append(f.Workloads, wr)
	}
	f.CalibrationNs = stats.Percentile(calib, 50)
	return f
}

func values(runs []run, metric string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Metrics[metric]
	}
	return v
}

// medianIQR returns the median and the distance between the quartiles,
// by linear interpolation between closest ranks.
func medianIQR(v []float64) (median, iqr float64) {
	q := stats.Percentiles(v, 25, 50, 75)
	return q[1], q[2] - q[0]
}

// verdict is compare's finding for one workload and metric.
type verdict struct {
	OldMedian   float64
	NewMedian   float64
	Loss        float64 // relative worsening of the median; negative is a gain
	Spread      float64 // the old runs' IQR over their median
	Wins, Pairs int     // seed-paired runs the new file won, of those paired
	Kind        string  // worse, unresolved, better or same
}

// judge compares one metric's runs of two files; neither may be empty.
func judge(m metricSpec, old, cur []run) verdict {
	var v verdict
	sign := 1.0 // +1 when lower is better
	if m.Better == "higher" {
		sign = -1
	}
	oldV, curV := values(old, m.Name), values(cur, m.Name)
	oldBySeed := make(map[int]float64, len(old))
	for _, r := range old {
		oldBySeed[r.Seed] = r.Metrics[m.Name]
	}
	for _, r := range cur {
		if o, ok := oldBySeed[r.Seed]; ok {
			v.Pairs++
			if sign*(r.Metrics[m.Name]-o) < 0 {
				v.Wins++
			}
		}
	}
	var oldIQR float64
	v.OldMedian, oldIQR = medianIQR(oldV)
	v.NewMedian, _ = medianIQR(curV)
	v.Loss = nanToZero(sign * (v.NewMedian - v.OldMedian) / math.Abs(v.OldMedian))
	v.Spread = nanToZero(oldIQR / math.Abs(v.OldMedian))
	// Every new run beats every old one when the worst new run beats
	// the best old run.
	best, worst := 0.0, 100.0 // the percentiles of the best and worst run
	if sign < 0 {
		best, worst = worst, best
	}
	allBeat := sign*(stats.Percentile(curV, worst)-stats.Percentile(oldV, best)) < 0
	switch {
	case v.Loss > m.Bound:
		v.Kind = "worse"
	case v.Spread > m.Bound && !allBeat:
		v.Kind = "unresolved"
	case v.Pairs > 0 && 10*v.Wins >= 9*v.Pairs && sign*(v.OldMedian-v.NewMedian) > oldIQR:
		v.Kind = "better"
	default:
		v.Kind = "same"
	}
	return v
}

func nanToZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func findWorkload(f benchFile, name string) []run {
	for _, w := range f.Workloads {
		if w.Name == name {
			return w.Runs
		}
	}
	return nil
}

// failedShare returns failed over attempted operations of runs, and
// the two counts.
func failedShare(runs []run) (share float64, failed, attempted int) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted > 0 {
		share = float64(failed) / float64(attempted)
	}
	return share, failed, attempted
}

// compare writes one verdict per workload and end-to-end metric to w,
// and each workload's failed share. It reports a regression when any
// verdict is worse or a failed share grew.
func compare(w io.Writer, cfg benchmark, old, cur benchFile) (regressed bool, err error) {
	if old.RunSeconds != cur.RunSeconds {
		return false, fmt.Errorf("run_seconds differ (%g and %g): the files are not comparable", old.RunSeconds, cur.RunSeconds)
	}
	fmt.Fprintf(w, "calibration: %.1f ns -> %.1f ns\n", old.CalibrationNs, cur.CalibrationNs)
	fmt.Fprintf(w, "%-16s %-14s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "old median", "new median", "loss", "spread", "wins", "verdict")
	for _, wl := range cfg.Workloads {
		oldRuns, curRuns := findWorkload(old, wl.Name), findWorkload(cur, wl.Name)
		if len(oldRuns) == 0 || len(curRuns) == 0 {
			return false, fmt.Errorf("workload %s has no runs in one of the files", wl.Name)
		}
		for _, m := range cfg.EndToEnd {
			v := judge(m, oldRuns, curRuns)
			regressed = regressed || v.Kind == "worse"
			fmt.Fprintf(w, "%-16s %-14s %12.4g %12.4g %+7.1f%% %7.1f%% %3d/%-2d  %s\n",
				wl.Name, m.Name, v.OldMedian, v.NewMedian, 100*v.Loss, 100*v.Spread, v.Wins, v.Pairs, v.Kind)
		}
		oldShare, oldFailed, oldAttempted := failedShare(oldRuns)
		curShare, curFailed, curAttempted := failedShare(curRuns)
		note := ""
		if curShare > oldShare {
			regressed, note = true, "  grew"
		}
		fmt.Fprintf(w, "%-16s failed %d/%d -> %d/%d%s\n", wl.Name, oldFailed, oldAttempted, curFailed, curAttempted, note)
	}
	return regressed, nil
}
