package main

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func loadFixtures(t *testing.T) (benchmark, benchFile, benchFile) {
	t.Helper()
	var cfg benchmark
	var old, cur benchFile
	for path, v := range map[string]any{
		"testdata/benchmark.json": &cfg, "testdata/old.json": &old, "testdata/new.json": &cur,
	} {
		if err := readJSON(path, v); err != nil {
			t.Fatal(err)
		}
	}
	return cfg, old, cur
}

// TestCompareVerdicts pins the four verdicts and the failed-share rule
// on fixture files. Workload alpha: setup_s lost 48% against a bound of
// 25% (worse); jobs_per_s is 5% better but the old runs spread 40%
// against a bound of 25% and the runs overlap (unresolved);
// peak_heap_mb won every seed by more than the old IQR (better);
// whatif_p50_ms did not move (same). Workload beta moved no metric but
// failed one operation of 1000 where it failed none.
func TestCompareVerdicts(t *testing.T) {
	cfg, old, cur := loadFixtures(t)
	want := map[string]map[string]string{
		"alpha": {"setup_s": "worse", "jobs_per_s": "unresolved", "peak_heap_mb": "better", "whatif_p50_ms": "same"},
		"beta":  {"setup_s": "same", "jobs_per_s": "same", "peak_heap_mb": "same", "whatif_p50_ms": "same"},
	}
	for _, wl := range cfg.Workloads {
		oldRuns, curRuns := findWorkload(old, wl.Name), findWorkload(cur, wl.Name)
		for _, m := range cfg.EndToEnd {
			v := judge(m, oldRuns, curRuns)
			if v.Kind != want[wl.Name][m.Name] {
				t.Errorf("%s %s: verdict %s (%+v), want %s", wl.Name, m.Name, v.Kind, v, want[wl.Name][m.Name])
			}
		}
	}

	v := judge(cfg.EndToEnd[0], findWorkload(old, "alpha"), findWorkload(cur, "alpha"))
	if v.Wins != 0 || v.Pairs != 10 || math.Abs(v.Loss-0.5/1.045) > 1e-9 {
		t.Errorf("setup_s verdict %+v, want 0/10 wins and a loss of 0.5/1.045", v)
	}

	var out bytes.Buffer
	regressed, err := compare(&out, cfg, old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("compare found no regression:\n%s", out.String())
	}
	for _, line := range []string{"beta             failed 0/1000 -> 1/1000  grew", "alpha            failed 0/1000 -> 0/1000\n"} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("compare output lacks %q:\n%s", line, out.String())
		}
	}
}

// TestCompareFailedShareAlone: a file equal to the old one except for
// one failed operation is a regression although every verdict is same,
// and a file equal to the old one is none.
func TestCompareFailedShareAlone(t *testing.T) {
	cfg, old, _ := loadFixtures(t)
	var out bytes.Buffer
	regressed, err := compare(&out, cfg, old, old)
	if err != nil {
		t.Fatal(err)
	}
	if regressed || strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "grew") {
		t.Fatalf("a file compared with itself regressed:\n%s", out.String())
	}

	var failing benchFile
	if err := readJSON("testdata/old.json", &failing); err != nil {
		t.Fatal(err)
	}
	failing.Workloads[0].Runs[2].Failed = 1
	out.Reset()
	regressed, err = compare(&out, cfg, old, failing)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || strings.Contains(out.String(), "worse") {
		t.Fatalf("one more failed operation: regressed=%v, want true with no worse verdict:\n%s", regressed, out.String())
	}
}

func TestCompareRefusesDifferentRunLength(t *testing.T) {
	cfg, old, cur := loadFixtures(t)
	cur.RunSeconds = 5
	if _, err := compare(&bytes.Buffer{}, cfg, old, cur); err == nil {
		t.Fatal("files with different run_seconds compared")
	}
}

// cannedRun is one perfbench run's standard output in its real shape:
// the detail line (abridged) and the result line.
func cannedRun(calib, jobs float64, failed int) string {
	return strings.Join([]string{
		`{"calibration_machine_alloc_release_ns":` + ftoa(calib) + `,"gomaxprocs":2,"oracle":"reference hash","problems":null}`,
		`{"correct":` + map[bool]string{true: "true", false: "false"}[failed == 0] + `,"attempted":1115,"failed":` + ftoa(float64(failed)) +
			`,"metrics":{"jobs_per_s":{"value":` + ftoa(jobs) + `,"unit":"1/s"},"peak_heap_mb":{"value":7.154848,"unit":"MB"},` +
			`"setup_s":{"value":0.034449729,"unit":"s"},"whatif_p50_ms":{"value":2.926615,"unit":"ms"}}}`,
	}, "\n") + "\n"
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// TestRunAggregation feeds canned perfbench output through parseRun
// and aggregate, the path dmbench run takes after each run.
func TestRunAggregation(t *testing.T) {
	cfg, _, _ := loadFixtures(t)
	byWorkload := map[string][]run{}
	for seed := 1; seed <= 4; seed++ {
		for _, wl := range cfg.Workloads {
			failed := 0
			if wl.Name == "beta" && seed == 4 {
				failed = 2
			}
			r, err := parseRun([]byte(cannedRun(100*float64(seed), 1000*float64(seed), failed)))
			if err != nil {
				t.Fatal(err)
			}
			r.Seed = seed
			byWorkload[wl.Name] = append(byWorkload[wl.Name], r)
		}
	}
	f := aggregate(cfg, byWorkload)
	if f.Attempted != 8*1115 || f.Failed != 2 || f.Correct {
		t.Fatalf("totals: attempted %d failed %d correct %v, want %d, 2, false", f.Attempted, f.Failed, f.Correct, 8*1115)
	}
	if f.CalibrationNs != 250 {
		t.Fatalf("calibration median %g, want 250", f.CalibrationNs)
	}
	if len(f.Workloads) != 2 || f.Workloads[0].Name != "alpha" || len(f.Workloads[0].Runs) != 4 {
		t.Fatalf("workloads %+v", f.Workloads)
	}
	m := f.Workloads[0].Metrics
	if len(m) != 4 || m[0].Name != "setup_s" || m[1].Name != "jobs_per_s" {
		t.Fatalf("metric summaries %+v, want BENCHMARK.json order", m)
	}
	// jobs_per_s over seeds 1..4 is 1000, 2000, 3000, 4000: median
	// 2500, quartiles 1750 and 3250.
	if m[1].Median != 2500 || m[1].IQR != 1500 || m[1].Unit != "1/s" {
		t.Fatalf("jobs_per_s summary %+v, want median 2500 IQR 1500", m[1])
	}
	if m[0].Median != 0.034449729 || m[0].IQR != 0 {
		t.Fatalf("setup_s summary %+v", m[0])
	}

	for _, bad := range []string{"", "{}\n", "{\"calibration_machine_alloc_release_ns\":1}\nnot json\n", "x\n{\"attempted\":1}\n"} {
		if _, err := parseRun([]byte(bad)); err == nil {
			t.Errorf("parseRun(%q) accepted", bad)
		}
	}
}
