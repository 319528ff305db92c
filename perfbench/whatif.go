package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dismem"
	"dismem/internal/serve"
)

const (
	// whatifJobs and whatifCkptEvery shape the service's baseline: a
	// synthetic trace of about a simulated week, checkpointed into the
	// ring every 6 simulated hours.
	whatifJobs      = 2000
	whatifCkptEvery = 6 * 3600
	// whatifBaselineSeed fixes the baseline: the benchmark seed draws
	// the query mix, as a service answers different questions about one
	// timeline. A seeded baseline would make the per-query cost, the
	// ring and the heap differ from seed to seed.
	whatifBaselineSeed = 1
	// whatifInterarrival keeps the baseline below saturation: at the
	// generator's default 90 s it is overloaded for days, and forks from
	// those checkpoints cost up to 30 times the median query.
	whatifInterarrival = 240
	// p99Limit is the latency limit a ladder step must meet at p99.
	p99Limit = 25 * time.Millisecond
	// abandonAfter bounds how late a request may be sent: a worker
	// skips a request already this far past its due time, and the step
	// counts it as missing the limit. It keeps overloaded steps short.
	abandonAfter = time.Second
)

// schedule is the load one what-if phase offers.
type schedule struct {
	refN    int     // requests sent at the reference rate
	stepSec float64 // duration of each ladder step; 0 skips the ladder
	passes  int     // passes of the offline fork path (timing and oracle)
}

const (
	// poolSize is the number of distinct queries of the seeded pool,
	// spread over the first querySlots ring checkpoints: the baseline's
	// arrivals last about 22 ring periods, so these 4 simulated days see
	// arrivals for every seed, and pools of different seeds load the same
	// number of checkpoints.
	poolSize   = 256
	querySlots = 16
	// refRate is the named reference rate at which whatif_p50_ms and
	// whatif_p99_ms are measured, in queries/s.
	refRate = 100
)

// ladder holds the rates whatif_max_qps is searched over: 10% apart,
// so that one step of error moves the figure by a tenth.
var ladder = func() []float64 {
	var l []float64
	for r := 25.0; r < 1000; r *= 1.1 {
		l = append(l, r)
	}
	return l
}()

// fullSchedule is one repetition of whatif-open; probeSchedule is one of
// the two shorter passes the other workloads run so that they report
// every end-to-end metric. The parent pools the reference-rate
// latencies of a run's passes.
var (
	fullSchedule  = schedule{refN: 600, stepSec: 1, passes: 3}
	probeSchedule = schedule{refN: 300, passes: 1}
)

// query is one distinct what-if request of the seeded pool.
type query struct {
	req   serve.WhatIfRequest
	body  []byte
	file  string // ring file the server forks for it
	first []byte // the first answer the service gave
	// answers counts the service's answers equal to first: if first
	// is wrong, so are they.
	answers int
}

// whatifResult carries the service-level figures of one phase.
type whatifResult struct {
	RefRate    float64 `json:"ref_rate"`
	RefP50Ms   float64 `json:"ref_p50_ms"`
	RefP99Ms   float64 `json:"ref_p99_ms"`
	RefAnswers int     `json:"ref_answers"`
	// RefLatMs holds every reference-rate latency, so that the parent
	// can pool them across repetitions.
	RefLatMs       []float64     `json:"ref_lat_ms"`
	MaxQPS         float64       `json:"max_qps"`
	LimitMs        float64       `json:"limit_ms"`
	LagP99Ms       float64       `json:"lag_p99_ms"`
	OracleJobsPerS float64       `json:"oracle_jobs_per_s"`
	Steps          []stepSummary `json:"steps"`
}

type stepSummary struct {
	Rate      float64 `json:"rate"`
	Achieved  float64 `json:"achieved"`
	Sent      int     `json:"sent"`
	Answered  int     `json:"answered"`
	Abandoned int     `json:"abandoned"`
	Wrong     int     `json:"wrong"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	LagP99Ms  float64 `json:"lag_p99_ms"`
	Backlog1  float64 `json:"backlog_first_half"`
	Backlog2  float64 `json:"backlog_second_half"`
	Pass      bool    `json:"pass"`
}

// reqRec is one request of a step; times are offsets from the step's
// start.
type reqRec struct {
	q                   int
	status              int // HTTP status; 0 when abandoned, -1 on a transport error
	match               bool
	due, lag, sent, end time.Duration
}

// client is one keep-alive connection to the service.
type client struct {
	hc  *http.Client
	url string
	t   *tracer
}

func newClient(base string, t *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		url: base + "/v1/whatif",
		t:   t,
	}
}

func (c *client) post(body []byte) (int, []byte) {
	c.t.begin(lHTTP)
	defer c.t.end()
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return -1, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1, nil
	}
	return resp.StatusCode, b
}

// makeQueries builds the seeded query pool: rack-outage tails and
// policy switches, divergence instants spread evenly over the given
// ring checkpoints, horizons of 2 to 12 hours, and every fourth query
// without the baseline comparison. The kinds, horizons and ring slots are
// stratified, and only offsets, racks, outage lengths and the order
// are drawn, so pools of different seeds cost alike.
func makeQueries(seed uint64, ring []ringFile) []*query {
	rng := rand.New(rand.NewPCG(seed, 0x77686174)) // "what"
	policies := []string{"easy-local", "memaware-patient", "memaware-nocap", "sjf-local", "easy-oblivious"}
	qs := make([]*query, poolSize)
	for i := range qs {
		e := ring[i%len(ring)]
		at := e.At + 60*int64(rng.IntN(whatifCkptEvery/60))
		req := serve.WhatIfRequest{At: at, Horizon: at + 3600*int64(2+i%11)}
		if i%5 < 3 {
			rack, down := rng.IntN(16), 1800*int64(1+rng.IntN(8))
			req.Scenario = fmt.Sprintf("at=%d down rack=%d; at=%d up rack=%d", at, rack, at+down, rack)
		} else {
			req.Policy = policies[(i/5)%len(policies)]
		}
		req.NoBaseline = i%4 == 3
		body, _ := json.Marshal(req) // a struct of plain fields always encodes
		qs[i] = &query{req: req, body: body, file: e.File}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

type ringFile struct {
	At   int64  `json:"at"`
	File string `json:"file"`
}

// runWhatIf builds the what-if service and drives it with the
// open-loop generator, then checks every answer against the offline
// ReadCheckpointFile -> Fork -> run path.
func runWhatIf(a childArgs, sc schedule, start time.Time, res *repResult) error {
	heap := newHeapSampler()
	ringDir := filepath.Join(a.workdir, fmt.Sprintf("ring-%d", os.Getpid()))
	defer os.RemoveAll(ringDir)
	gen := dismem.DefaultGen(whatifJobs, whatifBaselineSeed, dismem.DefaultMachine())
	gen.MeanInterarrival = whatifInterarrival
	wl, err := dismem.GenerateWorkload(gen)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Options: dismem.Options{
			Machine:  dismem.DefaultMachine(),
			Policy:   replayPolicy,
			Model:    replayModel,
			Workload: wl,
		},
		CkptDir:   ringDir,
		CkptEvery: whatifCkptEvery,
		// One fork worker leaves the other processor to the HTTP
		// layer and the load generator.
		Workers: 1,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()
	defer func() { cancel(); <-runDone }()
	for !srv.Status().BaselineDone {
		select {
		case err := <-runDone:
			runDone <- err
			return fmt.Errorf("baseline stopped before draining: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	defer func() { hs.Close(); <-serveDone }()
	base := "http://" + ln.Addr().String()

	conns := runtime.GOMAXPROCS(0)
	tracers := make([]*tracer, conns)
	clients := make([]*client, conns)
	for i := range clients {
		tracers[i] = newTracer(start)
		clients[i] = newClient(base, tracers[i])
		defer clients[i].hc.CloseIdleConnections()
	}
	var ring struct {
		Checkpoints []ringFile `json:"checkpoints"`
	}
	if err := getJSON(base+"/v1/checkpoints", &ring); err != nil {
		return err
	}
	if len(ring.Checkpoints) < querySlots {
		return fmt.Errorf("the service wrote %d ring checkpoints, want at least %d", len(ring.Checkpoints), querySlots)
	}
	pool := makeQueries(a.seed, ring.Checkpoints[:querySlots])

	// Warm-up, part of set-up: each query once, closed loop, so the
	// service has loaded its checkpoints and filled its baseline cache.
	withBaseline := 0
	for _, q := range pool {
		status, body := clients[0].post(q.body)
		res.Attempted++
		if status != http.StatusOK {
			res.fail("warm-up query %s: status %d: %.200s", q.body, status, body)
			continue
		}
		q.first = body
		q.answers++
		if !q.req.NoBaseline {
			withBaseline++
		}
	}
	heap.sample()
	res.SetupNs = int64(time.Since(start))

	// Timed phase: the reference step, then a bisection of the ladder
	// for the highest rate that meets the limit.
	w := &whatifResult{RefRate: refRate, LimitMs: ms(p99Limit)}
	timed := time.Now()
	var lags []time.Duration
	sent := 0 // requests sent so far: each step continues the pool's round robin
	runStep := func(rate float64, n int) (stepSummary, []reqRec) {
		recs := openLoopStep(clients, pool, rate, n, sent)
		sent += n
		st := summarizeStep(rate, recs)
		for _, r := range recs {
			lags = append(lags, r.lag)
			if r.status != 0 {
				res.Attempted++
			}
			if r.status > 0 && !pool[r.q].req.NoBaseline {
				withBaseline++
			}
			if r.status != 0 && (r.status != http.StatusOK || !r.match) {
				res.fail("query %s: status %d, answer matches the first: %v", pool[r.q].body, r.status, r.match)
			} else if r.status != 0 {
				pool[r.q].answers++
			}
		}
		w.Steps = append(w.Steps, st)
		return st, recs
	}
	ref, refRecs := runStep(refRate, sc.refN)
	w.RefP50Ms, w.RefP99Ms, w.RefAnswers = ref.P50Ms, ref.P99Ms, ref.Answered
	for _, r := range refRecs {
		w.RefLatMs = append(w.RefLatMs, ms(r.end-r.due))
	}
	lo, hi := -1, len(ladder)
	for sc.stepSec > 0 && hi-lo > 1 {
		mid := (lo + hi) / 2
		st, _ := runStep(ladder[mid], max(int(ladder[mid]*sc.stepSec), 50))
		if st.Pass {
			lo = mid
			w.MaxQPS = st.Achieved
		} else {
			hi = mid
		}
	}
	res.TimedNs = int64(time.Since(timed))
	w.LagP99Ms = ms(durQuantile(lags, 0.99))
	heap.sample()
	res.PeakLiveBytes = heap.peak

	var vars map[string]json.RawMessage
	if err := getJSON(base+"/debug/vars", &vars); err != nil {
		return err
	}
	var counters struct {
		BaselineHits float64 `json:"baseline_cache_hits"`
	}
	if err := json.Unmarshal(vars[srv.VarsName()], &counters); err != nil {
		return fmt.Errorf("/debug/vars: %w", err)
	}
	hits := counters.BaselineHits

	// Oracle and offline timing: every distinct query through
	// ReadCheckpointFile -> Fork -> run, compared byte for byte.
	ot := newTracer(start)
	cps := map[string]*dismem.Checkpoint{}
	var sizes []float64
	for _, q := range pool {
		if cps[q.file] != nil {
			continue
		}
		ot.begin(lDecode)
		cp, err := dismem.ReadCheckpointFile(q.file)
		ot.end()
		if err != nil {
			return err
		}
		cps[q.file] = cp
		if fi, err := os.Stat(q.file); err == nil {
			sizes = append(sizes, float64(fi.Size()))
		}
	}
	forkNs := make([][]int64, len(pool))
	tailNs := make([][]int64, len(pool))
	var jobs, events int64
	var hashes []string
	before := readRT()
	offStart := time.Now()
	for pass := 0; pass < sc.passes; pass++ {
		for i, q := range pool {
			want, fork, tail, n, ev, err := offline(ot, cps[q.file], q.req)
			if err != nil {
				return err
			}
			events += ev
			forkNs[i] = append(forkNs[i], fork)
			tailNs[i] = append(tailNs[i], tail)
			jobs += n
			if pass > 0 {
				continue
			}
			hashes = append(hashes, digest(string(want)))
			if q.first != nil && !bytes.Equal(q.first, want) {
				res.fail("query %s: %d service answers differ from the offline fork path", q.body, q.answers)
				res.Failed += q.answers - 1
			}
		}
	}
	w.OracleJobsPerS = float64(jobs) / time.Since(offStart).Seconds()
	res.setRuntime(before, readRT())
	res.Jobs = jobs
	res.Hash = digest(hashes...)
	res.Whatif = w

	// Per-layer figures.
	L := res.Layers
	for _, t := range tracers {
		ot.merge(t)
	}
	encoded := 0
	for _, cp := range cps {
		if encoded == 3 {
			break
		}
		ot.begin(lEncode)
		err := dismem.WriteCheckpointFile(filepath.Join(ringDir, "encode-probe.dmckpt"), cp)
		ot.end()
		if err != nil {
			return err
		}
		encoded++
	}
	L["ckpt.encode_ms"] = medianInt(ot.durs[lEncode]) / 1e6
	L["ckpt.decode_ms"] = medianInt(ot.durs[lDecode]) / 1e6
	L["ckpt.bytes"] = median(sizes)
	L["fork.fork_us_p50"] = ot.p(lFork, 0.5) / 1e3
	L["fork.tail_us_p50"] = ot.p(lTail, 0.5) / 1e3
	var overhead []int64
	for _, r := range refRecs {
		if r.status == http.StatusOK {
			overhead = append(overhead, int64(r.end-r.sent)-int64(medianInt(forkNs[r.q])+medianInt(tailNs[r.q])))
		}
	}
	L["serve.overhead_us_p50"] = medianInt(overhead) / 1e3
	if withBaseline > 0 {
		L["serve.baseline_hit_ratio"] = hits / float64(withBaseline)
	}
	L["gen.lag_p99_ms"] = w.LagP99Ms
	L["sim.self_ns_per_job"] = float64(ot.total[lTail]) / float64(jobs)
	L["des.events_per_job"] = float64(events) / float64(jobs)
	res.Info["ring_checkpoints"] = float64(len(ring.Checkpoints))
	if a.spans != "" {
		return writeSpans(a.spans, append([]*tracer{ot}, tracers...)...)
	}
	return nil
}

// offline answers req the way an offline user would: fork the decoded
// checkpoint, run the future, and fork the no-override baseline over
// the same window for the deltas. It returns the response bytes the
// service must give, the what-if fork and tail times, and the jobs the
// runs terminated and the DES events they fired.
func offline(t *tracer, cp *dismem.Checkpoint, req serve.WhatIfRequest) (body []byte, forkNs, tailNs, jobs, events int64, err error) {
	run := func(fo dismem.ForkOptions) (*dismem.Result, int64, int64, error) {
		t.begin(lFork)
		t0 := t.now()
		f, err := dismem.Fork(cp, fo)
		t1 := t.now()
		t.end()
		if err != nil {
			return nil, 0, 0, err
		}
		t.begin(lTail)
		r, err := f.Run()
		t2 := t.now()
		t.end()
		if err != nil {
			return nil, 0, 0, err
		}
		jobs += int64(r.Report.Completed + r.Report.Killed + r.Report.Rejected)
		events += int64(r.Events)
		return r, t1 - t0, t2 - t1, nil
	}
	r, forkNs, tailNs, err := run(dismem.ForkOptions{
		ScenarioSpec: req.Scenario, Policy: req.Policy, Horizon: req.Horizon,
		ReseedFailures: req.ReseedFailures, FailureSeed: req.FailureSeed,
	})
	if err != nil {
		return nil, 0, 0, 0, 0, err
	}
	resp := serve.WhatIfResponse{CheckpointAt: cp.At(), Horizon: req.Horizon, Report: summarize(r)}
	if !req.NoBaseline {
		b, _, _, err := run(dismem.ForkOptions{Horizon: req.Horizon})
		if err != nil {
			return nil, 0, 0, 0, 0, err
		}
		bs := summarize(b)
		resp.Baseline = &bs
		resp.Deltas = deltas(resp.Report, bs)
	}
	body, err = json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, 0, 0, 0, 0, err
	}
	return append(body, '\n'), forkNs, tailNs, jobs, events, nil
}

// summarize and deltas restate the service's documented response
// schema (serve.RunSummary, serve.Deltas) from a Result, independently
// of the service's own code.
func summarize(res *dismem.Result) serve.RunSummary {
	r := res.Report
	return serve.RunSummary{
		Completed: r.Completed, Killed: r.Killed, Rejected: r.Rejected,
		MakespanSec: r.MakespanSec, Events: res.Events,
		MeanWaitSec: r.Wait.Mean(), P95WaitSec: r.P95Wait, P99WaitSec: r.P99Wait,
		MeanBSld: r.BSld.Mean(), P95BSld: r.P95BSld,
		NodeUtil: r.NodeUtil, LocalMemUtil: r.LocalMemUtil, PoolUtil: r.PoolUtil,
		MeanFabricDemand: r.MeanFabricDemand, ThroughputPerHour: r.ThroughputPerHour,
		NodeHours: r.NodeHours, RemoteJobFraction: r.RemoteJobFraction,
		NodeFailures: r.NodeFailures, FailureKills: r.FailureKills,
		ScenarioEvents: res.ScenarioEvents, JainWait: res.Recorder.Fairness().JainWait,
		Stopped: res.Stopped,
	}
}

func deltas(w, b serve.RunSummary) *serve.Deltas {
	return &serve.Deltas{
		Completed: w.Completed - b.Completed, Killed: w.Killed - b.Killed,
		MeanWaitSec: w.MeanWaitSec - b.MeanWaitSec, P95WaitSec: w.P95WaitSec - b.P95WaitSec,
		P99WaitSec: w.P99WaitSec - b.P99WaitSec, MeanBSld: w.MeanBSld - b.MeanBSld,
		P95BSld: w.P95BSld - b.P95BSld, NodeUtil: w.NodeUtil - b.NodeUtil,
		PoolUtil: w.PoolUtil - b.PoolUtil, ThroughputPerHour: w.ThroughputPerHour - b.ThroughputPerHour,
		JainWait: w.JainWait - b.JainWait,
	}
}

// openLoopStep sends n requests at a fixed rate, each due at
// i/rate after the step starts, whatever the state of earlier ones.
// Requests walk the pool round robin from offset, so every query is
// sent equally often. One dispatcher goroutine releases requests on
// schedule; one worker
// per connection sends them. The queue between them holds the whole
// step, so the dispatcher never waits on the workers and its lag is
// its own lateness only.
func openLoopStep(clients []*client, pool []*query, rate float64, n, offset int) []reqRec {
	recs := make([]reqRec, n)
	for i := range recs {
		recs[i].q = (offset + i) % len(pool)
		recs[i].due = time.Duration(float64(i) / rate * 1e9)
	}
	queue := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &recs[i]
				r.sent = time.Since(start)
				if r.sent-r.due > abandonAfter {
					r.end = r.sent
					continue
				}
				status, body := c.post(pool[r.q].body)
				r.end = time.Since(start)
				r.status = status
				r.match = status == http.StatusOK && bytes.Equal(body, pool[r.q].first)
			}
		}()
	}
	for i := range recs {
		if d := recs[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		recs[i].lag = time.Since(start) - recs[i].due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return recs
}

// summarizeStep reduces one step. Latency runs from each request's due
// time; a request abandoned, refused or answered wrongly counts as
// missing the limit. The backlog (requests due but not finished) is
// averaged over the first and the second half of the step; the step
// passes only if p99 meets the limit and the backlog does not grow.
func summarizeStep(rate float64, recs []reqRec) stepSummary {
	st := stepSummary{Rate: rate}
	lat := make([]time.Duration, len(recs))
	lags := make([]time.Duration, len(recs))
	ends := make([]time.Duration, len(recs))
	var last time.Duration
	for i, r := range recs {
		lags[i] = r.lag
		ends[i] = r.end
		last = max(last, r.end)
		switch {
		case r.status == 0:
			st.Abandoned++
			lat[i] = time.Duration(math.MaxInt64)
		case r.status != http.StatusOK || !r.match:
			st.Sent++
			st.Wrong++
			lat[i] = time.Duration(math.MaxInt64)
		default:
			st.Sent++
			st.Answered++
			lat[i] = r.end - r.due
		}
	}
	st.P50Ms = ms(durQuantile(lat, 0.50))
	st.P99Ms = ms(durQuantile(lat, 0.99))
	st.LagP99Ms = ms(durQuantile(lags, 0.99))
	span := time.Duration(float64(len(recs)) / rate * 1e9)
	st.Achieved = float64(st.Answered) / max(span, last).Seconds()
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	backlog := func(from, to time.Duration) float64 {
		const samples = 40
		sum := 0
		for k := range samples {
			at := from + (to-from)*time.Duration(k)/samples
			due := sort.Search(len(recs), func(i int) bool { return recs[i].due > at })
			done := sort.Search(len(ends), func(i int) bool { return ends[i] > at })
			sum += due - done
		}
		return float64(sum) / samples
	}
	st.Backlog1 = backlog(0, span/2)
	st.Backlog2 = backlog(span/2, span)
	grows := st.Backlog2 > 1.1*st.Backlog1+1
	st.Pass = st.P99Ms <= ms(p99Limit) && !grows && st.Abandoned == 0 && st.Wrong == 0
	return st
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durQuantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1)+0.5)]
}
