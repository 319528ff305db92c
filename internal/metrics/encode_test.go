package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// The reflective references below pin the hand-written encoders:
// appendRecord and appendSeriesPoint must produce exactly what
// json.Marshal produces for these structs, and the CSV appenders
// exactly what the fmt verbs produce.

// jsonRecord is the record export schema and field order.
type jsonRecord struct {
	ID          int     `json:"id"`
	User        int     `json:"user"`
	Nodes       int     `json:"nodes"`
	Submit      int64   `json:"submit"`
	Start       int64   `json:"start"`
	End         int64   `json:"end"`
	Wait        int64   `json:"wait"`
	BSld        float64 `json:"bsld"`
	Estimate    int64   `json:"estimate"`
	Limit       int64   `json:"limit"`
	BaseRuntime int64   `json:"base_runtime"`
	MemPerNode  int64   `json:"mem_per_node"`
	RemoteMiB   int64   `json:"remote_mib"`
	RemoteFrac  float64 `json:"remote_frac"`
	Dilation    float64 `json:"dilation"`
	Killed      bool    `json:"killed,omitempty"`
	Rejected    bool    `json:"rejected,omitempty"`
	Restarts    int     `json:"restarts,omitempty"`
}

func refRecord(r JobRecord) jsonRecord {
	return jsonRecord{
		ID: r.ID, User: r.User, Nodes: r.Nodes, Submit: r.Submit,
		Start: r.Start, End: r.End, Wait: r.Wait(), BSld: r.BoundedSlowdown(),
		Estimate: r.Estimate, Limit: r.Limit, BaseRuntime: r.BaseRuntime,
		MemPerNode: r.MemPerNode, RemoteMiB: r.RemoteMiB, RemoteFrac: r.RemoteFrac,
		Dilation: r.Dilation, Killed: r.Killed, Rejected: r.Rejected, Restarts: r.Restarts,
	}
}

// jsonSeriesPoint is the series export schema and field order.
type jsonSeriesPoint struct {
	Now             int64       `json:"now"`
	QueueDepth      int         `json:"queue_depth"`
	Running         int         `json:"running"`
	Done            int         `json:"done"`
	Events          uint64      `json:"events"`
	BusyNodes       int         `json:"busy_nodes"`
	UsedCores       int         `json:"used_cores"`
	UsedLocalMiB    int64       `json:"used_local_mib"`
	UsedPoolMiB     int64       `json:"used_pool_mib"`
	PoolDemandGiBps float64     `json:"pool_demand_gibps"`
	MaxPoolUtil     float64     `json:"max_pool_util"`
	MaxCongest      float64     `json:"max_congest"`
	Pools           []PoolPoint `json:"pools,omitempty"`
}

func refSeriesPoint(p SeriesPoint) jsonSeriesPoint {
	return jsonSeriesPoint{
		Now: p.Now, QueueDepth: p.QueueDepth, Running: p.Running,
		Done: p.Done, Events: p.Events,
		BusyNodes: p.BusyNodes, UsedCores: p.UsedCores,
		UsedLocalMiB: p.UsedLocalMiB, UsedPoolMiB: p.UsedPoolMiB,
		PoolDemandGiBps: p.PoolDemandGiBps, MaxPoolUtil: p.MaxPoolUtil,
		MaxCongest: p.MaxCongest, Pools: p.Pools,
	}
}

// fmtRecordCSV and fmtSeriesCSV are the fmt-verb references for the
// CSV rows.
func fmtRecordCSV(r JobRecord) string {
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%g,%d,%d,%d,%d,%d,%g,%g,%t,%t,%d",
		r.ID, r.User, r.Nodes, r.Submit, r.Start, r.End, r.Wait(), r.BoundedSlowdown(),
		r.Estimate, r.Limit, r.BaseRuntime, r.MemPerNode, r.RemoteMiB, r.RemoteFrac,
		r.Dilation, r.Killed, r.Rejected, r.Restarts)
}

func fmtSeriesCSV(p SeriesPoint) string {
	var pools strings.Builder
	for i, pp := range p.Pools {
		if i > 0 {
			pools.WriteByte(';')
		}
		fmt.Fprintf(&pools, "%d=%d/%d", pp.ID, pp.UsedMiB, pp.CapacityMiB)
	}
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%g,%g,%s",
		p.Now, p.QueueDepth, p.Running, p.Done, p.Events,
		p.BusyNodes, p.UsedCores, p.UsedLocalMiB, p.UsedPoolMiB,
		p.PoolDemandGiBps, p.MaxPoolUtil, p.MaxCongest, pools.String())
}

// checkRecord asserts appendRecord matches the JSON reference — the
// same bytes, or an error exactly when json.Marshal refuses — and
// appendRecordCSV the fmt reference.
func checkRecord(t *testing.T, r JobRecord) {
	t.Helper()
	want, wantErr := json.Marshal(refRecord(r))
	got, err := appendRecord(nil, &r)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: appendRecord error %v, reference error %v", r, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("appendRecord diverges from json.Marshal\n got %s\nwant %s", got, want)
	}
	if got, want := string(appendRecordCSV(nil, &r)), fmtRecordCSV(r); got != want {
		t.Fatalf("appendRecordCSV diverges from fmt\n got %s\nwant %s", got, want)
	}
}

func checkSeriesPoint(t *testing.T, p SeriesPoint) {
	t.Helper()
	want, wantErr := json.Marshal(refSeriesPoint(p))
	got, err := appendSeriesPoint(nil, &p)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: appendSeriesPoint error %v, reference error %v", p, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("appendSeriesPoint diverges from json.Marshal\n got %s\nwant %s", got, want)
	}
	if got, want := string(appendSeriesPointCSV(nil, &p)), fmtSeriesCSV(p); got != want {
		t.Fatalf("appendSeriesPointCSV diverges from fmt\n got %s\nwant %s", got, want)
	}
}

// oddFloats are the float values whose JSON and %g forms differ most:
// both exponent regimes and their boundaries, and the non-finite
// values JSON refuses but %g prints.
var oddFloats = []float64{
	0, 1, 0.5, 1.0 / 3, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 5e21, -5e21, 1e-21,
	123456789, 1.5e6, math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendRecordMatchesReference(t *testing.T) {
	for _, r := range fakeRecords(200) {
		checkRecord(t, r)
	}
	base := JobRecord{
		ID: 9, User: 2, Nodes: 64, Submit: 100, Start: 400, End: 9000,
		Estimate: 10000, Limit: 12000, BaseRuntime: 8000, MemPerNode: 96 * 1024,
		RemoteMiB: 1 << 20, RemoteFrac: 0.25, Dilation: 1.07,
	}
	for _, tc := range []func(*JobRecord){
		func(r *JobRecord) {},
		func(r *JobRecord) { r.Killed = true },
		func(r *JobRecord) { r.Rejected, r.Start, r.End = true, 0, 0 },
		func(r *JobRecord) { r.Restarts = 3 },
		func(r *JobRecord) { r.Killed, r.Restarts = true, 1 },
		func(r *JobRecord) { *r = JobRecord{} },
		func(r *JobRecord) { r.ID, r.Submit, r.Start = -1, -50, -10 },
		func(r *JobRecord) { r.ID, r.MemPerNode = math.MaxInt64, math.MinInt64 },
		func(r *JobRecord) { r.End = r.Start + 3 }, // short runtime: bounded slowdown clamps
	} {
		r := base
		tc(&r)
		checkRecord(t, r)
	}
	for _, f := range oddFloats {
		r := base
		r.RemoteFrac, r.Dilation = f, -f
		checkRecord(t, r)
	}
}

func TestAppendSeriesPointMatchesReference(t *testing.T) {
	base := SeriesPoint{
		Now: 3600, QueueDepth: 12, Running: 40, Done: 1234, Events: 1 << 40,
		BusyNodes: 250, UsedCores: 9000, UsedLocalMiB: 1 << 30, UsedPoolMiB: 1 << 22,
		PoolDemandGiBps: 12.5, MaxPoolUtil: 0.875, MaxCongest: 1.25,
		Pools: []PoolPoint{
			{ID: 0, UsedMiB: 1024, CapacityMiB: 4096, DemandGiBps: 0.5},
			{ID: 3, UsedMiB: 0, CapacityMiB: 4096},
			{ID: 15, UsedMiB: 4096, CapacityMiB: 4096, DemandGiBps: 1e-7},
		},
	}
	for _, tc := range []func(*SeriesPoint){
		func(p *SeriesPoint) {},
		func(p *SeriesPoint) { p.Pools = nil },
		func(p *SeriesPoint) { p.Pools = []PoolPoint{} },
		func(p *SeriesPoint) { p.Pools = p.Pools[:1] },
		func(p *SeriesPoint) { *p = SeriesPoint{} },
		func(p *SeriesPoint) { p.Events = math.MaxUint64 },
		func(p *SeriesPoint) { p.Now, p.UsedPoolMiB = -7, math.MinInt64 },
	} {
		p := base
		tc(&p)
		checkSeriesPoint(t, p)
	}
	for _, f := range oddFloats {
		p := base
		p.Pools = append([]PoolPoint(nil), base.Pools...)
		p.PoolDemandGiBps, p.MaxPoolUtil, p.MaxCongest = f, -f, f/3
		checkSeriesPoint(t, p)
		p.PoolDemandGiBps, p.MaxPoolUtil, p.MaxCongest = 1, 1, 1
		p.Pools[2].DemandGiBps = f
		checkSeriesPoint(t, p)
	}
}

// FuzzAppendRecord compares the record encoders with their references
// over random field values.
func FuzzAppendRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, id, user, nodes int, submit, start, end, estimate, limit, base, mem, remote int64,
		frac, dilation float64, killed, rejected bool, restarts int) {
		checkRecord(t, JobRecord{
			ID: id, User: user, Nodes: nodes, Submit: submit, Start: start, End: end,
			Estimate: estimate, Limit: limit, BaseRuntime: base, MemPerNode: mem,
			RemoteMiB: remote, RemoteFrac: frac, Dilation: dilation,
			Killed: killed, Rejected: rejected, Restarts: restarts,
		})
	})
}

// FuzzAppendSeriesPoint compares the series encoders with their
// references over random field values and pool counts.
func FuzzAppendSeriesPoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, now int64, depth, running, done int, events uint64, busy, cores int,
		local, pool int64, demand, util, congest float64, npools uint8, used, capacity int64, poolDemand float64) {
		p := SeriesPoint{
			Now: now, QueueDepth: depth, Running: running, Done: done, Events: events,
			BusyNodes: busy, UsedCores: cores, UsedLocalMiB: local, UsedPoolMiB: pool,
			PoolDemandGiBps: demand, MaxPoolUtil: util, MaxCongest: congest,
		}
		for i := 0; i < int(npools%20); i++ {
			p.Pools = append(p.Pools, PoolPoint{
				ID: i, UsedMiB: used - int64(i), CapacityMiB: capacity,
				DemandGiBps: poolDemand * float64(i),
			})
		}
		checkSeriesPoint(t, p)
	})
}

// TestCSVSinksWriteHeaderOnce: each CSV sink writes its header row
// exactly once, before the first row, and nothing for an empty stream.
func TestCSVSinksWriteHeaderOnce(t *testing.T) {
	var rec, ser, empty strings.Builder
	rs, ss := NewCSVSink(&rec), NewCSVSeriesSink(&ser)
	recs := fakeRecords(3)
	var want strings.Builder
	want.WriteString(csvHeader + "\n")
	for _, r := range recs {
		rs.Add(r)
		want.WriteString(fmtRecordCSV(r) + "\n")
	}
	p := SeriesPoint{Now: 1, Pools: []PoolPoint{{ID: 1, UsedMiB: 2, CapacityMiB: 3}}}
	ss.Add(p)
	ss.Add(p)
	for _, s := range []interface{ Close() error }{rs, ss, NewCSVSink(&empty)} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if rec.String() != want.String() {
		t.Fatalf("record CSV =\n%s\nwant\n%s", rec.String(), want.String())
	}
	row := fmtSeriesCSV(p) + "\n"
	if got := ser.String(); got != seriesCSVHeader+"\n"+row+row {
		t.Fatalf("series CSV = %q", got)
	}
	if empty.Len() != 0 {
		t.Fatalf("empty CSV stream wrote %q", empty.String())
	}
}

// TestStreamSinksDoNotAllocate: in both formats, a record or series
// row is encoded in the writer's free buffer space, so Add allocates
// nothing per call.
func TestStreamSinksDoNotAllocate(t *testing.T) {
	r := fakeRecords(3)[2]
	p := SeriesPoint{
		Now: 3600, QueueDepth: 4, Running: 9, Done: 100, Events: 12345,
		PoolDemandGiBps: 1.5, MaxPoolUtil: 0.3333333333333333, MaxCongest: 0.75,
		Pools: make([]PoolPoint, 16),
	}
	for i := range p.Pools {
		p.Pools[i] = PoolPoint{ID: i, UsedMiB: int64(i) << 20, CapacityMiB: 4 << 20, DemandGiBps: 0.125 * float64(i)}
	}
	var out countingWriter
	rj, rc := NewJSONLSink(&out), NewCSVSink(&out)
	sj, sc := NewJSONLSeriesSink(&out), NewCSVSeriesSink(&out)
	for _, tc := range []struct {
		name  string
		add   func()
		close func() error
	}{
		{"records/jsonl", func() { rj.Add(r) }, rj.Close},
		{"records/csv", func() { rc.Add(r) }, rc.Close},
		{"series/jsonl", func() { sj.Add(p) }, sj.Close},
		{"series/csv", func() { sc.Add(p) }, sc.Close},
	} {
		before := out
		// AllocsPerRun truncates to whole allocations per run, so each
		// run adds enough lines to cross the buffer boundary repeatedly.
		allocs := testing.AllocsPerRun(100, func() {
			for range 64 {
				tc.add()
			}
		})
		if err := tc.close(); err != nil {
			t.Fatal(err)
		}
		if out == before {
			t.Fatalf("%s: nothing written", tc.name)
		}
		if allocs != 0 {
			t.Errorf("%s: 64 Adds allocate %.0f times, want 0", tc.name, allocs)
		}
	}
}

// countingWriter is a discarding writer that counts bytes.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
