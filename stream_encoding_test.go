package dismem_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"dismem"
)

// The streamed outputs are hand-encoded (internal/jsonl). The
// reflective reference sinks below encode the same schemas with
// encoding/json and fmt, so the tests here pin the absolute bytes of
// whole simulated streams, not just run-to-run agreement.

type refRecordJSON struct {
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

type refPoolJSON struct {
	ID          int     `json:"id"`
	UsedMiB     int64   `json:"used_mib"`
	CapacityMiB int64   `json:"cap_mib"`
	DemandGiBps float64 `json:"demand_gibps"`
}

type refSeriesJSON struct {
	Now             int64         `json:"now"`
	QueueDepth      int           `json:"queue_depth"`
	Running         int           `json:"running"`
	Done            int           `json:"done"`
	Events          uint64        `json:"events"`
	BusyNodes       int           `json:"busy_nodes"`
	UsedCores       int           `json:"used_cores"`
	UsedLocalMiB    int64         `json:"used_local_mib"`
	UsedPoolMiB     int64         `json:"used_pool_mib"`
	PoolDemandGiBps float64       `json:"pool_demand_gibps"`
	MaxPoolUtil     float64       `json:"max_pool_util"`
	MaxCongest      float64       `json:"max_congest"`
	Pools           []refPoolJSON `json:"pools,omitempty"`
}

type refEventJSON struct {
	Now       int64   `json:"now"`
	Type      string  `json:"type"`
	Job       int     `json:"job,omitempty"`
	User      int     `json:"user,omitempty"`
	Nodes     int     `json:"nodes,omitempty"`
	Submit    int64   `json:"submit,omitempty"`
	Racks     []int   `json:"racks,omitempty"`
	Pools     []int   `json:"pools,omitempty"`
	LocalMiB  int64   `json:"local_mib,omitempty"`
	RemoteMiB int64   `json:"remote_mib,omitempty"`
	Dilation  float64 `json:"dilation,omitempty"`
	Start     int64   `json:"start,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	Restarts  int     `json:"restarts,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// refLines accumulates reflectively encoded lines and latches the
// first encoding error, as the production sinks do.
type refLines struct {
	buf bytes.Buffer
	err error
}

func (l *refLines) json(v any) {
	blob, err := json.Marshal(v)
	if l.err == nil && err != nil {
		l.err = err
	}
	if l.err == nil {
		l.buf.Write(append(blob, '\n'))
	}
}

func (l *refLines) Close() error { return l.err }

// refRecords is the reference record sink: JSONL and CSV, plus counts
// of the outcomes the run covered.
type refRecords struct {
	refLines
	csv                         bytes.Buffer
	killed, rejected, restarted int
}

func (s *refRecords) Add(r dismem.JobRecord) {
	s.json(refRecordJSON{
		ID: r.ID, User: r.User, Nodes: r.Nodes, Submit: r.Submit,
		Start: r.Start, End: r.End, Wait: r.Wait(), BSld: r.BoundedSlowdown(),
		Estimate: r.Estimate, Limit: r.Limit, BaseRuntime: r.BaseRuntime,
		MemPerNode: r.MemPerNode, RemoteMiB: r.RemoteMiB, RemoteFrac: r.RemoteFrac,
		Dilation: r.Dilation, Killed: r.Killed, Rejected: r.Rejected, Restarts: r.Restarts,
	})
	if s.csv.Len() == 0 {
		s.csv.WriteString("id,user,nodes,submit,start,end,wait,bsld,estimate,limit,base_runtime,mem_per_node,remote_mib,remote_frac,dilation,killed,rejected,restarts\n")
	}
	fmt.Fprintf(&s.csv, "%d,%d,%d,%d,%d,%d,%d,%g,%d,%d,%d,%d,%d,%g,%g,%t,%t,%d\n",
		r.ID, r.User, r.Nodes, r.Submit, r.Start, r.End, r.Wait(), r.BoundedSlowdown(),
		r.Estimate, r.Limit, r.BaseRuntime, r.MemPerNode, r.RemoteMiB, r.RemoteFrac,
		r.Dilation, r.Killed, r.Rejected, r.Restarts)
	switch {
	case r.Killed:
		s.killed++
	case r.Rejected:
		s.rejected++
	}
	if r.Restarts > 0 {
		s.restarted++
	}
}

// refSeries is the reference series sink: JSONL and CSV.
type refSeries struct {
	refLines
	csv        bytes.Buffer
	withPools  int
	totalCount int
}

func (s *refSeries) Add(p dismem.SeriesPoint) {
	row := refSeriesJSON{
		Now: p.Now, QueueDepth: p.QueueDepth, Running: p.Running,
		Done: p.Done, Events: p.Events,
		BusyNodes: p.BusyNodes, UsedCores: p.UsedCores,
		UsedLocalMiB: p.UsedLocalMiB, UsedPoolMiB: p.UsedPoolMiB,
		PoolDemandGiBps: p.PoolDemandGiBps, MaxPoolUtil: p.MaxPoolUtil,
		MaxCongest: p.MaxCongest,
	}
	var pools strings.Builder
	for i, pp := range p.Pools {
		row.Pools = append(row.Pools, refPoolJSON(pp))
		if i > 0 {
			pools.WriteByte(';')
		}
		fmt.Fprintf(&pools, "%d=%d/%d", pp.ID, pp.UsedMiB, pp.CapacityMiB)
	}
	s.json(row)
	if s.csv.Len() == 0 {
		s.csv.WriteString("now,queue_depth,running,done,events,busy_nodes,used_cores,used_local_mib,used_pool_mib,pool_demand_gibps,max_pool_util,max_congest,pools\n")
	}
	fmt.Fprintf(&s.csv, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%g,%g,%s\n",
		p.Now, p.QueueDepth, p.Running, p.Done, p.Events,
		p.BusyNodes, p.UsedCores, p.UsedLocalMiB, p.UsedPoolMiB,
		p.PoolDemandGiBps, p.MaxPoolUtil, p.MaxCongest, pools.String())
	s.totalCount++
	if len(p.Pools) > 0 {
		s.withPools++
	}
}

// refTrace is the reference trace sink, with counts of the event types
// and terminate reasons seen.
type refTrace struct {
	refLines
	seen map[string]int
}

func (s *refTrace) Add(ev dismem.TraceEvent) {
	s.json(refEventJSON{
		Now: ev.Now, Type: string(ev.Type),
		Job: ev.Job, User: ev.User, Nodes: ev.Nodes, Submit: ev.Submit,
		Racks: ev.Racks, Pools: ev.Pools,
		LocalMiB: ev.LocalMiB, RemoteMiB: ev.RemoteMiB, Dilation: ev.Dilation,
		Start: ev.Start, Reason: ev.Reason, Restarts: ev.Restarts,
		Detail: ev.Detail,
	})
	if s.seen == nil {
		s.seen = map[string]int{}
	}
	s.seen[string(ev.Type)]++
	if ev.Reason != "" {
		s.seen[string(ev.Type)+"/"+ev.Reason]++
	}
}

// tee fans one simulated stream out to several sinks.
type tee[T any] []interface {
	Add(T)
	Close() error
}

func (t tee[T]) Add(v T) {
	for _, s := range t {
		s.Add(v)
	}
}

func (t tee[T]) Close() error {
	var errs []error
	for _, s := range t {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// TestStreamsMatchReflectiveReference runs the adversarial
// configuration — failures with restarts, strict walltime kills,
// unrunnable jobs, a rack outage — under each pool topology with every
// stream attached, and requires the JSONL record, series and trace
// streams to equal encoding/json's bytes, and the CSV record and
// series streams fmt's bytes, exactly.
func TestStreamsMatchReflectiveReference(t *testing.T) {
	rack, global, none := dismem.DefaultMachine(), dismem.DefaultMachine(), dismem.DefaultMachine()
	rack.Topology, global.Topology, none.Topology = dismem.TopologyRack, dismem.TopologyGlobal, dismem.TopologyNone
	for _, machine := range []dismem.MachineConfig{rack, global, none} {
		topo := machine.Topology
		t.Run(topo.String(), func(t *testing.T) {
			wl := dismem.SyntheticWorkload(600, 3)
			for i, j := range wl.Jobs {
				switch i % 97 {
				case 50:
					j.MemPerNode = 1 << 40 // fits no machine: rejected at submit
				case 20:
					j.Estimate = max(1, j.BaseRuntime/2) // under-estimated: killed at the limit
				}
			}
			o := forkOpts(wl)
			o.Machine = machine
			o.StrictKill = true
			o.SampleEvery = 1800

			var recJSONL, recCSV, serJSONL, serCSV, trJSONL bytes.Buffer
			refRec, refSer, refTr := &refRecords{}, &refSeries{}, &refTrace{}
			o.RecordSink = tee[dismem.JobRecord]{dismem.NewJSONLSink(&recJSONL), dismem.NewCSVSink(&recCSV), refRec}
			o.SeriesSink = tee[dismem.SeriesPoint]{dismem.NewJSONLSeriesSink(&serJSONL), dismem.NewCSVSeriesSink(&serCSV), refSer}
			o.TraceSink = tee[dismem.TraceEvent]{dismem.NewJSONLTraceSink(&trJSONL), refTr}
			mustRun(t, mustNew(t, o))

			for _, c := range []struct {
				name      string
				got, want []byte
			}{
				{"records JSONL", recJSONL.Bytes(), refRec.buf.Bytes()},
				{"records CSV", recCSV.Bytes(), refRec.csv.Bytes()},
				{"series JSONL", serJSONL.Bytes(), refSer.buf.Bytes()},
				{"series CSV", serCSV.Bytes(), refSer.csv.Bytes()},
				{"trace JSONL", trJSONL.Bytes(), refTr.buf.Bytes()},
			} {
				if len(c.want) == 0 {
					t.Fatalf("%s: the reference stream is empty", c.name)
				}
				if !bytes.Equal(c.got, c.want) {
					t.Fatalf("%s differs from the reflective reference\n%s", c.name, firstDiff(c.got, c.want))
				}
			}

			// The run must exercise what the encoders branch on.
			if refRec.killed == 0 || refRec.rejected == 0 || refRec.restarted == 0 {
				t.Fatalf("records cover killed=%d rejected=%d restarted=%d; want all > 0",
					refRec.killed, refRec.rejected, refRec.restarted)
			}
			for _, k := range []string{"dispatch", "restart", "scenario", "terminate/done", "terminate/killed", "terminate/rejected"} {
				if refTr.seen[k] == 0 {
					t.Fatalf("trace has no %q events: %v", k, refTr.seen)
				}
			}
			if hasPools := refSer.withPools > 0; hasPools != (topo != dismem.TopologyNone) {
				t.Fatalf("%d of %d series rows carry pools under topology %s", refSer.withPools, refSer.totalCount, topo)
			}
		})
	}
}

// firstDiff renders the first differing line of two streams.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d lines", len(g), len(w))
}

// TestNonFiniteFloatsLatchInEverySink: all three JSONL sinks apply one
// rule to a value JSON cannot represent: the line is dropped whole,
// the lines before it are kept, nothing after it is written, and Close
// reports an error naming the value. The per-pool float is covered in
// internal/metrics.
func TestNonFiniteFloatsLatchInEverySink(t *testing.T) {
	good := dismem.JobRecord{ID: 1, Nodes: 1, Start: 10, End: 20, Dilation: 1}
	goodPoint := dismem.SeriesPoint{Now: 3600}
	goodEvent := dismem.TraceEvent{Now: 1, Type: "submit", Job: 1}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		name := fmt.Sprint(v)
		bad := good
		bad.ID, bad.RemoteFrac = 2, v
		badPoint := goodPoint
		badPoint.MaxCongest = v
		badEvent := dismem.TraceEvent{Now: 2, Type: "dispatch", Job: 1, Dilation: v}

		for _, c := range []struct {
			sink string
			run  func(*bytes.Buffer) error
		}{
			{"records", func(b *bytes.Buffer) error {
				s := dismem.NewJSONLSink(b)
				s.Add(good)
				s.Add(bad)
				s.Add(good)
				return s.Close()
			}},
			{"series", func(b *bytes.Buffer) error {
				s := dismem.NewJSONLSeriesSink(b)
				s.Add(goodPoint)
				s.Add(badPoint)
				s.Add(goodPoint)
				return s.Close()
			}},
			{"trace", func(b *bytes.Buffer) error {
				s := dismem.NewJSONLTraceSink(b)
				s.Add(goodEvent)
				s.Add(badEvent)
				s.Add(goodEvent)
				return s.Close()
			}},
		} {
			var buf bytes.Buffer
			err := c.run(&buf)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("%s sink, %s: Close() = %v, want an error naming %s", c.sink, name, err, name)
			}
			lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
			if len(lines) != 1 || !json.Valid([]byte(lines[0])) || !strings.HasSuffix(buf.String(), "\n") {
				t.Fatalf("%s sink, %s: stream = %q, want exactly the one complete line before the bad value", c.sink, name, buf.String())
			}
		}
		if _, err := json.Marshal(badEvent); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("TraceEvent.MarshalJSON(%s) = %v, want an error naming the value", name, err)
		}
	}
}
