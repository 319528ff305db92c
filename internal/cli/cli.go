// Package cli holds what the commands share beyond the run description
// in internal/config: the dismem_* sample gauges (exported by dmsched
// -metrics-addr and by internal/serve for dmserve), the /metrics
// listener of dmsched and dmsweep, and the file sinks dmsched streams
// records, series and traces to.
package cli

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"dismem"
	"dismem/internal/telemetry"
)

// SampleGauges mirrors one live sample into g as the dismem_* gauge
// families, so dashboards work against dmsched and dmserve alike. A
// machine's pools and racks only ever grow, so stale labels cannot
// linger.
func SampleGauges(g *telemetry.GaugeSet, s dismem.Sample) {
	g.Set("dismem_now_seconds", "virtual clock of the run", nil, float64(s.Now))
	g.Set("dismem_queue_depth", "jobs waiting in the queue", nil, float64(s.QueueDepth))
	g.Set("dismem_running_jobs", "jobs running on the machine", nil, float64(s.Running))
	g.Set("dismem_done_jobs", "jobs finished", nil, float64(s.Done))
	g.Set("dismem_events_total", "DES events fired", nil, float64(s.Events))
	g.Set("dismem_busy_nodes", "nodes running at least one job", nil, float64(s.Usage.BusyNodes))
	g.Set("dismem_used_local_mib", "node-local memory in use", nil, float64(s.Usage.UsedLocal))
	g.Set("dismem_used_pool_mib", "pooled memory in use", nil, float64(s.Usage.UsedPool))
	g.Set("dismem_max_pool_util", "highest per-pool utilization", nil, s.Usage.MaxPoolUtil)
	g.Set("dismem_max_congestion", "highest per-pool fabric congestion ratio", nil, s.Usage.MaxCongest)
	for _, p := range s.Pools {
		lbl := map[string]string{"pool": strconv.Itoa(p.ID)}
		g.Set("dismem_pool_used_bytes", "pooled memory in use, per pool", lbl, float64(p.UsedMiB)*1024*1024)
		g.Set("dismem_pool_capacity_bytes", "pool capacity, per pool", lbl, float64(p.CapacityMiB)*1024*1024)
	}
	for rk, free := range s.RackFree {
		g.Set("dismem_rack_free_nodes", "available (up, idle) nodes per rack", map[string]string{"rack": strconv.Itoa(rk)}, float64(free))
	}
}

// ServeMetrics serves GET /metrics over sources on addr for the
// lifetime of the process. It prints the bound address on stderr under
// prog's name, so ":0" is usable in scripts and tests.
func ServeMetrics(prog, addr string, sources ...telemetry.Source) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-metrics-addr: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: serving http://%s/metrics\n", prog, ln.Addr())
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.Handler(sources...))
	go func() {
		if err := (&http.Server{Handler: mux}).Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "%s: metrics server: %v\n", prog, err)
		}
	}()
	return nil
}

// Outputs names the files a run streams to; an empty path is off.
// Records and Series are CSV when the name ends in .csv and JSONL
// otherwise. Trace is encoded as TraceFormat: "perfetto" for Chrome
// trace-event JSON, anything else JSONL.
type Outputs struct {
	Records, Series, Trace, TraceFormat string
}

// Sinks are opened Outputs, nil where the path is empty. Each closes
// its file when the engine closes the sink, which it does on every
// terminal path of a run, so the file is complete when the run
// reports.
type Sinks struct {
	Records dismem.Sink
	Series  dismem.SeriesSink
	Trace   dismem.TraceSink
}

// Open creates every named file with suffix appended: "" for a run's
// own outputs, ".fork" for those of a run forked from it.
func (o Outputs) Open(suffix string) (Sinks, error) {
	var s Sinks
	if o.Records != "" {
		f, err := os.Create(o.Records + suffix)
		if err != nil {
			return s, err
		}
		var sink dismem.Sink = dismem.NewJSONLSink(f)
		if strings.HasSuffix(o.Records, ".csv") {
			sink = dismem.NewCSVSink(f)
		}
		s.Records = &fileSink[dismem.JobRecord]{sink, f}
	}
	if o.Series != "" {
		f, err := os.Create(o.Series + suffix)
		if err != nil {
			return s, err
		}
		var sink dismem.SeriesSink = dismem.NewJSONLSeriesSink(f)
		if strings.HasSuffix(o.Series, ".csv") {
			sink = dismem.NewCSVSeriesSink(f)
		}
		s.Series = &fileSink[dismem.SeriesPoint]{sink, f}
	}
	if o.Trace != "" {
		f, err := os.Create(o.Trace + suffix)
		if err != nil {
			return s, err
		}
		var sink dismem.TraceSink = dismem.NewJSONLTraceSink(f)
		if o.TraceFormat == "perfetto" {
			sink = dismem.NewPerfettoTraceSink(f)
		}
		s.Trace = &fileSink[dismem.TraceEvent]{sink, f}
	}
	return s, nil
}

// fileSink is a record, series or trace sink that closes its file
// after the sink itself.
type fileSink[T any] struct {
	sink interface {
		Add(T)
		Close() error
	}
	f *os.File
}

func (s *fileSink[T]) Add(v T) { s.sink.Add(v) }

func (s *fileSink[T]) Close() error {
	err := s.sink.Close()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
