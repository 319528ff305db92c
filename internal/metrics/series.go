package metrics

import (
	"io"
	"strconv"

	"dismem/internal/jsonl"
)

// SeriesPoint is one row of a utilization time series: the engine's
// periodic sample flattened to plain serializable numbers. It carries
// the same quantities Observer.OnSample delivers — clock, backlog,
// occupancy, fired events — plus the per-pool usage breakdown, so a
// sink never needs to reach back into live machine state.
type SeriesPoint struct {
	// Now is the virtual clock in seconds since simulation start.
	Now int64
	// QueueDepth is the number of jobs waiting to be dispatched.
	QueueDepth int
	// Running is the number of jobs currently holding resources.
	Running int
	// Done counts jobs that reached a terminal state so far.
	Done int
	// Events is the number of DES events fired so far.
	Events uint64

	// Machine occupancy at the sample instant.
	BusyNodes    int
	UsedCores    int
	UsedLocalMiB int64
	UsedPoolMiB  int64
	// PoolDemandGiBps is the aggregate fabric demand across pools.
	PoolDemandGiBps float64
	// MaxPoolUtil is the max over pools of used/capacity.
	MaxPoolUtil float64
	// MaxCongest is the max over pools of demand/bandwidth.
	MaxCongest float64

	// Pools is the per-pool usage breakdown, ascending by pool ID
	// (empty on pool-less machines).
	Pools []PoolPoint
}

// PoolPoint is one pool's share of a SeriesPoint.
type PoolPoint struct {
	ID          int     `json:"id"`
	UsedMiB     int64   `json:"used_mib"`
	CapacityMiB int64   `json:"cap_mib"`
	DemandGiBps float64 `json:"demand_gibps"`
}

// SeriesSink consumes periodic sample rows as the simulation produces
// them: the time-series analogue of the per-job record Sink. A
// SeriesSink is driven from the single simulation goroutine; Close
// flushes buffered output and reports the first write error. The
// engine closes its configured sink exactly once, on every terminal
// path of the run.
type SeriesSink interface {
	Add(p SeriesPoint)
	Close() error
}

// DiscardSeries is the SeriesSink that drops every point.
var DiscardSeries SeriesSink = discardSeries{}

type discardSeries struct{}

func (discardSeries) Add(SeriesPoint) {}
func (discardSeries) Close() error    { return nil }

// SeriesStreamSink encodes each sample as one line — JSONL or CSV —
// through a jsonl.Writer, with the same discipline as StreamSink: the
// first error latches (subsequent Adds are no-ops, Close reports it)
// and the sink never closes the underlying writer.
type SeriesStreamSink struct {
	w        *jsonl.Writer
	csv      bool
	headered bool
}

// NewJSONLSeriesSink returns a sink writing one JSON object per sample
// line.
func NewJSONLSeriesSink(w io.Writer) *SeriesStreamSink {
	return &SeriesStreamSink{w: jsonl.NewWriter(w)}
}

// NewCSVSeriesSink returns a sink writing a header row plus one CSV
// row per sample. The per-pool breakdown flattens into a single
// "pools" column of ';'-joined id=used/cap entries.
func NewCSVSeriesSink(w io.Writer) *SeriesStreamSink {
	return &SeriesStreamSink{w: jsonl.NewWriter(w), csv: true}
}

// seriesCSVHeader names the series columns in the JSONL field order.
const seriesCSVHeader = "now,queue_depth,running,done,events,busy_nodes,used_cores,used_local_mib,used_pool_mib,pool_demand_gibps,max_pool_util,max_congest,pools"

// Add implements SeriesSink.
func (s *SeriesStreamSink) Add(p SeriesPoint) {
	if s.w.Err() != nil {
		return
	}
	if !s.csv {
		s.w.WriteLine(appendSeriesPoint(s.w.Buf(), &p))
		return
	}
	if !s.headered {
		s.headered = true
		s.w.WriteLine(append(s.w.Buf(), seriesCSVHeader...), nil)
	}
	s.w.WriteLine(appendSeriesPointCSV(s.w.Buf(), &p), nil)
}

// Close implements SeriesSink: it flushes and returns the first error.
func (s *SeriesStreamSink) Close() error { return s.w.Close() }

// appendSeriesPoint encodes p as one JSON object, byte-identical to
// json.Marshal of the reference jsonSeriesPoint struct in the tests —
// the export schema and field order, with the per-pool breakdown as a
// "pools" array of PoolPoint objects omitted when empty — but without
// reflection.
func appendSeriesPoint(b []byte, p *SeriesPoint) ([]byte, error) {
	var err error
	b = strconv.AppendInt(append(b, `{"now":`...), p.Now, 10)
	b = strconv.AppendInt(append(b, `,"queue_depth":`...), int64(p.QueueDepth), 10)
	b = strconv.AppendInt(append(b, `,"running":`...), int64(p.Running), 10)
	b = strconv.AppendInt(append(b, `,"done":`...), int64(p.Done), 10)
	b = strconv.AppendUint(append(b, `,"events":`...), p.Events, 10)
	b = strconv.AppendInt(append(b, `,"busy_nodes":`...), int64(p.BusyNodes), 10)
	b = strconv.AppendInt(append(b, `,"used_cores":`...), int64(p.UsedCores), 10)
	b = strconv.AppendInt(append(b, `,"used_local_mib":`...), p.UsedLocalMiB, 10)
	b = strconv.AppendInt(append(b, `,"used_pool_mib":`...), p.UsedPoolMiB, 10)
	if b, err = jsonl.AppendFloat(append(b, `,"pool_demand_gibps":`...), p.PoolDemandGiBps); err != nil {
		return b, err
	}
	if b, err = jsonl.AppendFloat(append(b, `,"max_pool_util":`...), p.MaxPoolUtil); err != nil {
		return b, err
	}
	if b, err = jsonl.AppendFloat(append(b, `,"max_congest":`...), p.MaxCongest); err != nil {
		return b, err
	}
	if len(p.Pools) > 0 {
		b = append(b, `,"pools":[`...)
		for i := range p.Pools {
			pp := &p.Pools[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"id":`...), int64(pp.ID), 10)
			b = strconv.AppendInt(append(b, `,"used_mib":`...), pp.UsedMiB, 10)
			b = strconv.AppendInt(append(b, `,"cap_mib":`...), pp.CapacityMiB, 10)
			if b, err = jsonl.AppendFloat(append(b, `,"demand_gibps":`...), pp.DemandGiBps); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendSeriesPointCSV encodes p as one CSV row in seriesCSVHeader's
// column order: integers in decimal, floats in fmt's %g form (NaN and
// ±Inf included), and the pools column as ';'-joined id=used/cap
// entries.
func appendSeriesPointCSV(b []byte, p *SeriesPoint) []byte {
	b = strconv.AppendInt(b, p.Now, 10)
	b = strconv.AppendInt(append(b, ','), int64(p.QueueDepth), 10)
	b = strconv.AppendInt(append(b, ','), int64(p.Running), 10)
	b = strconv.AppendInt(append(b, ','), int64(p.Done), 10)
	b = strconv.AppendUint(append(b, ','), p.Events, 10)
	b = strconv.AppendInt(append(b, ','), int64(p.BusyNodes), 10)
	b = strconv.AppendInt(append(b, ','), int64(p.UsedCores), 10)
	b = strconv.AppendInt(append(b, ','), p.UsedLocalMiB, 10)
	b = strconv.AppendInt(append(b, ','), p.UsedPoolMiB, 10)
	b = strconv.AppendFloat(append(b, ','), p.PoolDemandGiBps, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ','), p.MaxPoolUtil, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ','), p.MaxCongest, 'g', -1, 64)
	b = append(b, ',')
	for i := range p.Pools {
		pp := &p.Pools[i]
		if i > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendInt(b, int64(pp.ID), 10)
		b = strconv.AppendInt(append(b, '='), pp.UsedMiB, 10)
		b = strconv.AppendInt(append(b, '/'), pp.CapacityMiB, 10)
	}
	return b
}
