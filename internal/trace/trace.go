// Package trace is the per-job lifecycle trace layer: typed,
// deterministically-ordered events emitted synchronously from the
// simulation engine's existing handler points — submit, dispatch (with
// placement detail), terminate/kill (with reason), failure restarts,
// scenario interventions, and checkpoint/fork boundaries — consumed by
// a TraceSink.
//
// Tracing follows the series-sink contract (DESIGN.md §11) exactly: a
// nil sink is zero-cost, the engine closes the configured sink exactly
// once on every terminal path of the run, and the JSONL stream is
// checkpoint-composable — an interrupted run's trace plus its resume's
// trace concatenate byte-for-byte to the uninterrupted run's trace.
// Checkpoint/fork boundary events are therefore never emitted by the
// engine into a composing stream; layers that own non-composing traces
// (the dmserve ring) record them instead.
//
// The package depends only on the internal/jsonl leaf encoder: events
// carry plain serializable values, never live engine state.
package trace

import (
	"io"
	"strconv"

	"dismem/internal/jsonl"
)

// Type tags one trace event.
type Type string

// The event taxonomy (DESIGN.md §12). Values are the JSONL wire names.
const (
	// Submit: a job arrived (before the feasibility check).
	Submit Type = "submit"
	// Dispatch: a job started, with placement detail — racks and pools
	// touched, local/remote memory split, dilation at start.
	Dispatch Type = "dispatch"
	// Terminate: a job reached a terminal state; Reason is "done",
	// "killed" (walltime limit), "rejected" (infeasible at arrival) or
	// "failed" (failure-restart budget exhausted).
	Terminate Type = "terminate"
	// Restart: a node failure killed the job and the site resubmitted
	// it; Restarts is the cumulative count for this job.
	Restart Type = "restart"
	// ScenarioEvent: a timed intervention was applied; Detail is the
	// intervention in scenario-grammar form.
	ScenarioEvent Type = "scenario"
	// CheckpointMark / ForkMark are checkpoint/fork boundary events.
	// The engine never emits them (they would break trace composition
	// across interrupt/resume); owners of non-composing traces — the
	// dmserve ring — record them.
	CheckpointMark Type = "checkpoint"
	ForkMark       Type = "fork"
)

// Event is one trace event. Only the fields the Type uses are set; the
// rest stay zero and are omitted from the JSONL encoding. Job IDs are
// positive (workload.Job.Validate), so a zero Job always means "not a
// job event".
type Event struct {
	Now  int64
	Type Type

	// Job lifecycle fields.
	Job    int
	User   int
	Nodes  int
	Submit int64 // dispatch/terminate: the job's submit instant

	// Dispatch placement detail.
	Racks     []int // racks touched, ascending
	Pools     []int // pools touched, ascending
	LocalMiB  int64
	RemoteMiB int64
	Dilation  float64 // dilation at dispatch

	// Terminate / restart detail.
	Start    int64  // the dispatch instant this span began at
	Reason   string // "done" | "killed" | "rejected" | "failed"
	Restarts int

	// Scenario / boundary detail.
	Detail string
}

// TraceSink consumes trace events as the simulation produces them,
// in deterministic firing order (events are emitted synchronously from
// the single simulation goroutine). Close flushes buffered output and
// reports the first write error. The engine closes its configured sink
// exactly once, on every terminal path of the run.
type TraceSink interface {
	Add(ev Event)
	Close() error
}

// Discard is the TraceSink that drops every event.
var Discard TraceSink = discard{}

type discard struct{}

func (discard) Add(Event)    {}
func (discard) Close() error { return nil }

// MarshalJSON fixes Event's JSON form to the JSONL wire schema: it
// returns appendEvent's bytes, so an event serialized anywhere else
// (the dmserve /v1/trace endpoint, say) is byte-identical to its JSONL
// line. A non-finite Dilation is an error, as it is for the JSONL sink.
func (e Event) MarshalJSON() ([]byte, error) {
	return appendEvent(nil, e)
}

// JSONLSink encodes each event as one JSON line through a jsonl.Writer,
// with the stream-sink discipline: the first error latches — a write
// error, or an event with a non-finite Dilation, which JSON cannot
// represent — subsequent Adds are no-ops, Close reports it, and the
// sink never closes the underlying writer.
type JSONLSink struct {
	w *jsonl.Writer
}

// NewJSONLSink returns a sink writing one JSON object per event line.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: jsonl.NewWriter(w)}
}

// Add implements TraceSink.
func (s *JSONLSink) Add(ev Event) {
	if s.w.Err() == nil {
		s.w.WriteLine(appendEvent(s.w.Buf(), ev))
	}
}

// Close implements TraceSink: it flushes and returns the first error.
func (s *JSONLSink) Close() error { return s.w.Close() }

// appendEvent encodes ev byte-identically to json.Marshal of the
// reference jsonEvent struct in the tests — same field order,
// omitempty semantics, float and string encoding — without reflection:
// the trace hot path runs once per lifecycle event, and a reflective
// Marshal there costs ~20% of end-to-end simulation throughput.
func appendEvent(b []byte, ev Event) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"now":`...), ev.Now, 10)
	b = jsonl.AppendString(append(b, `,"type":`...), string(ev.Type))
	if ev.Job != 0 {
		b = strconv.AppendInt(append(b, `,"job":`...), int64(ev.Job), 10)
	}
	if ev.User != 0 {
		b = strconv.AppendInt(append(b, `,"user":`...), int64(ev.User), 10)
	}
	if ev.Nodes != 0 {
		b = strconv.AppendInt(append(b, `,"nodes":`...), int64(ev.Nodes), 10)
	}
	if ev.Submit != 0 {
		b = strconv.AppendInt(append(b, `,"submit":`...), ev.Submit, 10)
	}
	if len(ev.Racks) > 0 {
		b = jsonl.AppendInts(append(b, `,"racks":`...), ev.Racks)
	}
	if len(ev.Pools) > 0 {
		b = jsonl.AppendInts(append(b, `,"pools":`...), ev.Pools)
	}
	if ev.LocalMiB != 0 {
		b = strconv.AppendInt(append(b, `,"local_mib":`...), ev.LocalMiB, 10)
	}
	if ev.RemoteMiB != 0 {
		b = strconv.AppendInt(append(b, `,"remote_mib":`...), ev.RemoteMiB, 10)
	}
	if ev.Dilation != 0 {
		var err error
		if b, err = jsonl.AppendFloat(append(b, `,"dilation":`...), ev.Dilation); err != nil {
			return b, err
		}
	}
	if ev.Start != 0 {
		b = strconv.AppendInt(append(b, `,"start":`...), ev.Start, 10)
	}
	if ev.Reason != "" {
		b = jsonl.AppendString(append(b, `,"reason":`...), ev.Reason)
	}
	if ev.Restarts != 0 {
		b = strconv.AppendInt(append(b, `,"restarts":`...), int64(ev.Restarts), 10)
	}
	if ev.Detail != "" {
		b = jsonl.AppendString(append(b, `,"detail":`...), ev.Detail)
	}
	return append(b, '}'), nil
}
