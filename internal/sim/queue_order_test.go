package sim

import (
	"bytes"
	"slices"
	"testing"

	"dismem/internal/sched"
	"dismem/internal/trace"
	"dismem/internal/workload"
)

// queueFCFS reports whether the engine's pending queue is in the
// (Submit, ID) order sched.Context.Queue promises.
func queueFCFS(e *Engine) bool { return slices.IsSortedFunc(e.queue, sched.CompareFCFS) }

// checkQueue fails the test unless the engine's pending queue is in
// FCFS order and every entry's keys equal its job's: the EASY backfill
// scan rejects candidates on the keys alone.
func checkQueue(t *testing.T, label string, e *Engine) {
	t.Helper()
	if !queueFCFS(e) {
		t.Fatalf("%s: queue out of FCFS order at t=%d", label, e.Now())
	}
	for i, q := range e.queue {
		if q.Nodes != q.Job.Nodes || q.Estimate != q.Job.Estimate {
			t.Fatalf("%s: queue entry %d at t=%d has keys (nodes %d, estimate %d), job %d has (%d, %d)",
				label, i, e.Now(), q.Nodes, q.Estimate, q.Job.ID, q.Job.Nodes, q.Job.Estimate)
		}
	}
}

// stepChecked runs e to the end one event at a time, checking the
// queue after every event, and returns the result.
func stepChecked(t *testing.T, label string, e *Engine) *Result {
	t.Helper()
	checkQueue(t, label, e)
	for !e.Done() {
		e.Step()
		checkQueue(t, label, e)
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQueueStaysFCFS runs a failure-injected workload step by step and
// checks the queue order and entry keys after every event: arrivals
// append, and restart resubmits (which keep their original submit time)
// are inserted back at their FCFS position.
func TestQueueStaysFCFS(t *testing.T) {
	e, err := New(forkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(testWorkload(250, 3)); err != nil {
		t.Fatal(err)
	}
	restartQueued := false
	for !e.Done() {
		e.Step()
		checkQueue(t, "fresh run", e)
		for _, q := range e.queue {
			if e.restarts[q.Job.ID] > 0 {
				restartQueued = true
			}
		}
	}
	if _, err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if !restartQueued {
		t.Fatal("no restarted job was ever queued: the run never exercised restart resubmits")
	}
}

// TestRestoreReordersQueue: a serialized checkpoint whose queue is out
// of FCFS order — as written by builds that appended restart resubmits
// at the tail — resumes byte-identically to the same checkpoint with
// its queue in order.
func TestRestoreReordersQueue(t *testing.T) {
	w := testWorkload(250, 3)
	e, err := New(forkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	// Advance to an instant whose queue holds a restarted job behind
	// younger ones, the state the old append-only queue serialized.
	restartedInside := func() bool {
		for i, q := range e.queue {
			if e.restarts[q.Job.ID] > 0 && i+1 < len(e.queue) {
				return true
			}
		}
		return false
	}
	for !e.Done() && !restartedInside() {
		e.Step()
	}
	if e.Done() {
		t.Fatal("the run never queued a restarted job ahead of another job")
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	st, err := cp.State()
	if err != nil {
		t.Fatal(err)
	}

	resume := func(queue []*workload.Job) (*Result, []byte) {
		t.Helper()
		st2 := *st
		st2.Queue = queue
		cp2, err := CheckpointFromState(forkCfg(), &st2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sink := trace.NewJSONLSink(&buf)
		fork, err := Resume(cp2, withCfg(cp2, func(c *Config) { c.TraceSink = sink }), Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		return stepChecked(t, "restored run", fork), buf.Bytes()
	}

	ordered := slices.Clone(st.Queue)
	wantRes, wantTrace := resume(ordered)
	sameResult(t, "ordered resume vs uninterrupted", runSlice(t, forkCfg(), w), wantRes)

	// The old layout: restarted jobs moved to the tail.
	var oldLayout, restarted []*workload.Job
	for _, j := range ordered {
		if st.Restarts[j.ID] > 0 {
			restarted = append(restarted, j)
		} else {
			oldLayout = append(oldLayout, j)
		}
	}
	oldLayout = append(oldLayout, restarted...)
	reversed := slices.Clone(ordered)
	slices.Reverse(reversed)

	for name, q := range map[string][]*workload.Job{"restarts at tail": oldLayout, "reversed": reversed} {
		if slices.Equal(q, ordered) {
			t.Fatalf("%s: permutation left the queue unchanged", name)
		}
		gotRes, gotTrace := resume(q)
		sameResult(t, name, wantRes, gotRes)
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("%s: resumed trace differs from the ordered resume's", name)
		}
	}
	if !slices.Equal(st.Queue, ordered) {
		t.Fatal("CheckpointFromState reordered the caller's state in place")
	}
}

// TestRestoreRejectsBadQueue: a serialized queue entry that is missing
// or fails job validation (the pass relies on every job needing at
// least one node) fails the restore.
func TestRestoreRejectsBadQueue(t *testing.T) {
	e, err := New(forkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(testWorkload(250, 3)); err != nil {
		t.Fatal(err)
	}
	for !e.Done() && len(e.queue) == 0 {
		e.Step()
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	st, err := cp.State()
	if err != nil {
		t.Fatal(err)
	}
	noNodes := *st.Queue[0]
	noNodes.Nodes = 0
	for name, q := range map[string][]*workload.Job{
		"nil entry": append(slices.Clone(st.Queue), nil),
		"no nodes":  append(slices.Clone(st.Queue[1:]), &noNodes),
	} {
		st2 := *st
		st2.Queue = q
		if _, err := CheckpointFromState(forkCfg(), &st2); err == nil {
			t.Errorf("%s: restore accepted the queue", name)
		}
	}
}

// TestQueueKeysAcrossForkAndReuse checks the queue order and entry keys
// after every event of the engines that inherit a queue rather than
// build it from arrivals: an in-memory fork resumed mid-run, a fork
// resumed from the serialized checkpoint, and a NewReusing engine that
// recycles a finished engine's queue storage. Each must also finish
// identically to the uninterrupted run.
func TestQueueKeysAcrossForkAndReuse(t *testing.T) {
	w := testWorkload(250, 3)
	want := runSlice(t, forkCfg(), w)

	e, err := New(forkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	for !e.Done() && len(e.queue) < 5 {
		e.Step()
	}
	if e.Done() {
		t.Fatal("the run never queued 5 jobs")
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := Resume(cp, cp.cfg, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "in-memory fork", want, stepChecked(t, "in-memory fork", fork))

	st, err := cp.State()
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := CheckpointFromState(forkCfg(), st)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Resume(cp2, cp2.cfg, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "serialized fork", want, stepChecked(t, "serialized fork", restored))

	// The original runs on to the end; its storage then seeds a
	// NewReusing engine.
	sameResult(t, "original", want, stepChecked(t, "original", e))
	reused, err := NewReusing(forkCfg(), e)
	if err != nil {
		t.Fatal(err)
	}
	if err := reused.Start(w); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "NewReusing", want, stepChecked(t, "NewReusing", reused))
}
