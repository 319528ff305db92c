package runstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dismem/internal/metrics"
)

func testRun(kind, label string, seed int, wait float64) Run {
	spec := json.RawMessage(`{"policy":"memaware","jobs":100}`)
	rep := &metrics.Report{Completed: 100, P95Wait: wait}
	return Run{
		ID:     KeyOf(kind, spec, seed),
		Kind:   kind,
		Label:  label,
		Seed:   seed,
		Spec:   spec,
		Report: rep,
		Events: 12345,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := testRun("sweep-unit", "memaware", 0, 10)
	b := testRun("sweep-unit", "memaware", 1, 20)
	for _, r := range []Run{a, b} {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	runs := s2.Runs()
	if len(runs) != 2 {
		t.Fatalf("reopened store holds %d runs, want 2", len(runs))
	}
	if runs[0].ID != a.ID || runs[1].ID != b.ID {
		t.Fatalf("append order not preserved: %s, %s", runs[0].ID, runs[1].ID)
	}
	got, err := s2.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report.P95Wait != 10 || got.Label != "memaware" || got.Events != 12345 {
		t.Fatalf("record mangled on round trip: %+v", got)
	}
	// Prefix lookup: unambiguous prefix resolves, short shared prefix
	// does not.
	if _, err := s2.Get(a.ID[:8]); err != nil && strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("unexpected ambiguity for %s: %v", a.ID[:8], err)
	}
	if _, err := s2.Get("zzzz"); err == nil {
		t.Fatal("Get of an absent id succeeded")
	}
}

// TestStoreIdempotentAppend: re-appending an identical record — the
// resumed-sweep path — neither grows the store nor its segment file.
func TestStoreIdempotentAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := testRun("sweep-unit", "memaware", 0, 10)
	for i := 0; i < 3; i++ {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d runs after idempotent appends, want 1", s.Len())
	}
	seg, err := os.ReadFile(filepath.Join(dir, "seg-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(seg), "\n"); n != 1 {
		t.Fatalf("segment holds %d lines after idempotent appends, want 1", n)
	}

	// Same ID, different content: appended, later record wins on read.
	r2 := r
	r2.Label = "relabelled"
	if err := s.Append(r2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d runs after overwrite, want 1", s.Len())
	}
	got, err := s.Get(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "relabelled" {
		t.Fatalf("last append did not win: label %q", got.Label)
	}
}

// TestStoreSegmentsAcrossReopens: each appending session gets its own
// segment; a reopened store merges all of them.
func TestStoreSegmentsAcrossReopens(t *testing.T) {
	dir := t.TempDir()
	for seed := 0; seed < 3; seed++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("session %d: %v", seed, err)
		}
		if err := s.Append(testRun("sweep-unit", "m", seed, float64(seed))); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 3 {
		t.Fatalf("store holds %d runs across 3 sessions, want 3", s.Len())
	}
	var idx storeIndex
	b, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Segments) != 3 {
		t.Fatalf("index lists %d segments, want 3: %v", len(idx.Segments), idx.Segments)
	}
}

// TestStoreTornTrailingLine: a crash-torn trailing append in the
// newest segment is dropped; the intact prefix loads.
func TestStoreTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 1, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, "seg-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn trailing line must be tolerated: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("store holds %d runs after torn tail, want 1", s2.Len())
	}
}

// TestStoreInteriorCorruptionIsLoud: flipping bytes inside a
// non-trailing record fails Open with the segment and line named.
func TestStoreInteriorCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 1, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, "seg-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := len(data) / 4
	data[i] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted interior corruption")
	} else if !strings.Contains(err.Error(), "seg-000001.jsonl") {
		t.Fatalf("corruption error does not name the segment: %v", err)
	}
}

// TestStoreRejectsForeignIndex: a schema or format mismatch in the
// index is an error, not a silent misread.
func TestStoreRejectsForeignIndex(t *testing.T) {
	dir := t.TempDir()
	idx := storeIndex{Format: storeFormat, Schema: "0000000000000000"}
	b, _ := json.Marshal(idx)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted an index with a foreign record schema")
	}

	idx = storeIndex{Format: "dmstore/99", Schema: runSchema()}
	b, _ = json.Marshal(idx)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted an index with a foreign format")
	}
}

// TestStoreMissingSegmentIsLoud: an index listing a segment that is
// gone is corruption, not an empty store.
func TestStoreMissingSegmentIsLoud(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 0, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, "seg-000001.jsonl")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a missing segment")
	}
}

// TestKeyOf: identity depends on kind, spec and seed — not on label,
// report or series file.
func TestKeyOf(t *testing.T) {
	spec := []byte(`{"a":1}`)
	base := KeyOf("sweep-unit", spec, 0)
	if KeyOf("sweep-unit", spec, 0) != base {
		t.Fatal("KeyOf not deterministic")
	}
	if KeyOf("sweep-unit", spec, 1) == base {
		t.Fatal("seed does not change the key")
	}
	if KeyOf("sched", spec, 0) == base {
		t.Fatal("kind does not change the key")
	}
	if KeyOf("sweep-unit", []byte(`{"a":2}`), 0) == base {
		t.Fatal("spec does not change the key")
	}
	a := testRun("sweep-unit", "label-one", 0, 1)
	b := testRun("sweep-unit", "label-two", 0, 99)
	if a.ID != b.ID {
		t.Fatal("label or report leaked into identity")
	}
}

// TestRunSchemaPinned pins the record-schema fingerprint: archives
// written by earlier builds carry this value in index.json and must
// keep opening. A deliberate change to Run or metrics.Report moves it;
// update the pin only together with storeFormat.
func TestRunSchemaPinned(t *testing.T) {
	if got, want := runSchema(), "6cf6a198e476db38"; got != want {
		t.Fatalf("runSchema() = %s, want %s", got, want)
	}
}

// TestStoreTornTailThenAppend: a torn tail one session tolerated must
// not turn into interior corruption once a later session adds a
// segment. A read-only Open leaves the file alone; the first Append
// truncates the tail before it starts the new segment.
func TestStoreTornTailThenAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 2; seed++ {
		if err := s.Append(testRun("sweep-unit", "m", seed, float64(seed))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "seg-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-7]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	ro, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ro.Close()
	if after, _ := os.ReadFile(seg); !bytes.Equal(after, torn) {
		t.Fatal("read-only Open modified the torn segment")
	}

	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRun("sweep-unit", "m", 1, 1)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after appending past a torn segment: %v", err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("store holds %d runs, want 2", s3.Len())
	}
	if after, _ := os.ReadFile(seg); !bytes.HasSuffix(after, []byte("\n")) {
		t.Fatal("the writer left the torn tail in seg-000001.jsonl")
	}
}
