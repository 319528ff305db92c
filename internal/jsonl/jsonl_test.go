package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestAppendJSONFloatSweep brute-forces the float encoder against
// encoding/json across magnitudes spanning both format regimes and
// the boundaries between them.
func TestAppendJSONFloatSweep(t *testing.T) {
	vals := []float64{0, 1e-6, 9.999999e-7, 1e21, 9.999e20, 1.5e-9, 2.5e24, 1e-7,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3,
		// The integral fast path and its edges.
		1, 42, 1 << 52, 1<<53 + 2, 1e14, 999999999999999, 1e15, 1e15 + 2, 1e20, 0.5, 2.5}
	for exp := -30; exp <= 30; exp++ {
		vals = append(vals, 1.7*math.Pow(10, float64(exp)))
	}
	for _, v := range vals {
		for _, f := range []float64{v, -v} {
			want, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendFloat(nil, f)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("AppendFloat(%g) = %s, %v; want %s", f, got, err, want)
			}
		}
	}
}

// TestAppendFloatNonFinite: NaN and ±Inf are refused like
// encoding/json refuses them, with an error naming the value and the
// buffer left exactly as it was.
func TestAppendFloatNonFinite(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		name string
	}{
		{math.NaN(), "NaN"}, {math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"},
	} {
		if _, err := json.Marshal(tc.f); err == nil {
			t.Fatalf("json.Marshal(%v) succeeded; the reference no longer refuses it", tc.f)
		}
		prefix := []byte(`{"x":`)
		got, err := AppendFloat(prefix, tc.f)
		var uv *UnsupportedValueError
		if !errors.As(err, &uv) || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("AppendFloat(%v) error = %v, want an UnsupportedValueError naming %s", tc.f, err, tc.name)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("AppendFloat(%v) wrote %q past the prefix", tc.f, got[len(prefix):])
		}
	}
}

// TestAppendStringMatchesMarshal: the plain-ASCII fast path and the
// escape fallback both quote exactly like encoding/json.
func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "done", "at=21600 down rack=2", `quote "inside"`, `back\slash`,
		"<tags> & ampersands", "tab\tnewline\n", "\x00\x1f", "λ→µ é",
		"invalid \xff utf8", "\u2028 line separator",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestAppendIntsMatchesMarshal(t *testing.T) {
	for _, v := range [][]int{{}, {0}, {7}, {-3, 0, 12, math.MaxInt64, math.MinInt64}} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendInts(nil, v); !bytes.Equal(got, want) {
			t.Errorf("AppendInts(%v) = %s, want %s", v, got, want)
		}
	}
}

// closeTracker is a writer that records whether anyone closed it and
// can be told to fail every write.
type closeTracker struct {
	bytes.Buffer
	closed bool
	fail   bool
}

func (c *closeTracker) Write(p []byte) (int, error) {
	if c.fail {
		return 0, errors.New("disk full")
	}
	return c.Buffer.Write(p)
}

func (c *closeTracker) Close() error { c.closed = true; return nil }

// TestWriterLinesAndClose: lines come out newline-terminated in order,
// and Close flushes without closing the underlying writer.
func TestWriterLinesAndClose(t *testing.T) {
	var dst closeTracker
	w := NewWriter(&dst)
	w.WriteLine(append(w.Buf(), "first"...), nil)
	w.WriteLine(append(w.Buf(), "second"...), nil)
	if dst.Len() != 0 {
		t.Fatalf("lines reached the writer before Close: %q", dst.String())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dst.String(); got != "first\nsecond\n" {
		t.Fatalf("output = %q", got)
	}
	if dst.closed {
		t.Fatal("Close closed the underlying writer")
	}
}

// TestWriterEncodeErrorLatches: a line whose encoder failed is dropped
// whole, nothing after it is written, and every Close reports the
// encoder's error.
func TestWriterEncodeErrorLatches(t *testing.T) {
	var dst closeTracker
	w := NewWriter(&dst)
	w.WriteLine(append(w.Buf(), "ok"...), nil)
	line, err := AppendFloat(append(w.Buf(), `{"x":`...), math.NaN())
	w.WriteLine(line, err)
	w.WriteLine(append(w.Buf(), "after"...), nil)
	got := w.Close()
	if got == nil || !strings.Contains(got.Error(), "NaN") {
		t.Fatalf("Close() = %v, want the latched NaN error", got)
	}
	if again := w.Close(); again != got {
		t.Fatalf("second Close() = %v, want the same latched error", again)
	}
	if dst.String() != "ok\n" {
		t.Fatalf("output = %q, want only the line before the error", dst.String())
	}
	if w.Err() != got {
		t.Fatalf("Err() = %v, want %v", w.Err(), got)
	}
}

// TestWriterWriteErrorLatches: the first write error latches and every
// Close returns it.
func TestWriterWriteErrorLatches(t *testing.T) {
	dst := closeTracker{fail: true}
	w := NewWriter(&dst)
	long := strings.Repeat("x", 64<<10) // larger than the buffer: reaches the writer
	for i := 0; i < 3; i++ {
		w.WriteLine(append(w.Buf(), long...), nil)
	}
	err := w.Close()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close() = %v, want the write error", err)
	}
	if again := w.Close(); again != err {
		t.Fatalf("second Close() = %v, want the same latched error", again)
	}
}

// TestWriterMixedLengths: lines shorter and longer than the buffer,
// in any order, come out intact.
func TestWriterMixedLengths(t *testing.T) {
	var dst bytes.Buffer
	w := NewWriter(&dst)
	var want strings.Builder
	for i, n := range []int{10, 5000, 3, 4095, 4096, 1, 9000, 200, 200, 200} {
		line := strings.Repeat(string(rune('a'+i)), n)
		w.WriteLine(append(w.Buf(), line...), nil)
		want.WriteString(line + "\n")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if dst.String() != want.String() {
		t.Fatal("output differs from the lines written")
	}
}

// TestWriterLineDoesNotAllocate: a steady stream of lines is encoded
// in the buffer's free space, so it allocates nothing — including at
// the buffer boundary, where Buf flushes ahead.
func TestWriterLineDoesNotAllocate(t *testing.T) {
	var dst bytes.Buffer
	dst.Grow(1 << 20)
	w := NewWriter(&dst)
	line := strings.Repeat("y", 300)
	// AllocsPerRun truncates to whole allocations per run, so each run
	// writes enough lines to cross the buffer boundary several times.
	allocs := testing.AllocsPerRun(100, func() {
		dst.Reset()
		for range 64 {
			w.WriteLine(append(w.Buf(), line...), nil)
		}
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("64 WriteLines allocate %.0f times, want 0", allocs)
	}
}
