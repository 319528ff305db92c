// Package jsonl is the reflection-free line encoding shared by the
// engine's streamed outputs — the per-job record, series and trace
// streams. It holds append encoders for JSON values that produce
// exactly the bytes encoding/json produces (pinned by tests against
// json.Marshal), and the one buffered line Writer every stream sink
// writes through.
//
// The package is a leaf that imports only the standard library: sinks
// build their own rows from these appenders, field by field, in their
// schema's order.
package jsonl

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// UnsupportedValueError reports a float JSON cannot represent: NaN or
// an infinity. encoding/json refuses the same values.
type UnsupportedValueError struct {
	Value float64
}

func (e *UnsupportedValueError) Error() string {
	return "jsonl: unsupported value: " + strconv.FormatFloat(e.Value, 'g', -1, 64)
}

// AppendFloat appends f exactly as encoding/json encodes a float64:
// the shortest round-trip form, switching to 'e' notation outside
// [1e-6, 1e21) with a trimmed exponent. NaN and ±Inf have no JSON
// form; for them AppendFloat returns b unchanged and an
// *UnsupportedValueError naming the value.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &UnsupportedValueError{Value: f}
	}
	abs := math.Abs(f)
	if abs < 1e15 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		// Integral values — the common 0 and 1 — print as integers;
		// -0 keeps the sign encoding/json gives it.
		return strconv.AppendInt(b, int64(f), 10), nil
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims "e-07" to "e-7" etc.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendString appends s quoted the way encoding/json quotes it. The
// fast path covers the strings the engine emits (plain ASCII grammar
// text); anything needing an escape — control bytes, quotes,
// backslashes, HTML-sensitive '<' '>' '&', non-ASCII — falls back to
// json.Marshal.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			blob, err := json.Marshal(s)
			if err != nil { // unreachable for a string
				return append(b, `""`...)
			}
			return append(b, blob...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendInts appends v as a JSON array of integers.
func AppendInts(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// Writer writes newline-terminated lines to a buffered writer with the
// stream-sink discipline: the first error — a write error or a line's
// encoding error — latches, that line and every later one are dropped,
// and Close reports it. Close flushes but never closes the underlying
// writer.
//
// A line is appended straight into the buffer's free space (Buf) and
// handed back to WriteLine, so a line that fits is encoded in place
// and written without a copy. Buf flushes ahead when the free space is
// shorter than the longest line written so far, so a steady stream of
// similar lines never outgrows the buffer and never allocates.
type Writer struct {
	bw      *bufio.Writer
	longest int
	err     error
}

// NewWriter returns a line writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Err returns the latched error, if any. Sinks check it before
// encoding a line, so a failed stream stops costing anything.
func (w *Writer) Err() error { return w.err }

// Buf returns an empty slice over the buffer's free space, for the
// caller to append one line to and pass to WriteLine.
func (w *Writer) Buf() []byte {
	if w.bw.Available() < w.longest && w.bw.Buffered() > 0 && w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.bw.AvailableBuffer()
}

// WriteLine writes line and a terminating newline. A non-nil encErr —
// the error of the encoder that built line — latches instead, and
// nothing of the line is written. Once an error has latched, WriteLine
// is a no-op.
func (w *Writer) WriteLine(line []byte, encErr error) {
	if w.err != nil {
		return
	}
	if encErr != nil {
		w.err = encErr
		return
	}
	line = append(line, '\n')
	w.longest = max(w.longest, len(line))
	_, w.err = w.bw.Write(line)
}

// Close flushes the lines written before the first error — so a
// stream cut short by an unencodable line still ends on its last
// complete line — and returns that error. It never closes the
// underlying writer, and a second Close returns the same latched
// error.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); w.err == nil {
		w.err = err
	}
	return w.err
}
