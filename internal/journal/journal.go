// Package journal holds the durability rules every on-disk store in
// dismem shares — the checkpoint file, the sweep manifest and the run
// store — so each rule exists once:
//
//   - Fingerprint digests a record type's wire shape, so a file written
//     by a build whose types drifted is refused instead of misread;
//   - DecodeStrict decodes one JSON value, rejecting unknown fields and
//     trailing data;
//   - Parse splits a JSONL journal into its complete lines and reports
//     a torn tail — the one partial write a crash can leave;
//   - Writer appends one marshalled, fsynced line per call, after first
//     truncating any torn tail a reader salvaged around;
//   - WriteFileAtomic replaces a whole file by temp file, fsync, rename
//     and directory fsync.
//
// The torn-tail rule: a line is committed once its newline is on disk.
// Readers drop a torn tail and never modify the file; only a writer
// resuming the journal truncates it, so a new line never continues a
// torn one.
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// Fingerprint digests the reflected wire shape of t: every exported
// struct field's name, JSON tag and type, recursively, with fields
// sorted by description and array lengths recorded. Types with custom
// JSON marshalling are opaque to reflection and recorded by name, as
// are cycles.
func Fingerprint(t reflect.Type) [sha256.Size]byte {
	var buf bytes.Buffer
	describe(&buf, t, map[reflect.Type]bool{})
	return sha256.Sum256(buf.Bytes())
}

var marshalerType = reflect.TypeOf((*json.Marshaler)(nil)).Elem()

// describe appends the canonical description of t. visiting holds the
// structs on the current path, so only a true cycle is cut short.
func describe(w *bytes.Buffer, t reflect.Type, visiting map[reflect.Type]bool) {
	if t.Implements(marshalerType) || reflect.PointerTo(t).Implements(marshalerType) {
		fmt.Fprintf(w, "%s(custom-json)", t.String())
		return
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		fmt.Fprintf(w, "%s{", t.Kind())
		describe(w, t.Elem(), visiting)
		w.WriteString("}")
	case reflect.Array:
		fmt.Fprintf(w, "array[%d]{", t.Len())
		describe(w, t.Elem(), visiting)
		w.WriteString("}")
	case reflect.Map:
		w.WriteString("map[")
		describe(w, t.Key(), visiting)
		w.WriteString("]{")
		describe(w, t.Elem(), visiting)
		w.WriteString("}")
	case reflect.Struct:
		if visiting[t] {
			fmt.Fprintf(w, "cycle(%s)", t.String())
			return
		}
		visiting[t] = true
		fmt.Fprintf(w, "struct %s{", t.String())
		fields := make([]string, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			var fb bytes.Buffer
			describe(&fb, f.Type, visiting)
			fields = append(fields, fmt.Sprintf("%s %s %q", f.Name, fb.String(), f.Tag.Get("json")))
		}
		sort.Strings(fields)
		for _, f := range fields {
			w.WriteString(f)
			w.WriteString(";")
		}
		w.WriteString("}")
		delete(visiting, t)
	default:
		w.WriteString(t.Kind().String())
	}
}

// DecodeStrict unmarshals one JSON value from b into v, rejecting
// unknown fields and trailing data.
func DecodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// Log is a JSONL journal split at its last newline.
type Log struct {
	// Lines are the complete lines in file order, newlines stripped.
	Lines [][]byte
	// Size is the byte length of the complete lines with their
	// newlines: the offset a resuming Writer appends at.
	Size int64
	// Torn reports bytes after Size: a final line a crash cut short.
	Torn bool
}

// Parse splits journal bytes into complete lines and a torn tail. A
// blank complete line is never written by a Writer, so it is an error
// naming its 1-based line.
func Parse(data []byte) (Log, error) {
	end := bytes.LastIndexByte(data, '\n') + 1
	out := Log{Size: int64(end), Torn: end < len(data)}
	for rest := data[:end]; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n')
		if i == 0 {
			return Log{}, fmt.Errorf("line %d is blank", len(out.Lines)+1)
		}
		out.Lines = append(out.Lines, rest[:i])
		rest = rest[i+1:]
	}
	return out, nil
}

// Writer appends JSON lines to a journal file. It is not safe for
// concurrent use; stores serialise appends under their own lock.
type Writer struct {
	f *os.File
}

// Create creates path, which must not exist yet, as an empty journal.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f}, nil
}

// Resume opens path, creating it if missing, to append after its first
// size bytes — the Size of the Log a reader salvaged. A torn tail
// beyond size is truncated away and the truncation fsynced before
// Resume returns.
func Resume(path string, size int64) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := truncateTail(f, size); err != nil {
		f.Close()
		return nil, fmt.Errorf("resuming %s: %w", path, err)
	}
	return &Writer{f: f}, nil
}

func truncateTail(f *os.File, size int64) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	switch {
	case st.Size() == size:
		return nil
	case st.Size() < size:
		return fmt.Errorf("file shrank to %d bytes since %d were read", st.Size(), size)
	}
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// Append marshals v and writes it as one line, fsynced before Append
// returns.
func (w *Writer) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close releases the file.
func (w *Writer) Close() error { return w.f.Close() }

// WriteFileAtomic replaces path with what write produces: it writes a
// temporary file in the same directory, fsyncs it and renames it over
// path, so a crash at any instant leaves the old file or the new one,
// never a torn one. The directory is fsynced after the rename where
// the platform allows; write's error is returned unchanged.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		// Persist the rename; ignore failure — some filesystems reject
		// directory fsync, and the data itself is already durable.
		_ = d.Sync()
		d.Close()
	}
	return nil
}
