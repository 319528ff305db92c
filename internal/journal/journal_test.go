package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type plain struct {
	X int64 `json:"x"`
}

type marshaled struct {
	X int64 `json:"x"`
}

func (m marshaled) MarshalJSON() ([]byte, error) { return json.Marshal(m.X) }

// TestFingerprintDrift: each kind of wire-shape drift moves the
// fingerprint. The drifted types share the base type's name (local
// types named rec), so only the drift itself can change the digest.
func TestFingerprintDrift(t *testing.T) {
	base := func() reflect.Type {
		type rec struct {
			Counts [4]uint64 `json:"counts"`
			Now    int64     `json:"now"`
			Inner  plain     `json:"inner"`
		}
		return reflect.TypeOf(rec{})
	}()
	cases := map[string]reflect.Type{
		"array length": func() reflect.Type {
			type rec struct {
				Counts [2]uint64 `json:"counts"`
				Now    int64     `json:"now"`
				Inner  plain     `json:"inner"`
			}
			return reflect.TypeOf(rec{})
		}(),
		"field rename": func() reflect.Type {
			type rec struct {
				Counts [4]uint64 `json:"counts"`
				Then   int64     `json:"now"`
				Inner  plain     `json:"inner"`
			}
			return reflect.TypeOf(rec{})
		}(),
		"json tag": func() reflect.Type {
			type rec struct {
				Counts [4]uint64 `json:"counts"`
				Now    int64     `json:"now,omitempty"`
				Inner  plain     `json:"inner"`
			}
			return reflect.TypeOf(rec{})
		}(),
		"kind": func() reflect.Type {
			type rec struct {
				Counts [4]uint64 `json:"counts"`
				Now    string    `json:"now"`
				Inner  plain     `json:"inner"`
			}
			return reflect.TypeOf(rec{})
		}(),
		"json.Marshaler": func() reflect.Type {
			type rec struct {
				Counts [4]uint64 `json:"counts"`
				Now    int64     `json:"now"`
				Inner  marshaled `json:"inner"`
			}
			return reflect.TypeOf(rec{})
		}(),
	}
	want := Fingerprint(base)
	if Fingerprint(base) != want {
		t.Fatal("Fingerprint is not deterministic")
	}
	for name, drifted := range cases {
		if drifted.String() != base.String() {
			t.Fatalf("%s: drifted type is named %s, base %s", name, drifted, base)
		}
		if Fingerprint(drifted) == want {
			t.Errorf("%s drift left the fingerprint unchanged", name)
		}
	}
	var d bytes.Buffer
	describe(&d, cases["json.Marshaler"], map[reflect.Type]bool{})
	if !strings.Contains(d.String(), "journal.marshaled(custom-json)") {
		t.Errorf("custom-JSON field not recorded as opaque: %s", d.String())
	}
}

// TestFingerprintCycle: a recursive type terminates and records the
// back edge by name.
func TestFingerprintCycle(t *testing.T) {
	type node struct {
		Next *node `json:"next"`
	}
	var d bytes.Buffer
	describe(&d, reflect.TypeOf(node{}), map[reflect.Type]bool{})
	if !strings.Contains(d.String(), "cycle(journal.node)") {
		t.Fatalf("cycle not cut: %s", d.String())
	}
}

func TestDecodeStrict(t *testing.T) {
	var v plain
	if err := DecodeStrict([]byte(`{"x":3}`), &v); err != nil || v.X != 3 {
		t.Fatalf("valid value: %v, %+v", err, v)
	}
	for _, in := range []string{`{"x":3,"y":1}`, `{"x":3} {"x":4}`, `{"x":`, ``} {
		if err := DecodeStrict([]byte(in), &v); err == nil {
			t.Errorf("DecodeStrict(%q) accepted", in)
		}
	}
}

func TestParse(t *testing.T) {
	for _, c := range []struct {
		in    string
		lines []string
		size  int64
		torn  bool
		err   string
	}{
		{in: ""},
		{in: "a\nb\n", lines: []string{"a", "b"}, size: 4},
		{in: "a\nb", lines: []string{"a"}, size: 2, torn: true},
		{in: "partial", torn: true},
		{in: "a\n\nb\n", err: "line 2 is blank"},
		{in: "\n", err: "line 1 is blank"},
	} {
		got, err := Parse([]byte(c.in))
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("Parse(%q) error = %v, want %q", c.in, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		var lines []string
		for _, l := range got.Lines {
			lines = append(lines, string(l))
		}
		if !reflect.DeepEqual(lines, c.lines) || got.Size != c.size || got.Torn != c.torn {
			t.Errorf("Parse(%q) = %q size %d torn %v, want %q size %d torn %v",
				c.in, lines, got.Size, got.Torn, c.lines, c.size, c.torn)
		}
	}
}

// FuzzParse: Parse never panics, salvages exactly the complete lines
// before a torn tail, and names the line of every error. The committed
// corpus (testdata/fuzz/FuzzParse) seeds the crash shapes: an empty
// file, a torn header, a torn last line, a blank interior line and a
// missing trailing newline.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Parse(data)
		parts := bytes.Split(data, []byte("\n"))
		complete, tail := parts[:len(parts)-1], parts[len(parts)-1]
		for i, l := range complete {
			if len(l) == 0 {
				want := fmt.Sprintf("line %d", i+1)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("blank %s: error %v does not name it", want, err)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("Parse failed without a blank line: %v", err)
		}
		if len(got.Lines) != len(complete) {
			t.Fatalf("salvaged %d lines, want %d", len(got.Lines), len(complete))
		}
		for i := range complete {
			if !bytes.Equal(got.Lines[i], complete[i]) {
				t.Fatalf("line %d = %q, want %q", i+1, got.Lines[i], complete[i])
			}
		}
		if got.Size != int64(len(data)-len(tail)) || got.Torn != (len(tail) > 0) {
			t.Fatalf("size %d torn %v, want %d %v", got.Size, got.Torn, len(data)-len(tail), len(tail) > 0)
		}
	})
}

// TestResumeTruncatesTornTail: a writer resuming after the salvaged
// lines cuts the torn tail before its first line, so the new line does
// not continue the torn one; a reader never modifies the file.
func TestResumeTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("{\"x\":1}\n{\"x\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	log, err := Parse(data)
	if err != nil || !log.Torn {
		t.Fatalf("Parse: %+v, %v", log, err)
	}
	w, err := Resume(path, log.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(plain{X: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "{\"x\":1}\n{\"x\":2}\n" {
		t.Fatalf("journal after resume = %q", got)
	}

	if _, err := Resume(path, 1<<20); err == nil {
		t.Fatal("Resume past the end of the file succeeded")
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := Create(path); err == nil {
		t.Fatal("Create over an existing file succeeded")
	}
}

// TestWriteFileAtomic: success replaces the file and leaves no temp
// litter; a failing write leaves the old file intact, also litter-free.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.json")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := WriteFileAtomic(path, write("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, write("new")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("write error = %v, want boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("file holds %q after a failed replace, want %q", got, "new")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only index.json", len(entries))
	}
}
