package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"

	"dismem"
	"dismem/internal/journal"
	"dismem/internal/metrics"
	"dismem/internal/sim"
	"dismem/internal/workload"
)

// manifestFormat names the journal layout. Bump it on any incompatible
// change to the header or line shapes.
const manifestFormat = "dmsweep-manifest/1"

// errNotCacheable marks a unit whose cell cannot be described by data
// alone (custom Scheduler factory or StopWhen predicate); such units
// always run live and are never journaled.
var errNotCacheable = errors.New("sweep: cell holds live code; unit not cacheable")

// UnitResult is the durable outcome of one (cell, seed) unit: exactly
// the per-seed quantities aggregate() consumes, so a journaled unit and
// a live run feed the reduction identically. Records and JainWait are
// populated only for seed 0 of retain-mode cells (the only seed whose
// records the tables use).
type UnitResult struct {
	Report   *metrics.Report     `json:"report"`
	Stopped  bool                `json:"stopped,omitempty"`
	Records  []metrics.JobRecord `json:"records,omitempty"`
	JainWait float64             `json:"jainWait,omitempty"`
}

// manifestHeader is the journal's first line. Scale and schema are
// pinned so a resume against different options (or a rebuilt binary
// with a drifted result schema) fails loudly instead of silently
// merging incompatible units.
type manifestHeader struct {
	Format string `json:"format"`
	Schema string `json:"schema"`
	Jobs   int    `json:"jobs"`
	Seeds  int    `json:"seeds"`
}

// manifestLine is one completed unit.
type manifestLine struct {
	Key    string      `json:"key"`
	Cell   string      `json:"cell"` // informational label, not part of identity
	Seed   int         `json:"seed"`
	Result *UnitResult `json:"result"`
}

// Manifest is an append-only JSONL journal of completed sweep units.
// One header line pins the format, result schema, and sweep scale;
// every further line is a finished (cell, seed) unit keyed by a hash
// of its full configuration. Writers append one fsynced line per unit,
// so a crash or signal loses at most the torn trailing line — which a
// resume drops and truncates before appending. Safe for concurrent use
// by the worker pool.
type Manifest struct {
	mu   sync.Mutex
	w    *journal.Writer
	done map[string]*UnitResult
}

// OpenManifest opens (resume=true) or creates (resume=false) the unit
// journal at path for a sweep at scale o. Creating fails if a non-empty
// journal already exists — pass resume to continue it, or remove the
// file to start over. Resuming validates the header against the current
// binary and options and loads every intact unit line; only a torn
// final line (a write cut by a crash) is tolerated and dropped.
func OpenManifest(path string, o Options, resume bool) (*Manifest, error) {
	o = o.withDefaults()
	hdr := manifestHeader{
		Format: manifestFormat,
		Schema: manifestSchema(),
		Jobs:   o.Jobs,
		Seeds:  o.Seeds,
	}
	m := &Manifest{done: make(map[string]*UnitResult)}
	var size int64
	if resume {
		var err error
		if size, err = m.load(path, hdr); err != nil {
			return nil, err
		}
	} else if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return nil, fmt.Errorf("sweep: manifest %s already exists; resume it or remove it first", path)
	}
	// Appends resume after the salvaged lines; a torn tail, or a journal
	// with no intact header, is truncated first.
	w, err := journal.Resume(path, size)
	if err != nil {
		return nil, fmt.Errorf("sweep: open manifest: %w", err)
	}
	m.w = w
	if size == 0 {
		if err := m.appendLocked(hdr); err != nil {
			w.Close()
			return nil, err
		}
	}
	return m, nil
}

// load reads an existing journal, validates it against want and
// returns the byte length of its intact lines (0 when there is no
// intact header to keep).
func (m *Manifest) load(path string, want manifestHeader) (int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil // nothing done yet; resume degenerates to a fresh sweep
	}
	if err != nil {
		return 0, fmt.Errorf("sweep: read manifest: %w", err)
	}
	jl, err := journal.Parse(data)
	if err != nil {
		return 0, fmt.Errorf("sweep: manifest %s: %w", path, err)
	}
	if len(jl.Lines) == 0 {
		return 0, nil // empty, or the journal died mid-header
	}
	var hdr manifestHeader
	if err := journal.DecodeStrict(jl.Lines[0], &hdr); err != nil {
		return 0, fmt.Errorf("sweep: manifest %s: bad header: %w", path, err)
	}
	if hdr.Format != want.Format {
		return 0, fmt.Errorf("sweep: manifest %s: format %q, want %q", path, hdr.Format, want.Format)
	}
	if hdr.Schema != want.Schema {
		return 0, fmt.Errorf("sweep: manifest %s: result schema mismatch (journal written by a different build)", path)
	}
	if hdr.Jobs != want.Jobs || hdr.Seeds != want.Seeds {
		return 0, fmt.Errorf("sweep: manifest %s: recorded at jobs=%d seeds=%d, current sweep wants jobs=%d seeds=%d",
			path, hdr.Jobs, hdr.Seeds, want.Jobs, want.Seeds)
	}
	for i, line := range jl.Lines[1:] {
		var ml manifestLine
		if err := journal.DecodeStrict(line, &ml); err != nil {
			return 0, fmt.Errorf("sweep: manifest %s: corrupt unit line %d: %w", path, i+2, err)
		}
		if ml.Key == "" || ml.Result == nil || ml.Result.Report == nil {
			return 0, fmt.Errorf("sweep: manifest %s: incomplete unit line %d", path, i+2)
		}
		m.done[ml.Key] = ml.Result
	}
	return jl.Size, nil
}

// Units reports how many completed units the journal holds.
func (m *Manifest) Units() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.done)
}

// lookup returns the journaled result for key, if any.
func (m *Manifest) lookup(key string) (*UnitResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.done[key]
	return r, ok
}

// record journals one completed unit: a single appended line followed
// by fsync, so the entry is durable before the worker moves on.
// Already-recorded keys (the same cell spec appearing in two tables)
// are kept once.
func (m *Manifest) record(key, cell string, seed int, res *UnitResult) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.done[key]; ok {
		return nil
	}
	if err := m.appendLocked(manifestLine{Key: key, Cell: cell, Seed: seed, Result: res}); err != nil {
		return err
	}
	m.done[key] = res
	return nil
}

func (m *Manifest) appendLocked(v any) error {
	if err := m.w.Append(v); err != nil {
		return fmt.Errorf("sweep: append manifest: %w", err)
	}
	return nil
}

// Close releases the journal file. The journal itself stays on disk:
// it is the resume state.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w == nil {
		return nil
	}
	err := m.w.Close()
	m.w = nil
	return err
}

// --- unit identity ------------------------------------------------------

// unitSpec is the canonical, data-only description of one (cell, seed)
// unit. Its JSON encoding (struct order, sorted map keys) is the hash
// preimage for the unit key, so two cells with identical effective
// configuration share journal entries.
type unitSpec struct {
	Format     string                  `json:"format"`
	Machine    dismem.MachineConfig    `json:"machine"`
	Policy     string                  `json:"policy"`
	Model      string                  `json:"model"`
	Gen        workload.GenConfigState `json:"gen"`
	StrictKill bool                    `json:"strictKill,omitempty"`
	Failures   *sim.FailureConfig      `json:"failures,omitempty"`
	Scenario   string                  `json:"scenario,omitempty"`
	Bounded    bool                    `json:"bounded,omitempty"`
	Jobs       int                     `json:"jobs"`
	Seed       int                     `json:"seed"`
}

// unitSpecJSON builds the canonical configuration JSON for seed s of
// the cell — the identity preimage shared by the manifest key and the
// run-store record — or errNotCacheable when the cell holds live code
// (Scheduler factory, StopWhen predicate, Series or Trace sink
// factory) or a workload distribution with no serializable state.
func (c Cell) unitSpecJSON(o Options, mc dismem.MachineConfig, s int) ([]byte, error) {
	if c.Scheduler != nil || c.StopWhen != nil || c.Series != nil || c.Trace != nil {
		return nil, errNotCacheable
	}
	gen := dismem.GenConfig{}
	if c.Gen != nil {
		gen = *c.Gen
	} else {
		gen = defaultGen(o.Jobs, uint64(s+1), mc)
	}
	gen.Jobs = o.Jobs
	gen.Seed = uint64(s + 1)
	gs, err := workload.GenConfigToState(gen)
	if err != nil {
		return nil, fmt.Errorf("%w (%v)", errNotCacheable, err)
	}
	spec := unitSpec{
		Format:     manifestFormat,
		Machine:    mc,
		Policy:     c.Policy,
		Model:      c.Model,
		Gen:        gs,
		StrictKill: c.StrictKill,
		Bounded:    c.Bounded,
		Jobs:       o.Jobs,
		Seed:       s,
	}
	if c.Failures != nil {
		fc := *c.Failures
		fc.Seed += uint64(s)
		spec.Failures = &fc
	}
	if c.Scenario != nil {
		spec.Scenario = c.Scenario.String()
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("%w (%v)", errNotCacheable, err)
	}
	return b, nil
}

// unitKey derives the journal key for seed s of the cell: the hash of
// its canonical spec JSON.
func (c Cell) unitKey(o Options, mc dismem.MachineConfig, s int) (string, error) {
	b, err := c.unitSpecJSON(o, mc, s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// cellLabel is the human-readable journal annotation for a cell.
func (c Cell) cellLabel(mc dismem.MachineConfig) string {
	model := c.Model
	if model == "" {
		model = dismem.DefaultModel
	}
	return fmt.Sprintf("%s/%s r%dx%d", c.Policy, model, mc.Racks, mc.NodesPerRack)
}

// --- schema fingerprint -------------------------------------------------

// manifestSchema fingerprints the manifestLine type (and transitively
// UnitResult, metrics.Report, …) so a journal written by a build with a
// different result layout is rejected instead of mis-decoded.
func manifestSchema() string {
	sum := journal.Fingerprint(reflect.TypeOf(manifestLine{}))
	return hex.EncodeToString(sum[:8])
}
