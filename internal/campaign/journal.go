package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"sync"

	"ft2/internal/model"
)

// Fingerprint deterministically identifies the outcome-relevant portion of a
// Spec: two specs with equal fingerprints produce identical per-trial
// outcomes (per-trial seeding makes outcomes order- and worker-count-
// independent), so a journal entry keyed by (fingerprint, trial index) can
// be replayed safely. Execution knobs that cannot change an outcome —
// Workers, TrialTimeout, TrialRetries, Journal, TrialHook, NoFork,
// CheckpointStride (forked and unforked trials are bit-identical) — are
// excluded.
func (s Spec) Fingerprint() string {
	h := fnv.New64a()
	// dmr=false is what the removed DMR switch always wrote; DMR now comes
	// through Policy. Kept literally so existing journals keep their
	// fingerprints.
	fmt.Fprintf(h, "model=%s mseed=%d dtype=%v fault=%v method=%v window=%v trials=%d base=%d dmr=false gpu=%s pw=%g",
		s.ModelCfg.Name, s.ModelSeed, s.DType, s.Fault, s.Method, s.Window,
		s.Trials, s.BaseSeed, s.GPU.Name, s.PrefillWeight)
	fmt.Fprintf(h, " ft2=%+v", s.FT2Opts)
	// Target mix and policy are hashed only when set, so journals written
	// before these knobs existed keep their fingerprints.
	if !s.Targets.IsZero() {
		fmt.Fprintf(h, " targets=%g/%g", s.Targets.Weight, s.Targets.KV)
	}
	if s.Policy != nil {
		// Policy.String is a canonical sorted kind→tier listing.
		fmt.Fprintf(h, " policy=%s", s.Policy)
	}
	if s.Dataset != nil {
		fmt.Fprintf(h, " ds=%s inputs=%d gen=%d", s.Dataset.Name, len(s.Dataset.Inputs), s.Dataset.GenTokens)
	}
	if s.CustomCoverage != nil {
		pts := make([]string, 0, len(s.CustomCoverage))
		for p, on := range s.CustomCoverage {
			if on {
				pts = append(pts, fmt.Sprintf("%v/%v", p.Kind, p.Site))
			}
		}
		sort.Strings(pts)
		fmt.Fprintf(h, " cov=%v", pts)
	}
	if s.OfflineBounds != nil {
		// Save writes a sorted canonical listing, so equal stores hash equal.
		if err := s.OfflineBounds.Save(h); err != nil {
			fmt.Fprintf(h, " bounds-err=%v", err)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// journalEntry is one JSONL line of the campaign journal. Type "ok" records
// a classified outcome, "fail" a trial that exhausted its retry budget, and
// "spec" a human-readable header appended when a campaign starts.
type journalEntry struct {
	Type  string `json:"type"`
	FP    string `json:"fp"`
	Trial int    `json:"trial"`
	// ok fields
	Kind     int    `json:"kind,omitempty"`
	KindName string `json:"kind_name,omitempty"`
	SDC      bool   `json:"sdc,omitempty"`
	OOB      int    `json:"oob,omitempty"`
	NaN      int    `json:"nan,omitempty"`
	// fail fields
	ErrKind string `json:"err_kind,omitempty"`
	Err     string `json:"err,omitempty"`
	// spec fields
	Desc string `json:"desc,omitempty"`
}

// Journal is an append-only JSONL checkpoint of classified trial outcomes,
// keyed by spec fingerprint + trial index. One journal file can back many
// campaign cells (each cell has a distinct fingerprint). Writes go straight
// to the file descriptor — no userspace buffering — so every recorded
// outcome survives SIGKILL; a torn final line from a crash is skipped on
// reload. Failed trials are logged for forensics but are re-executed on
// resume (they may have been transient).
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	index map[string]map[int]journalEntry // fingerprint → trial → last "ok" entry
}

// OpenJournal opens (or creates) the journal at path. With resume set, any
// existing entries are loaded for replay and new entries are appended;
// without it the file is truncated and the campaign starts from scratch.
func OpenJournal(path string, resume bool) (*Journal, error) {
	j := &Journal{path: path, index: make(map[string]map[int]journalEntry)}
	flags := os.O_CREATE | os.O_RDWR
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	j.f = f
	if resume {
		if err := j.load(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// load indexes the "ok" entries of an existing journal. Lines that fail to
// parse (e.g. a torn write from a crash), and lines no campaign writes — a
// layer kind outside the model's or a negative correction count — are
// skipped, not fatal: losing one checkpoint only costs re-running that trial.
func (j *Journal) load(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue
		}
		if e.Type != "ok" || e.FP == "" || e.Trial < 0 ||
			e.Kind < 0 || e.Kind >= model.NumLayerKinds || e.OOB < 0 || e.NaN < 0 {
			continue
		}
		m := j.index[e.FP]
		if m == nil {
			m = make(map[int]journalEntry)
			j.index[e.FP] = m
		}
		m[e.Trial] = e
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("campaign: read journal %s: %w", j.path, err)
	}
	return nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// CompletedTrials returns how many classified outcomes the journal holds
// for the given spec fingerprint (for progress reporting).
func (j *Journal) CompletedTrials(fp string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.index[fp])
}

// completed returns the replayable outcomes for fp, restricted to trial
// indices below the campaign's trial count.
func (j *Journal) completed(fp string, trials int) map[int]trialOutcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[int]trialOutcome, len(j.index[fp]))
	for idx, e := range j.index[fp] {
		if idx >= trials {
			continue
		}
		o := trialOutcome{kind: model.LayerKind(e.Kind), sdc: e.SDC}
		o.corr.OutOfBound = e.OOB
		o.corr.NaN = e.NaN
		out[idx] = o
	}
	return out
}

// appendEntry marshals and writes one line.
func (j *Journal) appendEntry(e journalEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("campaign: append journal %s: %w", j.path, err)
	}
	if e.Type == "ok" {
		m := j.index[e.FP]
		if m == nil {
			m = make(map[int]journalEntry)
			j.index[e.FP] = m
		}
		m[e.Trial] = e
	}
	return nil
}

// recordSpec appends a human-readable campaign header.
func (j *Journal) recordSpec(fp, desc string) error {
	return j.appendEntry(journalEntry{Type: "spec", FP: fp, Trial: -1, Desc: desc})
}

// recordOutcome checkpoints one classified trial.
func (j *Journal) recordOutcome(fp string, idx int, o trialOutcome) error {
	return j.appendEntry(journalEntry{
		Type: "ok", FP: fp, Trial: idx,
		Kind: int(o.kind), KindName: o.kind.String(), SDC: o.sdc,
		OOB: o.corr.OutOfBound, NaN: o.corr.NaN,
	})
}

// recordFailure logs a trial that exhausted its retry budget.
func (j *Journal) recordFailure(fp string, te *TrialError) error {
	return j.appendEntry(journalEntry{
		Type: "fail", FP: fp, Trial: te.Trial,
		ErrKind: te.Kind.String(), Err: fmt.Sprint(te.Err),
	})
}

// Sync flushes the journal to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Sync()
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
