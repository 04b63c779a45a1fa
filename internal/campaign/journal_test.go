package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ft2/internal/model"
	"ft2/internal/protect"
)

func testOutcome(kind model.LayerKind, sdc bool, oob, nan int) trialOutcome {
	return trialOutcome{kind: kind, sdc: sdc, corr: protect.CorrectionStats{OutOfBound: oob, NaN: nan}}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	const fp = "cafebabe00000000"
	if err := j.recordSpec(fp, "model=x dataset=y"); err != nil {
		t.Fatal(err)
	}
	want := map[int]trialOutcome{
		0: testOutcome(model.VProj, true, 3, 1),
		2: testOutcome(model.FC2, false, 0, 0),
		5: testOutcome(model.KProj, false, 7, 0),
	}
	for idx, o := range want {
		if err := j.recordOutcome(fp, idx, o); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.recordFailure(fp, &TrialError{Trial: 3, Kind: TrialPanic, Err: os.ErrInvalid}); err != nil {
		t.Fatal(err)
	}
	// An outcome for a different spec must not leak into fp's replay set.
	if err := j.recordOutcome("other", 1, testOutcome(model.QProj, true, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.completed(fp, 10)
	if len(got) != len(want) {
		t.Fatalf("replayed %d outcomes, want %d", len(got), len(want))
	}
	for idx, o := range want {
		if got[idx] != o {
			t.Errorf("trial %d: got %+v, want %+v", idx, got[idx], o)
		}
	}
	// Failed trials are logged but never replayed (they re-run on resume).
	if _, ok := got[3]; ok {
		t.Error("failed trial must not be replayable")
	}
	// Replay respects the campaign's trial count.
	if n := len(j2.completed(fp, 3)); n != 2 {
		t.Errorf("completed(fp, 3) = %d outcomes, want 2 (indices 0 and 2)", n)
	}
	if n := j2.CompletedTrials("other"); n != 1 {
		t.Errorf("other fp holds %d, want 1", n)
	}
}

func TestJournalTruncateWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.recordOutcome("fp", 0, testOutcome(model.VProj, true, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-opening without resume starts from scratch.
	j2, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := j2.CompletedTrials("fp"); n != 0 {
		t.Errorf("non-resume open replays %d outcomes, want 0", n)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 0 {
		t.Errorf("non-resume open must truncate the file, %d bytes left", len(b))
	}
}

func TestJournalLinesAreValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.recordOutcome("fp", 4, testOutcome(model.DownProj, true, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(string(b))
	var e journalEntry
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("journal line is not valid JSON: %v\n%s", err, line)
	}
	if e.Type != "ok" || e.Trial != 4 || e.KindName != "DOWN_PROJ" || !e.SDC || e.OOB != 1 || e.NaN != 2 {
		t.Errorf("entry round-trip mismatch: %+v", e)
	}
}

func TestLatestEntryWinsOnDuplicate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.recordOutcome("fp", 0, testOutcome(model.VProj, false, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.recordOutcome("fp", 0, testOutcome(model.VProj, true, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.completed("fp", 1)
	if o := got[0]; !o.sdc || o.corr.OutOfBound != 2 {
		t.Errorf("latest duplicate must win, got %+v", o)
	}
}

// FuzzJournalLoad feeds arbitrary bytes to Journal.load: it never panics,
// indexes only lines a campaign could have written (an "ok" line with a
// fingerprint, a trial index, a layer kind of the model and non-negative
// correction counts), and a valid line appended after the bytes replays as
// the outcome it records.
func FuzzJournalLoad(f *testing.F) {
	f.Add([]byte(`{"type":"ok","fp":"fp","trial":1,"kind":2,"sdc":true,"oob":3,"nan":1}`+"\n"), uint16(4), uint8(1), true, uint8(2), uint8(0))
	f.Add([]byte(`{"type":"ok","fp":"fp","trial":1,"ki`), uint16(1), uint8(8), false, uint8(0), uint8(0))
	f.Add([]byte(`{"type":"ok","fp":"fp","trial":0,"kind":99}`+"\n"+`{"type":"ok","fp":"fp","trial":2,"kind":-1}`), uint16(0), uint8(0), false, uint8(0), uint8(5))
	f.Add([]byte(`{"type":"ok","fp":"fp","trial":3,"oob":-2}`+"\n"+`{"type":"ok","fp":"x","trial":3,"nan":-1}`+"\n"), uint16(3), uint8(3), true, uint8(9), uint8(9))
	f.Add([]byte(`{"type":"spec","fp":"fp","trial":-1,"desc":"d"}`+"\n"+`{"type":"fail","fp":"fp","trial":0,"err":"x"}`), uint16(0), uint8(5), false, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, trial uint16, kind uint8, sdc bool, oob, nan uint8) {
		j := &Journal{index: map[string]map[int]journalEntry{}}
		if err := j.load(strings.NewReader(string(data))); err != nil {
			return // a line past the scanner's limit; nothing indexed is replayed
		}
		for fp, m := range j.index {
			for idx, e := range m {
				if fp == "" || idx < 0 || e.Kind < 0 || e.Kind >= model.NumLayerKinds || e.OOB < 0 || e.NaN < 0 {
					t.Fatalf("indexed an entry no campaign writes: %q trial %d %+v", fp, idx, e)
				}
			}
		}

		want := testOutcome(model.LayerKind(int(kind)%model.NumLayerKinds), sdc, int(oob), int(nan))
		line, err := json.Marshal(journalEntry{
			Type: "ok", FP: "fp", Trial: int(trial),
			Kind: int(want.kind), KindName: want.kind.String(), SDC: want.sdc,
			OOB: want.corr.OutOfBound, NaN: want.corr.NaN,
		})
		if err != nil {
			t.Fatal(err)
		}
		j = &Journal{index: map[string]map[int]journalEntry{}}
		in := string(data) + "\n" + string(line) + "\n"
		if err := j.load(strings.NewReader(in)); err != nil {
			return
		}
		if got, ok := j.completed("fp", int(trial)+1)[int(trial)]; !ok || got != want {
			t.Fatalf("appended line replays as %+v (found %v), want %+v", got, ok, want)
		}
	})
}
