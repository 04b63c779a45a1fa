package model

import (
	"bytes"
	"math"
	"testing"

	"ft2/internal/numerics"
)

// TestSnapshotWirePrefixViewCompacts encodes a stride-sharing Prefix view
// and checks the decoder gets back a packed, self-owned snapshot whose KV
// rows are bitwise the parent's first rows per head — the stride-aware path
// the serving prefix cache depends on.
func TestSnapshotWirePrefixViewCompacts(t *testing.T) {
	cfg, err := ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, 7, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{3, 1, 4, 1, 5, 9, 2, 6}
	tok := m.Prefill(prompt)
	for i := 0; i < 4; i++ {
		tok = m.DecodeStep(tok)
	}
	full := &Snapshot{}
	m.Checkpoint(full)

	const rows = 5
	view := full.Prefix(rows)
	dec, n, err := DecodeSnapshot(AppendSnapshot(nil, view))
	if err != nil {
		t.Fatal(err)
	}
	if n != snapWireHeader+dec.blocks*2*rows*dec.hidden*4 {
		t.Fatalf("consumed %d bytes", n)
	}
	if dec.rows != rows || dec.pitch != rows || dec.nextStep != 0 {
		t.Fatalf("decoded view: rows %d pitch %d nextStep %d", dec.rows, dec.pitch, dec.nextStep)
	}
	d := full.headDim
	pitch, heads := full.pitch, full.hidden/d
	for b := 0; b < full.blocks; b++ {
		for h := 0; h < heads; h++ {
			l := 2*b*heads + h // block b's keys, head h
			want := full.buf[l*pitch*d : l*pitch*d+rows*d]
			got := dec.buf[l*rows*d : (l+1)*rows*d]
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("block %d head %d k row mismatch at %d", b, h, i)
				}
			}
		}
	}

	// A compacted view must be usable as a chunked-prefill seed.
	m2, err := New(cfg, 7, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	m2.BeginPrefill(len(prompt))
	m2.st.ResumePrefix(dec)
	tok2, done := m2.PrefillChunk(prompt[rows:])
	if !done {
		t.Fatal("prefill not done after final chunk")
	}
	m3, err := New(cfg, 7, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	if tok3 := m3.Prefill(prompt); tok2 != tok3 {
		t.Fatalf("seeded prefill token %d != direct %d", tok2, tok3)
	}
}

// TestSnapshotWireFullRoundTrip checks a restorable snapshot survives the
// codec with identical bookkeeping and payload bytes.
func TestSnapshotWireFullRoundTrip(t *testing.T) {
	cfg, err := ConfigByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, 11, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	tok := m.Prefill([]int{10, 20, 30, 40})
	for i := 0; i < 3; i++ {
		tok = m.DecodeStep(tok)
	}
	snap := &Snapshot{}
	m.Checkpoint(snap)
	enc := AppendSnapshot(nil, snap)
	dec, n, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !bytes.Equal(AppendSnapshot(nil, dec), enc) {
		t.Fatal("re-encode not bit-identical")
	}
	if dec.ArchFingerprint() != cfg.ArchFingerprint() {
		t.Fatal("fingerprint mismatch against source config")
	}
}

// TestSnapshotWireMatchesPerElementEncoder pins the payload bytes to the
// per-element encoder the codec started with (four appended bytes per float),
// appending after existing bytes with and without spare capacity, and the
// decoder to the same float bits (NaN included) through a re-encode.
func TestSnapshotWireMatchesPerElementEncoder(t *testing.T) {
	cfg, err := ConfigByName("llama2-7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, 5, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	tok := m.Prefill([]int{2, 7, 1, 8, 2, 8})
	m.DecodeStep(tok)
	snap := &Snapshot{}
	m.Checkpoint(snap)
	heads := snap.hidden / snap.headDim
	snap.buf[1] = float32(math.NaN())                                 // block 0's keys
	snap.buf[heads*snap.pitch*snap.headDim+2] = float32(math.Inf(-1)) // block 0's values

	prefix := []byte("hdr")
	want := append([]byte(nil), prefix...)
	want = append(want, AppendSnapshot(nil, snap)[:snapWireHeader]...)
	d, pitch := snap.headDim, snap.pitch
	for b := 0; b < snap.blocks; b++ {
		for _, kv := range [][]float32{snap.buf[2*b*heads*pitch*d:], snap.buf[(2*b+1)*heads*pitch*d:]} {
			for h := 0; h < heads; h++ {
				for _, f := range kv[h*pitch*d : h*pitch*d+snap.rows*d] {
					v := math.Float32bits(f)
					want = append(want, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
				}
			}
		}
	}
	for _, spare := range []int{0, 7, len(want)} {
		dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
		if got := AppendSnapshot(dst, snap); !bytes.Equal(got, want) {
			t.Fatalf("spare %d: encoding differs from the per-element encoder", spare)
		}
	}
	dec, _, err := DecodeSnapshot(want[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(AppendSnapshot(nil, dec), want[len(prefix):]) {
		t.Fatal("decoded snapshot does not re-encode to the same bytes")
	}
}

// TestViewEncodesLikeCheckpoint holds a View of the live state — KV slabs at
// stride the state's pitch, no copy — to a Checkpoint copy at every row count
// from 1 to MaxSeq: the same wire bytes, and a Restore from either continues
// the generation identically. The prefill reserves its one row and each
// decode row past the pitch doubles it, so the views are taken at pitch 1,
// 2, 4, … MaxSeq; the first view at each pitch, still reading the slabs it
// was taken over, encodes as it did through every later move.
func TestViewEncodesLikeCheckpoint(t *testing.T) {
	cfg, err := ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, 7, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	var view, snap Snapshot
	var earlier []Snapshot // the first view at each pitch, sharing its headers
	var earlierBytes [][]byte
	tok := m.Prefill([]int{42})
	for rows := 1; ; rows++ {
		m.State().View(&view)
		m.Checkpoint(&snap)
		pitch := 1
		for pitch < rows {
			pitch *= 2
		}
		pitch = min(pitch, cfg.MaxSeq)
		if view.Rows() != rows || view.pitch != pitch {
			t.Fatalf("view rows %d pitch %d, want %d and %d", view.Rows(), view.pitch, rows, pitch)
		}
		if len(earlier) == 0 || earlier[len(earlier)-1].pitch != pitch {
			earlier = append(earlier, view)
			earlierBytes = append(earlierBytes, AppendSnapshot(nil, &view))
		}
		for i := range earlier {
			if !bytes.Equal(AppendSnapshot(nil, &earlier[i]), earlierBytes[i]) {
				t.Fatalf("%d rows: the view taken at pitch %d no longer encodes as it did", rows, earlier[i].pitch)
			}
		}
		if !bytes.Equal(AppendSnapshot(nil, &view), AppendSnapshot(nil, &snap)) {
			t.Fatalf("%d rows: view encodes differently from a Checkpoint copy", rows)
		}
		if rows == cfg.MaxSeq {
			break
		}
		tok = m.DecodeStep(tok)
	}

	// Restore from a mid-sequence view and from a copy: same continuation.
	m2, err := New(cfg, 7, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	tok = m2.Prefill([]int{5, 6, 7})
	for i := 0; i < 70; i++ {
		tok = m2.DecodeStep(tok)
	}
	m2.State().View(&view)
	m2.Checkpoint(&snap)
	for _, src := range []*Snapshot{&view, &snap} {
		m3, err := New(cfg, 7, numerics.FP16)
		if err != nil {
			t.Fatal(err)
		}
		a, b := m3.Restore(src), src.LastToken()
		for i := 0; i < 4; i++ {
			a, b = m3.DecodeStep(a), m2.DecodeStep(b)
			if a != b {
				t.Fatalf("restored continuation diverged at step %d", i)
			}
		}
		m2.Restore(&snap) // rewind the reference for the next source
	}
}
