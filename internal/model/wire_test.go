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
	if dec.rows != rows || dec.stride != rows || dec.nextStep != 0 {
		t.Fatalf("decoded view: rows %d stride %d nextStep %d", dec.rows, dec.stride, dec.nextStep)
	}
	d := full.headDim
	stride := full.srcStride()
	for b := 0; b < full.blocks; b++ {
		for h := 0; h < full.hidden/d; h++ {
			want := full.k[b][h*stride*d : h*stride*d+rows*d]
			got := dec.k[b][h*rows*d : (h+1)*rows*d]
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
	m2.ResumePrefillPrefix(dec)
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
	snap.k[0][1] = float32(math.NaN())
	snap.v[0][2] = float32(math.Inf(-1))

	prefix := []byte("hdr")
	want := append([]byte(nil), prefix...)
	want = append(want, AppendSnapshot(nil, snap)[:snapWireHeader]...)
	d, stride := snap.headDim, snap.srcStride()
	for b := 0; b < snap.blocks; b++ {
		for _, kv := range [][]float32{snap.k[b], snap.v[b]} {
			for h := 0; h < snap.hidden/d; h++ {
				for _, f := range kv[h*stride*d : h*stride*d+snap.rows*d] {
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
