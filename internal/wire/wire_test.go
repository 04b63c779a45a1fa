package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
)

// One small zoo model per family: the round-trip battery must cover every
// architecture the wire format can carry.
var familyModels = []string{"opt-2.7b-sim", "gptj-6b-sim", "qwen2-1.5b-sim"}

func testPrompt() []int {
	p := make([]int, 12)
	for i := range p {
		p[i] = (i*37 + 5) % 384
	}
	return p
}

// captureSession runs a protected generation a few steps past prefill and
// returns the model config, the live model (positioned mid-generation), its
// checkpoint, and the captured fork state.
func captureSession(t *testing.T, name string, steps int) (model.Config, *model.Model, *model.Snapshot, core.ForkState) {
	t.Helper()
	cfg, err := model.ConfigByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(cfg, 7, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	f := core.New(m, core.Defaults())
	f.Reset()
	f.Install()
	tok := m.Prefill(testPrompt())
	for i := 0; i < steps; i++ {
		tok = m.DecodeStep(tok)
	}
	snap := &model.Snapshot{}
	m.Checkpoint(snap)
	return cfg, m, snap, f.CaptureForkState()
}

func encodeSession(t *testing.T, name string) ([]byte, model.Config) {
	t.Helper()
	cfg, _, snap, fk := captureSession(t, name, 4)
	blob, err := EncodeSession(snap, &fk)
	if err != nil {
		t.Fatal(err)
	}
	return blob, cfg
}

// TestRoundTripBitIdentity is the core contract: for every model family,
// encode→decode→encode reproduces the same bytes, the decoded fork state
// matches field for field, and a fresh model restored from the decoded
// snapshot continues the generation bit-identically to the original.
func TestRoundTripBitIdentity(t *testing.T) {
	const extra = 12
	for _, name := range familyModels {
		t.Run(name, func(t *testing.T) {
			cfg, m, snap, fk := captureSession(t, name, 4)
			blob, err := EncodeSession(snap, &fk)
			if err != nil {
				t.Fatal(err)
			}
			snap2, fk2, err := DecodeSession(blob)
			if err != nil {
				t.Fatal(err)
			}
			if fk2 == nil {
				t.Fatal("fork state dropped in round trip")
			}
			if fk2.FirstTokenNaN != fk.FirstTokenNaN || fk2.Stats != fk.Stats || fk2.ByKind != fk.ByKind {
				t.Fatalf("fork counters changed: %+v != %+v", fk2, fk)
			}
			got, want := fk2.Bounds.SortedEntries(), fk.Bounds.SortedEntries()
			if len(got) != len(want) {
				t.Fatalf("bounds entries %d != %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("bounds entry %d changed: %+v != %+v", i, got[i], want[i])
				}
			}
			blob2, err := EncodeSession(snap2, fk2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatal("re-encoding the decoded session is not bit-identical")
			}

			// Continue the original generation, then replay it from the
			// decoded snapshot on a fresh protected model.
			tok := snap.LastToken()
			var ref []int
			for i := 0; i < extra; i++ {
				tok = m.DecodeStep(tok)
				ref = append(ref, tok)
			}
			m2, err := model.New(cfg, 7, numerics.FP16)
			if err != nil {
				t.Fatal(err)
			}
			f2 := core.New(m2, core.Defaults())
			f2.Bind(fk2)
			f2.Install()
			tok = m2.Restore(snap2)
			for i := 0; i < extra; i++ {
				tok = m2.DecodeStep(tok)
				if tok != ref[i] {
					t.Fatalf("restored continuation diverged at step %d: %d != %d", i, tok, ref[i])
				}
			}
		})
	}
}

// TestBareSessionRoundTrip checks the unprotected path: no fork state in,
// none out.
func TestBareSessionRoundTrip(t *testing.T) {
	_, _, snap, _ := captureSession(t, "qwen2-1.5b-sim", 3)
	blob, err := EncodeSession(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap2, fk, err := DecodeSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fk != nil {
		t.Fatal("bare session decoded with a fork state")
	}
	if snap2.NextStep() != snap.NextStep() || snap2.LastToken() != snap.LastToken() || snap2.Rows() != snap.Rows() {
		t.Fatalf("snapshot bookkeeping changed: step %d tok %d rows %d", snap2.NextStep(), snap2.LastToken(), snap2.Rows())
	}
}

func TestEmptySnapshotRejected(t *testing.T) {
	if _, err := EncodeSession(&model.Snapshot{}, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty snapshot: got %v, want ErrMalformed", err)
	}
	if _, err := EncodeSession(nil, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("nil snapshot: got %v, want ErrMalformed", err)
	}
}

// TestTruncation decodes every proper prefix of a valid blob: each must
// fail with a typed error and never panic.
func TestTruncation(t *testing.T) {
	blob, _ := encodeSession(t, "qwen2-1.5b-sim")
	for n := 0; n < len(blob); n++ {
		_, _, err := DecodeSession(blob[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrMalformed) &&
			!errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
			t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
		}
	}
}

// TestBitFlips flips one bit in every byte of a valid blob: the CRC (or an
// earlier header check) must reject every corruption.
func TestBitFlips(t *testing.T) {
	blob, _ := encodeSession(t, "qwen2-1.5b-sim")
	mut := make([]byte, len(blob))
	for i := 0; i < len(blob); i++ {
		copy(mut, blob)
		mut[i] ^= 1 << (i % 8)
		if _, _, err := DecodeSession(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", i)
		}
	}
}

func TestVersionBump(t *testing.T) {
	blob, _ := encodeSession(t, "qwen2-1.5b-sim")
	mut := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint16(mut[4:], Version+1)
	fixCRC(mut)
	if _, _, err := DecodeSession(mut); !errors.Is(err, ErrVersion) {
		t.Fatalf("version bump: got %v, want ErrVersion", err)
	}
}

func TestBadMagic(t *testing.T) {
	blob, _ := encodeSession(t, "qwen2-1.5b-sim")
	mut := append([]byte(nil), blob...)
	mut[0] = 'X'
	if _, _, err := DecodeSession(mut); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want ErrBadMagic", err)
	}
}

func TestTrailingGarbage(t *testing.T) {
	blob, _ := encodeSession(t, "qwen2-1.5b-sim")
	if _, _, err := DecodeSession(append(append([]byte(nil), blob...), 0)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing garbage: got %v, want ErrTruncated", err)
	}
}

// TestHeaderFingerprintLie rewrites the header fingerprint (CRC fixed up):
// the decoder must notice it disagrees with the payload's architecture.
func TestHeaderFingerprintLie(t *testing.T) {
	blob, _ := encodeSession(t, "qwen2-1.5b-sim")
	mut := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(mut[8:], 0xdeadbeef)
	fixCRC(mut)
	if _, _, err := DecodeSession(mut); !errors.Is(err, ErrMalformed) {
		t.Fatalf("fingerprint lie: got %v, want ErrMalformed", err)
	}
}

// TestForkStateBlockBound: a bounds entry at a block the snapshot's model
// does not have is malformed — a 14-byte entry must not size the dense
// bounds store.
func TestForkStateBlockBound(t *testing.T) {
	blob, cfg := encodeSession(t, "qwen2-1.5b-sim")
	for _, block := range []uint32{uint32(cfg.Blocks), 1 << 30} {
		if _, _, err := DecodeSession(withLastBoundsBlock(blob, block)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("bounds entry at block %d of %d: got %v, want ErrMalformed", block, cfg.Blocks, err)
		}
	}
}

// withLastBoundsBlock returns a copy of blob — a session encoded with a fork
// state holding bounds — whose last bounds entry sits at block (CRC fixed up).
func withLastBoundsBlock(blob []byte, block uint32) []byte {
	const entryBytes = 4 + 1 + 1 + 4 + 4
	mut := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(mut[len(mut)-4-entryBytes:], block)
	fixCRC(mut)
	return mut
}

// TestForkStateCannotSwitchProtectionOff: a fork state carrying a bound
// that is not finite or is inverted, or a counter that int reads negative,
// is malformed. Adopted, such a bound would clamp nothing (infinite) or
// every value (NaN, inverted) on the importing worker.
func TestForkStateCannotSwitchProtectionOff(t *testing.T) {
	_, _, snap, fk := captureSession(t, "qwen2-1.5b-sim", 4)
	blob, err := EncodeSession(snap, &fk)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range protectionOff(blob, &fk) {
		if _, _, err := DecodeSession(mut); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

// protectionOff returns copies of blob — a session encoded with fork state
// fk, which ends the payload — with a NaN, an infinite and an inverted bound
// in the last bounds entry, and with a first counter of 1<<63.
func protectionOff(blob []byte, fk *core.ForkState) map[string][]byte {
	fork, last := len(blob)-4-fk.WireSize(), len(blob)-4-8 // the last entry's lo, then hi
	edit := func(f func(mut []byte)) []byte {
		mut := slices.Clone(blob)
		f(mut)
		fixCRC(mut)
		return mut
	}
	bound := func(lo, hi float32) []byte {
		return edit(func(mut []byte) {
			binary.LittleEndian.PutUint32(mut[last:], math.Float32bits(lo))
			binary.LittleEndian.PutUint32(mut[last+4:], math.Float32bits(hi))
		})
	}
	return map[string][]byte{
		"NaN bound":      bound(float32(math.NaN()), 1),
		"infinite bound": bound(-1, float32(math.Inf(1))),
		"inverted bound": bound(1, -1),
		"counter 1<<63":  edit(func(mut []byte) { binary.LittleEndian.PutUint64(mut[fork:], 1<<63) }),
	}
}

// TestWrongFamily rejects adopting a blob captured from a different
// architecture before the payload is decoded.
func TestWrongFamily(t *testing.T) {
	blob, _ := encodeSession(t, "opt-2.7b-sim")
	other, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSessionFor(blob, other); !errors.Is(err, ErrArchMismatch) {
		t.Fatalf("wrong family: got %v, want ErrArchMismatch", err)
	}
	own, err := model.ConfigByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSessionFor(blob, own); err != nil {
		t.Fatalf("matching family rejected: %v", err)
	}
}

func TestInspect(t *testing.T) {
	blob, cfg := encodeSession(t, "gptj-6b-sim")
	h, err := Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != Version || !h.HasFork || h.Fingerprint != cfg.ArchFingerprint() {
		t.Fatalf("bad header %+v", h)
	}
	if h.PayloadLen != len(blob)-28 {
		t.Fatalf("payload length %d, blob %d", h.PayloadLen, len(blob))
	}
}

// FuzzDecodeSession is the never-panic property: any byte soup must come
// back as an error or a valid session, no panics, no unbounded allocation.
func FuzzDecodeSession(f *testing.F) {
	cfg, m, snap, fk := captureSessionF(f)
	blob, err := EncodeSession(snap, &fk)
	if err != nil {
		f.Fatal(err)
	}
	var view model.Snapshot // the live slabs, as a worker's export encodes them
	m.State().View(&view)
	viewBlob, err := EncodeSession(&view, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(viewBlob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Add(blob[:28])
	f.Add(withLastBoundsBlock(blob, 1<<30))
	for _, mut := range protectionOff(blob, &fk) {
		f.Add(mut)
	}
	// The largest legitimate blob: the session decoded on to MaxSeq rows.
	for tok, rows := snap.LastToken(), snap.Rows(); rows < cfg.MaxSeq; rows++ {
		tok = m.DecodeStep(tok)
	}
	var full model.Snapshot
	m.Checkpoint(&full)
	fullBlob, err := EncodeSession(&full, &fk)
	if err != nil || full.Rows() != cfg.MaxSeq {
		f.Fatalf("a %d-row session: %v", full.Rows(), err)
	}
	f.Add(fullBlob)
	f.Fuzz(func(t *testing.T, data []byte) {
		// What a worker of cfg decodes, accepted or not, allocates at most
		// decodeAllocBound.
		if n, bound := allocated(func() { DecodeSessionFor(data, cfg) }), decodeAllocBound(cfg, len(data)); n > bound {
			t.Fatalf("decoding a %d-byte blob allocated %d bytes, bound %d", len(data), n, bound)
		}
		snap, fk, err := DecodeSession(data)
		if err != nil {
			return
		}
		if err := snap.Compatible(cfg); err == nil {
			_ = snap.Rows()
		}
		if fk == nil {
			return
		}
		// An accepted fork state cannot switch protection off.
		for _, e := range fk.Bounds.SortedEntries() {
			if !e.Bounds.Valid() {
				t.Fatalf("accepted bounds [%g, %g] at %v", e.Bounds.Lo, e.Bounds.Hi, e.Key)
			}
		}
		counts := []int{fk.FirstTokenNaN, fk.Stats.OutOfBound, fk.Stats.NaN}
		for _, c := range fk.ByKind {
			counts = append(counts, c.OutOfBound, c.NaN)
		}
		if slices.Min(counts) < 0 {
			t.Fatalf("accepted a negative counter: %v", counts)
		}
	})
}

// decodeAllocBound is the most that decoding an n-byte session blob for cfg
// may allocate: 9/8 of n — the KV rows are copied once, and Go rounds an
// object up to its size class by at most 1/8 — plus a per-model constant for
// the fixed-size parts, the headers and a bounds store dense up to the
// model's last block. FuzzDecodeSession's seeds hold it from a 15-row session
// to a MaxSeq-row one; over every row count of a session, qwen2 and llama2
// allocate at most 3843 and 4356 bytes past n·9/8.
func decodeAllocBound(cfg model.Config, n int) uint64 {
	return uint64(n + n/8 + 4<<10 + cfg.Blocks<<10)
}

// allocated returns the fewest bytes fn allocates over three calls (the
// runtime's TotalAlloc): another goroutine's allocations only add to a call.
func allocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// captureSessionF is captureSession for fuzz seeds (testing.F lacks the
// *testing.T helpers).
func captureSessionF(f *testing.F) (model.Config, *model.Model, *model.Snapshot, core.ForkState) {
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		f.Fatal(err)
	}
	m, err := model.New(cfg, 7, numerics.FP16)
	if err != nil {
		f.Fatal(err)
	}
	ctl := core.New(m, core.Defaults())
	ctl.Reset()
	ctl.Install()
	tok := m.Prefill(testPrompt())
	for i := 0; i < 3; i++ {
		tok = m.DecodeStep(tok)
	}
	snap := &model.Snapshot{}
	m.Checkpoint(snap)
	return cfg, m, snap, ctl.CaptureForkState()
}

func fixCRC(blob []byte) {
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(blob[:len(blob)-4]))
}
