package model

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// Wire codec for Snapshot: a flat little-endian layout the internal/wire
// envelope wraps for cross-process session migration and durable parking.
// The encoding is canonical — the same snapshot always produces the same
// bytes — so encode→decode→encode is bit-identical, which the router relies
// on when it compares checkpoints.
//
// Layout (all little-endian):
//
//	u32 family | u32 blocks | u32 hidden | u32 maxSeq | u32 headDim
//	u32 nextStep | u32 lastTok | u32 promptLen | u32 rows
//	u32 lastStreamNorm (float32 bits)
//	blocks × [ rows×hidden × u32 k bits, rows×hidden × u32 v bits ]
//
// KV rows are written packed at rows (head-blocked: head h's run starts at
// h*rows*headDim), regardless of the source snapshot's stride, so encoding a
// Prefix view compacts it and a Share'd snapshot writes its base's rows in
// place — the decoded snapshot owns its buffers and has stride == rows.

// snapWireHeader is the fixed bookkeeping prefix: 10 u32 fields.
const snapWireHeader = 10 * 4

// ArchFingerprint returns a stable 64-bit identity of the model architecture
// the snapshot requires: FNV-64a over (family, blocks, hidden, maxSeq,
// headDim). Two snapshots are restore-compatible iff their fingerprints
// match; the wire envelope carries it so a receiver can reject a blob for
// the wrong model family before decoding megabytes of KV payload.
func (s *Snapshot) ArchFingerprint() uint64 {
	return archFingerprint(s.family, s.blocks, s.hidden, s.maxSeq, s.headDim)
}

// ArchFingerprint returns the configuration's snapshot-compatibility
// fingerprint; see Snapshot.ArchFingerprint.
func (c Config) ArchFingerprint() uint64 {
	return archFingerprint(c.Family, c.Blocks, c.Hidden, c.MaxSeq, c.HeadDim())
}

func archFingerprint(family Family, blocks, hidden, maxSeq, headDim int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range [...]int{int(family), blocks, hidden, maxSeq, headDim} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// WireSize returns the length of the snapshot's wire encoding, the bytes
// AppendSnapshot appends.
func (s *Snapshot) WireSize() int {
	return snapWireHeader + s.blocks*2*s.rows*s.hidden*4
}

// AppendSnapshot appends the snapshot's wire encoding to dst and returns the
// extended slice. Empty snapshots (never captured) encode to a header the
// decoder rejects; callers that need an error should check Rows() first.
func AppendSnapshot(dst []byte, s *Snapshot) []byte {
	dst = appendWireU32(dst, uint32(s.family))
	dst = appendWireU32(dst, uint32(s.blocks))
	dst = appendWireU32(dst, uint32(s.hidden))
	dst = appendWireU32(dst, uint32(s.maxSeq))
	dst = appendWireU32(dst, uint32(s.headDim))
	dst = appendWireU32(dst, uint32(s.nextStep))
	dst = appendWireU32(dst, uint32(s.lastTok))
	dst = appendWireU32(dst, uint32(s.promptLen))
	dst = appendWireU32(dst, uint32(s.rows))
	dst = appendWireU32(dst, math.Float32bits(s.lastStreamNorm))
	if s.rows == 0 {
		return dst
	}
	heads := s.hidden / s.headDim
	dst = slices.Grow(dst, s.WireSize()-snapWireHeader)
	for b := 0; b < s.blocks; b++ {
		for _, v := range [2]bool{false, true} {
			for h := 0; h < heads; h++ {
				for lo := 0; lo < s.rows; { // copyRows onto the wire
					r, end := s.run(v, b, h, lo, s.rows)
					dst, lo = appendWireF32s(dst, r), end
				}
			}
		}
	}
	return dst
}

// DecodeSnapshot parses one wire-encoded snapshot from the front of data,
// returning the snapshot and the number of bytes consumed. The decoded
// snapshot owns its buffers (stride == rows). Every dimension is validated
// before any payload-sized allocation, so hostile input cannot balloon
// memory or panic: errors are returned, never thrown.
func DecodeSnapshot(data []byte) (*Snapshot, int, error) {
	if len(data) < snapWireHeader {
		return nil, 0, fmt.Errorf("model: snapshot wire header truncated: %d bytes", len(data))
	}
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(data[i*4:]) }
	s := &Snapshot{
		family:    Family(u32(0)),
		blocks:    int(u32(1)),
		hidden:    int(u32(2)),
		maxSeq:    int(u32(3)),
		headDim:   int(u32(4)),
		nextStep:  int(u32(5)),
		lastTok:   int(u32(6)),
		promptLen: int(u32(7)),
		rows:      int(u32(8)),
	}
	s.lastStreamNorm = math.Float32frombits(u32(9))
	s.stride = s.rows

	const dimCap = 1 << 20 // generous sanity bound well above any zoo model
	switch {
	case s.family > FamilyLlama:
		return nil, 0, fmt.Errorf("model: snapshot wire: unknown family %d", s.family)
	case s.blocks < 1 || s.blocks > dimCap:
		return nil, 0, fmt.Errorf("model: snapshot wire: bad block count %d", s.blocks)
	case s.hidden < 1 || s.hidden > dimCap:
		return nil, 0, fmt.Errorf("model: snapshot wire: bad hidden size %d", s.hidden)
	case s.maxSeq < 1 || s.maxSeq > dimCap:
		return nil, 0, fmt.Errorf("model: snapshot wire: bad max seq %d", s.maxSeq)
	case s.headDim < 1 || s.headDim > s.hidden || s.hidden%s.headDim != 0:
		return nil, 0, fmt.Errorf("model: snapshot wire: head dim %d does not divide hidden %d", s.headDim, s.hidden)
	case s.rows < 1 || s.rows > s.maxSeq:
		return nil, 0, fmt.Errorf("model: snapshot wire: rows %d outside [1,%d]", s.rows, s.maxSeq)
	case s.nextStep == 0:
		// A bare prefix view is legal: no resume point, only KV rows.
		if s.lastTok != 0 || s.promptLen != 0 {
			return nil, 0, fmt.Errorf("model: snapshot wire: prefix view with resume fields set")
		}
	case s.promptLen < 1 || s.promptLen > s.rows:
		return nil, 0, fmt.Errorf("model: snapshot wire: prompt length %d outside [1,%d]", s.promptLen, s.rows)
	case s.rows != s.promptLen+s.nextStep-1:
		return nil, 0, fmt.Errorf("model: snapshot wire: rows %d != promptLen %d + step %d",
			s.rows, s.promptLen, s.nextStep-1)
	case s.lastTok < 0 || s.lastTok > dimCap:
		return nil, 0, fmt.Errorf("model: snapshot wire: bad last token %d", s.lastTok)
	}

	// Payload size in uint64 to keep hostile headers from overflowing int
	// arithmetic; the available-bytes check bounds the allocation.
	span := uint64(s.rows) * uint64(s.hidden)
	need := uint64(snapWireHeader) + uint64(s.blocks)*2*span*4
	if uint64(len(data)) < need {
		return nil, 0, fmt.Errorf("model: snapshot wire: payload truncated: have %d bytes, need %d", len(data), need)
	}
	s.k = make([][]float32, s.blocks)
	s.v = make([][]float32, s.blocks)
	off := snapWireHeader
	for b := 0; b < s.blocks; b++ {
		s.k[b], off = decodeWireF32s(data, off, int(span))
		s.v[b], off = decodeWireF32s(data, off, int(span))
	}
	return s, off, nil
}

func appendWireU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendWireF32s(dst []byte, src []float32) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 4*len(src))[:n+4*len(src)]
	for i, f := range src {
		binary.LittleEndian.PutUint32(dst[n+4*i:], math.Float32bits(f))
	}
	return dst
}

func decodeWireF32s(data []byte, off, n int) ([]float32, int) {
	out := make([]float32, n)
	win := data[off : off+4*n]
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(win[4*i:]))
	}
	return out, off + 4*n
}
