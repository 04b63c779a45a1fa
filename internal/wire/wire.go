// Package wire defines the versioned, self-describing binary envelope that
// carries a serving session's resumable state — a model.Snapshot plus, for
// protected sessions, the core.ForkState — between processes (live
// migration through ft2router) and to disk (durable session parking).
//
// Envelope layout (little-endian):
//
//	offset  size  field
//	0       4     magic "FT2W" (0x46543257)
//	4       2     version (currently 1)
//	6       2     flags (bit 0: payload carries a ForkState)
//	8       8     architecture fingerprint (Snapshot.ArchFingerprint)
//	16      8     payload length in bytes
//	24      n     payload: wire-encoded Snapshot [+ ForkState]
//	24+n    4     CRC-32 (IEEE) over bytes [0, 24+n)
//
// The fingerprint lets a receiver reject a blob captured from a different
// model architecture before touching the payload; the CRC catches
// truncation and corruption. Decoding is total: any input — truncated,
// bit-flipped, version-bumped, adversarial — yields a typed error, never a
// panic, and no allocation is sized from an unvalidated header field.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ft2/internal/core"
	"ft2/internal/model"
)

const (
	// Magic identifies an FT2 session blob ("FT2W" little-endian).
	Magic = 0x46543257
	// Version is the envelope version this build reads and writes.
	Version = 1

	headerSize  = 24
	trailerSize = 4

	flagForkState = 1 << 0
)

// Typed decode failures. Callers branch with errors.Is; every decode error
// wraps exactly one of these.
var (
	ErrTruncated    = errors.New("wire: truncated session blob")
	ErrBadMagic     = errors.New("wire: not an FT2 session blob")
	ErrVersion      = errors.New("wire: unsupported envelope version")
	ErrChecksum     = errors.New("wire: checksum mismatch (corrupted blob)")
	ErrArchMismatch = errors.New("wire: snapshot architecture does not match model")
	ErrMalformed    = errors.New("wire: malformed session payload")
)

// MaxSessionBytes bounds the envelope of any session of cfg, and so what a
// receiver reads before decoding one: four times the model's K/V rows at
// full context, which leaves room for the token list, fork state and header.
func MaxSessionBytes(cfg model.Config) int64 {
	return 4 * int64(cfg.Blocks) * 2 * int64(cfg.MaxSeq) * int64(cfg.Hidden) * 4
}

// Header is the parsed envelope prefix Inspect returns.
type Header struct {
	Version     int
	HasFork     bool
	Fingerprint uint64
	PayloadLen  int
}

// EncodeSession serializes a captured snapshot (and, when fk is non-nil,
// the protected session's FT2 fork state) into a self-describing envelope.
// The encoding is canonical: the same state always yields the same bytes.
// The envelope is written in place into one buffer sized up front, so
// encoding a model.View of a live session allocates exactly the blob.
func EncodeSession(snap *model.Snapshot, fk *core.ForkState) ([]byte, error) {
	if snap == nil || snap.Rows() == 0 {
		return nil, fmt.Errorf("%w: empty snapshot", ErrMalformed)
	}
	var flags uint16
	size := headerSize + snap.WireSize() + trailerSize
	if fk != nil {
		flags |= flagForkState
		size += fk.WireSize()
	}
	buf := make([]byte, headerSize, size)
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	binary.LittleEndian.PutUint16(buf[4:], Version)
	binary.LittleEndian.PutUint16(buf[6:], flags)
	binary.LittleEndian.PutUint64(buf[8:], snap.ArchFingerprint())
	buf = model.AppendSnapshot(buf, snap)
	if fk != nil {
		buf = core.AppendForkState(buf, fk)
	}
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(buf)-headerSize))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// Inspect parses and validates the envelope header without decoding the
// payload — enough to answer "is this an FT2 blob, for which architecture,
// how big" cheaply.
func Inspect(data []byte) (Header, error) {
	var h Header
	if len(data) < headerSize+trailerSize {
		return h, fmt.Errorf("%w: %d bytes, envelope needs at least %d", ErrTruncated, len(data), headerSize+trailerSize)
	}
	if m := binary.LittleEndian.Uint32(data); m != Magic {
		return h, fmt.Errorf("%w: magic %#x", ErrBadMagic, m)
	}
	h.Version = int(binary.LittleEndian.Uint16(data[4:]))
	if h.Version != Version {
		return h, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, h.Version, Version)
	}
	flags := binary.LittleEndian.Uint16(data[6:])
	h.HasFork = flags&flagForkState != 0
	if flags&^uint16(flagForkState) != 0 {
		return h, fmt.Errorf("%w: unknown flags %#x", ErrMalformed, flags)
	}
	h.Fingerprint = binary.LittleEndian.Uint64(data[8:])
	plen := binary.LittleEndian.Uint64(data[16:])
	if plen != uint64(len(data)-headerSize-trailerSize) {
		return h, fmt.Errorf("%w: payload length %d, envelope carries %d", ErrTruncated, plen, len(data)-headerSize-trailerSize)
	}
	h.PayloadLen = int(plen)
	return h, nil
}

// DecodeSession parses an envelope back into the snapshot and optional fork
// state. The returned fork state is nil iff the blob was encoded without
// one.
func DecodeSession(data []byte) (*model.Snapshot, *core.ForkState, error) {
	return decode(data, nil)
}

// DecodeSessionFor is DecodeSession plus an architecture gate: the blob's
// fingerprint must match cfg, otherwise ErrArchMismatch — the check a
// worker runs before adopting a migrated session.
func DecodeSessionFor(data []byte, cfg model.Config) (*model.Snapshot, *core.ForkState, error) {
	return decode(data, &cfg)
}

func decode(data []byte, cfg *model.Config) (*model.Snapshot, *core.ForkState, error) {
	h, err := Inspect(data)
	if err != nil {
		return nil, nil, err
	}
	body := data[:headerSize+h.PayloadLen]
	want := binary.LittleEndian.Uint32(data[len(data)-trailerSize:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, nil, fmt.Errorf("%w: crc32 %#08x, trailer says %#08x", ErrChecksum, got, want)
	}
	if cfg != nil && h.Fingerprint != cfg.ArchFingerprint() {
		return nil, nil, fmt.Errorf("%w: blob fingerprint %#016x, %s wants %#016x",
			ErrArchMismatch, h.Fingerprint, cfg.Name, cfg.ArchFingerprint())
	}
	payload := body[headerSize:]
	snap, n, err := model.DecodeSnapshot(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if snap.ArchFingerprint() != h.Fingerprint {
		return nil, nil, fmt.Errorf("%w: header fingerprint %#016x != payload architecture %#016x",
			ErrMalformed, h.Fingerprint, snap.ArchFingerprint())
	}
	var fk *core.ForkState
	if h.HasFork {
		st, m, err := core.DecodeForkState(payload[n:], snap.Blocks())
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		n += m
		fk = &st
	}
	if n != len(payload) {
		return nil, nil, fmt.Errorf("%w: %d trailing payload bytes", ErrMalformed, len(payload)-n)
	}
	return snap, fk, nil
}
