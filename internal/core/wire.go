package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"ft2/internal/model"
	"ft2/internal/protect"
)

// Wire codec for ForkState: the FT2 controller state that rides along with a
// model.Snapshot when a protected session migrates between worker processes
// or is parked to disk. The encoding is canonical (bounds entries sorted by
// block/kind/site), so the same state always produces the same bytes.
//
// Layout (all little-endian):
//
//	u64 firstTokenNaN
//	u64 stats.outOfBound | u64 stats.nan
//	u8  layerKindCount (must equal model.NumLayerKinds)
//	layerKindCount × [ u64 outOfBound, u64 nan ]
//	u32 boundsCount
//	boundsCount × [ u32 block, u8 kind, u8 site, u32 lo bits, u32 hi bits ]

const boundsEntryBytes = 4 + 1 + 1 + 4 + 4

// AppendForkState appends the fork state's wire encoding to dst and returns
// the extended slice. A nil Bounds store encodes as zero entries and decodes
// to an empty store.
func AppendForkState(dst []byte, st *ForkState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.FirstTokenNaN))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.Stats.OutOfBound))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.Stats.NaN))
	dst = append(dst, byte(model.NumLayerKinds))
	for _, cs := range st.ByKind {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(cs.OutOfBound))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(cs.NaN))
	}
	var entries []protect.Entry
	if st.Bounds != nil {
		entries = st.Bounds.SortedEntries()
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Key.Layer.Block))
		dst = append(dst, byte(e.Key.Layer.Kind), byte(e.Key.Site))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(e.Bounds.Lo))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(e.Bounds.Hi))
	}
	return dst
}

// DecodeForkState parses one wire-encoded fork state from the front of
// data, returning the state and the number of bytes consumed. The decoded
// Bounds store is always non-nil. Malformed input returns an error, never a
// panic.
func DecodeForkState(data []byte) (ForkState, int, error) {
	var st ForkState
	const fixed = 8 + 8 + 8 + 1
	if len(data) < fixed {
		return st, 0, fmt.Errorf("core: fork-state wire truncated: %d bytes", len(data))
	}
	st.FirstTokenNaN = int(binary.LittleEndian.Uint64(data))
	st.Stats.OutOfBound = int(binary.LittleEndian.Uint64(data[8:]))
	st.Stats.NaN = int(binary.LittleEndian.Uint64(data[16:]))
	if int(data[24]) != model.NumLayerKinds {
		return st, 0, fmt.Errorf("core: fork-state wire: %d layer kinds, this build has %d", data[24], model.NumLayerKinds)
	}
	off := fixed
	if len(data) < off+model.NumLayerKinds*16+4 {
		return st, 0, fmt.Errorf("core: fork-state wire truncated in per-kind stats")
	}
	for k := range st.ByKind {
		st.ByKind[k].OutOfBound = int(binary.LittleEndian.Uint64(data[off:]))
		st.ByKind[k].NaN = int(binary.LittleEndian.Uint64(data[off+8:]))
		off += 16
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if n < 0 || n > (len(data)-off)/boundsEntryBytes {
		return st, 0, fmt.Errorf("core: fork-state wire: %d bounds entries exceed remaining %d bytes", n, len(data)-off)
	}
	st.Bounds = protect.NewStore()
	for i := 0; i < n; i++ {
		block := int(binary.LittleEndian.Uint32(data[off:]))
		kind := model.LayerKind(data[off+4])
		site := model.Site(data[off+5])
		lo := math.Float32frombits(binary.LittleEndian.Uint32(data[off+6:]))
		hi := math.Float32frombits(binary.LittleEndian.Uint32(data[off+10:]))
		off += boundsEntryBytes
		if int(kind) >= model.NumLayerKinds {
			return st, 0, fmt.Errorf("core: fork-state wire: bad layer kind %d", kind)
		}
		if site > model.SiteActivationOut {
			return st, 0, fmt.Errorf("core: fork-state wire: bad site %d", site)
		}
		st.Bounds.Set(protect.SiteKey{
			Layer: model.LayerRef{Block: block, Kind: kind},
			Site:  site,
		}, protect.Bounds{Lo: lo, Hi: hi})
	}
	return st, off, nil
}
