package protect

import (
	"encoding/json"
	"io"
	"sort"
)

// boundsFile is the JSON schema Save writes a bounds store in. Its one
// reader is a hash: the campaign journal fingerprints a run's offline bounds
// by their Save output.
type boundsFile struct {
	Version int           `json:"version"`
	Entries []boundsEntry `json:"entries"`
}

type boundsEntry struct {
	Block int     `json:"block"`
	Kind  string  `json:"kind"`
	Site  string  `json:"site"`
	Lo    float32 `json:"lo"`
	Hi    float32 `json:"hi"`
}

const boundsFileVersion = 1

// Save writes the store as JSON, sorted for reproducible output.
func (s *Store) Save(w io.Writer) error {
	entries := make([]boundsEntry, 0, s.n)
	for _, e := range s.SortedEntries() {
		entries = append(entries, boundsEntry{
			Block: e.Key.Layer.Block,
			Kind:  e.Key.Layer.Kind.String(),
			Site:  e.Key.Site.String(),
			Lo:    e.Bounds.Lo,
			Hi:    e.Bounds.Hi,
		})
	}
	// By kind and site name, not slot order: the campaign journal
	// fingerprints these bytes.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Site < b.Site
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(boundsFile{Version: boundsFileVersion, Entries: entries})
}
