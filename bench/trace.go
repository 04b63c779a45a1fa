package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent is the id of the span that caused this one
// (0 for a request's root).
type span struct {
	name, layer string
	id, parent  int
	req, client int
	block       int
	start, end  time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// block numbers the pass over the request list being traced; request
	// ids repeat from block to block, (block, request) does not.
	block int
}

// begin opens a span and returns its id (1-based; 0 means "not traced").
func (t *tracer) begin(name, layer string, parent, req, client int) int {
	if t == nil {
		return 0
	}
	start := now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, layer: layer, parent: parent, req: req, client: client, block: t.block, start: start})
	id := len(t.spans)
	t.spans[id-1].id = id
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := now()
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover, in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.parent] += s.end - s.start
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.name] += float64(s.end-s.start-child[s.id]) / float64(time.Millisecond)
	}
	return self
}

// count returns how many spans carry the name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// write stores the spans as a Chrome trace-event file (chrome://tracing,
// ui.perfetto.dev): one complete event per span, one track per client, with
// the request and parent ids in args so a request's span tree can be rebuilt.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start),
			PID: 1, TID: s.client,
			Args: map[string]int{"span": s.id, "parent": s.parent, "request": s.req, "block": s.block},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
