package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: its name, start and end (ns
// since the tracer was created), the span that caused it (0 = none) and
// the operation it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID. A nil tracer records nothing
// and returns 0, so untraced code paths can call it unconditionally.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.spans[id-1].End = now
}

func (t *tracer) len() int {
	return len(t.spans)
}

// layerTime is the summed self time and span count of one span name.
type layerTime struct {
	self  time.Duration
	count int
}

// meanMS returns the mean self time per span in milliseconds.
func (l layerTime) meanMS() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.self.Nanoseconds()) / 1e6 / float64(l.count)
}

// selfTimes sums each span name's self time: its duration minus the part
// of it that its child spans cover. Children of one span never overlap
// (spans are recorded sequentially), so the covered part is
// the sum of their durations.
func (t *tracer) selfTimes() map[string]layerTime {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.self += time.Duration(s.End - s.Start - child[s.ID])
		lt.count++
		out[s.Name] = lt
	}
	return out
}

// writeFile writes every span as one JSON line to dir/name and returns
// the file's path.
func (t *tracer) writeFile(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
