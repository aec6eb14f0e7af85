package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start and end in nanoseconds
// since the benchmark started, the span that caused it, and the run it
// belongs to (one exp.Run call, one served generation or one replay).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A disabled
// recorder (the untraced run) records nothing.
type spanRecorder struct {
	on    bool
	mu    sync.Mutex
	spans []span
	runs  int
}

func newSpanRecorder(on bool) *spanRecorder { return &spanRecorder{on: on} }

// newRun allocates a run identifier.
func (r *spanRecorder) newRun() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	return r.runs
}

// add records a finished span and returns its ID (0 when disabled).
func (r *spanRecorder) add(name string, parent, run int, start, end time.Time) int {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(clockBase).Nanoseconds(), End: end.Sub(clockBase).Nanoseconds(),
	})
	return id
}

// open records a span starting now and returns its ID; close ends it.
func (r *spanRecorder) open(name string, parent, run int) int {
	now := time.Now()
	return r.add(name, parent, run, now, now)
}

// close ends span id now (a no-op for ID 0).
func (r *spanRecorder) close(id int) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = nowNS()
}

// writeFile writes every span as one JSON line to dir/name.
func (r *spanRecorder) writeFile(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
