package monitor

import (
	"encoding/json"
	"io"
	"sync"

	"embera/internal/core"
)

// Sink receives closed window aggregates from the monitor's pump flow. A
// slow sink never blocks the samplers — the ring absorbs (and, under
// overload, sheds) the backlog.
type Sink interface {
	WriteWindow(w WindowStats) error
}

// SinkFunc adapts a plain function to the Sink interface — the adapter
// streaming front ends use to feed closed windows into their own fan-out
// (serve.Broker) without a named type per consumer.
type SinkFunc func(w WindowStats) error

// WriteWindow implements Sink.
func (f SinkFunc) WriteWindow(w WindowStats) error { return f(w) }

// LossCounters exposes a pipeline's loss accounting — how many samples the
// ring shed and how many window writes a sink rejected. *Monitor implements
// it; sinks that record the accounting alongside the data accept it through
// AttachCounters.
type LossCounters interface {
	Dropped() uint64
	SinkErrors() uint64
}

// CounterAttacher is implemented by sinks that want the monitor's loss
// counters wired in; New attaches the monitor to every configured sink that
// implements it.
type CounterAttacher interface {
	AttachCounters(c LossCounters)
}

// memChunk is the MemorySink's full chunk size in windows (~300 KB of
// WindowStats).
const memChunk = 256

// MemorySink retains every window in memory, for tests and for end-of-run
// reporting (MergeWindows over Windows()). Windows land in chunks whose
// capacities double from one window up to memChunk, after which every
// chunk is allocated at full size. A long run therefore never re-grows one
// slice, and no stored window is copied again until Windows; a short run
// allocates about half of what appending to one slice would.
type MemorySink struct {
	mu     sync.Mutex
	chunks [][]WindowStats // oldest first; only the last has room
	// inline backs chunks through the eight growing chunks (255 windows),
	// so a short run allocates no chunk index of its own.
	inline [8][]WindowStats
}

// NewMemorySink creates an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// WriteWindow implements Sink.
func (s *MemorySink) WriteWindow(w WindowStats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		size := 1
		if last < 0 {
			s.chunks = s.inline[:0]
		} else if size = 2 * cap(s.chunks[last]); size > memChunk {
			size = memChunk
		}
		s.chunks = append(s.chunks, make([]WindowStats, 0, size))
		last++
	}
	s.chunks[last] = append(s.chunks[last], w)
	return nil
}

// Windows returns a copy of the windows received so far, in arrival order.
func (s *MemorySink) Windows() []WindowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	out := make([]WindowStats, 0, n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// WindowRecord is the flat export schema of one component's window: the
// JSONL line format and the SSE wire payload of embera-serve, with
// percentiles pre-extracted so downstream tooling needs no histogram math.
// RingDropped and SinkErrors carry the pipeline's cumulative loss
// accounting at write time when the writer has counters attached (the
// monitor wires itself into every CounterAttacher sink), so a consumer of
// any single line can tell whether data was shed getting to it.
type WindowRecord struct {
	Component    string  `json:"component"`
	StartUS      int64   `json:"start_us"`
	EndUS        int64   `json:"end_us"`
	CoveredUS    int64   `json:"covered_us"`
	Samples      int     `json:"samples"`
	SendOps      uint64  `json:"send_ops"`
	RecvOps      uint64  `json:"recv_ops"`
	SendRate     float64 `json:"send_rate"`
	RecvRate     float64 `json:"recv_rate"`
	DepthHigh    int     `json:"depth_high"`
	DepthP50     int64   `json:"depth_p50"`
	DepthP95     int64   `json:"depth_p95"`
	DepthP99     int64   `json:"depth_p99"`
	LatencyP50US int64   `json:"latency_p50_us"`
	LatencyP95US int64   `json:"latency_p95_us"`
	LatencyP99US int64   `json:"latency_p99_us"`
	MemHighBytes int64   `json:"mem_high_bytes"`
	RingDropped  uint64  `json:"ring_dropped"`
	SinkErrors   uint64  `json:"sink_errors"`
}

// NewWindowRecord flattens one window into the export schema (loss
// counters zero; writers with counters attached fill them).
func NewWindowRecord(w WindowStats) WindowRecord {
	return WindowRecord{
		Component: w.Component,
		StartUS:   w.StartUS, EndUS: w.EndUS,
		CoveredUS: w.CoveredUS,
		Samples:   w.Samples,
		SendOps:   w.SendOps, RecvOps: w.RecvOps,
		SendRate: w.SendRate, RecvRate: w.RecvRate,
		DepthHigh:    w.DepthHigh,
		DepthP50:     w.DepthHist.Quantile(0.50),
		DepthP95:     w.DepthHist.Quantile(0.95),
		DepthP99:     w.DepthHist.Quantile(0.99),
		LatencyP50US: w.LatencyHist.Quantile(0.50),
		LatencyP95US: w.LatencyHist.Quantile(0.95),
		LatencyP99US: w.LatencyHist.Quantile(0.99),
		MemHighBytes: w.MemHigh,
	}
}

// JSONLSink streams one JSON object per window per line — the interchange
// format for dashboards and offline analysis.
type JSONLSink struct {
	mu       sync.Mutex
	enc      *json.Encoder
	counters LossCounters
}

// NewJSONLSink creates a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// AttachCounters implements CounterAttacher: subsequent records carry the
// pipeline's cumulative ring-drop and sink-error counts.
func (s *JSONLSink) AttachCounters(c LossCounters) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters = c
}

// WriteWindow implements Sink.
func (s *JSONLSink) WriteWindow(w WindowStats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := NewWindowRecord(w)
	if s.counters != nil {
		rec.RingDropped = s.counters.Dropped()
		rec.SinkErrors = s.counters.SinkErrors()
	}
	return s.enc.Encode(rec)
}

// EventSinkAdapter bridges monitor windows into the core trace event stream
// (reusing internal/trace's recorder, binary framing and tooling): each
// window becomes one EvObserve event stamped at window close, with the
// sample count as the payload size and the window length as the duration.
type EventSinkAdapter struct {
	sink core.EventSink
}

// NewEventSinkAdapter wraps a core.EventSink (e.g. a *trace.Recorder).
func NewEventSinkAdapter(s core.EventSink) *EventSinkAdapter {
	return &EventSinkAdapter{sink: s}
}

// WriteWindow implements Sink.
func (a *EventSinkAdapter) WriteWindow(w WindowStats) error {
	a.sink.Emit(core.Event{
		TimeUS:    w.EndUS,
		Kind:      core.EvObserve,
		Component: w.Component,
		Interface: "monitor",
		Bytes:     w.Samples,
		DurUS:     w.EndUS - w.StartUS,
	})
	return nil
}
