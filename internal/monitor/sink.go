package monitor

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/bits"
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

// Arena chunk sizes of the MemorySink: the first chunk holds
// memChunkMin bytes and each next one twice its predecessor, up to
// memChunkMax.
const (
	memChunkMin = 512
	memChunkMax = 64 << 10
)

// maxWindowBytes bounds one encoded window: eleven varints and two raw
// floats, plus per histogram a mask, up to histBuckets counts, Total and
// Max.
const maxWindowBytes = (11+2*(histBuckets+3))*binary.MaxVarintLen64 + 2*8

// MemorySink retains every window in memory, for tests and for end-of-run
// reporting (MergeWindows over Windows()). A WindowStats is over a kilobyte,
// almost all of it empty histogram buckets, so the sink keeps windows
// encoded instead, in a pointer-free byte arena: component names are
// interned, integers are varints, the rates are raw float64 bits, and each
// histogram is a mask of its nonzero buckets followed by their counts,
// Total and Max. Arena chunks grow geometrically from memChunkMin to
// memChunkMax and a stored window is never copied again, so a short log
// stays small and a long one never re-grows one buffer.
type MemorySink struct {
	mu     sync.Mutex
	n      int               // windows stored
	names  []string          // interned component names, by id
	ids    map[string]uint64 // component name -> id
	lastID uint64            // id of the last window's component
	chunks [][]byte          // the arena, oldest first; only the last has room
	// inline backs chunks through the growing ones, so a short log
	// allocates no chunk index of its own.
	inline [8][]byte
}

// NewMemorySink creates an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// WriteWindow implements Sink.
func (s *MemorySink) WriteWindow(w WindowStats) error {
	s.writeWindow(&w)
	return nil
}

// writeWindow logs *w where it lies: the monitor's pump hands it the
// window in place in the aggregator's flush buffer. A window is encoded
// straight into the arena's last chunk when the chunk has room for the
// largest encoding; otherwise it is encoded into a scratch first, so the
// chunk can be chosen by the window's actual size.
func (s *MemorySink) writeWindow(w *WindowStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.intern(w.Component)
	s.n++
	if last := len(s.chunks) - 1; last >= 0 && cap(s.chunks[last])-len(s.chunks[last]) >= maxWindowBytes {
		s.chunks[last] = appendWindow(s.chunks[last], id, w)
		return
	}
	s.appendNear(id, w)
}

// appendNear is writeWindow near the end of a chunk: encode the window
// into a scratch, then append it to the last chunk if it fits, else to a
// new chunk.
func (s *MemorySink) appendNear(id uint64, w *WindowStats) {
	var scratch [maxWindowBytes]byte
	rec := appendWindow(scratch[:0], id, w)
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < len(rec) {
		size := memChunkMin
		if last < 0 {
			s.chunks = s.inline[:0]
		} else {
			size = min(2*cap(s.chunks[last]), memChunkMax)
		}
		s.chunks = append(s.chunks, make([]byte, 0, max(size, len(rec))))
		last++
	}
	s.chunks[last] = append(s.chunks[last], rec...)
}

// intern returns name's id, assigning the next one on first sight. The
// pump writes each flush's windows in component-name order, so the
// component after the previous window's (or, once a flush wraps, the
// first) is tried before the name is hashed.
func (s *MemorySink) intern(name string) uint64 {
	if guess := s.lastID + 1; guess < uint64(len(s.names)) && s.names[guess] == name {
		s.lastID = guess
		return guess
	}
	if len(s.names) > 0 && s.names[0] == name {
		s.lastID = 0
		return 0
	}
	id, ok := s.ids[name]
	if !ok {
		if s.ids == nil {
			s.ids = make(map[string]uint64)
		}
		id = uint64(len(s.names))
		s.ids[name] = id
		s.names = append(s.names, name)
	}
	s.lastID = id
	return id
}

// Windows decodes the windows received so far into a fresh slice, in
// arrival order; it returns nil when there are none.
func (s *MemorySink) Windows() []WindowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	out := make([]WindowStats, s.n)
	i := 0
	for _, c := range s.chunks {
		r := windowReader{b: c}
		for len(r.b) > 0 {
			r.window(&out[i], s.names)
			i++
		}
	}
	return out
}

// appendWindow encodes w, its component given as the interned id, after
// buf.
func appendWindow(buf []byte, id uint64, w *WindowStats) []byte {
	buf = binary.AppendUvarint(buf, id)
	buf = binary.AppendVarint(buf, w.StartUS)
	buf = binary.AppendVarint(buf, w.EndUS)
	buf = binary.AppendVarint(buf, int64(w.Samples))
	buf = binary.AppendVarint(buf, w.CoveredUS)
	buf = binary.AppendUvarint(buf, w.SendOps)
	buf = binary.AppendUvarint(buf, w.RecvOps)
	buf = binary.AppendUvarint(buf, w.DeltaSendOps)
	buf = binary.AppendUvarint(buf, w.DeltaRecvOps)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.SendRate))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.RecvRate))
	buf = binary.AppendVarint(buf, int64(w.DepthHigh))
	buf = appendHist(buf, &w.DepthHist)
	buf = appendHist(buf, &w.LatencyHist)
	return binary.AppendVarint(buf, w.MemHigh)
}

// appendHist encodes h after buf: the mask of its nonzero buckets, their
// counts in bucket order, Total and Max.
func appendHist(buf []byte, h *Hist) []byte {
	var mask uint64
	// Most buckets are empty: test them eight at a time, and only look
	// into a block that holds a count.
	for blk := 0; blk < histBuckets; blk += 8 {
		c := (*[8]uint64)(h.Counts[blk : blk+8])
		if c[0]|c[1]|c[2]|c[3]|c[4]|c[5]|c[6]|c[7] == 0 {
			continue
		}
		for j := range c {
			if c[j] != 0 {
				mask |= 1 << (blk + j)
			}
		}
	}
	buf = binary.AppendUvarint(buf, mask)
	for m := mask; m != 0; m &= m - 1 {
		buf = binary.AppendUvarint(buf, h.Counts[bits.TrailingZeros64(m)])
	}
	buf = binary.AppendUvarint(buf, h.Total)
	return binary.AppendVarint(buf, h.Max)
}

// windowReader decodes what appendWindow wrote. The arena is the sink's
// own, so it trusts the bytes.
type windowReader struct{ b []byte }

func (r *windowReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *windowReader) varint() int64 {
	v, n := binary.Varint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *windowReader) float() float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// window decodes the next window into w, which must be zero.
func (r *windowReader) window(w *WindowStats, names []string) {
	w.Component = names[r.uvarint()]
	w.StartUS = r.varint()
	w.EndUS = r.varint()
	w.Samples = int(r.varint())
	w.CoveredUS = r.varint()
	w.SendOps = r.uvarint()
	w.RecvOps = r.uvarint()
	w.DeltaSendOps = r.uvarint()
	w.DeltaRecvOps = r.uvarint()
	w.SendRate = r.float()
	w.RecvRate = r.float()
	w.DepthHigh = int(r.varint())
	r.hist(&w.DepthHist)
	r.hist(&w.LatencyHist)
	w.MemHigh = r.varint()
}

func (r *windowReader) hist(h *Hist) {
	for m := r.uvarint(); m != 0; m &= m - 1 {
		h.Counts[bits.TrailingZeros64(m)] = r.uvarint()
	}
	h.Total = r.uvarint()
	h.Max = r.varint()
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
