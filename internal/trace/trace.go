// Package trace implements the event-trace support the paper announces as
// ongoing work in §6: "the current approach for observing is mainly based on
// collecting summarized information about the execution. However, this
// information does not give a detailed view of the application behavior. For
// this reason, we plan to implement an event-trace-support for collecting
// detailed events."
//
// A Recorder plugs into an EMBera application as its EventSink and collects
// every instrumentation event (component start/stop, send, receive, compute,
// observation) into a bounded ring buffer. Traces serialize to a compact
// binary format and can be analyzed offline (per-component summaries,
// interface throughput, time-ordered dumps).
package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"embera/internal/core"
)

// Recorder is a bounded in-memory event trace. It implements
// core.EventSink. When the ring fills, the oldest events are overwritten and
// counted as dropped — embedded trace buffers behave the same way. Emit is
// locked: on the native platform every component goroutine emits into the
// same recorder; on the simulated platforms the lock is uncontended.
type Recorder struct {
	mu      sync.Mutex
	buf     []core.Event
	next    int
	wrapped bool
	dropped uint64
	total   uint64
	enabled bool
}

// NewRecorder creates a trace buffer holding up to capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: capacity %d must be positive", capacity))
	}
	return &Recorder{buf: make([]core.Event, capacity), enabled: true}
}

// Emit implements core.EventSink.
func (r *Recorder) Emit(e core.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return
	}
	if r.wrapped {
		r.dropped++
	}
	r.buf[r.next] = e
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
}

// SetEnabled toggles collection (events emitted while disabled are lost
// silently, like a stopped hardware trace unit).
func (r *Recorder) SetEnabled(v bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enabled = v
}

// Events returns the retained events in emission order.
func (r *Recorder) Events() []core.Event {
	return r.EventsInto(nil)
}

// EventsInto appends the retained events to dst in emission order and
// returns the extended slice — the buffer-reusing form of Events for
// harnesses that snapshot a recorder repeatedly (pass dst[:0] to reuse the
// previous snapshot's capacity).
func (r *Recorder) EventsInto(dst []core.Event) []core.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		return append(dst, r.buf[:r.next]...)
	}
	dst = append(dst, r.buf[r.next:]...)
	return append(dst, r.buf[:r.next]...)
}

// Reset discards the retained events and counters while keeping the
// allocated ring, so one recorder can be reused across many runs without
// re-allocating its (potentially large) event buffer.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.buf)
	r.next, r.wrapped, r.dropped, r.total = 0, false, 0, 0
}

// Stats reports total emitted and dropped (overwritten) event counts.
func (r *Recorder) Stats() (total, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.dropped
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// --- binary codec ---

// magic and version head every serialized trace.
var magic = [4]byte{'E', 'M', 'B', 'T'}

const version = 1

// recBytes is the fixed on-disk record size: t(8) dur(8) comp(4) ifac(4)
// bytes(4) kind(1).
const recBytes = 8 + 8 + 4 + 4 + 4 + 1

// Write serializes events to w: a 13-byte header, a string table, then
// fixed-layout little-endian records referencing the table. The whole trace
// is assembled in one pre-sized buffer and written with a single Write call
// — no per-field reflection, no per-record allocation (the previous codec
// boxed every field through binary.Write, costing six allocations per
// event).
func Write(w io.Writer, events []core.Event) error {
	// Pass 1: build the string table (components + interfaces) and size the
	// output buffer exactly.
	index := map[string]uint32{}
	var table []string
	tableBytes := 0
	intern := func(s string) (uint32, error) {
		if id, ok := index[s]; ok {
			return id, nil
		}
		if len(s) > 0xFFFF {
			return 0, errors.New("trace: string too long")
		}
		id := uint32(len(table))
		index[s] = id
		table = append(table, s)
		tableBytes += 2 + len(s)
		return id, nil
	}
	for i, e := range events {
		if e.Bytes < 0 {
			return fmt.Errorf("trace: event %d has negative size", i)
		}
		if _, err := intern(e.Component); err != nil {
			return err
		}
		if _, err := intern(e.Interface); err != nil {
			return err
		}
	}

	// Pass 2: encode header, table and records into one buffer.
	buf := make([]byte, 0, len(magic)+1+4+4+tableBytes+recBytes*len(events))
	buf = append(buf, magic[:]...)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(table)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(events)))
	for _, s := range table {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	for _, e := range events {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.TimeUS))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.DurUS))
		buf = binary.LittleEndian.AppendUint32(buf, index[e.Component])
		buf = binary.LittleEndian.AppendUint32(buf, index[e.Interface])
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Bytes))
		buf = append(buf, uint8(e.Kind))
	}
	_, err := w.Write(buf)
	return err
}

// Read deserializes a trace written by Write. Records are decoded from a
// fixed-size scratch buffer, so the per-record cost is one ReadFull and six
// integer loads. Strings and events are appended as they decode, never
// pre-sized from the header's counts, so a header that overstates them
// costs memory only for the bytes actually present.
func Read(r io.Reader) ([]core.Event, error) {
	var hdr [4 + 1 + 4 + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, errors.New("trace: bad magic")
	}
	if ver := hdr[4]; ver != version {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	nStrings := binary.LittleEndian.Uint32(hdr[5:])
	nRecs := binary.LittleEndian.Uint32(hdr[9:])
	if nStrings > 1<<24 || nRecs > 1<<30 {
		return nil, errors.New("trace: implausible header counts")
	}
	var table []string
	var scratch [recBytes]byte
	var str bytes.Buffer
	for range nStrings {
		if _, err := io.ReadFull(r, scratch[:2]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint16(scratch[:2])
		str.Reset()
		if _, err := str.ReadFrom(io.LimitReader(r, int64(n))); err != nil {
			return nil, err
		}
		if str.Len() != int(n) {
			return nil, io.ErrUnexpectedEOF
		}
		table = append(table, str.String())
	}
	var events []core.Event
	for range nRecs {
		if _, err := io.ReadFull(r, scratch[:]); err != nil {
			return nil, err
		}
		comp := binary.LittleEndian.Uint32(scratch[16:])
		ifac := binary.LittleEndian.Uint32(scratch[20:])
		if int(comp) >= len(table) || int(ifac) >= len(table) {
			return nil, errors.New("trace: string index out of range")
		}
		events = append(events, core.Event{
			TimeUS:    int64(binary.LittleEndian.Uint64(scratch[0:])),
			DurUS:     int64(binary.LittleEndian.Uint64(scratch[8:])),
			Component: table[comp], Interface: table[ifac],
			Bytes: int(binary.LittleEndian.Uint32(scratch[24:])),
			Kind:  core.EventKind(scratch[28]),
		})
	}
	return events, nil
}

// --- analysis ---

// Summary aggregates a trace per component.
type Summary struct {
	Component string
	Events    int
	Sends     int
	Receives  int
	Computes  int
	SendBytes uint64
	RecvBytes uint64
	SendUS    int64
	RecvUS    int64
	ComputeUS int64
	FirstUS   int64
	LastUS    int64
}

// Summarize builds per-component summaries, sorted by component name.
func Summarize(events []core.Event) []Summary {
	byComp := map[string]*Summary{}
	for _, e := range events {
		s := byComp[e.Component]
		if s == nil {
			s = &Summary{Component: e.Component, FirstUS: e.TimeUS}
			byComp[e.Component] = s
		}
		s.Events++
		if e.TimeUS < s.FirstUS {
			s.FirstUS = e.TimeUS
		}
		if e.TimeUS > s.LastUS {
			s.LastUS = e.TimeUS
		}
		switch e.Kind {
		case core.EvSend:
			s.Sends++
			s.SendBytes += uint64(e.Bytes)
			s.SendUS += e.DurUS
		case core.EvReceive:
			s.Receives++
			s.RecvBytes += uint64(e.Bytes)
			s.RecvUS += e.DurUS
		case core.EvCompute:
			s.Computes++
			s.ComputeUS += e.DurUS
		}
	}
	out := make([]Summary, 0, len(byComp))
	for _, s := range byComp {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// FormatSummaries renders summaries as an aligned text table.
func FormatSummaries(sums []Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %8s %8s %10s %10s %10s\n",
		"component", "sends", "recvs", "computes", "sendUS", "recvUS", "computeUS")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-16s %8d %8d %8d %10d %10d %10d\n",
			s.Component, s.Sends, s.Receives, s.Computes, s.SendUS, s.RecvUS, s.ComputeUS)
	}
	return b.String()
}

// Dump renders events one per line, for cmd/embera-trace.
func Dump(w io.Writer, events []core.Event) {
	for _, e := range events {
		fmt.Fprintf(w, "%12dµs %-8s %-16s %-14s %8dB %8dµs\n",
			e.TimeUS, e.Kind, e.Component, e.Interface, e.Bytes, e.DurUS)
	}
}
