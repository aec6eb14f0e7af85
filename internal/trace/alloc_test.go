package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"embera/internal/core"
)

// TestEmitZeroAlloc locks the recorder's per-event cost at zero
// allocations: the ring is preallocated at construction and Emit only ever
// copies into it.
func TestEmitZeroAlloc(t *testing.T) {
	r := NewRecorder(1024)
	e := core.Event{TimeUS: 1, Kind: core.EvSend, Component: "Fetch",
		Interface: "out", Bytes: 4096, DurUS: 13}
	if allocs := testing.AllocsPerRun(1000, func() { r.Emit(e) }); allocs != 0 {
		t.Fatalf("Emit allocates %v per event, want 0", allocs)
	}
}

// TestEventsIntoReusesBuffer verifies the snapshot path reuses caller
// capacity and matches Events exactly, both before and after wrap-around.
func TestEventsIntoReusesBuffer(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 13; i++ { // wraps: capacity 8, 13 emitted
		r.Emit(core.Event{TimeUS: int64(i), Kind: core.EvSend, Component: "c"})
	}
	want := r.Events()
	scratch := make([]core.Event, 0, 16)
	got := r.EventsInto(scratch[:0])
	if len(got) != len(want) {
		t.Fatalf("EventsInto returned %d events, Events %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("EventsInto did not reuse the caller's buffer")
	}
	if allocs := testing.AllocsPerRun(100, func() { got = r.EventsInto(got[:0]) }); allocs != 0 {
		t.Fatalf("warm EventsInto allocates %v per snapshot, want 0", allocs)
	}
}

// TestRecorderReset verifies Reset clears events and counters while keeping
// the ring usable for a fresh run.
func TestRecorderReset(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Emit(core.Event{TimeUS: int64(i), Kind: core.EvSend, Component: "c"})
	}
	r.Reset()
	if got := r.Len(); got != 0 {
		t.Fatalf("Len after Reset = %d, want 0", got)
	}
	if total, dropped := r.Stats(); total != 0 || dropped != 0 {
		t.Fatalf("Stats after Reset = %d/%d, want 0/0", total, dropped)
	}
	r.Emit(core.Event{TimeUS: 99, Kind: core.EvReceive, Component: "d"})
	evs := r.Events()
	if len(evs) != 1 || evs[0].TimeUS != 99 {
		t.Fatalf("post-Reset events = %+v, want the single new event", evs)
	}
}

// hostileHeader is a bare trace header claiming nStrings strings and nRecs
// records, with none of them present.
func hostileHeader(nStrings, nRecs uint32) []byte {
	b := append(magic[:], version)
	b = binary.LittleEndian.AppendUint32(b, nStrings)
	return binary.LittleEndian.AppendUint32(b, nRecs)
}

// TestReadHostileCountsAllocateLittle: a header's counts and a string's
// length prefix are claims, not sizes. A tiny input that claims 2^20
// records, 2^24 strings or one 65535-byte string must fail after
// allocating for the bytes present, not for what it claims.
func TestReadHostileCountsAllocateLittle(t *testing.T) {
	for name, data := range map[string][]byte{
		"records": hostileHeader(0, 1<<20),
		"strings": hostileHeader(1<<24, 0),
		"string":  binary.LittleEndian.AppendUint16(hostileHeader(1, 0), 0xFFFF),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte hostile header accepted", name, len(data))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("%s: reading a %d-byte hostile header allocated %d bytes, want under 64 KiB", name, len(data), n)
		}
	}
}
