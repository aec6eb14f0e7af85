package monitor

import (
	"fmt"
	"reflect"
	"testing"

	"embera/internal/core"
	"embera/internal/linux"
	"embera/internal/sim"
	"embera/internal/smp"
	"embera/internal/smpbind"
)

// chunkTestWindow is the i-th window of a three-component window log.
func chunkTestWindow(i int) WindowStats {
	w := WindowStats{
		Component: fmt.Sprintf("c%d", i%3),
		StartUS:   int64(i/3) * 1000,
		EndUS:     int64(i/3+1) * 1000,
		CoveredUS: 1000,
		Samples:   1 + i%4,
		SendOps:   uint64(i),
		RecvOps:   uint64(i / 2),
	}
	w.DeltaSendOps = uint64(i % 7)
	w.DepthHigh = i % 11
	w.DepthHist.Observe(int64(i % 11))
	w.LatencyHist.Observe(int64(i % 13))
	return w
}

// TestMemorySinkChunks writes 3 × memChunk + 1 windows through a monitor
// and checks the chunked memory sink's contract: Windows keeps arrival
// order across every chunk boundary and returns a fresh slice, Totals is
// MergeWindows(Windows()), chunk capacities double up to memChunk and then
// stay there, and a stored window never moves.
func TestMemorySinkChunks(t *testing.T) {
	k := sim.NewKernel()
	a := core.NewApp("chunks", smpbind.New(linux.NewSystem(smp.MustNew(k, smp.DefaultConfig())), "chunks"))
	m, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3*memChunk + 1
	var want []WindowStats
	var stored []*WindowStats // the first window of each chunk, where it landed
	for i := 0; i < n; i++ {
		w := chunkTestWindow(i)
		want = append(want, w)
		m.Ingest(w)
		if c := m.mem.chunks[len(m.mem.chunks)-1]; len(c) == 1 {
			stored = append(stored, &c[0])
		}
	}
	got := m.Windows()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Windows() lost arrival order across chunk boundaries (%d windows, want %d)", len(got), n)
	}
	if !reflect.DeepEqual(m.Totals(), MergeWindows(want)) {
		t.Fatal("Totals() != MergeWindows(Windows())")
	}
	got[0].Component = "mutated"
	if m.Windows()[0].Component != want[0].Component {
		t.Fatal("Windows() returned the sink's own storage, not a copy")
	}

	chunks := m.mem.chunks
	if len(stored) != len(chunks) {
		t.Fatalf("saw %d chunks start, the sink holds %d", len(stored), len(chunks))
	}
	for i, c := range chunks {
		if want := min(1<<i, memChunk); cap(c) != want {
			t.Fatalf("chunk %d has capacity %d, want %d", i, cap(c), want)
		}
		if &c[0] != stored[i] {
			t.Fatalf("chunk %d moved after its first window was stored", i)
		}
	}
}

// retained keeps the plain slice of TestMemorySinkSmallLogAllocs on the
// heap, as a sink's windows are.
var retained []WindowStats

// TestMemorySinkSmallLogAllocs: a sink that closes a few dozen windows, as
// one served generation does, makes no more allocations than appending
// them to one plain slice would (plus the sink itself).
func TestMemorySinkSmallLogAllocs(t *testing.T) {
	w := chunkTestWindow(1)
	sink := testing.AllocsPerRun(20, func() {
		s := NewMemorySink()
		for i := 0; i < 40; i++ {
			_ = s.WriteWindow(w)
		}
	})
	plain := testing.AllocsPerRun(20, func() {
		var ws []WindowStats
		for i := 0; i < 40; i++ {
			ws = append(ws, w)
		}
		retained = ws
	})
	if sink > plain+1 {
		t.Fatalf("40 windows cost the sink %v allocations, a plain slice %v", sink, plain)
	}
}
