package monitor

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"embera/internal/core"
	"embera/internal/linux"
	"embera/internal/sim"
	"embera/internal/smp"
	"embera/internal/smpbind"
)

// chunkTestComps are the components of chunkTestWindow's log.
var chunkTestComps = [3]string{"c0", "c1", "c2"}

// chunkTestWindow is the i-th window of a three-component window log.
func chunkTestWindow(i int) WindowStats {
	w := WindowStats{
		Component: chunkTestComps[i%3],
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

// extremeWindow exercises every field of the compact log at its limits:
// all 64 buckets of both histograms nonzero, the int64 extremes, NaN and
// infinite rates.
func extremeWindow(name string) WindowStats {
	w := WindowStats{
		Component: name,
		StartUS:   math.MinInt64, EndUS: math.MaxInt64,
		CoveredUS: -1,
		Samples:   math.MinInt,
		SendOps:   math.MaxUint64, RecvOps: 0,
		DeltaSendOps: 1, DeltaRecvOps: math.MaxUint64,
		SendRate: math.NaN(), RecvRate: math.Inf(-1),
		DepthHigh: math.MaxInt,
		MemHigh:   math.MinInt64,
	}
	for i := range histBuckets {
		w.DepthHist.Counts[i] = uint64(i + 1)
		w.LatencyHist.Counts[i] = math.MaxUint64 - uint64(i)
	}
	w.DepthHist.Total, w.DepthHist.Max = math.MaxUint64, math.MaxInt64
	w.LatencyHist.Total, w.LatencyHist.Max = 0, math.MinInt64
	return w
}

// sameWindow compares windows bit for bit, so a NaN rate equals itself.
func sameWindow(a, b WindowStats) bool {
	if math.Float64bits(a.SendRate) != math.Float64bits(b.SendRate) ||
		math.Float64bits(a.RecvRate) != math.Float64bits(b.RecvRate) {
		return false
	}
	a.SendRate, a.RecvRate, b.SendRate, b.RecvRate = 0, 0, 0, 0
	return reflect.DeepEqual(a, b)
}

// TestMemorySinkRoundTrip holds the compact window log to the contract of
// a plain slice of windows: every field comes back bit for bit, extremes
// included, in arrival order, as a fresh copy on every call, and
// Totals is MergeWindows(Windows()).
func TestMemorySinkRoundTrip(t *testing.T) {
	if NewMemorySink().Windows() != nil {
		t.Fatal("an empty sink's Windows() is not nil")
	}
	long := strings.Repeat("component/", 1000)
	want := []WindowStats{extremeWindow(""), extremeWindow(long), {}, extremeWindow("c0")}
	want[3].SendRate, want[3].RecvRate = math.Inf(1), math.Copysign(0, -1)
	s := NewMemorySink()
	for _, w := range want {
		_ = s.WriteWindow(w)
	}
	got := s.Windows()
	if len(got) != len(want) {
		t.Fatalf("Windows() holds %d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameWindow(got[i], want[i]) {
			t.Fatalf("window %d came back as\n%+v\nwant\n%+v", i, got[i], want[i])
		}
	}

	k := sim.NewKernel()
	a := core.NewApp("log", smpbind.New(linux.NewSystem(smp.MustNew(k, smp.DefaultConfig())), "log"))
	m, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want = want[:0]
	for i := 0; i < 3000; i++ { // past several arena chunks
		w := chunkTestWindow(i)
		want = append(want, w)
		m.Ingest(w)
	}
	got = m.Windows()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Windows() lost arrival order (%d windows, want %d)", len(got), len(want))
	}
	if !reflect.DeepEqual(m.Totals(), MergeWindows(want)) {
		t.Fatal("Totals() != MergeWindows(Windows())")
	}
	got[0].Component = "mutated"
	got[0].DepthHist.Counts[0]++
	if again := m.Windows(); !reflect.DeepEqual(again, want) {
		t.Fatal("Windows() returned storage a caller can mutate, not a fresh copy")
	}
}

// logBytes is the heap a fresh sink allocates to log n chunkTestWindows:
// the least of three measurements. TotalAlloc is process-wide, so another
// goroutine's allocation can only add to a measurement, never take away.
func logBytes(n int) uint64 {
	least := ^uint64(0)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		s := NewMemorySink()
		for i := 0; i < n; i++ {
			_ = s.WriteWindow(chunkTestWindow(i))
		}
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(s)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// TestMemorySinkBytes bounds what the log costs: a short one, as one served
// generation closes, stays within a few kilobytes, and a long one within a
// small fraction of the WindowStats it stands for.
func TestMemorySinkBytes(t *testing.T) {
	const perWindow = uint64(unsafe.Sizeof(WindowStats{}))
	short := logBytes(40)
	t.Logf("40 windows: %d bytes", short)
	if short > 8<<10 {
		t.Errorf("a 40-window log allocated %d bytes, want at most 8 KiB (%d as WindowStats)", short, 40*perWindow)
	}
	const n = 20_000
	got := logBytes(n)
	t.Logf("%d windows: %d bytes", n, got)
	if got > n*perWindow/16 {
		t.Errorf("a %d-window log allocated %d bytes, want at most %d (1/16 of it as WindowStats)",
			n, got, n*perWindow/16)
	}
}

// TestMemorySinkConcurrentRead races a writer against Windows(): every
// read sees a prefix of the writes, in order. Run it under -race.
func TestMemorySinkConcurrentRead(t *testing.T) {
	s := NewMemorySink()
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			_ = s.WriteWindow(chunkTestWindow(i))
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for i, w := range s.Windows() {
			if !reflect.DeepEqual(w, chunkTestWindow(i)) {
				t.Fatalf("window %d of a concurrent read is not the %dth write", i, i)
			}
		}
	}
	if got := len(s.Windows()); got != n {
		t.Fatalf("sink holds %d windows after %d writes", got, n)
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

// TestMemorySinkSparseBuckets: a histogram with a single nonzero bucket,
// at every index of every eight-bucket block, comes back from the log
// bit for bit, as do windows whose components arrive out of the order
// they were first seen in.
func TestMemorySinkSparseBuckets(t *testing.T) {
	var want []WindowStats
	for i := range histBuckets {
		w := WindowStats{Component: chunkTestComps[(i*7)%3], StartUS: int64(i)}
		w.DepthHist.Counts[i] = uint64(i + 1)
		w.LatencyHist.Counts[histBuckets-1-i] = 1
		w.DepthHist.Total, w.LatencyHist.Total = uint64(i+1), 1
		want = append(want, w)
	}
	s := NewMemorySink()
	for _, w := range want {
		s.writeWindow(&w)
	}
	got := s.Windows()
	if len(got) != len(want) {
		t.Fatalf("Windows() holds %d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameWindow(got[i], want[i]) {
			t.Fatalf("window %d came back as\n%+v\nwant\n%+v", i, got[i], want[i])
		}
	}
}
