package monitor

import (
	"math"
	"testing"

	"embera/internal/core"
)

func TestHistBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	// 90 zeros and 10 values of 8..15: p50 must land in the zero bucket,
	// p95/p99 in the [8,16) bucket whose upper edge is 15.
	for i := 0; i < 90; i++ {
		h.Observe(0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(8 + int64(i%8))
	}
	if got := h.Quantile(0.50); got != 0 {
		t.Errorf("p50 = %d, want 0", got)
	}
	for _, q := range []float64{0.95, 0.99} {
		if got := h.Quantile(q); got != 15 {
			t.Errorf("p%.0f = %d, want 15", q*100, got)
		}
	}
	if h.Total != 100 {
		t.Errorf("total = %d, want 100", h.Total)
	}
	// The quantile upper bound never undershoots the true value and never
	// overshoots it by more than 2x.
	var g Hist
	for v := int64(1); v <= 1000; v++ {
		g.Observe(v)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		truth := float64(int64(q * 1000))
		got := float64(g.Quantile(q))
		if got < truth || got > 2*truth {
			t.Errorf("q=%v: got %v, true %v (want [truth, 2*truth])", q, got, truth)
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	a.Observe(1)
	a.Observe(100)
	b.Observe(100)
	a.Merge(&b)
	if a.Total != 3 {
		t.Fatalf("merged total = %d, want 3", a.Total)
	}
	// The [64,128) bucket's upper edge is 127, but quantiles clamp to the
	// largest observed value.
	if got := a.Quantile(0.99); got != 100 {
		t.Fatalf("merged p99 = %d, want 100 (clamped to observed max)", got)
	}
	if a.Max != 100 {
		t.Fatalf("merged max = %d, want 100", a.Max)
	}
}

// mkSample builds a monitor sample with cumulative counters.
func mkSample(comp string, tUS int64, sendOps, recvOps uint64, sendUS int64, depth int) Sample {
	s := Sample{TimeUS: tUS}
	s.Component = comp
	s.SendOps, s.RecvOps = sendOps, recvOps
	s.SendUS = sendUS
	s.Depth = depth
	return s
}

func TestAggregatorRatesAndDeltas(t *testing.T) {
	ag := NewAggregator(0)
	// Window 1 (0..10ms): A goes from 0 to 10 sends; depth peaks at 7.
	ag.Add(mkSample("A", 2_000, 4, 2, 40, 3))
	ag.Add(mkSample("A", 8_000, 10, 5, 100, 7))
	w := ag.Flush(10_000)
	if len(w) != 1 {
		t.Fatalf("window count = %d, want 1", len(w))
	}
	a := w[0]
	if a.DeltaSendOps != 10 || a.DeltaRecvOps != 5 {
		t.Fatalf("deltas = %d/%d, want 10/5", a.DeltaSendOps, a.DeltaRecvOps)
	}
	// The counters were observed from the window open (baseline) to the
	// last sample at 8ms — rates divide by that covered interval, not the
	// nominal 10ms window.
	if a.CoveredUS != 8_000 {
		t.Fatalf("covered = %dµs, want 8000", a.CoveredUS)
	}
	if math.Abs(a.SendRate-1250) > 1e-9 { // 10 ops / 8ms covered
		t.Fatalf("send rate = %v, want 1250", a.SendRate)
	}
	if a.DepthHigh != 7 || a.Samples != 2 {
		t.Fatalf("depthHigh/samples = %d/%d, want 7/2", a.DepthHigh, a.Samples)
	}
	// Inter-sample mean send latency: (100-40)µs over 6 ops = 10µs.
	if got := a.LatencyHist.Total; got != 1 {
		t.Fatalf("latency observations = %d, want 1", got)
	}
	if got := a.LatencyHist.Quantile(0.5); got != 10 { // clamped to max
		t.Fatalf("latency p50 = %d, want 10", got)
	}

	// Window 2 (10..20ms): counters continue from the window-1 baseline.
	ag.Add(mkSample("A", 12_000, 30, 9, 400, 2))
	w = ag.Flush(20_000)
	a = w[0]
	if a.DeltaSendOps != 20 {
		t.Fatalf("window-2 delta = %d, want 20", a.DeltaSendOps)
	}
	if a.StartUS != 10_000 || a.EndUS != 20_000 {
		t.Fatalf("window bounds = %d..%d, want 10000..20000", a.StartUS, a.EndUS)
	}
	if a.CoveredUS != 4_000 { // previous sample at 8ms, this one at 12ms
		t.Fatalf("window-2 covered = %dµs, want 4000", a.CoveredUS)
	}
	if a.DepthHigh != 2 {
		t.Fatalf("window-2 depthHigh = %d, want 2 (window state must reset)", a.DepthHigh)
	}

	// Window 3: no samples for A — nothing emitted.
	if w = ag.Flush(30_000); len(w) != 0 {
		t.Fatalf("empty window emitted %d stats", len(w))
	}
}

// TestAggregatorCoveredIntervalRates pins the adaptive-backoff rate fix:
// when sampling stretches past the window (ticks rarer than flushes), the
// delta spans several nominal windows and the rate must divide by that real
// interval, not the window length.
func TestAggregatorCoveredIntervalRates(t *testing.T) {
	ag := NewAggregator(0)
	ag.Add(mkSample("A", 5_000, 10, 0, 0, 0))
	w := ag.Flush(10_000)
	if w[0].CoveredUS != 5_000 {
		t.Fatalf("covered = %dµs, want 5000", w[0].CoveredUS)
	}
	// The sampler backed off: no ticks land in the 10..20ms window at all.
	if w = ag.Flush(20_000); len(w) != 0 {
		t.Fatalf("sampleless window emitted %d stats", len(w))
	}
	// One stretched tick at 30ms: 50 ops since the 5ms baseline.
	ag.Add(mkSample("A", 30_000, 60, 0, 0, 0))
	w = ag.Flush(30_000)
	a := w[0]
	if a.DeltaSendOps != 50 {
		t.Fatalf("delta = %d, want 50", a.DeltaSendOps)
	}
	if a.CoveredUS != 25_000 {
		t.Fatalf("covered = %dµs, want 25000 (spanning the sampleless window)", a.CoveredUS)
	}
	// 50 ops / 25ms = 2000 op/s; dividing by the nominal 10ms window would
	// have claimed 5000 op/s.
	if math.Abs(a.SendRate-2000) > 1e-9 {
		t.Fatalf("send rate = %v, want 2000", a.SendRate)
	}
}

// TestAggregatorLevelFacets verifies that OS-level samples enrich the
// window with memory high-water marks without double-weighting the
// occupancy histogram when they coincide with application-level ticks.
func TestAggregatorLevelFacets(t *testing.T) {
	ag := NewAggregator(0)
	app := mkSample("A", 1_000, 2, 0, 0, 6)
	app.Level = core.LevelApplication
	ag.Add(app)
	osS := mkSample("A", 1_000, 2, 0, 0, 6) // coincident OS sweep, same state
	osS.Level = core.LevelOS
	osS.MemBytes = 4096
	ag.Add(osS)
	w := ag.Flush(10_000)[0]
	if w.Samples != 2 {
		t.Fatalf("samples = %d, want 2 (all levels counted)", w.Samples)
	}
	if w.DepthHist.Total != 1 {
		t.Fatalf("depth observations = %d, want 1 (OS sample must not double-weight)",
			w.DepthHist.Total)
	}
	if w.MemHigh != 4096 {
		t.Fatalf("mem high = %d, want 4096 (from the OS sample)", w.MemHigh)
	}
}

func TestAggregatorMultiComponentOrder(t *testing.T) {
	ag := NewAggregator(0)
	ag.Add(mkSample("Zeta", 1, 1, 0, 0, 0))
	ag.Add(mkSample("Alpha", 1, 2, 0, 0, 0))
	w := ag.Flush(1000)
	if len(w) != 2 || w[0].Component != "Alpha" || w[1].Component != "Zeta" {
		t.Fatalf("windows not in component order: %+v", w)
	}
}

func TestMergeWindows(t *testing.T) {
	ag := NewAggregator(0)
	ag.Add(mkSample("A", 1_000, 5, 0, 0, 4))
	// Flush returns the aggregator's reusable buffer: copy before flushing
	// again, as any window-retaining consumer must.
	w1 := append([]WindowStats(nil), ag.Flush(10_000)...)
	ag.Add(mkSample("A", 11_000, 25, 0, 0, 9))
	w2 := ag.Flush(20_000)
	tot := MergeWindows(append(w1, w2...))
	if len(tot) != 1 {
		t.Fatalf("total count = %d, want 1", len(tot))
	}
	a := tot[0]
	if a.DeltaSendOps != 25 || a.SendOps != 25 {
		t.Fatalf("merged sends = %d/%d, want 25/25", a.DeltaSendOps, a.SendOps)
	}
	if a.DepthHigh != 9 {
		t.Fatalf("merged depthHigh = %d, want 9", a.DepthHigh)
	}
	if a.StartUS != 0 || a.EndUS != 20_000 {
		t.Fatalf("merged span = %d..%d, want 0..20000", a.StartUS, a.EndUS)
	}
	// Covered spans accumulate across windows: 1ms + 10ms here.
	if a.CoveredUS != 11_000 {
		t.Fatalf("merged covered = %dµs, want 11000", a.CoveredUS)
	}
	want := 25 / (11_000.0 / 1e6) // 25 ops over the 11ms actually covered
	if math.Abs(a.SendRate-want) > 1e-9 {
		t.Fatalf("merged rate = %v, want %v", a.SendRate, want)
	}
	if a.DepthHist.Total != 2 {
		t.Fatalf("merged depth observations = %d, want 2", a.DepthHist.Total)
	}
}

// TestAggregatorOrderIndependent: the fold finds each sample's accumulator
// by position and falls back to the name, so the windows do not depend on
// the order samples arrive in. Ticks folded in order, reversed, shuffled
// and with a component that appears only from the third tick on all close
// the same windows.
func TestAggregatorOrderIndependent(t *testing.T) {
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	ticks := func(order func(tick int, idx []int)) []WindowStats {
		ag := NewAggregator(0)
		var out []WindowStats
		for tick := 1; tick <= 40; tick++ {
			idx := []int{0, 1, 2, 3, 4, 5}
			order(tick, idx)
			for _, i := range idx {
				if i == 5 && tick < 3 {
					continue
				}
				// A fresh string each time: the name is equal, not identical.
				name := string([]byte(names[i]))
				ag.Add(mkSample(name, int64(tick*1000), uint64(tick*(i+1)), uint64(tick*2),
					int64(tick*tick*(i+1)), (tick*7+i)%9))
			}
			if tick%10 == 0 {
				out = append(out, ag.Flush(int64(tick*1000))...)
			}
		}
		return out
	}
	want := ticks(func(int, []int) {})
	for name, order := range map[string]func(int, []int){
		"reversed": func(_ int, idx []int) {
			for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
				idx[i], idx[j] = idx[j], idx[i]
			}
		},
		"shuffled": func(tick int, idx []int) {
			for i := len(idx) - 1; i > 0; i-- {
				j := (tick*31 + i*17) % (i + 1)
				idx[i], idx[j] = idx[j], idx[i]
			}
		},
	} {
		got := ticks(order)
		if len(got) != len(want) {
			t.Fatalf("%s: %d windows, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: window %d differs:\n got %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
	}
}
