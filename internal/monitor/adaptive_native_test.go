package monitor_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"

	_ "embera/internal/fuzzwl" // register the rand:<seed> workload family
)

const nativeHorizonUS = int64(60 * 1e6)

// windowedSamples sums the per-window sample counts: the number of samples
// that made it all the way through the pipeline into closed windows.
func windowedSamples(ws []monitor.WindowStats) uint64 {
	var n uint64
	for _, w := range ws {
		n += uint64(w.Samples)
	}
	return n
}

// TestAdaptiveBudgetBacksOffNative runs a saturating seeded random workload
// on the native platform under a deliberately impossible overhead budget:
// the controller must back the effective period off the configured base
// (visible through EffectiveLevels), the base period must stay what was
// configured, and the exact accounting contract — every accepted sample
// lands in a closed window — must survive the backoff.
func TestAdaptiveBudgetBacksOffNative(t *testing.T) {
	p := platform.MustGet("native")
	m, a := p.New("adaptive-backoff")
	w := platform.MustGetWorkload("rand:7")
	if _, err := w.Build(a, p, platform.Options{Scale: 60}); err != nil {
		t.Fatal(err)
	}
	// A straggler pins the run open for ~30 ms of wall time so the samplers
	// take enough governed ticks for the EWMA to move, however fast the
	// random DAG itself drains.
	a.MustNewComponent("straggler", func(ctx *core.Ctx) { ctx.SleepUS(30_000) })
	mon, err := monitor.New(a, monitor.Config{
		Levels: []monitor.LevelPeriod{{Level: core.LevelAll, PeriodUS: 100}},
		// With ticks costing microseconds, a 0.0001% budget demands a
		// period of seconds: the controller must saturate well above base.
		OverheadBudgetPct: 0.0001,
		WindowUS:          2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(nativeHorizonUS); err != nil {
		t.Fatal(err)
	}

	base := mon.Levels()[0].PeriodUS
	eff := mon.EffectiveLevels()[0].PeriodUS
	if base != 100 {
		t.Fatalf("base period = %dµs, want the configured 100", base)
	}
	if eff <= base {
		t.Fatalf("effective period = %dµs, want > base %dµs under an impossible budget", eff, base)
	}
	if mon.OverheadBudgetPct() != 0.0001 {
		t.Fatalf("OverheadBudgetPct() = %g, want 0.0001", mon.OverheadBudgetPct())
	}
	if mon.Samples() == 0 {
		t.Fatal("no samples accepted at all")
	}
	if got, want := windowedSamples(mon.Windows()), mon.Samples(); got != want {
		t.Fatalf("windowed samples = %d, accepted = %d; backoff broke exact accounting", got, want)
	}
}

// TestAdaptiveBackoffRatesCoverActualInterval pins the window-rate fix
// under real OverheadBudgetPct backoff: with the sampler governed down to
// the 1000× cap, consecutive ticks arrive many nominal windows apart, the
// windows must record the stretched covered interval, and every rate must
// divide by it — dividing by the 2 ms window length would inflate the rates
// ~25× here.
func TestAdaptiveBackoffRatesCoverActualInterval(t *testing.T) {
	m, a := platform.MustGet("native").New("backoff-rates")
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < 300; i++ {
			ctx.SleepUS(500) // a steady sender pinning the run open ~150 ms
			ctx.Send("out", i, 256)
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 1<<16)
	a.MustConnect(prod, "out", cons, "in")
	mon, err := monitor.New(a, monitor.Config{
		Levels: []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 50}},
		// Any measurable tick cost blows a 1e-7 % budget, so the governor
		// saturates at the 1000× cap after the first tick: subsequent ticks
		// land 50 ms apart while windows keep flushing every 2 ms.
		OverheadBudgetPct: 1e-7,
		WindowUS:          2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(nativeHorizonUS); err != nil {
		t.Fatal(err)
	}
	if eff, base := mon.EffectiveLevels()[0].PeriodUS, mon.Levels()[0].PeriodUS; eff <= base {
		t.Fatalf("effective period = %dµs, want > base %dµs", eff, base)
	}
	stretched := false
	for _, w := range mon.Windows() {
		if w.CoveredUS <= 0 {
			t.Fatalf("window %s %d..%d has covered = %d", w.Component, w.StartUS, w.EndUS, w.CoveredUS)
		}
		// Rates must be computed over the covered interval, exactly.
		if w.DeltaSendOps > 0 {
			want := float64(w.DeltaSendOps) / (float64(w.CoveredUS) / 1e6)
			if math.Abs(w.SendRate-want) > 1e-6 {
				t.Fatalf("window %s %d..%d: send rate %v, want %v over covered %dµs",
					w.Component, w.StartUS, w.EndUS, w.SendRate, want, w.CoveredUS)
			}
		}
		if w.CoveredUS > 3*(w.EndUS-w.StartUS) {
			stretched = true
		}
	}
	if !stretched {
		t.Fatal("no window recorded a covered interval stretched past its nominal span — backoff never showed up in the rates")
	}
}

// TestSetPeriodWakesNativeSampler pins the live-retune latency: a sampler
// parked in a 10-second wait must apply a SetPeriod to 500 µs immediately,
// not after the old sleep expires. Before the wake channel this test could
// not pass — the first tick at the new period arrived 10 s in.
func TestSetPeriodWakesNativeSampler(t *testing.T) {
	m, a := platform.MustGet("native").New("retune-wake")
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < 300; i++ {
			ctx.SleepUS(200) // pin the run open ~60 ms of wall time
			ctx.Send("out", i, 256)
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 1<<16)
	a.MustConnect(prod, "out", cons, "in")
	mon, err := monitor.New(a, monitor.Config{
		Levels:   []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 10_000_000}},
		WindowUS: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	var retuneErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond) // let the sampler park in its 10 s wait
		retuneErr = mon.SetPeriod(core.LevelApplication, 500)
	}()
	if err := m.Run(nativeHorizonUS); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if retuneErr != nil {
		t.Fatal(retuneErr)
	}
	// ~55 ms of run left after the retune at 500 µs over two components:
	// well over a hundred samples if the wake worked, at most a handful
	// (the wind-down tick) if the sampler slept out the old period.
	if got := mon.Samples(); got < 20 {
		t.Fatalf("samples after live retune = %d, want ≥ 20 — SetPeriod did not interrupt the wait", got)
	}
	if got, want := windowedSamples(mon.Windows()), mon.Samples(); got != want {
		t.Fatalf("windowed samples = %d, accepted = %d", got, want)
	}
}

// TestNativeControlChurnExactAccounting hammers the control surface —
// Pause, Resume, SetPeriod retunes — while the application runs on the
// wall-clock platform, then checks the invariant the conformance harness
// relies on: accepted samples equal windowed samples, exactly, no matter
// how the controls interleaved with the samplers and the pump.
func TestNativeControlChurnExactAccounting(t *testing.T) {
	m, a := platform.MustGet("native").New("control-churn")
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < 250; i++ {
			ctx.SleepUS(200)
			ctx.Send("out", i, 512)
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 1<<16)
	a.MustConnect(prod, "out", cons, "in")
	mon, err := monitor.New(a, monitor.Config{
		Levels:   []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 100}},
		WindowUS: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	churnDone := make(chan error, 1)
	go func() {
		periods := []int64{300, 100, 700, 100}
		for i := 0; i < 8; i++ {
			mon.Pause()
			time.Sleep(time.Millisecond)
			mon.Resume()
			if err := mon.SetPeriod(core.LevelApplication, periods[i%len(periods)]); err != nil {
				churnDone <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		churnDone <- nil
	}()
	if err := m.Run(nativeHorizonUS); err != nil {
		t.Fatal(err)
	}
	if err := <-churnDone; err != nil {
		t.Fatal(err)
	}
	if mon.Paused() {
		t.Fatal("monitor left paused after churn")
	}
	if mon.Samples() == 0 {
		t.Fatal("no samples accepted across the churn")
	}
	if got, want := windowedSamples(mon.Windows()), mon.Samples(); got != want {
		t.Fatalf("windowed samples = %d, accepted = %d; control churn broke exact accounting", got, want)
	}
}

// TestMonitorShardsDefaultClampsToComponents: with no explicit RingShards
// the monitor spreads the ring across min(GOMAXPROCS, components) SPSC
// shards — never more shards than components, since samples shard by
// component index.
func TestMonitorShardsDefaultClampsToComponents(t *testing.T) {
	a, _ := buildPipelineApp(t, 1, 0) // two components
	mon, err := monitor.New(a, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.Ring().Shards(); got > 2 || got < 1 {
		t.Fatalf("default ring shards = %d, want within [1, 2] for a 2-component app", got)
	}
}

// TestMonitorNativeWindDown: the samplers and the pump are timers the app
// wakes when its last component finishes, so a native run monitored at a
// 10 s period and a 10 s window ends with its application, about 20 ms
// in, instead of sleeping out a period, and still accounts for every
// sample.
func TestMonitorNativeWindDown(t *testing.T) {
	m, a := platform.MustGet("native").New("wind-down")
	a.MustNewComponent("short", func(ctx *core.Ctx) { ctx.SleepUS(20_000) })
	mon, err := monitor.New(a, monitor.Config{
		Levels:   []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 10_000_000}},
		WindowUS: 10_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(nativeHorizonUS); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("monitored run took %v, want its application's ~20ms, well under 1s", took)
	}
	if mon.Samples() == 0 {
		t.Fatal("the wind-down tick took no sample")
	}
	if got, want := windowedSamples(mon.Windows()), mon.Samples(); got != want {
		t.Fatalf("windowed samples = %d, accepted = %d", got, want)
	}
}

// TestMonitorStopHaltsNativeSampler: Stop ends sampling on a native run
// that never quiesces — a consumer waits on a mailbox no one sends to —
// and nothing samples after it, before or after the machine is
// interrupted.
func TestMonitorStopHaltsNativeSampler(t *testing.T) {
	m, a := platform.MustGet("native").New("stop")
	a.MustNewComponent("stuck", func(ctx *core.Ctx) { ctx.Receive("in") }).MustAddProvided("in", 1<<10)
	mon, err := monitor.New(a, monitor.Config{
		Levels:   []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 500}},
		WindowUS: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- m.Run(nativeHorizonUS) }()
	for deadline := time.Now().Add(5 * time.Second); mon.Samples() < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d samples before Stop", mon.Samples())
		}
		time.Sleep(time.Millisecond)
	}
	mon.Stop()
	time.Sleep(10 * time.Millisecond) // the tick Stop fires, then nothing
	stopped := mon.Samples()
	time.Sleep(20 * time.Millisecond)
	if got := mon.Samples(); got != stopped {
		t.Fatalf("samples went %d → %d in the 20ms after Stop", stopped, got)
	}
	m.(platform.Interruptible).Interrupt()
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := mon.Samples(); got != stopped {
		t.Fatalf("samples went %d → %d after the interrupted run", stopped, got)
	}
	if got := windowedSamples(mon.Windows()); got != stopped {
		t.Fatalf("windowed samples = %d, accepted = %d", got, stopped)
	}
}
