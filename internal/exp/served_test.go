package exp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"
)

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	waitWithin(t, 10*time.Second, what, cond)
}

// waitWithin polls cond until it holds or d passes.
func waitWithin(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServedGenerations: RunServed keeps relaunching a finite workload,
// the persistent sink sees windows from every generation, Stop parks the
// loop, Start relaunches it, Close ends it.
func TestServedGenerations(t *testing.T) {
	p := platform.MustGet("smp")
	w, err := platform.GetWorkload("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	var windows atomic.Uint64
	sr, err := RunServed(p, w, ServedOptions{
		Options: Options{
			Options: platform.Options{Scale: 40},
			Monitor: &monitor.Config{
				Sinks: []monitor.Sink{monitor.SinkFunc(func(monitor.WindowStats) error {
					windows.Add(1)
					return nil
				})},
			},
		},
		Pace: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()

	waitFor(t, "3 generations with windows", func() bool {
		return sr.Generations() >= 3 && windows.Load() > 0
	})
	st := sr.Stats()
	if st.Units == 0 || st.CompletedChecks == 0 || st.Samples == 0 {
		t.Fatalf("empty served stats after 3 generations: %+v", st)
	}

	sr.Stop()
	waitFor(t, "assembly to park after Stop", func() bool {
		s := sr.Stats()
		return s.Stopped && !s.Running
	})
	parked := sr.Generations()
	time.Sleep(30 * time.Millisecond)
	if g := sr.Generations(); g != parked {
		t.Fatalf("generations advanced while stopped: %d -> %d", parked, g)
	}

	sr.Start()
	waitFor(t, "generations to resume after Start", func() bool {
		return sr.Generations() > parked
	})

	sr.Close()
	if s := sr.Stats(); s.Running {
		t.Fatalf("assembly still running after Close: %+v", s)
	}
}

// TestServedLiveControl drives the sampling-control surface: period and
// window changes validate and persist, pause freezes the sample counters
// and resume restarts them.
func TestServedLiveControl(t *testing.T) {
	p := platform.MustGet("smp")
	w, err := platform.GetWorkload("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := RunServed(p, w, ServedOptions{
		Options: Options{
			Options: platform.Options{Scale: 40},
			Monitor: &monitor.Config{
				Levels: []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 1000}},
			},
		},
		Pace: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()

	if err := sr.SetPeriod(core.LevelOS, 500); err == nil {
		t.Fatal("SetPeriod accepted a level with no sampler")
	}
	if err := sr.SetPeriod(core.LevelApplication, 0); err == nil {
		t.Fatal("SetPeriod accepted a zero period")
	}
	if err := sr.SetWindowUS(0); err == nil {
		t.Fatal("SetWindowUS accepted a zero window")
	}
	if err := sr.SetPeriod(core.LevelApplication, 250); err != nil {
		t.Fatal(err)
	}
	if err := sr.SetWindowUS(4000); err != nil {
		t.Fatal(err)
	}
	st := sr.Stats()
	if st.WindowUS != 4000 || len(st.Levels) != 1 || st.Levels[0].PeriodUS != 250 {
		t.Fatalf("control changes not reflected in stats: %+v", st)
	}

	waitFor(t, "samples before pause", func() bool { return sr.Stats().Samples > 0 })
	sr.Pause()
	if !sr.Stats().Paused {
		t.Fatal("Paused not reflected in stats")
	}
	// Sampling must go quiet: two successive reads far enough apart for
	// several generations must agree (pause applies to the live monitor and
	// to every new generation's).
	waitFor(t, "sampling to freeze after Pause", func() bool {
		a := sr.Stats().Samples
		time.Sleep(30 * time.Millisecond)
		return sr.Stats().Samples == a
	})
	frozen := sr.Stats().Samples
	sr.Resume()
	waitFor(t, "sampling to resume", func() bool { return sr.Stats().Samples > frozen })
}

// toyWorkload is a minimal native-friendly workload for live-reconnect
// testing: a producer paces messages out over real time to consumer "A",
// leaving consumer "B" idle until a control reconnect rewires the stream
// mid-run.
type toyWorkload struct {
	msgs   int
	a, b   atomic.Int64
	builds atomic.Int64
}

func (tw *toyWorkload) Name() string     { return "servetoy" }
func (tw *toyWorkload) Describe() string { return "reconnect test workload" }

func (tw *toyWorkload) Build(app *core.App, p platform.Platform, opts platform.Options) (platform.Instance, error) {
	tw.builds.Add(1)
	consumer := func(count *atomic.Int64) func(ctx *core.Ctx) {
		return func(ctx *core.Ctx) {
			for {
				if _, ok := ctx.Receive("in"); !ok {
					return
				}
				count.Add(1)
			}
		}
	}
	a, err := app.NewComponent("A", consumer(&tw.a))
	if err != nil {
		return nil, err
	}
	if err := a.AddProvided("in", 0); err != nil {
		return nil, err
	}
	b, err := app.NewComponent("B", consumer(&tw.b))
	if err != nil {
		return nil, err
	}
	if err := b.AddProvided("in", 0); err != nil {
		return nil, err
	}
	prod, err := app.NewComponent("P", func(ctx *core.Ctx) {
		for i := 0; i < tw.msgs; i++ {
			ctx.Send("out", uint64(i), 64)
			ctx.SleepUS(1000)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := prod.AddRequired("out"); err != nil {
		return nil, err
	}
	if err := app.Connect(prod, "out", a, "in"); err != nil {
		return nil, err
	}
	// B needs at least one connected sender or its inbox never closes and
	// the generation cannot drain; the producer never sends on "alt".
	if err := prod.AddRequired("alt"); err != nil {
		return nil, err
	}
	if err := app.Connect(prod, "alt", b, "in"); err != nil {
		return nil, err
	}
	return tw, nil
}

func (tw *toyWorkload) Units() int       { return int(tw.a.Load() + tw.b.Load()) }
func (tw *toyWorkload) Checksum() uint64 { return uint64(tw.Units()) }
func (tw *toyWorkload) Summary() string  { return fmt.Sprintf("a=%d b=%d", tw.a.Load(), tw.b.Load()) }
func (tw *toyWorkload) Check() error     { return nil }

// TestServedReconnect rewires a live native assembly mid-generation
// through the control-op queue and checks both the success path (messages
// land on the new provider) and the error paths (unknown names, parked
// assembly).
func TestServedReconnect(t *testing.T) {
	p := platform.MustGet("native")
	tw := &toyWorkload{msgs: 400} // ~400 ms of paced sending per generation
	sr, err := RunServed(p, tw, ServedOptions{
		Options: Options{Monitor: &monitor.Config{}},
		Pace:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()

	// Reconnect in the first generation, while the producer is pacing: B
	// must start receiving from then on.
	waitFor(t, "first generation to run", func() bool { return sr.Stats().Running })
	if err := sr.Reconnect("nope", "out", "B", "in"); err == nil {
		t.Fatal("Reconnect accepted an unknown source component")
	}
	if err := sr.Reconnect("P", "out", "B", "in"); err != nil {
		t.Fatalf("live reconnect failed: %v", err)
	}
	waitFor(t, "messages on the new provider", func() bool { return tw.b.Load() > 0 })
	if tw.a.Load() == 0 {
		t.Fatal("old provider never received anything before the reconnect")
	}

	sr.Stop()
	waitFor(t, "assembly to park", func() bool {
		s := sr.Stats()
		return s.Stopped && !s.Running
	})
	if err := sr.Reconnect("P", "out", "A", "in"); err != ErrNotRunning {
		t.Fatalf("reconnect on a parked assembly: got %v, want ErrNotRunning", err)
	}
}

// TestServedTerminateComponent force-stops the producer of a live native
// generation through the control queue; the generation drains instead of
// hanging, and an unknown component name errors.
func TestServedTerminateComponent(t *testing.T) {
	p := platform.MustGet("native")
	tw := &toyWorkload{msgs: 100_000} // hours of paced sending: only termination ends it
	sr, err := RunServed(p, tw, ServedOptions{
		Options: Options{Monitor: &monitor.Config{}},
		Pace:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()

	waitFor(t, "generation to run", func() bool { return sr.Stats().Running })
	if err := sr.Terminate("nope"); err == nil {
		t.Fatal("Terminate accepted an unknown component")
	}
	gen := sr.Generations()
	if err := sr.Terminate("P"); err != nil {
		t.Fatalf("terminate failed: %v", err)
	}
	// With the producer dead the generation drains and the loop relaunches.
	waitFor(t, "next generation after termination", func() bool { return sr.Generations() > gen })
}

// TestServedStopDuringLaunch stops the assembly while its second
// generation is launching: Stop runs from the generation's OnMonitor hook,
// after the launch counted it and before it was published as running. The
// stop must still reach that generation, which would otherwise pace
// through 100,000 messages, about 100 s, before Running turns false.
func TestServedStopDuringLaunch(t *testing.T) {
	p := platform.MustGet("native")
	tw := &toyWorkload{msgs: 100_000}
	var srp atomic.Pointer[ServedRun]
	var launches atomic.Int64
	// The stopped generation's Customize runs after it was published: it
	// records whether Stats read it as running, and what a control op sent
	// from another goroutine then answered within 1 s.
	var publishedRunning atomic.Bool
	opErr := make(chan error, 1)
	sr, err := RunServed(p, tw, ServedOptions{
		Options: Options{
			Monitor: &monitor.Config{},
			OnMonitor: func(*monitor.Monitor) {
				if launches.Add(1) == 2 {
					srp.Load().Stop()
				}
			},
			Customize: func(*core.App, *core.Observer) {
				if launches.Load() != 2 {
					return
				}
				publishedRunning.Store(srp.Load().Stats().Running)
				answer := make(chan error, 1)
				go func() { answer <- srp.Load().Reconnect("P", "out", "B", "in") }()
				select {
				case err := <-answer:
					opErr <- err
				case <-time.After(time.Second):
					opErr <- fmt.Errorf("no answer within 1 s")
				}
			},
		},
		Pace: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srp.Store(sr)
	defer sr.Close()

	waitFor(t, "first generation to run", func() bool { return sr.Stats().Running })
	if err := sr.Terminate("P"); err != nil {
		t.Fatalf("terminate failed: %v", err)
	}
	waitFor(t, "second generation to launch", func() bool { return launches.Load() >= 2 })
	waitWithin(t, 5*time.Second, "the launching generation to stop", func() bool {
		s := sr.Stats()
		return s.Stopped && !s.Running
	})
	if g := sr.Generations(); g != 2 {
		t.Fatalf("generations = %d after a stop during the second launch, want 2", g)
	}
	if publishedRunning.Load() {
		t.Fatal("the generation stopped during its launch was published as running")
	}
	if err := <-opErr; !errors.Is(err, ErrNotRunning) {
		t.Fatalf("reconnect on the generation stopped during its launch: %v, want ErrNotRunning", err)
	}
}
