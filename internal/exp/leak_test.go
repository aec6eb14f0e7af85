package exp

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/sim"
)

// deadlockWorkload is two components, each waiting on the other's first
// message: neither inbox ever closes, so the run deadlocks.
type deadlockWorkload struct{}

func (deadlockWorkload) Name() string     { return "deadlock" }
func (deadlockWorkload) Describe() string { return "two components waiting on each other" }

func (deadlockWorkload) Build(a *core.App, _ platform.Platform, _ platform.Options) (platform.Instance, error) {
	wait := func(ctx *core.Ctx) { ctx.Receive("in") }
	x := a.MustNewComponent("x", wait).MustAddProvided("in", 0).MustAddRequired("out")
	y := a.MustNewComponent("y", wait).MustAddProvided("in", 0).MustAddRequired("out")
	a.MustConnect(x, "out", y, "in")
	a.MustConnect(y, "out", x, "in")
	return deadlockInstance{}, nil
}

type deadlockInstance struct{}

func (deadlockInstance) Units() int       { return 0 }
func (deadlockInstance) Checksum() uint64 { return 0 }
func (deadlockInstance) Check() error     { return nil }
func (deadlockInstance) Summary() string  { return "deadlocked" }

// TestSimulatedRunsLeaveNoGoroutines runs 20 rounds on both simulators —
// an observed and a bare exp.Run, a deadlocked assembly through exp.Run,
// whose quiescence driver waits without polling, so the kernel names the
// deadlock at once, and one the horizon cuts short, run on the machine
// directly (exp.Run's horizon is fixed) — and requires the goroutine count
// to come back to where it started. Every simulated process, the
// observation daemons included, must end with its run.
func TestSimulatedRunsLeaveNoGoroutines(t *testing.T) {
	w := platform.MustGetWorkload("pipeline")
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		for _, pn := range []string{"smp", "sti7200"} {
			p := platform.MustGet(pn)
			for _, mon := range []*monitor.Config{{}, nil} {
				res, err := Run(p, w, Options{Options: platform.Options{Scale: 8}, Monitor: mon})
				if err != nil {
					t.Fatalf("%s: %v", pn, err)
				}
				if n := res.Kernel.Live(); n != 0 {
					t.Fatalf("%s: %d processes live after the run", pn, n)
				}
			}
			t0 := time.Now()
			_, err := Run(p, deadlockWorkload{}, Options{})
			var de *sim.DeadlockError
			if !errors.As(err, &de) || len(de.Parked) != 2 ||
				!strings.Contains(err.Error(), "x (") || !strings.Contains(err.Error(), "y (") {
				t.Fatalf("%s: deadlocked exp.Run returned %v, want a *sim.DeadlockError naming x and y", pn, err)
			}
			if d := time.Since(t0); d > time.Second {
				t.Fatalf("%s: deadlocked exp.Run took %v to fail, want under 1 s", pn, d)
			}
			cut := func(w platform.Workload, horizonUS int64) error {
				m, a := p.New(w.Name())
				if _, err := w.Build(a, p, platform.Options{Scale: 8}); err != nil {
					t.Fatal(err)
				}
				if _, err := a.AttachObserver(); err != nil {
					t.Fatal(err)
				}
				if err := a.Start(); err != nil {
					t.Fatal(err)
				}
				err := m.Run(horizonUS)
				if n := m.Kernel().Live(); n != 0 {
					t.Fatalf("%s×%s: %d processes live after the run", pn, w.Name(), n)
				}
				return err
			}
			if err := cut(w, 1); err == nil || !strings.Contains(err.Error(), "horizon") {
				t.Fatalf("%s: run cut at 1 µs returned %v, want a horizon error", pn, err)
			}
		}
	}
	settleGoroutines(t, "after 20 rounds of simulated runs", before)
}
