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
)

// errInjected is the failure the lifecycle tests plant in a workload.
var errInjected = errors.New("injected failure")

// failingWorkload is the registered pipeline workload with one planted
// failure: Build returns errInjected, or (failBuild false) the built
// instance's self-check does.
type failingWorkload struct {
	platform.Workload
	failBuild bool
}

func (fw failingWorkload) Build(a *core.App, p platform.Platform, opts platform.Options) (platform.Instance, error) {
	if fw.failBuild {
		return nil, errInjected
	}
	inst, err := fw.Workload.Build(a, p, opts)
	if err != nil {
		return nil, err
	}
	return failingCheck{inst}, nil
}

// failingCheck is a workload instance whose self-check always fails.
type failingCheck struct{ platform.Instance }

func (failingCheck) Check() error { return errInjected }

// settleGoroutines waits for the goroutine count to fall back to before.
func settleGoroutines(t *testing.T, when string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines running, %d before the test", when, runtime.NumGoroutine(), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLifecycleFailurePaths plants a Build error and a self-check error in
// the same workload and follows each through both callers of the run
// lifecycle. Run returns the named error. A served run of the workload
// records it, parks after three consecutive failures and relaunches on
// Start. On the wall-clock platform no goroutine outlives the failed Run
// or the closed assembly.
func TestLifecycleFailurePaths(t *testing.T) {
	for _, tc := range []struct {
		name      string
		failBuild bool
	}{
		{"build", true},
		{"check", false},
	} {
		for _, pn := range []string{"smp", "native"} {
			t.Run(tc.name+"/"+pn, func(t *testing.T) {
				p := platform.MustGet(pn)
				w := failingWorkload{Workload: platform.MustGetWorkload("pipeline"), failBuild: tc.failBuild}
				opts := Options{Options: platform.Options{Scale: 40}, Monitor: &monitor.Config{}}
				before := runtime.NumGoroutine()

				if r, err := Run(p, w, opts); !errors.Is(err, errInjected) || r != nil {
					t.Fatalf("Run = %v, %v; want nil, %v", r, err, errInjected)
				}
				if !p.Deterministic() {
					settleGoroutines(t, "after Run", before)
				}

				sr, err := RunServed(p, w, ServedOptions{Options: opts, Pace: time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				defer sr.Close()
				parkedAt := func(gens uint64) func() bool {
					return func() bool {
						st := sr.Stats()
						return st.Stopped && !st.Running && st.Generations == gens
					}
				}
				for round, gens := range []uint64{3, 6} {
					if round > 0 {
						sr.Start()
					}
					waitFor(t, "assembly to park after three failures", parkedAt(gens))
					st := sr.Stats()
					if st.ConsecutiveFailures != 3 || st.CompletedChecks != 0 {
						t.Fatalf("parked with %d consecutive failures, %d passed checks; want 3, 0",
							st.ConsecutiveFailures, st.CompletedChecks)
					}
					if !strings.Contains(st.LastErr, errInjected.Error()) {
						t.Fatalf("LastErr = %q, want the injected failure", st.LastErr)
					}
				}
				sr.Close()
				if !p.Deterministic() {
					settleGoroutines(t, "after Close", before)
				}
			})
		}
	}
}
