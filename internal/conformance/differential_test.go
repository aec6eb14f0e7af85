package conformance_test

import (
	"context"
	"strings"
	"testing"

	"embera/internal/conformance"
	"embera/internal/exp"
	"embera/internal/platform"
)

// batteries are the differential batteries the checked-in tests run, with
// their per-run seed counts: deep runs each seed on every registered
// platform (twice on the deterministic ones); sweep runs a seed range from
// 100 as concurrent RunMatrix cells. The nightly soaks re-run the same
// specs over far larger ranges through `embera-bench -exp DIFF`.
var batteries = []struct {
	name        string
	spec        conformance.Spec
	deep, sweep int
}{
	{"rand", conformance.Spec{Family: "rand"}, 64, 24},
	{"rand+migrate", conformance.Spec{Family: "rand", Migrate: true}, 64, 24},
	{"burst", conformance.Spec{Family: "burst"}, 16, 16},
	{"burst+migrate", conformance.Spec{Family: "burst", Migrate: true}, 8, 16},
}

// deep runs row i of batteries through the deep battery, one parallel
// subtest per seed. A failure message must end with the spec's repro.
func deep(t *testing.T, i int) {
	b := batteries[i]
	for seed := int64(0); seed < int64(b.deep); seed++ {
		t.Run(b.spec.Workload(seed), func(t *testing.T) {
			t.Parallel()
			if err := conformance.Differential(b.spec, seed); err != nil {
				if !strings.HasSuffix(err.Error(), "\nrepro: "+b.spec.Repro(seed)) {
					t.Errorf("failure lacks its repro command: %v", err)
				}
				t.Error(err)
			}
		})
	}
}

// TestDifferentialConformance is the acceptance battery: every rand seed
// runs across all registered platforms under the full differential engine
// — checksum equality everywhere, bit-identical timing fingerprints on
// Deterministic platforms, per-interface flow conservation, monitor/observer
// agreement, sane latency tails, and complete kernel-copy correlation on
// simulated Linux.
func TestDifferentialConformance(t *testing.T) {
	if len(platform.Names()) < 3 {
		t.Fatalf("registered platforms = %v, want at least smp, sti7200, native", platform.Names())
	}
	deep(t, 0)
}

// TestDifferentialConformanceMigrated is the reconfiguration battery: the
// same rand seeds, each run under a seeded schedule of same-target
// migrate/reconnect points injected while the workload flows.
func TestDifferentialConformanceMigrated(t *testing.T) { deep(t, 1) }

// TestDifferentialBurstConformance is the burst-family battery: open-loop
// RPC cells with Poisson/on-off arrival schedules, flow conservation
// against the schedule-derived model.
func TestDifferentialBurstConformance(t *testing.T) { deep(t, 2) }

// TestDifferentialBurstConformanceMigrated runs burst cells under the
// migration scheduler.
func TestDifferentialBurstConformanceMigrated(t *testing.T) { deep(t, 3) }

// TestDifferentialSweep exercises the concurrent RunMatrix-based soak path
// embera-bench uses, for every battery: one matrix call per seed chunk,
// platforms × seeds as isolated cells.
func TestDifferentialSweep(t *testing.T) {
	for _, b := range batteries {
		t.Run(b.name, func(t *testing.T) {
			cells, err := conformance.Sweep(context.Background(), b.spec, 100, b.sweep)
			if err != nil {
				t.Fatal(err)
			}
			if want := b.sweep * len(platform.Names()); cells != want {
				t.Errorf("sweep ran %d cells, want %d", cells, want)
			}
		})
	}
}

// TestSpecRepro pins the repro format the nightly soaks extract.
func TestSpecRepro(t *testing.T) {
	for _, tc := range []struct {
		spec conformance.Spec
		want string
	}{
		{conformance.Spec{Family: "rand"}, "embera-bench -exp DIFF -family rand -seed 9"},
		{conformance.Spec{Family: "burst", Migrate: true}, "embera-bench -exp DIFF -family burst -migrate -seed 9"},
	} {
		if got := tc.spec.Repro(9); got != tc.want {
			t.Errorf("Repro = %q, want %q", got, tc.want)
		}
	}
}

// TestDifferentialFailureEndsWithRepro: a failing cell — here an unknown
// family, which fails every run — surfaces from both entry points, and
// the deep battery's error ends with the spec's repro line.
func TestDifferentialFailureEndsWithRepro(t *testing.T) {
	spec := conformance.Spec{Family: "nosuch", Platforms: []string{"smp"}}
	err := conformance.Differential(spec, 3)
	if err == nil || !strings.HasSuffix(err.Error(), "\nrepro: "+spec.Repro(3)) {
		t.Fatalf("Differential = %v, want an error ending with %q", err, spec.Repro(3))
	}
	if _, err := conformance.Sweep(context.Background(), spec, 0, 1); err == nil {
		t.Fatal("Sweep accepted an unknown family")
	}
}

// TestDifferentialRejectsMalformedSeedNames is the harness-side regression
// for family parsing: a malformed seed travelling the same exp.RunNamed
// path the sweep cells use must surface the uniform registry-listing error
// (the one every binary turns into an exit-2 usage failure), not reach a
// build or run.
func TestDifferentialRejectsMalformedSeedNames(t *testing.T) {
	_, err := exp.RunNamed("smp", "rand:bogus", exp.Options{})
	if err == nil {
		t.Fatal("malformed seed accepted")
	}
	if !strings.Contains(err.Error(), "registered:") {
		t.Errorf("error lacks registry listing: %v", err)
	}
}

// TestDifferentialRejectsMalformedBurstSpecs is the harness-side regression
// for burst-family parsing: malformed specs travelling the same
// exp.RunNamed path the sweep cells use must surface the uniform
// registry-listing error (the one every binary turns into an exit-2 usage
// failure), not panic mid-run.
func TestDifferentialRejectsMalformedBurstSpecs(t *testing.T) {
	for _, name := range []string{
		"burst:rate=-1",
		"burst:rate=0",
		"burst:fanout=9,servers=2",
		"burst:mode=sawtooth",
		"burst:bogus=1",
		"burst:-3",
	} {
		_, err := exp.RunNamed("smp", name, exp.Options{})
		if err == nil {
			t.Fatalf("malformed spec %q accepted", name)
		}
		if !strings.Contains(err.Error(), "registered:") {
			t.Errorf("%q error lacks registry listing: %v", name, err)
		}
	}
}
