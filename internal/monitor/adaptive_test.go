package monitor

import (
	"runtime"
	"testing"
	"time"
)

// TestGovernPeriodLaw pins the controller law: the effective period is the
// smallest period ≥ base whose duty cycle fits the budget, capped at
// maxBackoffFactor×base, and with the controller disabled (zero budget) it
// is exactly the base.
func TestGovernPeriodLaw(t *testing.T) {
	cases := []struct {
		name   string
		ewmaNs int64
		baseUS int64
		budget float64
		want   int64
	}{
		{"zero budget disables", 1_000_000_000, 1000, 0, 1000},
		{"negative budget disables", 1_000_000_000, 1000, -3, 1000},
		{"cheap ticks keep base", 1000, 1000, 1.0, 1000},
		{"boundary lands on base", 10_000, 1000, 1.0, 1000},
		{"10x over budget backs off 10x", 100_000, 1000, 1.0, 10_000},
		{"tighter budget backs off further", 100_000, 1000, 0.1, 100_000},
		{"looser budget backs off less", 100_000, 1000, 10, 1000},
		{"runaway cost hits the cap", 1e15, 1000, 1.0, 1000 * maxBackoffFactor},
		{"zero cost keeps base", 0, 250, 0.5, 250},
	}
	for _, c := range cases {
		if got := governPeriodUS(c.ewmaNs, c.baseUS, c.budget); got != c.want {
			t.Errorf("%s: governPeriodUS(%d, %d, %g) = %d, want %d",
				c.name, c.ewmaNs, c.baseUS, c.budget, got, c.want)
		}
	}
	// The law's whole point, checked symbolically: at the governed period a
	// tick costing the EWMA spends exactly the budgeted share of host time.
	eff := governPeriodUS(100_000, 1000, 1.0)
	if duty := float64(100_000) / (float64(eff) * 1000) * 100; duty > 1.0001 {
		t.Errorf("governed duty cycle %.3f%% exceeds the 1%% budget", duty)
	}
}

// TestObserveTickCostBackoffAndRecovery drives the EWMA controller the way
// the sampler's ticks do: sustained expensive ticks must back the effective
// period off the base, and once ticks get cheap again the period must
// recover all the way back to the configured base — the adaptive-sampling
// contract, deterministic because the tick costs are injected.
func TestObserveTickCostBackoffAndRecovery(t *testing.T) {
	m := &Monitor{budgetPct: 1}
	st := &samplerState{}
	st.basePeriodUS.Store(1000)
	st.effPeriodUS.Store(1000)

	// Saturating load: every tick costs 800 µs. Under a 1% budget the
	// period must grow to ~80 ms once the EWMA converges.
	for i := 0; i < 64; i++ {
		m.observeTickCost(st, 800*time.Microsecond)
	}
	backedOff := st.effPeriodUS.Load()
	if backedOff < 40_000 {
		t.Fatalf("effective period after sustained load = %dµs, want ≥ 40000 (≈80000)", backedOff)
	}
	if st.basePeriodUS.Load() != 1000 {
		t.Fatalf("base period moved to %d; the controller must only govern the effective period",
			st.basePeriodUS.Load())
	}

	// Load drops: ticks become nearly free. The EWMA decays geometrically
	// (and by at least 1 ns per tick near the floor), so the effective
	// period must return exactly to base.
	for i := 0; i < 256; i++ {
		m.observeTickCost(st, 100*time.Nanosecond)
	}
	if got := st.effPeriodUS.Load(); got != 1000 {
		t.Fatalf("effective period after recovery = %dµs, want base 1000", got)
	}
}

// TestObserveTickCostSmoothsSpikes: one outlier tick (a GC pause) must not
// slam the period to its sustained-load value — the EWMA admits at most
// 1/2^ewmaShift of a single observation.
func TestObserveTickCostSmoothsSpikes(t *testing.T) {
	m := &Monitor{budgetPct: 1}
	st := &samplerState{}
	st.basePeriodUS.Store(1000)
	st.effPeriodUS.Store(1000)
	for i := 0; i < 64; i++ {
		m.observeTickCost(st, 8*time.Microsecond) // comfortably within budget
	}
	m.observeTickCost(st, 8*time.Millisecond) // one spike, 1000× the norm
	spiked := st.effPeriodUS.Load()
	sustained := governPeriodUS(int64(8*time.Millisecond), 1000, 1)
	if spiked >= sustained/2 {
		t.Fatalf("one spike moved the period to %dµs, ≥ half the sustained value %dµs — no smoothing",
			spiked, sustained)
	}
}

// TestRingShardsDefault pins the sharding default: min(GOMAXPROCS, number
// of components), floored at one, with an explicit setting passed through
// untouched (New's component clamp applies later).
func TestRingShardsDefault(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)

	cfg := Config{}
	cfg.setDefaults(3)
	want := procs
	if want > 3 {
		want = 3
	}
	if cfg.RingShards != want {
		t.Errorf("default shards for 3 components = %d, want min(GOMAXPROCS=%d, 3) = %d",
			cfg.RingShards, procs, want)
	}

	big := Config{}
	big.setDefaults(10_000)
	if big.RingShards != procs {
		t.Errorf("default shards for a huge assembly = %d, want GOMAXPROCS = %d",
			big.RingShards, procs)
	}

	unknown := Config{}
	unknown.setDefaults(0) // component count unknown at default time
	if unknown.RingShards != procs {
		t.Errorf("default shards with unknown component count = %d, want GOMAXPROCS = %d",
			unknown.RingShards, procs)
	}

	explicit := Config{RingShards: 7}
	explicit.setDefaults(2)
	if explicit.RingShards != 7 {
		t.Errorf("explicit shard count rewritten to %d, want 7 preserved", explicit.RingShards)
	}
}
