package native_test

import (
	"sync/atomic"
	"testing"
	"time"

	"embera/internal/core"
	"embera/internal/native"
)

// TestTimerHoldsRun: an armed timer counts like a driver flow, so Run
// returns only after it fired, however early the components finish.
func TestTimerHoldsRun(t *testing.T) {
	m, a := native.New("timer-run", 1)
	a.MustNewComponent("quick", func(*core.Ctx) {})
	var fired atomic.Int32
	m.Binding().NewTimer(func() { fired.Add(1) }).Reset(30_000)
	start := time.Now()
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(wallHorizonUS); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 30*time.Millisecond || fired.Load() != 1 {
		t.Fatalf("Run returned after %v with the timer fired %d times, want ≥ 30ms and once", took, fired.Load())
	}
}

// TestTimerWakeFiresOnce: Wake fires an armed timer now, and when it races
// the firing it cuts short, the callback still runs once per Reset. Run it
// under -race.
func TestTimerWakeFiresOnce(t *testing.T) {
	m, _ := native.New("timer-wake", 1)
	woke := make(chan struct{}, 1)
	hour := m.Binding().NewTimer(func() { woke <- struct{}{} })
	hour.Reset(int64(time.Hour / time.Microsecond))
	hour.Wake()
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("Wake left an hour-long timer armed")
	}

	const rounds = 500
	var runs atomic.Int64
	tm := m.Binding().NewTimer(func() { runs.Add(1) })
	for i := int64(0); i < rounds; i++ {
		lag := time.Duration(i%50) * time.Microsecond
		tm.Reset(i % 40)
		go func() {
			time.Sleep(lag)
			tm.Wake()
		}()
		for deadline := time.Now().Add(5 * time.Second); runs.Load() <= i; {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the timer never fired", i)
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	// Run waits for every armed timer: a Wake that re-armed without a
	// firing would hold it to the horizon.
	if err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != rounds {
		t.Fatalf("%d Resets ran the callback %d times", rounds, got)
	}
}
