package svc

import (
	"testing"

	"embera/internal/core"
	"embera/internal/sim"
)

func TestQueueRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	q := NewQueue(k, "q")
	var got []int
	Spawn(k, "recv", func(f *Flow) {
		for {
			m, ok := q.Receive(f)
			if !ok {
				return
			}
			got = append(got, m.Payload.(int))
		}
	})
	Spawn(k, "send", func(f *Flow) {
		for i := 0; i < 5; i++ {
			if !q.Send(f, core.Message{Payload: i}) {
				t.Error("send on open queue failed")
			}
		}
		q.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestQueueSendAfterClose(t *testing.T) {
	k := sim.NewKernel()
	q := NewQueue(k, "q")
	q.Close()
	Spawn(k, "send", func(f *Flow) {
		if q.Send(f, core.Message{}) {
			t.Error("send on closed queue succeeded")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueZeroCostAndUnaccounted(t *testing.T) {
	k := sim.NewKernel()
	q := NewQueue(k, "q")
	if q.BufBytes() != 0 {
		t.Error("service queue reported accounted memory")
	}
	var sendTime, recvTime sim.Time
	Spawn(k, "recv", func(f *Flow) {
		q.Receive(f)
		recvTime = f.Proc().Now()
	})
	Spawn(k, "send", func(f *Flow) {
		q.Send(f, core.Message{Bytes: 1 << 20}) // size is ignored: no cost
		sendTime = f.Proc().Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sendTime != 0 || recvTime != 0 {
		t.Errorf("service traffic consumed virtual time: send=%d recv=%d", sendTime, recvTime)
	}
	if q.Depth() != 0 {
		t.Errorf("depth = %d", q.Depth())
	}
}

func TestFlowComputeIsFreeAndSleepAdvances(t *testing.T) {
	k := sim.NewKernel()
	var after sim.Time
	Spawn(k, "f", func(f *Flow) {
		f.Compute(1 << 40) // free
		if f.Proc().Now() != 0 {
			t.Error("service Compute consumed time")
		}
		f.SleepUS(250)
		f.SleepUS(0) // yield only
		after = f.Proc().Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if after != sim.Time(250*sim.Microsecond) {
		t.Errorf("after = %d", after)
	}
}

func TestSpawnedFlowsAreDaemons(t *testing.T) {
	k := sim.NewKernel()
	q := NewQueue(k, "q")
	Spawn(k, "forever", func(f *Flow) {
		q.Receive(f) // parks forever
	})
	// A parked daemon must not be reported as a deadlock.
	if err := k.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
}

// TestTimerFiresWhereSleeperResumes: a callback armed with Reset(d) runs
// at the place in the dispatch order where a service flow that called
// SleepUS(d) at the same moment would have resumed, whether a third flow
// waking at the same instant went to sleep before or after it.
func TestTimerFiresWhereSleeperResumes(t *testing.T) {
	const d = 100
	run := func(timer, thirdFirst bool) []string {
		k := sim.NewKernel()
		var order []string
		third := func() {
			Spawn(k, "third", func(f *Flow) {
				f.SleepUS(d)
				order = append(order, "third")
			})
		}
		if thirdFirst {
			third()
		}
		Spawn(k, "arm", func(f *Flow) {
			if timer {
				NewTimer(k, func() { order = append(order, "woke") }).Reset(d)
				return
			}
			f.SleepUS(d)
			order = append(order, "woke")
		})
		if !thirdFirst {
			third()
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	for _, thirdFirst := range []bool{false, true} {
		slept, fired := run(false, thirdFirst), run(true, thirdFirst)
		if len(fired) != 2 || fired[0] != slept[0] || fired[1] != slept[1] {
			t.Fatalf("third flow first=%v: timer order %v, sleeper order %v", thirdFirst, fired, slept)
		}
	}
}

// TestTimerRearmAllocatesNothing: a timer that re-arms from its own
// callback costs the kernel's recycled events only.
func TestTimerRearmAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	fired := 0
	var tm *Timer
	tm = NewTimer(k, func() {
		fired++
		tm.Reset(10)
	})
	tm.Reset(10)
	step := sim.Time(1000 * sim.Microsecond)
	if err := k.RunUntil(k.Now() + step); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = k.RunUntil(k.Now() + step) }); allocs != 0 {
		t.Fatalf("%.1f allocations per 100 firings, want 0", allocs)
	}
	if fired < 100*101 {
		t.Fatalf("timer fired %d times, want at least %d", fired, 100*101)
	}
}
