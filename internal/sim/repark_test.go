package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSameInstantOrder: a heap event due now runs before a same-instant
// event scheduled after the clock reached now, and same-instant events run
// in the order they were scheduled.
func TestSameInstantOrder(t *testing.T) {
	k := NewKernel()
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	k.At(0, log("start")) // same-instant at time 0, scheduled before Run
	k.At(10, func() {
		order = append(order, "A")
		k.At(0, func() {
			order = append(order, "B")
			k.At(0, log("D"))
		})
	})
	k.At(10, log("C"))
	k.At(11, log("E"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"start", "A", "C", "B", "D", "E"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	st := k.Stats()
	if st.Scheduled != 6 || st.Dispatched != 6 {
		t.Fatalf("stats %+v, want 6 scheduled and dispatched", st)
	}
}

// TestRunUntilDrainsSameInstant: a limit never strands a same-instant
// event, Pending counts the heap and the same-instant queue, and a later
// RunUntil picks up where the last one stopped.
func TestRunUntilDrainsSameInstant(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.At(10, func() {
		k.At(0, func() { ran++ })
		k.At(0, func() { ran++ })
	})
	k.At(20, func() { ran += 10 })
	if err := k.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if ran != 2 || k.Now() != 10 || k.Pending() != 1 {
		t.Fatalf("after RunUntil(10): ran=%d now=%d pending=%d, want 2, 10, 1", ran, k.Now(), k.Pending())
	}
	k.At(0, func() { ran += 100 })
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d with one heap and one same-instant event, want 2", k.Pending())
	}
	if err := k.RunUntil(15); err != nil {
		t.Fatal(err)
	}
	if ran != 102 || k.Now() != 15 || k.Pending() != 1 {
		t.Fatalf("after RunUntil(15): ran=%d now=%d pending=%d, want 102, 15, 1", ran, k.Now(), k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 112 || k.Pending() != 0 {
		t.Fatalf("after Run: ran=%d pending=%d, want 112, 0", ran, k.Pending())
	}
}

// TestShutdownWithSameInstantPending: Shutdown drops same-instant events
// along with heap ones and unwinds a process whose resume is still queued.
func TestShutdownWithSameInstantPending(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "s", 0)
	unwound := false
	k.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		sem.Wait(p)
		t.Error("waiter ran past its wait")
	})
	fired := false
	k.At(5, func() { fired = true })
	if err := k.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	sem.Signal() // the waiter's resume is now a queued same-instant event
	k.At(0, func() { fired = true })
	if k.Pending() != 3 {
		t.Fatalf("Pending = %d, want the resume, the callback and the timer", k.Pending())
	}
	k.Shutdown()
	if !unwound || fired || k.Pending() != 0 || k.Live() != 0 {
		t.Fatalf("after Shutdown: unwound=%v fired=%v pending=%d live=%d", unwound, fired, k.Pending(), k.Live())
	}
}

// TestKillUnwindsReparkableWait: a killed process whose wait condition
// still holds is not re-parked by the kernel — it unwinds through its
// coroutine, running its deferred calls — and a process killed inside
// Resource.Use releases its slot to the next waiter.
func TestKillUnwindsReparkableWait(t *testing.T) {
	k := NewKernel()
	bus := NewResource(k, "bus", 1)
	var unwoundAt Time = -1
	holder := k.Spawn("holder", func(p *Proc) { bus.Use(p, 100) })
	waiter := k.Spawn("waiter", func(p *Proc) {
		defer func() { unwoundAt = p.Now() }()
		bus.Use(p, 100)
		t.Error("killed waiter got the bus")
	})
	var gotAt Time = -1
	k.Spawn("next", func(p *Proc) {
		bus.Use(p, 100)
		gotAt = p.Now()
	})
	k.At(50, func() { k.Kill(waiter) })
	k.At(60, func() { k.Kill(holder) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if unwoundAt != 50 {
		t.Fatalf("killed waiter unwound at %d, want 50", unwoundAt)
	}
	if gotAt != 160 {
		t.Fatalf("next user finished at %d, want 160: the killed holder's slot must free at 60", gotAt)
	}
	if k.Live() != 0 {
		t.Fatalf("%d processes live after the run", k.Live())
	}
}

// bargeRun runs three processes that each take a one-slot resource rounds
// times; a releasing process takes the slot straight back, so the waiter
// Signal woke finds it gone and waits again. It returns the tracer's lines
// (nil when traced is false) and the kernel's counters.
func bargeRun(traced bool, rounds int) ([]string, KernelStats) {
	k := NewKernel()
	var lines []string
	if traced {
		k.SetTracer(func(t Time, format string, args ...any) {
			lines = append(lines, fmt.Sprintf("%d "+format, append([]any{t}, args...)...))
		})
	}
	bus := NewResource(k, "bus", 1)
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				bus.Use(p, Duration(10+i))
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return lines, k.Stats()
}

// bargeTrace is the trace of bargeRun(true, 2), as the kernel logged it
// before it learned to re-park: a tracer must keep seeing every resume and
// every park.
var bargeTrace = []string{
	"0 park u1: sem bus",
	"0 park u2: sem bus",
	"10 resume u0",
	"10 resume u1",
	"10 park u1: sem bus",
	"20 resume u0",
	"20 resume u2",
	"32 resume u2",
	"32 resume u1",
	"32 park u1: sem bus",
	"44 resume u2",
	"44 resume u1",
	"55 resume u1",
	"66 resume u1",
}

// TestTracedResumesUnchanged: with a tracer installed the kernel takes the
// real switch for every resume, so the trace is line for line what it was
// before re-parking existed; without one the same run re-parks, and every
// re-parked resume is one switch fewer.
func TestTracedResumesUnchanged(t *testing.T) {
	lines, traced := bargeRun(true, 2)
	if !reflect.DeepEqual(lines, bargeTrace) {
		t.Fatalf("trace moved:\n%q\nwant\n%q", lines, bargeTrace)
	}
	if traced.Reparks != 0 {
		t.Fatalf("traced run re-parked %d resumes", traced.Reparks)
	}
	_, bare := bargeRun(false, 2)
	if bare.Reparks == 0 || bare.Switches+bare.Reparks != traced.Switches ||
		bare.Scheduled != traced.Scheduled || bare.Dispatched != traced.Dispatched {
		t.Fatalf("untraced %+v, traced %+v: want re-parks that replace switches one for one", bare, traced)
	}
}
