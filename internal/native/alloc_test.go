package native

import (
	"runtime"
	"sync/atomic"
	"testing"

	"embera/internal/core"
)

// TestMailboxSteadyStateZeroAlloc locks the uncontended mailbox hot path at
// zero allocations: a send finding room and a receive finding data, with
// nobody parked on the other side, touch no waiter at all.
func TestMailboxSteadyStateZeroAlloc(t *testing.T) {
	mb := newMailbox("in", 1<<20)
	msg := core.Message{Bytes: 1024, From: "prod"}
	// Warm the buffer.
	for i := 0; i < 16; i++ {
		mb.Send(nil, msg)
	}
	for i := 0; i < 16; i++ {
		mb.Receive(nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		mb.Send(nil, msg)
		mb.Receive(nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state send/receive allocates %v per op, want 0", allocs)
	}
}

// TestServiceQueueSteadyStateZeroAlloc is the same invariant for the
// unbounded observation-service queue.
func TestServiceQueueSteadyStateZeroAlloc(t *testing.T) {
	q := newQueue("observer-in")
	msg := core.Message{Bytes: 64, From: "obs"}
	for i := 0; i < 16; i++ {
		q.Send(nil, msg)
	}
	for i := 0; i < 16; i++ {
		q.Receive(nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Send(nil, msg)
		q.Receive(nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state service send/receive allocates %v per op, want 0", allocs)
	}
}

// TestMailboxNeverDrainedStaysBounded guards the compaction path: a
// mailbox holding a resident message never hits the reset-on-empty, so
// without compaction its buffer would grow by one slot per send forever.
func TestMailboxNeverDrainedStaysBounded(t *testing.T) {
	mb := newMailbox("in", 1<<30)
	msg := core.Message{Bytes: 1, From: "prod"}
	mb.Send(nil, msg) // resident message: the mailbox never drains
	for i := 0; i < 100_000; i++ {
		mb.Send(nil, msg)
		mb.Receive(nil)
	}
	if d := mb.Depth(); d != 1 {
		t.Fatalf("Depth = %d, want the single resident message", d)
	}
	if cap(mb.buf) > 128 {
		t.Fatalf("buffer grew to %d slots for a depth-1 mailbox, want O(depth)", cap(mb.buf))
	}
}

// TestParkedFlowsDoNotAllocate pins the cost of blocking on the native
// platform: a flow parks on its own reusable waiter and sleeps on its own
// reusable timer, so once the first park and the first sleep have made
// them, a blocked send, a blocked receive and a sleep allocate nothing.
func TestParkedFlowsDoNotAllocate(t *testing.T) {
	msg := core.Message{Bytes: 1, From: "prod"}
	// Each helper serves the measured flow only once it is parked, so every
	// measured operation really blocks.
	serve := func(q *waitq, op func(), stop *atomic.Bool) {
		for !stop.Load() {
			if parked(q) == 0 {
				runtime.Gosched()
				continue
			}
			op()
		}
	}

	t.Run("send", func(t *testing.T) {
		mb := newMailbox("in", 1)
		mb.Send(nil, msg) // full: every measured send parks
		s, r := testFlow(), testFlow()
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			serve(&mb.senders, func() { mb.Receive(r) }, &stop)
		}()
		allocs := testing.AllocsPerRun(200, func() { mb.Send(s, msg) })
		stop.Store(true)
		<-done
		if allocs != 0 {
			t.Fatalf("blocked send allocates %v per op, want 0", allocs)
		}
	})

	t.Run("receive", func(t *testing.T) {
		mb := newMailbox("in", 1)
		s, r := testFlow(), testFlow()
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			serve(&mb.receivers, func() { mb.Send(s, msg) }, &stop)
		}()
		allocs := testing.AllocsPerRun(200, func() { mb.Receive(r) })
		stop.Store(true)
		<-done
		if allocs != 0 {
			t.Fatalf("blocked receive allocates %v per op, want 0", allocs)
		}
	})

	t.Run("sleep", func(t *testing.T) {
		f := testFlow()
		if allocs := testing.AllocsPerRun(200, func() { f.SleepUS(1) }); allocs != 0 {
			t.Fatalf("SleepUS allocates %v per op, want 0", allocs)
		}
	})
}
