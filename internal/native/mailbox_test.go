package native

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"embera/internal/core"
)

// testFlow is a killable component flow outside any binding. Kill it with
// f.comp.kill(), the kill Binding.Kill performs.
func testFlow() *flow {
	d := &platData{}
	f := &flow{comp: d}
	d.flow.Store(f)
	return f
}

// parked counts the waiters queued on q.
func parked(q *waitq) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for w := q.head; w != nil; w = w.next {
		n++
	}
	return n
}

// waitParked blocks until q holds n waiters.
func waitParked(t *testing.T, q *waitq, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for parked(q) != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d flows parked after 10s, want %d", parked(q), n)
		}
		runtime.Gosched()
	}
}

// outcome runs op on its own goroutine and reports how it ended: "true" or
// "false" for its result, "killed" when it unwound with the kill sentinel.
func outcome(op func() bool) <-chan string {
	res := make(chan string, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					panic(r)
				}
				res <- "killed"
			}
		}()
		if op() {
			res <- "true"
		} else {
			res <- "false"
		}
	}()
	return res
}

// drain receives until the box closes and returns the payloads it got.
func drain(mb core.Mailbox, f core.Flow) []any {
	var got []any
	for {
		m, ok := mb.Receive(f)
		if !ok {
			return got
		}
		got = append(got, m.Payload)
	}
}

// TestMailboxFIFOAdmission: senders blocked on a full one-message box are
// admitted, and so received, in the order they parked, and each blocked
// Send reports success.
func TestMailboxFIFOAdmission(t *testing.T) {
	const n = 8
	mb := newMailbox("in", 1)
	mb.Send(nil, core.Message{Bytes: 1, Payload: -1})
	var results []<-chan string
	for i := 0; i < n; i++ {
		s := testFlow()
		results = append(results, outcome(func() bool {
			return mb.Send(s, core.Message{Bytes: 1, Payload: i})
		}))
		waitParked(t, &mb.senders, i+1)
	}
	// A newcomer that would fit the byte budget still queues behind them.
	small := newMailbox("small", 2)
	small.Send(nil, core.Message{Bytes: 1, Payload: "resident"})
	// Foreign (nil) flows park on pooled waiters, like the cluster's
	// injection flow.
	big := outcome(func() bool { return small.Send(nil, core.Message{Bytes: 2, Payload: "big"}) })
	waitParked(t, &small.senders, 1)
	tiny := outcome(func() bool { return small.Send(nil, core.Message{Bytes: 1, Payload: "tiny"}) })
	waitParked(t, &small.senders, 2)

	r := testFlow()
	for want := -1; want < n; want++ {
		m, ok := mb.Receive(r)
		if !ok || m.Payload != want {
			t.Fatalf("received %v (ok=%v), want %d", m.Payload, ok, want)
		}
	}
	for i, res := range results {
		if got := <-res; got != "true" {
			t.Errorf("sender %d: Send ended %s, want true", i, got)
		}
	}
	if d := mb.Depth(); d != 0 {
		t.Errorf("Depth = %d after draining, want 0", d)
	}
	for _, want := range []string{"resident", "big", "tiny"} {
		if m, ok := small.Receive(r); !ok || m.Payload != want {
			t.Fatalf("received %v (ok=%v), want %s", m.Payload, ok, want)
		}
	}
	if <-big != "true" || <-tiny != "true" {
		t.Error("a queued sender did not report success")
	}
}

// race releases kill and serve together from one gate and waits for both.
// A positive lag makes the serve yield that many times first, a negative
// one the kill, so the rounds land on both sides of the race.
func race(lag int, kill, serve func()) {
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	yieldThen := func(n int, op func()) {
		defer wg.Done()
		<-gate
		for i := 0; i < n; i++ {
			runtime.Gosched()
		}
		op()
	}
	go yieldThen(max(-lag, 0), kill)
	go yieldThen(max(lag, 0), serve)
	close(gate)
	wg.Wait()
}

// TestMailboxKillRacingServe races a kill, the one Binding.Kill performs,
// against the serve of a parked flow, many times over. A served operation
// completes; a killed one leaves no trace, so every message is delivered
// exactly once either way. Both outcomes must occur, or the race was never
// run.
func TestMailboxKillRacingServe(t *testing.T) {
	const rounds = 500
	lag := func(i int) int { return i%16 - 8 }
	bothSeen := func(t *testing.T, ends map[string]int) {
		t.Helper()
		t.Logf("outcomes over %d rounds: %v", rounds, ends)
		if ends["true"] == 0 || ends["killed"] == 0 {
			t.Errorf("outcomes over %d rounds: %v, want both served and killed rounds", rounds, ends)
		}
	}
	t.Run("sender", func(t *testing.T) {
		var ends = map[string]int{}
		for i := 0; i < rounds; i++ {
			mb := newMailbox("in", 1)
			mb.Send(nil, core.Message{Bytes: 1, Payload: "resident"})
			s := testFlow()
			res := outcome(func() bool { return mb.Send(s, core.Message{Bytes: 1, Payload: "raced"}) })
			waitParked(t, &mb.senders, 1)
			r := testFlow()
			var first core.Message
			race(lag(i), s.comp.kill, func() { first, _ = mb.Receive(r) })
			if first.Payload != "resident" {
				t.Fatalf("round %d: first receive got %v", i, first.Payload)
			}
			end := <-res
			ends[end]++
			mb.Close()
			rest := drain(mb, r)
			switch {
			case end == "true" && len(rest) == 1 && rest[0] == "raced":
			case end == "killed" && len(rest) == 0:
			default:
				t.Fatalf("round %d: Send ended %s but the box then held %v", i, end, rest)
			}
		}
		bothSeen(t, ends)
	})
	t.Run("receiver", func(t *testing.T) {
		var ends = map[string]int{}
		for i := 0; i < rounds; i++ {
			mb := newMailbox("in", 1)
			r := testFlow()
			var got any
			res := outcome(func() bool {
				m, ok := mb.Receive(r)
				got = m.Payload
				return ok
			})
			waitParked(t, &mb.receivers, 1)
			race(lag(i), r.comp.kill, func() {
				mb.Send(testFlow(), core.Message{Bytes: 1, Payload: "raced"})
			})
			end := <-res
			ends[end]++
			mb.Close()
			rest := drain(mb, testFlow())
			switch {
			case end == "true" && got == "raced" && len(rest) == 0:
			case end == "killed" && len(rest) == 1 && rest[0] == "raced":
			default:
				t.Fatalf("round %d: Receive ended %s with %v, and the box then held %v", i, end, got, rest)
			}
		}
		bothSeen(t, ends)
	})
}

// awaitEnd waits up to ten seconds for a flow's outcome.
func awaitEnd(t *testing.T, res <-chan string, what string) string {
	t.Helper()
	select {
	case end := <-res:
		return end
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not end within 10s", what)
		return ""
	}
}

// TestKillWakesSleepingFlow: a kill fires the timer of a flow sleeping for
// an hour, and the flow unwinds at once.
func TestKillWakesSleepingFlow(t *testing.T) {
	f := testFlow()
	res := outcome(func() bool { f.SleepUS(3600 * 1e6); return true })
	deadline := time.Now().Add(10 * time.Second)
	for !f.sleeping.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the flow never went to sleep")
		}
		runtime.Gosched()
	}
	f.comp.kill()
	if end := awaitEnd(t, res, "a killed one-hour sleep"); end != "killed" {
		t.Fatalf("killed sleep ended %s, want killed", end)
	}
}

// TestSleepZeroYields: a zero sleep yields the processor, as it does on
// the simulated platforms, so on one processor two flows sleeping zero
// between steps take turns instead of one running to its end first.
func TestSleepZeroYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const steps = 100
	var mu sync.Mutex
	var order []byte
	var wg sync.WaitGroup
	for _, id := range []byte("ab") {
		f := testFlow()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
				f.SleepUS(0)
			}
		}()
	}
	wg.Wait()
	turns := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			turns++
		}
	}
	if turns < steps {
		t.Fatalf("two flows sleeping zero took %d turns over %d steps, want them to alternate: %s",
			turns, len(order), order)
	}
}

// TestKillBeforeWait kills flows that read their kill flag and then wait
// for good — a park on a box nobody fills, an hour's sleep — at moments
// spread around that read, so some kills land after the flow's last flag
// check and before it publishes where it waits. Kill then finds the flow
// waiting nowhere, and only the flow's own check after publishing unwinds
// it. Every round must unwind within a deadline.
func TestKillBeforeWait(t *testing.T) {
	const rounds = 1000
	var spins atomic.Int64
	for _, tc := range []struct {
		name string
		wait func(f *flow)
	}{
		{"park", func(f *flow) {
			f.Compute(1)
			newMailbox("in", 1).Receive(f)
		}},
		{"sleep", func(f *flow) { f.SleepUS(3600 * 1e6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < rounds; i++ {
				f := testFlow()
				var going atomic.Bool
				res := outcome(func() bool {
					going.Store(true)
					tc.wait(f)
					return true
				})
				// Spin rather than yield, so the flow runs on another
				// processor while the kill approaches its flag check.
				for n := 1; !going.Load(); n++ {
					if n%1024 == 0 {
						runtime.Gosched()
					}
				}
				for j := 0; j < i%128; j++ {
					spins.Add(1)
				}
				f.comp.kill()
				if end := awaitEnd(t, res, fmt.Sprintf("round %d", i)); end != "killed" {
					t.Fatalf("round %d: flow ended %s, want killed", i, end)
				}
			}
		})
	}
}

// TestMailboxCloseWakesParkedFlows: Close fails every parked sender and
// wakes every parked receiver; receivers still drain what was buffered.
func TestMailboxCloseWakesParkedFlows(t *testing.T) {
	const n = 4
	full := newMailbox("full", 1)
	full.Send(nil, core.Message{Bytes: 1, Payload: "resident"})
	empty := newMailbox("empty", 1)
	svc := newQueue("svc")
	var senders, receivers []<-chan string
	for i := 0; i < n; i++ {
		s, r, o := testFlow(), testFlow(), testFlow()
		senders = append(senders, outcome(func() bool { return full.Send(s, core.Message{Bytes: 1}) }))
		receivers = append(receivers,
			outcome(func() bool { _, ok := empty.Receive(r); return ok }),
			outcome(func() bool { _, ok := svc.Receive(o); return ok }))
	}
	waitParked(t, &full.senders, n)
	waitParked(t, &empty.receivers, n)
	waitParked(t, &svc.receivers, n)
	full.Close()
	empty.Close()
	svc.Close()
	for i, res := range senders {
		if got := <-res; got != "false" {
			t.Errorf("parked sender %d: Send ended %s after Close, want false", i, got)
		}
	}
	for i, res := range receivers {
		if got := <-res; got != "false" {
			t.Errorf("parked receiver %d: Receive ended %s after Close, want false", i, got)
		}
	}
	if rest := drain(full, testFlow()); len(rest) != 1 || rest[0] != "resident" {
		t.Errorf("closed box drained %v, want the resident message only", rest)
	}
	if full.Send(testFlow(), core.Message{Bytes: 1}) || svc.Send(nil, core.Message{}) {
		t.Error("send on a closed box succeeded")
	}
}

// TestMailboxTwoReceivers is the migration-drain shape: two flows receive
// from one box. A send into the empty box readies one of them, and the
// receive that leaves the second message behind readies the other, so
// both return without a Close to shake the second one loose.
func TestMailboxTwoReceivers(t *testing.T) {
	mb, svc := newMailbox("in", 4), newQueue("svc")
	for _, tc := range []struct {
		name string
		box  core.Mailbox
		q    *waitq
	}{
		{"mailbox", mb, &mb.receivers},
		{"queue", svc, &svc.receivers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.box.Close()
			got := make(chan any, 2)
			for i := 0; i < 2; i++ {
				r := testFlow()
				go func() {
					m, _ := tc.box.Receive(r)
					got <- m.Payload
				}()
			}
			waitParked(t, tc.q, 2)
			tc.box.Send(nil, core.Message{Bytes: 1, Payload: 0})
			tc.box.Send(nil, core.Message{Bytes: 1, Payload: 1})
			seen := map[any]bool{}
			for i := 0; i < 2; i++ {
				select {
				case p := <-got:
					seen[p] = true
				case <-time.After(10 * time.Second):
					t.Fatal("a parked receiver was never readied for the message left behind")
				}
			}
			if !seen[0] || !seen[1] {
				t.Fatalf("receivers got %v, want both messages once", seen)
			}
		})
	}
}
