package native

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"embera/internal/core"
)

// testFlow is a killable component flow outside any binding.
func testFlow() *flow { return &flow{killed: make(chan struct{})} }

// parked counts the waiters queued on q.
func parked(mu *sync.Mutex, q *waitq) int {
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for w := q.head; w != nil; w = w.next {
		n++
	}
	return n
}

// waitParked blocks until q holds n waiters.
func waitParked(t *testing.T, mu *sync.Mutex, q *waitq, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for parked(mu, q) != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d flows parked after 10s, want %d", parked(mu, q), n)
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
		waitParked(t, &mb.mu, &mb.senders, i+1)
	}
	// A newcomer that would fit the byte budget still queues behind them.
	small := newMailbox("small", 2)
	small.Send(nil, core.Message{Bytes: 1, Payload: "resident"})
	// Foreign (nil) flows park on pooled waiters, like the cluster's
	// injection flow.
	big := outcome(func() bool { return small.Send(nil, core.Message{Bytes: 2, Payload: "big"}) })
	waitParked(t, &small.mu, &small.senders, 1)
	tiny := outcome(func() bool { return small.Send(nil, core.Message{Bytes: 1, Payload: "tiny"}) })
	waitParked(t, &small.mu, &small.senders, 2)

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
// The serve yields lag times first: a serve that starts at once nearly
// always beats the kill, which must first wake the parked flow, so the
// rounds spread the lag to land on both sides of the race.
func race(lag int, kill, serve func()) {
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-gate
		kill()
	}()
	go func() {
		defer wg.Done()
		<-gate
		for i := 0; i < lag; i++ {
			runtime.Gosched()
		}
		serve()
	}()
	close(gate)
	wg.Wait()
}

// TestMailboxKillRacingServe races a kill against the serve of a parked
// flow, many times over. A served operation completes; a killed one leaves
// no trace, so every message is delivered exactly once either way.
func TestMailboxKillRacingServe(t *testing.T) {
	const rounds = 500
	t.Run("sender", func(t *testing.T) {
		var ends = map[string]int{}
		for i := 0; i < rounds; i++ {
			mb := newMailbox("in", 1)
			mb.Send(nil, core.Message{Bytes: 1, Payload: "resident"})
			s := testFlow()
			res := outcome(func() bool { return mb.Send(s, core.Message{Bytes: 1, Payload: "raced"}) })
			waitParked(t, &mb.mu, &mb.senders, 1)
			r := testFlow()
			var first core.Message
			race(i%8, func() { close(s.killed) }, func() { first, _ = mb.Receive(r) })
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
		t.Logf("outcomes over %d rounds: %v", rounds, ends)
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
			waitParked(t, &mb.mu, &mb.receivers, 1)
			race(i%8, func() { close(r.killed) }, func() {
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
		t.Logf("outcomes over %d rounds: %v", rounds, ends)
	})
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
	waitParked(t, &full.mu, &full.senders, n)
	waitParked(t, &empty.mu, &empty.receivers, n)
	waitParked(t, &svc.mu, &svc.receivers, n)
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
		mu   *sync.Mutex
		q    *waitq
	}{
		{"mailbox", mb, &mb.mu, &mb.receivers},
		{"queue", svc, &svc.mu, &svc.receivers},
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
			waitParked(t, tc.mu, tc.q, 2)
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
