package native

import (
	"fmt"
	"sync"
	"sync/atomic"

	"embera/internal/core"
	"embera/internal/ringbuf"
)

// waiter is one parked flow: an entry in a mailbox's FIFO of blocked
// senders or blocked receivers. The flow that serves it — a receive
// admitting a sender's message, a send readying a receiver, a close —
// unlinks it under the mailbox lock, then signals ready once. ready has one
// slot, so that signal never blocks, and a native flow reuses the same
// waiter for every park: blocking allocates nothing.
type waiter struct {
	msg   core.Message // a parked sender's message, admitted by its server
	ok    bool         // a parked sender's result: admitted, or failed by Close
	next  *waiter
	ready chan struct{}
}

// foreignWaiters lends waiters to flows that do not bring their own: the
// cluster's injection flow and the nil flow of tests.
var foreignWaiters = sync.Pool{New: func() any {
	return &waiter{ready: make(chan struct{}, 1)}
}}

// waitq is a FIFO of parked flows, guarded by the owning mailbox lock.
type waitq struct{ head, tail *waiter }

func (q *waitq) push(w *waiter) {
	if q.tail == nil {
		q.head = w
	} else {
		q.tail.next = w
	}
	q.tail = w
}

// pop unlinks the oldest waiter, or returns nil.
func (q *waitq) pop() *waiter {
	w := q.head
	if w != nil {
		q.head = w.next
		if q.head == nil {
			q.tail = nil
		}
		w.next = nil
	}
	return w
}

// remove unlinks w wherever it stands and reports whether it was queued —
// false means a server already took it. Only a kill needs it, so a walk is
// cheap enough.
func (q *waitq) remove(w *waiter) bool {
	var prev *waiter
	for cur := q.head; cur != nil; prev, cur = cur, cur.next {
		if cur != w {
			continue
		}
		if prev == nil {
			q.head = w.next
		} else {
			prev.next = w.next
		}
		if q.tail == w {
			q.tail = prev
		}
		w.next = nil
		return true
	}
	return false
}

// wakeAll signals every waiter of a list its server has already unlinked.
// It runs after the mailbox lock is released, and reads each link before
// the signal that hands the waiter back to its flow.
func (q *waitq) wakeAll() {
	for w := q.head; w != nil; {
		next := w.next
		w.next = nil
		w.ready <- struct{}{}
		w = next
	}
}

// parker returns the waiter f parks on and the kill channel that can
// interrupt it: a native flow's own waiter and kill channel, or a borrowed
// waiter and no kill channel for a foreign flow. release hands a borrowed
// waiter back.
func parker(f core.Flow) (w *waiter, killed chan struct{}) {
	if nf, ok := f.(*flow); ok {
		return nf.waiter(), nf.killed
	}
	return foreignWaiters.Get().(*waiter), nil
}

func release(f core.Flow, w *waiter) {
	if _, ok := f.(*flow); !ok {
		foreignWaiters.Put(w)
	}
}

// park queues w on q and blocks until a server signals it. It is entered
// holding mu and returns with mu released. A kill that beats the server
// unlinks w and unwinds the flow, so a parked sender's message never enters
// the buffer; a server that beat the kill stands, the operation completes,
// and the kill lands at the flow's next primitive.
func park(mu *sync.Mutex, q *waitq, w *waiter, killed chan struct{}) {
	q.push(w)
	mu.Unlock()
	if killed == nil {
		<-w.ready
		return
	}
	select {
	case <-w.ready:
	case <-killed:
		mu.Lock()
		if q.remove(w) {
			mu.Unlock()
			w.msg = core.Message{}
			panic(killedPanic{})
		}
		mu.Unlock()
		<-w.ready // served before the kill took the lock
	}
}

// mailbox is the bounded, byte-accounted FIFO behind a provided interface:
// the §4.1 mailbox, with blocked flows queued in FIFO order and served
// directly, the way Go's buffered channels serve theirs. A receive that
// frees room moves queued senders' messages into the buffer itself, in
// order while they fit, and readies exactly those senders; a send into an
// empty box readies one parked receiver, and a receive that leaves data
// behind readies the next. A new sender never overtakes a queued one.
// Multiple concurrent producers are safe (the conformance topologies fan
// many components into one inbox).
type mailbox struct {
	name     string
	capacity int64

	mu        sync.Mutex
	buf       []core.Message
	head      int
	pending   int64 // modelled bytes buffered
	closed    bool
	senders   waitq // parked senders, each holding the message to admit
	receivers waitq // parked receivers, waiting for the box to fill

	// depthA/pendingA/maxDepthA mirror the depth, buffered bytes and
	// high-water mark atomically: they are stored while holding mu, so the
	// published values are always exact, but Depth/PendingBytes readers —
	// the monitor's per-tick sweep over every mailbox — never take the lock
	// and therefore never stall a sender or receiver mid-transfer.
	depthA    atomic.Int64
	pendingA  atomic.Int64
	maxDepthA atomic.Int64
}

func newMailbox(name string, capacity int64) *mailbox {
	return &mailbox{name: name, capacity: capacity}
}

// fits reports whether msg's modelled bytes fit the free room. Callers hold
// mu.
func (m *mailbox) fits(msg core.Message) bool {
	return m.pending+int64(msg.Bytes) <= m.capacity
}

// push appends msg to the buffer. Callers hold mu.
func (m *mailbox) push(msg core.Message) {
	m.buf = append(m.buf, msg)
	m.pending += int64(msg.Bytes)
}

// publish mirrors the occupancy into the lock-free atomics. Callers hold
// mu.
func (m *mailbox) publish() {
	d := int64(len(m.buf) - m.head)
	m.depthA.Store(d)
	m.pendingA.Store(m.pending)
	if d > m.maxDepthA.Load() {
		m.maxDepthA.Store(d)
	}
}

// Send implements core.Mailbox.
func (m *mailbox) Send(sender core.Flow, msg core.Message) bool {
	if int64(msg.Bytes) > m.capacity {
		panic(fmt.Sprintf("native: message of %d bytes can never fit mailbox %s of %d bytes",
			msg.Bytes, m.name, m.capacity))
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	if m.senders.head == nil && m.fits(msg) {
		var r *waiter
		if len(m.buf) == m.head {
			r = m.receivers.pop()
		}
		m.push(msg)
		m.publish()
		m.mu.Unlock()
		if r != nil {
			r.ready <- struct{}{}
		}
		return true
	}
	w, killed := parker(sender)
	w.msg = msg
	park(&m.mu, &m.senders, w, killed)
	ok := w.ok
	release(sender, w)
	return ok
}

// Receive implements core.Mailbox.
func (m *mailbox) Receive(receiver core.Flow) (core.Message, bool) {
	m.mu.Lock()
	for len(m.buf) == m.head {
		if m.closed {
			m.mu.Unlock()
			return core.Message{}, false
		}
		w, killed := parker(receiver)
		park(&m.mu, &m.receivers, w, killed)
		release(receiver, w)
		m.mu.Lock()
	}
	msg, buf, head := ringbuf.PopFront(m.buf, m.head)
	m.buf, m.head = buf, head
	m.pending -= int64(msg.Bytes)
	var served waitq
	for w := m.senders.head; w != nil && m.fits(w.msg); w = m.senders.head {
		m.senders.pop()
		m.push(w.msg)
		w.msg, w.ok = core.Message{}, true
		served.push(w)
	}
	m.publish()
	if len(m.buf) > m.head {
		if r := m.receivers.pop(); r != nil {
			served.push(r)
		}
	}
	m.mu.Unlock()
	served.wakeAll()
	return msg, true
}

// Close implements core.Mailbox: parked senders fail, parked receivers
// wake, and receivers drain the buffer then get ok=false.
func (m *mailbox) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	senders, receivers := m.senders, m.receivers
	m.senders, m.receivers = waitq{}, waitq{}
	for w := senders.head; w != nil; w = w.next {
		w.msg, w.ok = core.Message{}, false
	}
	m.mu.Unlock()
	senders.wakeAll()
	receivers.wakeAll()
}

// BufBytes implements core.Mailbox.
func (m *mailbox) BufBytes() int64 { return m.capacity }

// Depth implements core.Mailbox. Lock-free: observation sweeps read the
// atomic mirror and never contend with transfers in flight.
func (m *mailbox) Depth() int { return int(m.depthA.Load()) }

// PendingBytes reports the modelled bytes currently buffered (the live
// part of the memory view). Lock-free, like Depth.
func (m *mailbox) PendingBytes() int64 { return m.pendingA.Load() }

// MaxDepth reports the high-water message count (for tests).
func (m *mailbox) MaxDepth() int { return int(m.maxDepthA.Load()) }

var _ core.Mailbox = (*mailbox)(nil)

// queue is the unbounded service mailbox for observation traffic: sends
// never block, receives wait for data, closure drains then reports
// ok=false. Its receivers wake one at a time, like the mailbox's.
type queue struct {
	name string

	mu        sync.Mutex
	buf       []core.Message
	head      int
	closed    bool
	receivers waitq
}

func newQueue(name string) *queue { return &queue{name: name} }

// Send implements core.Mailbox; it never blocks.
func (q *queue) Send(sender core.Flow, m core.Message) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	var r *waiter
	if len(q.buf) == q.head {
		r = q.receivers.pop()
	}
	q.buf = append(q.buf, m)
	q.mu.Unlock()
	if r != nil {
		r.ready <- struct{}{}
	}
	return true
}

// Receive implements core.Mailbox.
func (q *queue) Receive(receiver core.Flow) (core.Message, bool) {
	q.mu.Lock()
	for len(q.buf) == q.head {
		if q.closed {
			q.mu.Unlock()
			return core.Message{}, false
		}
		w, killed := parker(receiver)
		park(&q.mu, &q.receivers, w, killed)
		release(receiver, w)
		q.mu.Lock()
	}
	m, buf, head := ringbuf.PopFront(q.buf, q.head)
	q.buf, q.head = buf, head
	var r *waiter
	if len(q.buf) > q.head {
		r = q.receivers.pop()
	}
	q.mu.Unlock()
	if r != nil {
		r.ready <- struct{}{}
	}
	return m, true
}

// Close implements core.Mailbox.
func (q *queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	receivers := q.receivers
	q.receivers = waitq{}
	q.mu.Unlock()
	receivers.wakeAll()
}

// BufBytes implements core.Mailbox: service queues are unaccounted.
func (q *queue) BufBytes() int64 { return 0 }

// Depth implements core.Mailbox.
func (q *queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

var _ core.Mailbox = (*queue)(nil)
