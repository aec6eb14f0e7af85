package cluster

import (
	"sync"

	"embera/internal/wire"
)

// frameQueue is an unbounded FIFO of encoded frames. The relay readers must
// never block on a slow peer — that is the deadlock-freedom invariant of the
// star topology — so enqueue always succeeds and a dedicated drainer
// goroutine per destination pushes toward the socket. Unboundedness is the
// explicit backpressure tradeoff: data frames still see end-to-end
// backpressure through the producing component's blocking transport write,
// but control frames ride through without ordering inversions or lock
// cycles. The queue tracks its depth and high-water mark, in frames and in
// bytes, so the memory it holds is visible (Machine.RelayQueues).
type frameQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []wire.Raw
	head   int
	closed bool
	bytes  int        // encoded bytes queued
	peak   QueueDepth // high-water marks, each its own maximum
}

// QueueDepth is an occupancy of a relay queue.
type QueueDepth struct {
	Frames int // encoded frames
	Bytes  int // their encoded bytes
}

// depth reports the queue's current occupancy and its high-water marks.
func (q *frameQueue) depth() (now, peak QueueDepth) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueDepth{Frames: len(q.buf) - q.head, Bytes: q.bytes}, q.peak
}

func newFrameQueue() *frameQueue {
	q := &frameQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues f; it reports false when the queue is closed (the peer is
// gone), which callers count as a loss for data frames.
func (q *frameQueue) push(f wire.Raw) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.buf = append(q.buf, f)
	q.bytes += len(f)
	q.peak.Frames = max(q.peak.Frames, len(q.buf)-q.head)
	q.peak.Bytes = max(q.peak.Bytes, q.bytes)
	q.cond.Signal()
	return true
}

// pop dequeues the next frame, blocking until one arrives or the queue
// closes. ok=false means closed and drained.
func (q *frameQueue) pop() (wire.Raw, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == q.head && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == q.head {
		return nil, false
	}
	f := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	q.bytes -= len(f)
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return f, true
}

// close marks the queue dead and returns the frames still buffered, so the
// caller can count undelivered data frames as in-flight losses. Idempotent.
func (q *frameQueue) close() []wire.Raw {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	rest := append([]wire.Raw(nil), q.buf[q.head:]...)
	q.buf, q.head, q.bytes = nil, 0, 0
	q.cond.Broadcast()
	return rest
}

// msgQueue is the unbounded per-edge injection queue on the receiving side:
// the worker's wire reader enqueues decoded data messages (and the final
// close marker) without blocking; one injector goroutine per in-edge drains
// it into the consumer's real mailbox, where it feels local backpressure.
type msgQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []injMsg
	head   int
	closed bool
}

type injMsg struct {
	payload any
	bytes   int64
	from    string
	closeIt bool
}

func newMsgQueue() *msgQueue {
	q := &msgQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *msgQueue) push(m injMsg) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.buf = append(q.buf, m)
	q.cond.Signal()
}

func (q *msgQueue) pop() (injMsg, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == q.head && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == q.head {
		return injMsg{}, false
	}
	m := q.buf[q.head]
	q.buf[q.head] = injMsg{}
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m, true
}

func (q *msgQueue) shut() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
