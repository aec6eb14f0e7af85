package cluster

import (
	"sync"
	"sync/atomic"

	"embera/internal/wire"
)

// QueueDepth is an occupancy of a worker's inbound edge queues.
type QueueDepth = wire.QueueDepth

// depthGauge follows the combined occupancy of a worker's inbound edge
// queues, in frames and in encoded bytes, with each one's high-water mark.
type depthGauge struct {
	frames, bytes         atomic.Int64
	peakFrames, peakBytes atomic.Int64
}

// add moves the occupancy by frames and bytes, raising the marks it passes.
func (g *depthGauge) add(frames, bytes int) {
	raise(&g.peakFrames, g.frames.Add(int64(frames)))
	raise(&g.peakBytes, g.bytes.Add(int64(bytes)))
}

// depth reports the occupancy now and its high-water marks.
func (g *depthGauge) depth() (now, peak QueueDepth) {
	return QueueDepth{Frames: int(g.frames.Load()), Bytes: int(g.bytes.Load())},
		QueueDepth{Frames: int(g.peakFrames.Load()), Bytes: int(g.peakBytes.Load())}
}

// raise lifts mark to v if v is higher.
func raise(mark *atomic.Int64, v int64) {
	for {
		old := mark.Load()
		if v <= old || mark.CompareAndSwap(old, v) {
			return
		}
	}
}

// msgQueue is the unbounded per-edge injection queue on the receiving side:
// the worker's link reader enqueues decoded data messages (and the final
// close marker) without blocking — the deadlock-freedom invariant of the
// links — and one injector goroutine per in-edge drains it into the
// consumer's real mailbox, where it feels local backpressure. Every queued
// frame counts on the worker's gauge until it is popped or shut away.
type msgQueue struct {
	gauge *depthGauge

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
	size    int // the encoded frame's bytes
}

func newMsgQueue(gauge *depthGauge) *msgQueue {
	q := &msgQueue{gauge: gauge}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues m; a shut queue drops it.
func (q *msgQueue) push(m injMsg) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.buf = append(q.buf, m)
	q.gauge.add(1, m.size)
	q.cond.Signal()
}

// pop dequeues the next message, blocking until one arrives or the queue
// is shut. ok=false means shut.
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
	q.gauge.add(-1, -m.size)
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m, true
}

// shut drops whatever is queued and wakes the injector. Idempotent.
func (q *msgQueue) shut() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, m := range q.buf[q.head:] {
		q.gauge.add(-1, -m.size)
	}
	q.buf, q.head, q.closed = nil, 0, true
	q.cond.Broadcast()
}
