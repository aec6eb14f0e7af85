package sim

import (
	"fmt"

	"embera/internal/ringbuf"
)

// Queue is a bounded or unbounded FIFO channel between simulated processes.
// A capacity of 0 means unbounded. Queue is the building block for the SMP
// binding's mailboxes and for OS21 message queues.
type Queue[T any] struct {
	k       *Kernel
	name    string
	cap     int
	items   []T
	head    int // index of the oldest buffered item
	getters waiterList
	putters waiterList
	closed  bool

	// Park reasons are precomputed so a blocking Put/Get performs no
	// per-operation string concatenation.
	putReason, getReason string

	// Statistics maintained for observation.
	puts, gets uint64
	maxDepth   int
}

// NewQueue creates a FIFO with the given capacity (0 = unbounded).
func NewQueue[T any](k *Kernel, name string, capacity int) *Queue[T] {
	if capacity < 0 {
		panic(fmt.Sprintf("sim: negative queue capacity %d", capacity))
	}
	return &Queue[T]{
		k: k, name: name, cap: capacity,
		putReason: "put " + name, getReason: "get " + name,
	}
}

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Cap returns the configured capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.cap }

// Stats reports lifetime put/get counts and the high-water depth mark.
func (q *Queue[T]) Stats() (puts, gets uint64, maxDepth int) {
	return q.puts, q.gets, q.maxDepth
}

// Put appends v, blocking p while the queue is at capacity. Putting into a
// closed queue panics, mirroring Go channel semantics.
func (q *Queue[T]) Put(p *Proc, v T) {
	p.waitWhile(&q.putters, (*queueFull[T])(q), 0, q.putReason)
	if q.closed {
		panic(fmt.Sprintf("sim: put on closed queue %q", q.name))
	}
	q.push(v)
	q.getters.wakeOne(q.k)
}

// TryPut appends v without blocking and reports whether it was accepted.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed || (q.cap > 0 && q.Len() >= q.cap) {
		return false
	}
	q.push(v)
	q.getters.wakeOne(q.k)
	return true
}

// push appends v and maintains the statistics. The buffer is a head-indexed
// slice that resets to its start whenever it drains, so a steady-state
// producer/consumer pair reuses the same backing array forever instead of
// re-allocating as the slice window crawls forward.
func (q *Queue[T]) push(v T) {
	q.items = append(q.items, v)
	q.puts++
	if d := q.Len(); d > q.maxDepth {
		q.maxDepth = d
	}
}

// pop removes the oldest item. Callers have checked Len() > 0.
func (q *Queue[T]) pop() T {
	v, items, head := ringbuf.PopFront(q.items, q.head)
	q.items, q.head = items, head
	q.gets++
	return v
}

// Get removes and returns the oldest item, blocking p while the queue is
// empty. When the queue is closed and drained, Get returns the zero value
// and ok=false.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	p.waitWhile(&q.getters, (*queueEmpty[T])(q), 0, q.getReason)
	if q.Len() == 0 {
		return v, false // closed and drained
	}
	v = q.pop()
	q.putters.wakeOne(q.k)
	return v, true
}

// TryGet removes the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	v = q.pop()
	q.putters.wakeOne(q.k)
	return v, true
}

// Close marks the queue closed: pending and future Gets drain remaining
// items then report ok=false; Puts panic. Close wakes all waiters.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.getters.wakeAll(q.k)
	q.putters.wakeAll(q.k)
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// queueFull is the Blocker of Put: the queue is at capacity and open.
type queueFull[T any] Queue[T]

func (q *queueFull[T]) Blocked(int64) bool {
	return q.cap > 0 && len(q.items)-q.head >= q.cap && !q.closed
}

// queueEmpty is the Blocker of Get: the queue is empty and open.
type queueEmpty[T any] Queue[T]

func (q *queueEmpty[T]) Blocked(int64) bool { return len(q.items) == q.head && !q.closed }

// waiterList is a FIFO of parked processes. Like the queue item buffer it is
// head-indexed and resets to its start when drained, so park/wake cycles
// reuse one backing array instead of shedding capacity as they go.
type waiterList struct {
	ps   []*Proc
	head int
}

func (w *waiterList) add(p *Proc) { w.ps = append(w.ps, p) }

func (w *waiterList) pop() *Proc {
	p, ps, head := ringbuf.PopFront(w.ps, w.head)
	w.ps, w.head = ps, head
	return p
}

func (w *waiterList) wakeOne(k *Kernel) {
	for len(w.ps) > w.head {
		p := w.pop()
		if p.state == StateParked {
			k.wake(p)
			return
		}
	}
}

func (w *waiterList) wakeAll(k *Kernel) {
	for len(w.ps) > w.head {
		p := w.pop()
		if p.state == StateParked {
			k.wake(p)
		}
	}
}

// Semaphore is a counting semaphore for simulated processes.
type Semaphore struct {
	k       *Kernel
	name    string
	reason  string // precomputed park reason
	count   int
	waiters waiterList
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(k *Kernel, name string, initial int) *Semaphore {
	if initial < 0 {
		panic(fmt.Sprintf("sim: negative semaphore count %d", initial))
	}
	return &Semaphore{k: k, name: name, reason: "sem " + name, count: initial}
}

// Wait decrements the count, blocking p while it is zero (P operation).
func (s *Semaphore) Wait(p *Proc) {
	p.waitWhile(&s.waiters, (*semZero)(s), 0, s.reason)
	s.count--
}

// semZero is the Blocker of Wait: the count is zero.
type semZero Semaphore

func (s *semZero) Blocked(int64) bool { return s.count == 0 }

// TryWait decrements without blocking and reports success.
func (s *Semaphore) TryWait() bool {
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// Signal increments the count and wakes one waiter (V operation). It may be
// called from kernel context (e.g. an interrupt handler callback).
func (s *Semaphore) Signal() {
	s.count++
	s.waiters.wakeOne(s.k)
}

// Count returns the current counter value.
func (s *Semaphore) Count() int { return s.count }

// Signal is a broadcast condition: processes park on it and a later Fire
// wakes all of them. Unlike Semaphore there is no counter; a Fire with no
// waiters is lost, and a waiter's own condition says whether a Fire lets it
// go.
type Signal struct {
	k       *Kernel
	name    string
	reason  string // precomputed park reason
	waiters waiterList
}

// NewSignal creates a named broadcast signal.
func NewSignal(k *Kernel, name string) *Signal {
	return &Signal{k: k, name: name, reason: "signal " + name}
}

// AwaitWhile parks p on s for as long as b.Blocked(arg) holds: a Fire that
// leaves the condition holding parks p again. It is the wait loop
// `for b.Blocked(arg) { await the next Fire }`, with the condition handed
// to the kernel so that re-parking costs no switch into p.
func (s *Signal) AwaitWhile(p *Proc, b Blocker, arg int64) {
	p.waitWhile(&s.waiters, b, arg, s.reason)
}

// Fire wakes every currently-parked waiter.
func (s *Signal) Fire() { s.waiters.wakeAll(s.k) }

// Resource models a shared facility with limited parallelism (a memory bus,
// a DMA engine). Use occupies one slot for the given duration, queueing FIFO
// when all slots are busy — which is how bus contention arises in the
// platform models.
type Resource struct {
	sem  *Semaphore
	name string

	// busyTime accumulates total occupied time across slots, for utilization
	// reporting.
	busyTime Duration
	uses     uint64
}

// NewResource creates a resource with the given number of parallel slots.
func NewResource(k *Kernel, name string, slots int) *Resource {
	if slots <= 0 {
		panic(fmt.Sprintf("sim: resource %q needs at least one slot", name))
	}
	return &Resource{sem: NewSemaphore(k, name, slots), name: name}
}

// Use occupies one slot for d of virtual time, blocking first if no slot is
// free. The slot is released even if the process is killed mid-interval, so
// a forced termination cannot strand other users of the resource.
func (r *Resource) Use(p *Proc, d Duration) {
	r.sem.Wait(p)
	defer func() {
		r.busyTime += d
		r.uses++
		r.sem.Signal()
	}()
	p.Advance(d)
}

// Acquire claims a slot without advancing time. Pair with Release; use this
// form when the occupied interval is itself spent inside another resource
// (e.g. a CPU slot held across a bus transfer).
func (r *Resource) Acquire(p *Proc) { r.sem.Wait(p) }

// Release frees a slot previously claimed with Acquire, recording d as the
// occupied time for utilization accounting.
func (r *Resource) Release(d Duration) {
	r.busyTime += d
	r.uses++
	r.sem.Signal()
}

// Stats reports the accumulated busy time and the number of completed uses.
func (r *Resource) Stats() (busy Duration, uses uint64) { return r.busyTime, r.uses }

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }
