// Package svc provides the framework-level service flows and queues shared
// by both EMBera platform bindings: lightweight execution contexts for
// observation services and drivers, plus zero-cost mailboxes for observation
// traffic. Service flows consume no modelled CPU and their memory is not
// charged to any component — the paper's observation functions are part of
// the component implementation, not extra OS threads/tasks.
package svc

import (
	"embera/internal/core"
	"embera/internal/sim"
)

// Flow is a service execution flow: Compute is free (observation logic is
// not part of the modelled application work), SleepUS advances virtual time.
type Flow struct {
	P *sim.Proc
}

// Compute is a no-op on service flows.
func (f *Flow) Compute(cycles int64) {}

// SleepUS advances virtual time by us microseconds.
func (f *Flow) SleepUS(us int64) {
	if us <= 0 {
		f.P.YieldTurn()
		return
	}
	f.P.Advance(sim.Duration(us) * sim.Microsecond)
}

// Proc exposes the underlying simulation process; bindings use it to route
// mailbox blocking for flows of any concrete type.
func (f *Flow) Proc() *sim.Proc { return f.P }

// ProcHolder is implemented by every flow type of the simulated bindings —
// component flows and service flows alike — so queues can park whichever
// flow calls them.
type ProcHolder interface{ Proc() *sim.Proc }

// Spawn starts fn as a daemon service flow on k.
func Spawn(k *sim.Kernel, name string, fn func(f *Flow)) {
	p := k.Spawn(name, func(p *sim.Proc) {
		fn(&Flow{P: p})
	})
	p.SetDaemon(true)
}

// Timer is the simulators' core.Timer: a kernel callback, with no process
// behind it. Reset(d) schedules due at now+d and due schedules fn at the
// same instant, the same two events in the same dispatch order as a
// service flow's SleepUS(d) wake and the resume it queues, so a callback
// runs exactly where such a flow would have resumed.
type Timer struct {
	k   *sim.Kernel
	due func()
}

// NewTimer returns a disarmed timer on k running fn. Both closures are
// bound here, so a firing allocates nothing.
func NewTimer(k *sim.Kernel, fn func()) *Timer {
	return &Timer{k: k, due: func() { k.At(0, fn) }}
}

// Reset implements core.Timer.
func (t *Timer) Reset(us int64) { t.k.At(sim.Duration(us)*sim.Microsecond, t.due) }

// Wake implements core.Timer: virtual time is never cut short.
func (t *Timer) Wake() {}

// Queue is a zero-cost unbounded mailbox for observation traffic. It
// satisfies core.Mailbox. Sends never block and charge no platform cost.
type Queue struct {
	q *sim.Queue[core.Message]
}

// NewQueue creates a service queue on kernel k.
func NewQueue(k *sim.Kernel, name string) *Queue {
	return &Queue{q: sim.NewQueue[core.Message](k, name, 0)}
}

// Send enqueues m; it returns false if the queue is closed.
func (s *Queue) Send(sender core.Flow, m core.Message) bool {
	if s.q.Closed() {
		return false
	}
	return s.q.TryPut(m) // unbounded: always succeeds when open
}

// Receive blocks the calling flow until a message arrives; ok=false once
// closed and drained.
func (s *Queue) Receive(receiver core.Flow) (core.Message, bool) {
	h, ok := receiver.(ProcHolder)
	if !ok {
		panic("svc: receive from a flow without a simulation process")
	}
	return s.q.Get(h.Proc())
}

// Close closes the queue.
func (s *Queue) Close() { s.q.Close() }

// BufBytes reports 0: service queues are unaccounted.
func (s *Queue) BufBytes() int64 { return 0 }

// Depth returns the number of queued messages.
func (s *Queue) Depth() int { return s.q.Len() }

var _ core.Mailbox = (*Queue)(nil)
