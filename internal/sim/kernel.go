// Package sim implements a deterministic discrete-event simulation kernel.
//
// Both platform models in this repository — the 16-core NUMA SMP machine
// (internal/smp) and the STi7200 MPSoC (internal/sti7200) — execute on top of
// this kernel. Simulated software runs as cooperative processes: ordinary Go
// functions that are suspended and resumed by the kernel so that exactly one
// process executes at any instant. All durations are virtual; the kernel
// advances its clock from event to event, which makes every experiment in
// this repository bit-reproducible.
//
// The design follows the classic process-oriented discrete-event style
// (SimPy, OMNeT++): events ordered by (time, sequence) drive callbacks, and
// each process is a coroutine (iter.Pull) that the kernel resumes with one
// direct switch and that switches back whenever it blocks on virtual time
// or on a synchronization object (Queue, Semaphore, Resource, Signal).
// Shutdown ends a run: it drops the pending events and unwinds every
// process still live, so no coroutine outlives its kernel.
//
// Two shortcuts keep host time for the processes that can make progress,
// and neither moves the schedule:
//
//   - Same-instant queue. Most events are scheduled with zero delay: every
//     wake's resume, YieldTurn, At(0, …), a Spawn's start. They go to a
//     FIFO instead of the heap. Such an event is scheduled once the clock
//     has reached now, so its sequence number is larger than that of every
//     heap event due now; dispatching heap events due now first, then the
//     FIFO, then advancing the clock replays the (time, sequence) order
//     exactly.
//   - Kernel-side re-parking. A blocked process waits in a loop,
//     `for b.Blocked(arg) { park }` (see Blocker). When its resume comes up
//     and the condition still holds — a broadcast woke it but another
//     process took the room first — the kernel runs that loop iteration
//     itself: the same waiter-list append and the same park, with no switch
//     into the coroutine. The resume is still dispatched at its place in the
//     order, so the event stream is the one a switch would have produced. A
//     killed process, and every process while a tracer is installed, takes
//     the real switch.
//
// Kernel.Stats counts the events and how each resume was served.
package sim

import (
	"fmt"
	"iter"
	"sort"

	"embera/internal/ringbuf"
)

// Time is an absolute virtual time stamp in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common duration units, mirroring package time for virtual durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a Duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Microseconds reports the duration as a floating-point microsecond count.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds reports the duration as a floating-point millisecond count.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports the duration as a floating-point second count.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Event kinds. Process wake-ups are the overwhelming majority of scheduled
// events (every send, receive, advance and sleep produces at least one), so
// they carry the target process in the event struct itself instead of a
// closure: the park/wake/resume cycle allocates nothing once the free list
// is warm.
const (
	evFn     uint8 = iota // run fn in kernel context
	evWake                // timer aimed at p: call wake(p) when dispatched
	evResume              // resume p if still ready and its park matches pseq
)

// event is a scheduled kernel callback.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among simultaneous events
	fn   func() // evFn only
	p    *Proc  // evWake / evResume target
	pseq uint64 // evResume: park sequence the resume is aimed at
	kind uint8
}

// before orders events by (at, seq): the kernel's dispatch order.
func (ev *event) before(o *event) bool {
	return ev.at < o.at || (ev.at == o.at && ev.seq < o.seq)
}

// eventHeap is a binary min-heap on (at, seq). Its sift functions are typed,
// so pushing and popping neither boxes events in interfaces nor dispatches
// through heap.Interface.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// pop removes and returns the earliest event. The heap must not be empty.
func (h *eventHeap) pop() *event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].before(s[child]) {
			child = r
		}
		if !s[child].before(last) {
			break
		}
		s[i] = s[child]
		i = child
	}
	s[i] = last
	return top
}

// Kernel is a discrete-event simulation engine. The zero value is not usable;
// construct kernels with NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap // events scheduled with a nonzero delay
	// nowq is the same-instant queue: a head-indexed FIFO of the events
	// scheduled with zero delay. They are all due now (the clock never
	// advances while it holds one, so it also drains and resets at every
	// instant), and they dispatch after every heap event due now, which is
	// exactly their (at, seq) place.
	nowq    []*event
	nowHead int
	free    []*event // recycled event structs for the hot scheduling loop
	procs   map[*Proc]struct{}
	spawned uint64 // processes ever spawned; numbers them in spawn order
	tracer  func(t Time, format string, args ...any)
	stats   KernelStats
}

// KernelStats counts a kernel's work since NewKernel. Scheduled and
// Dispatched are the event stream; Switches + Reparks is the number of
// resumes that found their process still ready, split by how the kernel
// served them.
type KernelStats struct {
	Scheduled  uint64 // events scheduled: At, wakes, resumes, process starts
	Dispatched uint64 // events RunUntil dequeued and ran
	Switches   uint64 // resumes that switched into the process's coroutine
	Reparks    uint64 // resumes the kernel re-parked: the wait still held
}

// heapHint pre-sizes the event heap and bounds the free list: past this many
// idle recycled events the kernel lets the garbage collector have them.
const heapHint = 4096

// NewKernel returns an empty kernel with its clock at zero.
func NewKernel() *Kernel {
	return &Kernel{
		events: make(eventHeap, 0, heapHint),
		procs:  make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Stats reports the kernel's event and resume counters.
func (k *Kernel) Stats() KernelStats {
	st := k.stats
	st.Scheduled = k.seq
	return st
}

// SetTracer installs a debug tracer invoked on process state transitions.
// A nil tracer disables tracing.
func (k *Kernel) SetTracer(fn func(t Time, format string, args ...any)) { k.tracer = fn }

// trace forwards to the installed tracer. Hot-path callers must guard with
// `if k.tracer != nil` themselves: a variadic call materializes its []any
// argument pack at the call site whether or not the tracer is installed,
// which used to cost the park/wake cycle several allocations per operation.
func (k *Kernel) trace(format string, args ...any) {
	if k.tracer != nil {
		k.tracer(k.now, format, args...)
	}
}

// At schedules fn to run in kernel context when the virtual clock reaches
// now+d. Scheduling in the past panics: the kernel never rewinds.
func (k *Kernel) At(d Duration, fn func()) {
	k.schedule(d, evFn, fn, nil, 0)
}

// atWake schedules a closure-free wake-up of p at now+d (the timer half of
// Advance, YieldTurn and SleepUS).
func (k *Kernel) atWake(d Duration, p *Proc) {
	k.schedule(d, evWake, nil, p, 0)
}

// schedule is the shared scheduling path behind At, atWake and wake.
func (k *Kernel) schedule(d Duration, kind uint8, fn func(), p *Proc, pseq uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	k.seq++
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.fn, ev.p, ev.pseq, ev.kind = k.now+Time(d), k.seq, fn, p, pseq, kind
	if d == 0 {
		k.nowq = append(k.nowq, ev)
	} else {
		k.events.push(ev)
	}
}

// recycle returns a dispatched event to the free list.
func (k *Kernel) recycle(ev *event) {
	ev.fn, ev.p = nil, nil
	if len(k.free) < heapHint {
		k.free = append(k.free, ev)
	}
}

// Spawn creates a new process named name executing fn and schedules it to
// start at the current virtual time. The returned Proc is valid immediately
// but fn only begins executing once Run processes the start event.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(0, name, fn)
}

// SpawnAt is Spawn with a start delay of d. The process's coroutine is
// created by its start event, so a process that never starts costs no
// goroutine.
func (k *Kernel) SpawnAt(d Duration, name string, fn func(p *Proc)) *Proc {
	k.spawned++
	p := &Proc{k: k, name: name, id: k.spawned, state: StateNew}
	k.procs[p] = struct{}{}
	k.At(d, func() {
		p.state = StateRunning
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer p.exit()
			fn(p)
		})
		k.handoff(p)
	})
	return p
}

// handoff transfers control to p and returns once p parks, terminates or
// advances time.
func (k *Kernel) handoff(p *Proc) {
	p.next()
	if p.panicked != nil {
		panic(p.panicked)
	}
}

// wake schedules p to resume at the current virtual time. It is the
// low-level mechanism used by all synchronization objects. Stale wakes —
// aimed at a park the process has already left (e.g. a timer firing after a
// Kill already unblocked the process) — are ignored via the park sequence
// number.
func (k *Kernel) wake(p *Proc) {
	if p.state != StateParked {
		return // already woken by someone else, or terminated
	}
	p.state = StateReady
	k.schedule(0, evResume, nil, p, p.parkSeq)
}

// dispatch runs one dequeued event after it has been recycled.
func (k *Kernel) dispatch(kind uint8, fn func(), p *Proc, pseq uint64) {
	switch kind {
	case evFn:
		fn()
	case evWake:
		k.wake(p)
	case evResume:
		if p.state != StateReady || p.parkSeq != pseq {
			return // superseded: the process moved on in the meantime
		}
		if k.repark(p) {
			return
		}
		p.state = StateRunning
		k.stats.Switches++
		if k.tracer != nil {
			k.trace("resume %s", p.name)
		}
		k.handoff(p)
	}
}

// Run executes events until none remain, then verifies that no process is
// still blocked. If blocked processes remain, Run returns a *DeadlockError
// naming them; otherwise it returns nil.
func (k *Kernel) Run() error {
	return k.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= limit. It returns a
// *DeadlockError if the event queue drains while processes are still parked,
// and nil otherwise (including when the limit cuts the run short).
func (k *Kernel) RunUntil(limit Time) error {
	for {
		var ev *event
		switch {
		case len(k.events) > 0 && k.events[0].at == k.now:
			// A heap event due now was scheduled before the clock got
			// here, so it precedes every same-instant event.
			ev = k.events.pop()
		case k.nowHead < len(k.nowq):
			ev, k.nowq, k.nowHead = ringbuf.PopFront(k.nowq, k.nowHead)
		case len(k.events) > 0:
			if k.events[0].at > limit {
				k.now = limit
				return nil
			}
			ev = k.events.pop()
			if ev.at < k.now {
				panic("sim: event queue time went backwards")
			}
			k.now = ev.at
		}
		if ev == nil {
			break
		}
		kind, fn, p, pseq := ev.kind, ev.fn, ev.p, ev.pseq
		// Recycle before dispatch: once its fields are saved the struct
		// carries no live state, and the dispatched work may schedule (and
		// so reuse) events.
		k.recycle(ev)
		k.stats.Dispatched++
		k.dispatch(kind, fn, p, pseq)
	}
	var parked []string
	for p := range k.procs {
		if p.state == StateParked && !p.daemon {
			parked = append(parked, p.name+" ("+p.waitReason+")")
		}
	}
	if len(parked) > 0 {
		sort.Strings(parked)
		return &DeadlockError{Time: k.now, Parked: parked}
	}
	return nil
}

// Pending reports the number of scheduled, not-yet-executed events.
func (k *Kernel) Pending() int { return len(k.events) + len(k.nowq) - k.nowHead }

// Live reports the number of processes that have been spawned and have not
// yet terminated.
func (k *Kernel) Live() int { return len(k.procs) }

// Unfinished names the live processes that are not daemons, sorted: after
// a RunUntil that returned nil they are what the limit cut short.
func (k *Kernel) Unfinished() []string {
	var names []string
	for p := range k.procs {
		if !p.daemon {
			names = append(names, p.name+" ("+p.state.String()+")")
		}
	}
	sort.Strings(names)
	return names
}

// Shutdown ends the simulation. It drops every pending event and unwinds
// every live process in spawn order — parked, ready and never started
// alike — as Kill would, so each one's deferred calls run (a Resource.Use
// in flight releases its slot) and its coroutine exits. It returns once no
// process goroutine is left, after which Live reads 0. Call it from kernel
// context once the run is over — after RunUntil returns, or from an event
// callback — never from a process; calling it again is a no-op. A process
// that panics while unwinding re-panics here after every other one is
// gone.
func (k *Kernel) Shutdown() {
	var panicked error
	for len(k.procs) > 0 {
		live := make([]*Proc, 0, len(k.procs))
		for p := range k.procs {
			live = append(live, p)
		}
		sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
		for _, p := range live {
			p.killed = true
			switch p.state {
			case StateNew: // no coroutine yet: nothing to unwind
				p.finish()
			case StateParked, StateReady:
				p.state = StateRunning
				p.stop() // the suspend in progress panics procKilled
			case StateRunning:
				panic(fmt.Sprintf("sim: Shutdown while process %q runs", p.name))
			}
			if panicked == nil {
				panicked = p.panicked
			}
		}
	}
	for _, ev := range k.events {
		k.recycle(ev)
	}
	clear(k.events)
	k.events = k.events[:0]
	for _, ev := range k.nowq[k.nowHead:] {
		k.recycle(ev)
	}
	clear(k.nowq)
	k.nowq, k.nowHead = k.nowq[:0], 0
	if panicked != nil {
		panic(panicked)
	}
}

// DeadlockError reports that simulation stalled with parked processes.
type DeadlockError struct {
	Time   Time
	Parked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d with %d parked process(es): %v",
		e.Time, len(e.Parked), e.Parked)
}
