package sim

import "fmt"

// State describes the life-cycle phase of a process.
type State int

// Process states.
const (
	StateNew     State = iota // spawned, start event not yet processed
	StateRunning              // currently executing (at most one process)
	StateParked               // blocked on a synchronization object
	StateReady                // woken, resume event scheduled
	StateDone                 // function returned or killed
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateParked:
		return "parked"
	case StateReady:
		return "ready"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// procKilled is the panic payload used by Kill to unwind a process stack.
var procKilled = &struct{ reason string }{"killed"}

// Proc is a cooperative simulated process. All methods must be called from
// the process's own function (the one passed to Spawn), never from another
// goroutine: the kernel guarantees only one process runs at a time, and the
// synchronization objects rely on that.
type Proc struct {
	k    *Kernel
	name string
	id   uint64 // spawn order, for Shutdown
	// next resumes the process's coroutine until it suspends or returns;
	// stop unwinds a suspended one; yield, called by the coroutine,
	// suspends it and reports false once stop was called.
	next       func() (struct{}, bool)
	stop       func()
	yield      func(struct{}) bool
	state      State
	parkSeq    uint64 // incremented on every park; guards against stale wakes
	waitReason string
	// blocker, blockArg and blockList describe the wait loop the process
	// is parked in (waitWhile), nil outside one: the kernel re-tests the
	// condition when it dispatches the process's resume.
	blocker     Blocker
	blockArg    int64
	blockList   *waiterList
	panicked    error
	doneWaiters []*Proc
	killed      bool
	daemon      bool
}

// SetDaemon marks the process as a background service: a parked daemon does
// not count as a deadlock when the event queue drains (it never runs again,
// and Shutdown ends it). Observation service loops use this.
func (p *Proc) SetDaemon(v bool) { p.daemon = v }

// Daemon reports whether the process is marked as a daemon.
func (p *Proc) Daemon() bool { return p.daemon }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// State returns the current life-cycle state.
func (p *Proc) State() State { return p.state }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// park suspends the process until another event wakes it. reason is reported
// by deadlock diagnostics.
func (p *Proc) park(reason string) {
	if p.k.tracer != nil {
		p.k.trace("park %s: %s", p.name, reason)
	}
	p.suspend(reason)
}

// Blocker is the condition of a wait loop, `for b.Blocked(arg) { park }`.
// When the kernel dispatches the resume of a process parked in such a loop
// and finds the condition still holding, it runs the loop's next iteration
// itself — it puts the process back on the same waiter list and parks it
// again — instead of switching into the process only for it to do so.
// Blocked must therefore be a pure read of simulation state. Implementations
// are long-lived values (the synchronization object, a mailbox), so parking
// on one allocates nothing; arg carries what the waiter needs of it, such as
// the bytes a sender wants room for.
type Blocker interface {
	Blocked(arg int64) bool
}

// waitWhile parks p on w for as long as b.Blocked(arg) holds.
func (p *Proc) waitWhile(w *waiterList, b Blocker, arg int64, reason string) {
	for b.Blocked(arg) {
		w.add(p)
		p.blocker, p.blockArg, p.blockList = b, arg, w
		p.park(reason)
		p.blocker, p.blockList = nil, nil
	}
}

// repark serves a resume of p in kernel context when p is in a wait loop
// whose condition still holds, and reports whether it did. It does what the
// loop's next iteration would: the same waiter-list append at the same
// moment, a new park with the same reason, and no other effect. A killed
// process must unwind through its coroutine, and a traced one must log its
// resume and park, so both take the real switch.
func (k *Kernel) repark(p *Proc) bool {
	if p.blocker == nil || p.killed || k.tracer != nil || !p.blocker.Blocked(p.blockArg) {
		return false
	}
	p.blockList.add(p)
	p.parkSeq++
	p.state = StateParked
	k.stats.Reparks++
	return true
}

// suspend switches back to the kernel with the process parked and returns
// when the kernel resumes it. A killed process, and one Shutdown stops,
// unwinds from here.
func (p *Proc) suspend(reason string) {
	p.parkSeq++
	p.state = StateParked
	p.waitReason = reason
	resumed := p.yield(struct{}{})
	p.waitReason = ""
	if !resumed || p.killed {
		panic(procKilled)
	}
}

// exit is the coroutine's last deferred call, on return, kill or panic: it
// keeps a panic for handoff to re-raise on the kernel's side and retires
// the process.
func (p *Proc) exit() {
	if r := recover(); r != nil && r != procKilled {
		p.panicked = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
	}
	p.finish()
}

// finish marks the process done and wakes the processes joining it.
func (p *Proc) finish() {
	p.state = StateDone
	delete(p.k.procs, p)
	for _, w := range p.doneWaiters {
		p.k.wake(w)
	}
	p.doneWaiters = nil
}

// Advance consumes d of virtual time: the process is suspended and resumes
// once the kernel clock has moved d forward. It models computation or any
// other busy interval. Negative durations panic.
func (p *Proc) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q advancing by negative duration %d", p.name, d))
	}
	if d == 0 {
		p.YieldTurn()
		return
	}
	p.k.atWake(d, p)
	p.suspend("advance")
}

// YieldTurn relinquishes the processor without advancing time; the process
// resumes after all other events already scheduled for the current instant.
func (p *Proc) YieldTurn() {
	p.k.atWake(0, p)
	p.suspend("yield")
}

// Join blocks until other terminates. Joining a terminated process returns
// immediately; a process cannot join itself.
func (p *Proc) Join(other *Proc) {
	if other == p {
		panic("sim: process joining itself")
	}
	if other.state == StateDone {
		return
	}
	other.doneWaiters = append(other.doneWaiters, p)
	p.park("join " + other.name)
}

// Kill forcibly terminates target the next time it would resume. It is safe
// to call from any process or from kernel context; killing an already-done
// process is a no-op.
func (k *Kernel) Kill(target *Proc) {
	if target.state == StateDone || target.killed {
		return
	}
	target.killed = true
	if target.state == StateParked {
		k.wake(target)
	}
}
