package core

// Binding maps the platform-independent EMBera model onto a concrete
// platform. The paper implements the model twice — on SMP/Linux (§4) and on
// the STi7200/OS21 (§5) — and this interface is exactly the seam between
// "the EMBera model" and "the implementation of EMBera on X".
type Binding interface {
	// PlatformName identifies the platform (for reports).
	PlatformName() string

	// Spawn starts the component's execution flow. run must be invoked once
	// the flow is scheduled; the Flow it receives is the component's handle
	// for charging compute work. Spawn is called during App.Start, after all
	// interfaces exist and connections are made.
	Spawn(c *Component, run func(f Flow)) error

	// SpawnService starts a lightweight framework flow (the observation
	// service of a component, see observation.go). Service flows consume no
	// modelled CPU and their resources are not charged to the component —
	// the paper's observation functions live inside the component
	// implementation, not in an extra OS thread. Services are daemons: the
	// platform does not wait for them when deciding a run has finished.
	SpawnService(name string, run func(f Flow))

	// SpawnDriver starts a harness flow (an observation driver, a load
	// controller). Like a service it consumes no modelled CPU, but it is
	// not a daemon: the platform must wait for every driver to return
	// before a run counts as complete, and a driver that blocks forever is
	// a reportable deadlock. On the simulated bindings drivers and services
	// share the same machinery; platforms executing in real time need the
	// distinction to know when to stop waiting.
	SpawnDriver(name string, run func(f Flow))

	// NewMailbox allocates the platform object backing a provided interface
	// (a FIFO mailbox on Linux, an EMBX distributed object on OS21) with the
	// given buffer capacity in bytes, charging it to the component's memory.
	NewMailbox(c *Component, iface string, bufBytes int64) (Mailbox, error)

	// NewServiceQueue allocates an unaccounted, zero-cost mailbox for
	// observation traffic.
	NewServiceQueue(name string) Mailbox

	// NowUS returns the component-local time in microseconds: gettimeofday
	// on Linux, the per-CPU time_now clock on OS21. Timestamps from
	// different components are only comparable on platforms with a global
	// clock.
	NowUS(c *Component) int64

	// OSView reports the operating-system-level observation of §4.2/§5.2:
	// execution time so far (or final, once the component terminated) and
	// the memory allocated to the component (thread stack / task memory plus
	// provided-interface structures).
	OSView(c *Component) OSReport

	// Kill forcibly terminates the component's execution flow (the
	// "termination" half of §3.1's life-cycle management). The flow unwinds
	// the next time it would run; framework cleanup (mailbox release,
	// life-cycle bookkeeping) still executes.
	Kill(c *Component)

	// NewTimer returns a disarmed timer that runs fn on the platform's
	// clock: a kernel callback on the simulators, which costs no process
	// and no virtual time, and a host timer on wall-clock platforms, which
	// the machine waits for while it is armed. fn runs outside every
	// component flow and must not block.
	NewTimer(fn func()) Timer
}

// Timer is a one-shot platform timer (see Binding.NewTimer).
type Timer interface {
	// Reset arms the timer to run fn once, us platform microseconds from
	// now. Call it before the run or from fn itself, never on an armed
	// timer.
	Reset(us int64)
	// Wake runs an armed timer's fn now on wall-clock platforms. In virtual
	// time it does nothing, so the deterministic schedule never depends on
	// who called it. Safe from any goroutine.
	Wake()
}

// WallClocked is an optional Binding refinement: a platform whose NowUS is
// real wall-clock time rather than virtual time reports WallClock() true.
// Consumers (the streaming monitor's adaptive governor) use it to decide
// whether host-time self-cost measurement is meaningful; on virtual-time
// platforms it would perturb deterministic schedules.
type WallClocked interface {
	WallClock() bool
}

// SweepViewer is an optional Binding refinement for batched observation
// sweeps. BeginSweep reads the platform clock once and returns an opaque
// cookie; OSViewAt is OSView evaluated against that cookie instead of a
// fresh clock read per component. SampleAll uses it so a sweep over N
// components costs one clock read, not N.
type SweepViewer interface {
	BeginSweep() int64
	OSViewAt(c *Component, cookie int64) OSReport
}

// Flow is a component's execution-flow handle inside its body.
type Flow interface {
	// Compute charges cycles of CPU work at the component's processor.
	Compute(cycles int64)
	// SleepUS blocks the flow for the given number of microseconds of
	// platform time without charging CPU work.
	SleepUS(us int64)
}

// Mailbox is the platform FIFO behind a provided interface.
type Mailbox interface {
	// Send delivers m, blocking the sender while the buffer is full. It is
	// called in the sender's flow and charges the platform transfer cost.
	// Send returns false if the mailbox was closed.
	Send(sender Flow, m Message) bool
	// Receive returns the oldest message, blocking while the mailbox is
	// empty. ok is false once the mailbox is closed and drained.
	Receive(receiver Flow) (m Message, ok bool)
	// Close marks the mailbox closed: receivers drain then get ok=false.
	Close()
	// BufBytes returns the configured buffer capacity.
	BufBytes() int64
	// Depth returns the number of buffered messages (for observation).
	Depth() int
}

// OSReport is the OS-level observation result.
type OSReport struct {
	// ExecTimeUS is the component execution time in microseconds: "the time
	// elapsed between the starting of a component and the termination of its
	// code execution" on Linux; task_time on OS21.
	ExecTimeUS int64
	// MemBytes is the memory allocated for the component: thread stack /
	// task memory plus all provided-interface structures.
	MemBytes int64
	// Running reports whether the component is still executing (ExecTimeUS
	// is a snapshot in that case).
	Running bool
	// CacheMisses and CacheHits expose the modelled cache counters where the
	// platform provides them (the §6 future-work extension); both zero
	// otherwise.
	CacheHits, CacheMisses uint64
}
