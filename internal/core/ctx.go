package core

import "fmt"

// Ctx is the API a component body uses: the send/receive communication
// primitives and compute charging. All middleware-level instrumentation
// (operation counting, time stamping) lives in these wrappers — "the
// observation information provided is obtained by implementing the
// observation functions into the EMBera component implementation without
// modifying the application code".
type Ctx struct {
	c *Component
	f Flow
}

// Name returns the component's name.
func (x *Ctx) Name() string { return x.c.name }

// Component returns the underlying component (for advanced use; bodies
// normally need only the primitives).
func (x *Ctx) Component() *Component { return x.c }

// Compute charges cycles of CPU work on the component's processor.
func (x *Ctx) Compute(cycles int64) {
	if x.c.app.sink == nil {
		x.f.Compute(cycles)
		return
	}
	t0 := x.c.app.binding.NowUS(x.c)
	x.f.Compute(cycles)
	t1 := x.c.app.binding.NowUS(x.c)
	x.c.app.emit(Event{TimeUS: t1, Kind: EvCompute, Component: x.c.name, DurUS: t1 - t0})
}

// Send transmits payload (with modelled size bytes) through the named
// required interface. It blocks while the target mailbox is full and returns
// false if the mailbox has been closed. Sending on an unknown or unconnected
// interface panics: that is an assembly bug, not a runtime condition.
func (x *Ctx) Send(iface string, payload any, bytes int) bool {
	ri, ok := x.c.required[iface]
	if !ok {
		panic(fmt.Sprintf("core: %s sending on unknown required interface %q", x.c.name, iface))
	}
	target := ri.target.Load()
	if target == nil {
		panic(fmt.Sprintf("core: %s sending on unconnected interface %q", x.c.name, iface))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("core: %s sending negative size %d", x.c.name, bytes))
	}
	m := Message{Payload: payload, Bytes: bytes, From: x.c.name}
	t0 := x.c.app.binding.NowUS(x.c)
	if tr := ri.transport; tr != nil {
		// Remote consumer: the message crosses a process boundary through
		// the bound transport. Instrumentation below is identical to the
		// local path, so the sending side's flow counters are preserved.
		ok = tr.Send(x.f, m)
	} else {
		ok = target.box().Send(x.f, m)
	}
	t1 := x.c.app.binding.NowUS(x.c)
	x.c.stats.recordSend(&ri.send, iface, bytes, t1-t0)
	x.c.app.emit(Event{
		TimeUS: t1, Kind: EvSend, Component: x.c.name,
		Interface: iface, Bytes: bytes, DurUS: t1 - t0,
	})
	return ok
}

// Receive takes the oldest message from the named provided interface,
// blocking while it is empty. ok is false once every producer has terminated
// and the mailbox has drained — the component's natural shutdown signal.
func (x *Ctx) Receive(iface string) (m Message, ok bool) {
	pi, found := x.c.provided[iface]
	if !found {
		panic(fmt.Sprintf("core: %s receiving on unknown provided interface %q", x.c.name, iface))
	}
	t0 := x.c.app.binding.NowUS(x.c)
	m, ok = pi.box().Receive(x.f)
	t1 := x.c.app.binding.NowUS(x.c)
	if ok {
		x.c.stats.recordRecv(&pi.recv, iface, m.Bytes, t1-t0)
		x.c.app.emit(Event{
			TimeUS: t1, Kind: EvReceive, Component: x.c.name,
			Interface: iface, Bytes: m.Bytes, DurUS: t1 - t0,
		})
	}
	return m, ok
}

// SleepUS blocks the component for us microseconds of platform time.
func (x *Ctx) SleepUS(us int64) { x.f.SleepUS(us) }

// NowUS returns the component-local platform time in microseconds.
func (x *Ctx) NowUS() int64 { return x.c.app.binding.NowUS(x.c) }
