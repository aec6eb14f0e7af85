package core

import "fmt"

// Transport carries messages for one connection whose producer and consumer
// do not share an address space. It is the remote counterpart of a Mailbox's
// sending half: Ctx.Send dispatches to a bound Transport instead of the local
// target mailbox, with the middleware instrumentation (operation counts,
// byte accounting, primitive timing) recorded identically on the sending
// side. The receiving process injects the message into the consumer's real
// mailbox, where Ctx.Receive records the other half — flow counters are
// preserved on both ends, each end counted by the process that owns it.
type Transport interface {
	// Send transmits one message. It may block on backpressure and returns
	// false once the remote consumer is unreachable (mirror of a closed
	// mailbox).
	Send(f Flow, m Message) bool
	// CloseProducer signals that this producer has terminated, the remote
	// analogue of the sender-count decrement a local producer performs on
	// exit. The receiving process releases one producer reference on the
	// consumer's mailbox (ReleaseProducer), closing it when the last
	// reference drops.
	CloseProducer()
}

// BindTransport routes from's required interface req through t instead of
// the connected target's local mailbox. The connection itself must already
// exist (Connect): the target pointer still identifies the consumer for
// structure listings, and the sender count established at Start is released
// remotely via Transport.CloseProducer / ReleaseProducer rather than by the
// local cleanup. Must be called before Start.
func (a *App) BindTransport(from *Component, req string, t Transport) error {
	if a.started.Load() {
		return fmt.Errorf("core: app %q already started", a.Name)
	}
	if from == nil || t == nil {
		return fmt.Errorf("core: bind transport with nil component or transport")
	}
	ri, ok := from.required[req]
	if !ok {
		return fmt.Errorf("core: %s has no required interface %q", from.name, req)
	}
	if ri.target.Load() == nil {
		return fmt.Errorf("core: %s.%s not connected; bind transports after Connect", from.name, req)
	}
	ri.transport = t
	return nil
}

// ReleaseProducer drops one producer reference on to's provided interface
// prov, closing the mailbox when the last producer is gone. It is the local
// half of a remote producer's termination: the process that owns the
// consumer calls it when the producer's CloseProducer signal arrives.
func (a *App) ReleaseProducer(to *Component, prov string) error {
	pi, ok := to.provided[prov]
	if !ok {
		return fmt.Errorf("core: %s has no provided interface %q", to.name, prov)
	}
	a.connMu.Lock()
	defer a.connMu.Unlock()
	pi.senders--
	if pi.senders == 0 {
		pi.closed = true
		if mb := pi.box(); mb != nil {
			mb.Close()
		}
	}
	return nil
}

// SetExternal marks the component as executing in another process: the local
// binding registers it without spawning a flow, observation sweeps
// (App.SampleAll) skip it — its owner samples it — and its life cycle is
// driven by FinishExternal instead of a local body return.
func (c *Component) SetExternal(v bool) { c.external.Store(v) }

// External reports whether the component executes in another process.
func (c *Component) External() bool { return c.external.Load() }

// SetReportOverride publishes a full observation report taken by the
// component's owning process. Once set, Snapshot answers from the override
// (filtered to the requested level) instead of reading local state, so
// end-of-run queries see the counters the real execution accumulated.
func (c *Component) SetReportOverride(rep ObsReport) {
	rep.Component = c.name
	c.reportOverride.Store(&rep)
}

// FinishExternal transitions an external component to StateDone, emitting
// the stop event and contributing to application quiescence. Safe to call at
// most the usual once per component per run; redundant calls (e.g. a worker
// failure path racing a late report) are ignored. Producer references held
// by the external component on local mailboxes are NOT released here — its
// owning process drives the real flow, and the remote producer-release
// arrives through the transport's close signal.
func (a *App) FinishExternal(c *Component) {
	if !c.external.Load() {
		return
	}
	if !c.state.CompareAndSwap(int32(StateCreated), int32(StateDone)) {
		return
	}
	a.emit(Event{TimeUS: a.binding.NowUS(c), Kind: EvStop, Component: c.name})
	a.finished()
}

// Inject delivers a message straight into to's provided mailbox — the
// receiving half of a remote edge. The injecting flow observes the same
// backpressure a local producer would (it blocks while the mailbox is
// full); ok is false once the mailbox has closed. Middleware counters are
// NOT recorded here: the real producer recorded the send in its own
// process, and the consumer records the receive — injection is transport
// plumbing, not a communication primitive.
func (a *App) Inject(f Flow, to *Component, prov string, m Message) (bool, error) {
	pi, ok := to.provided[prov]
	if !ok {
		return false, fmt.Errorf("core: %s has no provided interface %q", to.name, prov)
	}
	mb := pi.box()
	if mb == nil {
		return false, fmt.Errorf("core: %s.%s has no mailbox (app not started?)", to.name, prov)
	}
	return mb.Send(f, m), nil
}

// Connection describes one assembly edge from the perspective of its
// producer: the required interface it leaves through and the provided
// interface it lands on. Enumerating Connections over App.Components in
// creation order yields the same edge table in every process that builds the
// same assembly — the basis for compact cross-process edge identifiers.
type Connection struct {
	FromIface string
	To        string
	ToIface   string
}

// Connections enumerates the component's outgoing edges in required-
// interface declaration order. Unconnected interfaces are skipped.
func (c *Component) Connections() []Connection {
	out := make([]Connection, 0, len(c.requiredOrder))
	for _, name := range c.requiredOrder {
		t := c.required[name].target.Load()
		if t == nil {
			continue
		}
		out = append(out, Connection{FromIface: name, To: t.comp.name, ToIface: t.name})
	}
	return out
}
