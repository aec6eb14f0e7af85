package core

import "fmt"

// Migrate rewires from's required interface req onto to's provided interface
// prov — like Reconnect — and, when the rewire closed the displaced mailbox
// (this producer was its last), drains the queued backlog into the new
// provider so no message is stranded behind the rewire. The drain rides the
// transport seam: raw mailbox receives feeding App.Inject, recording no
// middleware counters on either side, exactly as a cross-process relay moves
// frames it neither produced nor consumes.
//
// The drain is only safe — and only happens — when the rebind closed the old
// mailbox: a closed mailbox lets receivers empty it and then reports closed,
// so the loop below terminates deterministically instead of blocking on an
// open, possibly-refilling queue. When other producers still feed the old
// inbox, the backlog simply stays with them and the old consumer keeps
// draining it; nothing is lost either way.
//
// Migration presumes the two providers are interchangeable consumers of the
// moved messages, and that the new consumer is live (Inject observes real
// backpressure; a full mailbox whose consumer is gone would block the
// migrating flow). Migrate must run on a driver flow, never from a
// component body mid-send; every binding serves a driver's receives and
// injections at zero modelled cost, each injection waiting for room.
func (a *App) Migrate(f Flow, from *Component, req string, to *Component, prov string) error {
	old, closedOld, err := a.rebind(from, req, to, prov)
	if err != nil {
		return err
	}
	if !closedOld {
		return nil
	}
	mb := old.box()
	if mb == nil {
		return nil
	}
	moved := 0
	for {
		m, ok := mb.Receive(f)
		if !ok {
			return nil
		}
		ok, err := a.Inject(f, to, prov, m)
		if err != nil {
			return fmt.Errorf("core: migrate %s.%s: moving backlog message %d: %w", from.name, req, moved, err)
		}
		if !ok {
			// Only possible if the new mailbox closed mid-drain — from's own
			// sender reference holds it open unless from itself terminated.
			return fmt.Errorf("core: migrate %s.%s: %s.%s closed after %d backlog message(s) moved", from.name, req, to.name, prov, moved)
		}
		moved++
	}
}
