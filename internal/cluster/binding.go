package cluster

import (
	"sync/atomic"

	"embera/internal/core"
	"embera/internal/native"
)

// binding decorates the native binding with shard awareness. In the default
// single-process mode (no Distribute) it is a transparent passthrough — a
// cluster of one — so direct machine construction (tests, ad-hoc harnesses)
// behaves exactly like the native platform. In sharded mode it spawns only
// local components, registers external ones without a flow, and routes
// kills of remote components through the machine's control plane.
type binding struct {
	nat *native.Binding

	// sharded mode, written before core.App.Start on the constructing
	// goroutine (Distribute on the coordinator, worker setup in workers).
	multi      bool
	localShard int
	shards     int
	onDone     func(c *core.Component) // local component flow finished
	killRemote func(c *core.Component) // kill request for an external component
}

func (b *binding) local(c *core.Component) bool {
	return !b.multi || ShardOf(c.Name(), b.shards) == b.localShard
}

// PlatformName implements core.Binding.
func (b *binding) PlatformName() string { return "cluster" }

// Spawn implements core.Binding: local components run on the native
// binding's goroutines; external ones are registered but not spawned — their
// flows execute in the owning process and their life cycle arrives over the
// wire (FinishExternal).
func (b *binding) Spawn(c *core.Component, run func(f core.Flow)) error {
	if !b.local(c) {
		return nil
	}
	if b.onDone == nil {
		return b.nat.Spawn(c, run)
	}
	return b.nat.Spawn(c, func(f core.Flow) {
		// The done hook must fire even when the flow unwinds through a
		// kill panic, after the core cleanup (producer release, transport
		// close) has run.
		defer b.onDone(c)
		run(f)
	})
}

// SpawnService implements core.Binding.
func (b *binding) SpawnService(name string, run func(f core.Flow)) {
	b.nat.SpawnService(name, run)
}

// SpawnDriver implements core.Binding.
func (b *binding) SpawnDriver(name string, run func(f core.Flow)) {
	b.nat.SpawnDriver(name, run)
}

// NewTimer implements core.Binding.
func (b *binding) NewTimer(fn func()) core.Timer { return b.nat.NewTimer(fn) }

// NewMailbox implements core.Binding.
func (b *binding) NewMailbox(c *core.Component, iface string, bufBytes int64) (core.Mailbox, error) {
	return b.nat.NewMailbox(c, iface, bufBytes)
}

// NewServiceQueue implements core.Binding.
func (b *binding) NewServiceQueue(name string) core.Mailbox {
	return b.nat.NewServiceQueue(name)
}

// NowUS implements core.Binding.
func (b *binding) NowUS(c *core.Component) int64 { return b.nat.NowUS(c) }

// OSView implements core.Binding.
func (b *binding) OSView(c *core.Component) core.OSReport { return b.nat.OSView(c) }

// Kill implements core.Binding: local components die on the native path;
// kills of external components are forwarded to their owning process.
func (b *binding) Kill(c *core.Component) {
	if b.local(c) {
		b.nat.Kill(c)
		return
	}
	if b.killRemote != nil {
		b.killRemote(c)
	}
}

// WallClock implements core.WallClocked: cluster time is host time.
func (b *binding) WallClock() bool { return true }

// BeginSweep implements core.SweepViewer by forwarding to the native
// binding, keeping the one-clock-read-per-sweep monitor optimization.
func (b *binding) BeginSweep() int64 { return b.nat.BeginSweep() }

// OSViewAt implements core.SweepViewer.
func (b *binding) OSViewAt(c *core.Component, cookie int64) core.OSReport {
	return b.nat.OSViewAt(c, cookie)
}

var (
	_ core.Binding     = (*binding)(nil)
	_ core.WallClocked = (*binding)(nil)
	_ core.SweepViewer = (*binding)(nil)
)

// localCounter tracks how many local component flows are still running; the
// worker sends its final reports when the count reaches zero.
type localCounter struct {
	n    atomic.Int64
	done func()
}

func (lc *localCounter) dec() {
	if lc.n.Add(-1) == 0 && lc.done != nil {
		lc.done()
	}
}
