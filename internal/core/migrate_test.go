package core_test

import (
	"testing"

	"embera/internal/core"
	"embera/internal/os21bind"
	"embera/internal/sim"
)

// TestMigrateMovesBacklog: when the rewired producer was the old inbox's
// last, Migrate must move the queued backlog to the new provider instead of
// leaving it behind a closed mailbox.
func TestMigrateMovesBacklog(t *testing.T) {
	a, k, _ := newSMPApp(t, "migrate")
	const (
		preload = 20 // queued up before the rewire
		tail    = 10 // sent to the new target after it
	)
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < preload; i++ {
			if !ctx.Send("out", i, 64) {
				return
			}
		}
		ctx.SleepUS(50_000) // let the driver migrate mid-stream
		for i := preload; i < preload+tail; i++ {
			if !ctx.Send("out", i, 64) {
				return
			}
		}
	}).MustAddRequired("out")
	slowGot, spareGot := 0, 0
	slow := a.MustNewComponent("slow", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
			slowGot++
			ctx.Compute(2_000_000_000) // a backlog builds behind each message
		}
	}).MustAddProvided("in", 1<<20)
	spare := a.MustNewComponent("spare", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
			spareGot++
		}
	}).MustAddProvided("in", 1<<20)
	a.MustConnect(prod, "out", slow, "in")
	var migrateErr error
	a.SpawnDriver("migrate", func(f core.Flow) {
		f.SleepUS(5_000)
		migrateErr = a.Migrate(f, prod, "out", spare, "in")
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	if migrateErr != nil {
		t.Fatalf("migrate: %v", migrateErr)
	}
	if got := slowGot + spareGot; got != preload+tail {
		t.Fatalf("messages lost or duplicated: %d + %d != %d", slowGot, spareGot, preload+tail)
	}
	// The spare must have received the moved backlog, not just the tail the
	// producer sent after the rewire.
	if spareGot < tail+15 {
		t.Fatalf("backlog did not move: spare got %d, slow got %d", spareGot, slowGot)
	}
}

// TestMigrateLeavesSharedBacklog: with another live producer still feeding
// the old inbox, Migrate must NOT touch the backlog — the remaining producer
// and the old consumer keep the queue flowing, and nothing is lost.
func TestMigrateLeavesSharedBacklog(t *testing.T) {
	a, k, _ := newSMPApp(t, "migrate-shared")
	const perProducer = 30
	mkProd := func(name string) *core.Component {
		return a.MustNewComponent(name, func(ctx *core.Ctx) {
			for i := 0; i < perProducer; i++ {
				ctx.Compute(100_000)
				if !ctx.Send("out", i, 64) {
					return
				}
			}
		}).MustAddRequired("out")
	}
	p1, p2 := mkProd("p1"), mkProd("p2")
	sinkGot, spareGot := 0, 0
	sink := a.MustNewComponent("sink", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
			sinkGot++
		}
	}).MustAddProvided("in", 1<<20)
	spare := a.MustNewComponent("spare", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
			spareGot++
		}
	}).MustAddProvided("in", 1<<20)
	a.MustConnect(p1, "out", sink, "in")
	a.MustConnect(p2, "out", sink, "in")
	var migrateErr error
	a.SpawnDriver("migrate", func(f core.Flow) {
		f.SleepUS(500)
		migrateErr = a.Migrate(f, p1, "out", spare, "in")
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	if migrateErr != nil {
		t.Fatalf("migrate: %v", migrateErr)
	}
	if sinkGot+spareGot != 2*perProducer {
		t.Fatalf("messages lost or duplicated: %d + %d != %d", sinkGot, spareGot, 2*perProducer)
	}
	if spareGot == 0 || sinkGot == 0 {
		t.Fatalf("traffic split %d/%d, want both consumers hit", sinkGot, spareGot)
	}
}

// TestMigrateValidation: Migrate shares Reconnect's guard rails.
func TestMigrateValidation(t *testing.T) {
	a, k, prod, sinkA, sinkB, gotA, gotB := buildSwitchable(t)
	a.SpawnDriver("migrate", func(f core.Flow) {
		f.SleepUS(1_000)
		if err := a.Migrate(f, prod, "ghost", sinkB, "in"); err == nil {
			t.Error("unknown required accepted")
		}
		if err := a.Migrate(f, prod, "out", sinkB, "ghost"); err == nil {
			t.Error("unknown provided accepted")
		}
		if err := a.Migrate(f, nil, "out", sinkB, "in"); err == nil {
			t.Error("nil component accepted")
		}
		// Migrating onto the current target is a no-op, not a self-drain.
		if err := a.Migrate(f, prod, "out", sinkA, "in"); err != nil {
			t.Errorf("same-target migrate failed: %v", err)
		}
		// Hand the stream (and sinkA's backlog) to sinkB so both sinks get a
		// producer and the application can wind down.
		if err := a.Migrate(f, prod, "out", sinkB, "in"); err != nil {
			t.Error(err)
		}
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	if *gotA+*gotB != 100 {
		t.Fatalf("messages lost or duplicated: %d + %d != 100", *gotA, *gotB)
	}
}

// TestMigrateFromDriverFillsNewInboxWithinCapacity: a migrate run from a
// driver flow that closes the old inbox moves a backlog 16 times larger
// than the new inbox, on both simulators. The drain must not panic, must
// wait for room in the new inbox instead of overfilling it, and every
// message must be consumed exactly once.
func TestMigrateFromDriverFillsNewInboxWithinCapacity(t *testing.T) {
	const (
		msgs       = 64
		msgBytes   = 256
		spareBytes = 1024
	)
	for _, pn := range []string{"smp", "sti7200"} {
		t.Run(pn, func(t *testing.T) {
			var a *core.App
			var k *sim.Kernel
			var held func() int64 // bytes buffered in spare.in
			if pn == "smp" {
				a, k, _ = newSMPApp(t, "migrate-driver")
			} else {
				var b *os21bind.Binding
				a, k, b = newSTiApp(t, "migrate-driver")
				held = func() int64 {
					o, _ := b.Tr.Object("spare.in")
					return o.Pending()
				}
			}
			prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
				for i := 0; i < msgs; i++ {
					ctx.Send("out", i, msgBytes)
				}
				ctx.SleepUS(50_000) // keep the edge open until the migrate
			}).MustAddRequired("out")
			got := make([]int, msgs)
			var spare *core.Component
			overfull := int64(0)
			consume := func(sleepUS int64) core.Body {
				return func(ctx *core.Ctx) {
					ctx.SleepUS(sleepUS)
					for {
						m, ok := ctx.Receive("in")
						if !ok {
							return
						}
						got[m.Payload.(int)]++
						if ctx.Component() == spare {
							if b := held(); b > overfull {
								overfull = b
							}
							ctx.Compute(1_000_000)
						}
					}
				}
			}
			slow := a.MustNewComponent("slow", consume(20_000)).MustAddProvided("in", msgs*msgBytes)
			spare = a.MustNewComponent("spare", consume(0)).MustAddProvided("in", spareBytes)
			if held == nil {
				held = func() int64 {
					for _, in := range spare.Snapshot(core.LevelApplication).App.Interfaces {
						if in.Name == "in" && in.Type == "provided" {
							return int64(in.Depth) * msgBytes
						}
					}
					return 0
				}
			}
			a.MustConnect(prod, "out", slow, "in")
			var migrateErr error
			a.SpawnDriver("migrate", func(f core.Flow) {
				f.SleepUS(5_000)
				migrateErr = a.Migrate(f, prod, "out", spare, "in")
			})
			if err := a.Start(); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("run panicked: %v", r)
					}
				}()
				run(t, k, a)
			}()
			if migrateErr != nil {
				t.Fatalf("migrate: %v", migrateErr)
			}
			for i, n := range got {
				if n != 1 {
					t.Fatalf("message %d consumed %d times", i, n)
				}
			}
			if overfull > spareBytes {
				t.Fatalf("spare.in held %d bytes, capacity %d", overfull, spareBytes)
			}
		})
	}
}
