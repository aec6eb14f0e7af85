package smpbind_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"embera/internal/core"
	"embera/internal/linux"
	"embera/internal/sim"
	"embera/internal/smp"
	"embera/internal/smpbind"
)

func newApp(t *testing.T) (*core.App, *sim.Kernel, *smpbind.Binding) {
	t.Helper()
	k := sim.NewKernel()
	sys := linux.NewSystem(smp.MustNew(k, smp.DefaultConfig()))
	b := smpbind.New(sys, "app")
	return core.NewApp("app", b), k, b
}

func run(t *testing.T, k *sim.Kernel, a *core.App) {
	t.Helper()
	if err := k.RunUntil(sim.Time(3600 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !a.Done() {
		t.Fatal("app did not finish")
	}
}

func TestPlatformName(t *testing.T) {
	_, _, b := newApp(t)
	if b.PlatformName() != "16-core SMP / Linux" {
		t.Errorf("name = %q", b.PlatformName())
	}
}

func TestOversizeMessagePanics(t *testing.T) {
	a, k, _ := newApp(t)
	prod := a.MustNewComponent("p", func(ctx *core.Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("oversize message did not panic")
			}
		}()
		ctx.Send("out", nil, 10_000) // mailbox is 1 kB
	}).MustAddRequired("out")
	cons := a.MustNewComponent("c", func(ctx *core.Ctx) {
		ctx.Receive("in")
	}).MustAddProvided("in", 1024)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { recover() }()
		_ = k.RunUntil(sim.Time(sim.Second))
	}()
}

func TestNowUSHasMicrosecondResolution(t *testing.T) {
	a, k, b := newApp(t)
	c := a.MustNewComponent("c", func(ctx *core.Ctx) {})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	k.At(1234567, func() { // 1.234567 ms in
		if got := b.NowUS(c); got != 1234 {
			t.Errorf("NowUS = %d, want 1234", got)
		}
	})
	run(t, k, a)
}

func TestOSViewWhileRunning(t *testing.T) {
	a, k, b := newApp(t)
	c := a.MustNewComponent("c", func(ctx *core.Ctx) {
		ctx.SleepUS(10_000)
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	k.At(5*sim.Millisecond, func() {
		rep := b.OSView(c)
		if !rep.Running {
			t.Error("component not reported running mid-flight")
		}
		if rep.ExecTimeUS <= 0 || rep.ExecTimeUS > 5000 {
			t.Errorf("running exec time = %d", rep.ExecTimeUS)
		}
	})
	run(t, k, a)
	rep := b.OSView(c)
	if rep.Running {
		t.Error("still reported running after completion")
	}
}

func TestCacheCountersReachObservation(t *testing.T) {
	// E2 extension: cache-miss counts flow through the OS-level report.
	a, k, _ := newApp(t)
	prod := a.MustNewComponent("p", func(ctx *core.Ctx) {
		for i := 0; i < 50; i++ {
			ctx.Send("out", nil, 64*1024)
		}
	}).MustAddRequired("out").Place(0)
	cons := a.MustNewComponent("c", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 8<<20).Place(2)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	rep := prod.Snapshot(core.LevelOS)
	// The same 64 kB mailbox buffer is reused every send: the first pass
	// misses compulsorily (1024 lines), later passes hit in the 2 MB cache.
	if rep.OS.CacheMisses != 64*1024/64 {
		t.Errorf("compulsory misses = %d, want 1024", rep.OS.CacheMisses)
	}
	if rep.OS.CacheHits == 0 {
		t.Error("warm re-touches produced no hits")
	}
}

func TestCacheThrashingObservedForOversizeWorkingSet(t *testing.T) {
	// A 3 MB message streamed repeatedly through a 2 MB cache evicts itself
	// every pass: the observation interface must show a miss-dominated run.
	a, k, _ := newApp(t)
	prod := a.MustNewComponent("p", func(ctx *core.Ctx) {
		for i := 0; i < 5; i++ {
			ctx.Send("out", nil, 3<<20)
		}
	}).MustAddRequired("out").Place(0)
	cons := a.MustNewComponent("c", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 32<<20).Place(2)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	rep := prod.Snapshot(core.LevelOS)
	if rep.OS.CacheMisses <= rep.OS.CacheHits {
		t.Errorf("3 MB working set in a 2 MB cache should thrash: hits=%d misses=%d",
			rep.OS.CacheHits, rep.OS.CacheMisses)
	}
}

func TestSendCostGrowsWithNUMADistance(t *testing.T) {
	meanSend := func(senderCore, sinkCore int) float64 {
		a, k, _ := newApp(t)
		prod := a.MustNewComponent("p", func(ctx *core.Ctx) {
			for i := 0; i < 20; i++ {
				ctx.Send("out", nil, 100*1024)
			}
		}).MustAddRequired("out").Place(senderCore)
		cons := a.MustNewComponent("c", func(ctx *core.Ctx) {
			for {
				if _, ok := ctx.Receive("in"); !ok {
					return
				}
			}
		}).MustAddProvided("in", 16<<20).Place(sinkCore)
		a.MustConnect(prod, "out", cons, "in")
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		run(t, k, a)
		return prod.Snapshot(core.LevelMiddleware).Middleware.Send["out"].MeanUS()
	}
	local := meanSend(0, 1)   // same node
	remote := meanSend(0, 15) // 3 hops away (node 0 -> node 7)
	if remote <= local {
		t.Errorf("3-hop send (%.1fµs) not dearer than local (%.1fµs)", remote, local)
	}
}

func TestServiceQueueTrafficIsFree(t *testing.T) {
	// Observation traffic must not consume virtual time: a run with heavy
	// observer polling finishes at the same virtual instant.
	makespan := func(poll bool) sim.Time {
		a, k, _ := newApp(t)
		prod := a.MustNewComponent("p", func(ctx *core.Ctx) {
			for i := 0; i < 50; i++ {
				ctx.Compute(100_000)
				ctx.Send("out", nil, 1024)
			}
		}).MustAddRequired("out")
		cons := a.MustNewComponent("c", func(ctx *core.Ctx) {
			for {
				if _, ok := ctx.Receive("in"); !ok {
					return
				}
			}
		}).MustAddProvided("in", 1<<20)
		a.MustConnect(prod, "out", cons, "in")
		obs, err := a.AttachObserver()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		var appDone sim.Time
		a.SpawnDriver("watch", func(f core.Flow) {
			for !a.Done() {
				f.SleepUS(100)
				if poll {
					if _, err := obs.QueryAll(f, core.LevelAll); err != nil {
						t.Error(err)
					}
				}
			}
			appDone = k.Now()
		})
		if err := k.RunUntil(sim.Time(3600 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		if !a.Done() {
			t.Fatal("app did not finish")
		}
		return appDone
	}
	quiet := makespan(false)
	noisy := makespan(true)
	if quiet != noisy {
		t.Errorf("observer polling changed the application timeline: %d vs %d", quiet, noisy)
	}
}

// herd runs eight senders that each push msgs messages through one mailbox
// with room for a single message, into one receiver. It returns the
// senders in the order the receiver got their messages, the kernel's
// counters and the mallocs the run made.
func herd(t *testing.T, msgs int) (order []int, st sim.KernelStats, mallocs uint64) {
	t.Helper()
	a, k, _ := newApp(t)
	const senders, bytes = 8, 1024
	order = make([]int, 0, senders*msgs)
	rx := a.MustNewComponent("rx", func(ctx *core.Ctx) {
		for {
			m, ok := ctx.Receive("in")
			if !ok {
				return
			}
			order = append(order, m.Payload.(int))
		}
	}).MustAddProvided("in", bytes)
	for i := 0; i < senders; i++ {
		var from any = i
		tx := a.MustNewComponent(fmt.Sprintf("tx%d", i), func(ctx *core.Ctx) {
			for j := 0; j < msgs; j++ {
				ctx.Send("out", from, bytes)
			}
		}).MustAddRequired("out")
		a.MustConnect(tx, "out", rx, "in")
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run(t, k, a)
	runtime.ReadMemStats(&m1)
	return order, k.Stats(), m1.Mallocs - m0.Mallocs
}

// TestSenderHerd: eight senders blocked on one full mailbox are all woken
// by every receive, and all but the ones that find room wait again. The
// kernel re-parks those without switching into them; the admission order
// and the event stream stay what they were when every one of them
// switched in, and a blocked send allocates nothing.
func TestSenderHerd(t *testing.T) {
	order, st, _ := herd(t, 3)
	h := fnv.New64a()
	for _, s := range order {
		fmt.Fprintf(h, "%d,", s)
	}
	// Pinned from the kernel that switched into every woken sender: the
	// order, the events it scheduled and its 136 switches, now 67 re-parks
	// and 69 switches.
	const (
		wantOrder    = 0x8593370260a3cde5
		wantSchedule = 202
		wantResumes  = 136
		wantReparks  = 67
	)
	if h.Sum64() != wantOrder {
		t.Errorf("admission order %v moved (fnv %#x)", order, h.Sum64())
	}
	if st.Scheduled != wantSchedule || st.Switches+st.Reparks != wantResumes || st.Reparks != wantReparks {
		t.Errorf("kernel counters %+v, want %d scheduled, %d resumes, %d re-parked",
			st, wantSchedule, wantResumes, wantReparks)
	}

	_, short, few := herd(t, 50)
	_, long, many := herd(t, 550)
	if long.Reparks <= short.Reparks {
		t.Fatalf("re-parks did not grow with the herd: %d then %d", short.Reparks, long.Reparks)
	}
	if perSend := float64(int64(many)-int64(few)) / (8 * 500); perSend > 0.01 {
		t.Fatalf("a blocked send allocates %.3f times, want 0", perSend)
	}
}
