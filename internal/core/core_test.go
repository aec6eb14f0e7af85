package core_test

import (
	"strings"
	"testing"

	"embera/internal/core"
	"embera/internal/linux"
	"embera/internal/os21bind"
	"embera/internal/sim"
	"embera/internal/smp"
	"embera/internal/smpbind"
	"embera/internal/sti7200"
)

// newSMPApp builds an empty app on a fresh simulated SMP/Linux platform.
func newSMPApp(t *testing.T, name string) (*core.App, *sim.Kernel, *smpbind.Binding) {
	t.Helper()
	k := sim.NewKernel()
	sys := linux.NewSystem(smp.MustNew(k, smp.DefaultConfig()))
	b := smpbind.New(sys, name)
	return core.NewApp(name, b), k, b
}

// newSTiApp builds an empty app on a fresh simulated STi7200/OS21 platform.
func newSTiApp(t *testing.T, name string) (*core.App, *sim.Kernel, *os21bind.Binding) {
	t.Helper()
	k := sim.NewKernel()
	b := os21bind.New(sti7200.MustNew(k, sti7200.DefaultConfig()))
	return core.NewApp(name, b), k, b
}

// run executes the kernel with a horizon and asserts completion.
func run(t *testing.T, k *sim.Kernel, a *core.App) {
	t.Helper()
	if err := k.RunUntil(sim.Time(3600 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !a.Done() {
		t.Fatal("application did not complete within the horizon")
	}
}

func TestAssemblyValidation(t *testing.T) {
	a, _, _ := newSMPApp(t, "app")
	if _, err := a.NewComponent("", func(ctx *core.Ctx) {}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := a.NewComponent("x", nil); err == nil {
		t.Error("nil body accepted")
	}
	c1, err := a.NewComponent("c1", func(ctx *core.Ctx) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.NewComponent("c1", func(ctx *core.Ctx) {}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := c1.AddProvided("in", 0); err != nil {
		t.Fatal(err)
	}
	if err := c1.AddProvided("in", 0); err == nil {
		t.Error("duplicate provided accepted")
	}
	if err := c1.AddProvided(core.ObsIfaceName, 0); err == nil {
		t.Error("reserved provided name accepted")
	}
	if err := c1.AddProvided("neg", -1); err == nil {
		t.Error("negative buffer accepted")
	}
	if err := c1.AddRequired("out"); err != nil {
		t.Fatal(err)
	}
	if err := c1.AddRequired("out"); err == nil {
		t.Error("duplicate required accepted")
	}
	if err := c1.AddRequired(core.ObsIfaceName); err == nil {
		t.Error("reserved required name accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	a, _, _ := newSMPApp(t, "app")
	p := a.MustNewComponent("p", func(ctx *core.Ctx) {}).MustAddRequired("out")
	c := a.MustNewComponent("c", func(ctx *core.Ctx) {}).MustAddProvided("in", 0)
	if err := a.Connect(p, "nope", c, "in"); err == nil {
		t.Error("unknown required accepted")
	}
	if err := a.Connect(p, "out", c, "nope"); err == nil {
		t.Error("unknown provided accepted")
	}
	if err := a.Connect(p, "out", p, "out"); err == nil {
		t.Error("self-connection accepted")
	}
	if err := a.Connect(nil, "out", c, "in"); err == nil {
		t.Error("nil component accepted")
	}
	if err := a.Connect(p, "out", c, "in"); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(p, "out", c, "in"); err == nil {
		t.Error("double connection accepted")
	}
}

func TestPipelineDeliversInOrder(t *testing.T) {
	a, k, _ := newSMPApp(t, "pipe")
	const n = 50
	var got []int
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < n; i++ {
			ctx.Compute(1000)
			if !ctx.Send("out", i, 128) {
				t.Error("send failed")
			}
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			m, ok := ctx.Receive("in")
			if !ok {
				return
			}
			got = append(got, m.Payload.(int))
		}
	}).MustAddProvided("in", 0)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestMailboxClosesWhenAllProducersTerminate(t *testing.T) {
	a, k, _ := newSMPApp(t, "fanin")
	var got int
	mk := func(name string) *core.Component {
		return a.MustNewComponent(name, func(ctx *core.Ctx) {
			for i := 0; i < 10; i++ {
				ctx.Send("out", i, 64)
			}
		}).MustAddRequired("out")
	}
	p1, p2, p3 := mk("p1"), mk("p2"), mk("p3")
	sink := a.MustNewComponent("sink", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
			got++
		}
	}).MustAddProvided("in", 0)
	for _, p := range []*core.Component{p1, p2, p3} {
		a.MustConnect(p, "out", sink, "in")
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	if got != 30 {
		t.Errorf("got %d messages, want 30", got)
	}
}

func TestBoundedMailboxBackpressure(t *testing.T) {
	a, k, _ := newSMPApp(t, "bp")
	var prodDoneUS, firstRecvUS int64
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < 4; i++ {
			ctx.Send("out", i, 1024) // 4 kB total into a 2 kB mailbox
		}
		prodDoneUS = ctx.NowUS()
	}).MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		ctx.SleepUS(50_000) // stall so the producer must block
		first := true
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
			if first {
				firstRecvUS = ctx.NowUS()
				first = false
			}
		}
	}).MustAddProvided("in", 2048)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	if prodDoneUS < firstRecvUS {
		t.Errorf("producer finished at %dµs before consumer started draining at %dµs — no backpressure",
			prodDoneUS, firstRecvUS)
	}
}

func TestSendOnUnknownIfacePanics(t *testing.T) {
	a, k, _ := newSMPApp(t, "bad")
	a.MustNewComponent("p", func(ctx *core.Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("send on unknown interface did not panic")
			}
		}()
		ctx.Send("ghost", nil, 1)
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { recover() }()
		_ = k.RunUntil(sim.Time(sim.Second))
	}()
}

func TestSendOnUnconnectedIfacePanics(t *testing.T) {
	a, k, _ := newSMPApp(t, "bad2")
	a.MustNewComponent("p", func(ctx *core.Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("send on unconnected interface did not panic")
			}
		}()
		ctx.Send("out", nil, 1)
	}).MustAddRequired("out")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { recover() }()
		_ = k.RunUntil(sim.Time(sim.Second))
	}()
}

func TestStartValidation(t *testing.T) {
	a, _, _ := newSMPApp(t, "app")
	a.MustNewComponent("c", func(ctx *core.Ctx) {})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err == nil {
		t.Error("double start accepted")
	}
	if _, err := a.NewComponent("late", func(ctx *core.Ctx) {}); err == nil {
		t.Error("component creation after start accepted")
	}
}

func TestCommunicationCounters(t *testing.T) {
	a, k, _ := newSMPApp(t, "count")
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < 7; i++ {
			ctx.Send("out", i, 256)
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 0)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)

	pr := prod.Snapshot(core.LevelAll)
	cr := cons.Snapshot(core.LevelAll)
	if pr.App.SendOps != 7 || pr.App.RecvOps != 0 {
		t.Errorf("prod ops = %d/%d, want 7/0", pr.App.SendOps, pr.App.RecvOps)
	}
	if cr.App.SendOps != 0 || cr.App.RecvOps != 7 {
		t.Errorf("cons ops = %d/%d, want 0/7", cr.App.SendOps, cr.App.RecvOps)
	}
	s := pr.Middleware.Send["out"]
	if s.Ops != 7 || s.Bytes != 7*256 {
		t.Errorf("middleware send stats = %+v", s)
	}
	if s.MeanUS() < 0 {
		t.Error("negative mean send time")
	}
	r := cr.Middleware.Recv["in"]
	if r.Ops != 7 {
		t.Errorf("middleware recv stats = %+v", r)
	}
}

func TestObserverInSimulationQueries(t *testing.T) {
	a, k, _ := newSMPApp(t, "obs")
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < 5; i++ {
			ctx.Send("out", i, 100)
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 0)
	a.MustConnect(prod, "out", cons, "in")

	obs, err := a.AttachObserver()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AttachObserver(); err == nil {
		t.Error("second observer accepted")
	}

	var reports map[string]core.ObsReport
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	a.SpawnDriver("driver", func(f core.Flow) {
		a.AwaitQuiescence(f)
		reports, err = obs.QueryAll(f, core.LevelAll)
	})
	run(t, k, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	pr := reports["prod"]
	if pr.App.SendOps != 5 {
		t.Errorf("observed prod sends = %d", pr.App.SendOps)
	}
	if pr.OS == nil || pr.OS.ExecTimeUS <= 0 || pr.OS.Running {
		t.Errorf("observed prod OS view = %+v", pr.OS)
	}
	// In-sim report must match a direct snapshot.
	direct := prod.Snapshot(core.LevelAll)
	if direct.App.SendOps != pr.App.SendOps || direct.OS.MemBytes != pr.OS.MemBytes {
		t.Error("message-path report differs from direct snapshot")
	}
}

func TestObserverRequestUnknownComponent(t *testing.T) {
	a, k, _ := newSMPApp(t, "obs2")
	a.MustNewComponent("c", func(ctx *core.Ctx) {})
	obs, _ := a.AttachObserver()
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	var reqErr error
	a.SpawnDriver("driver", func(f core.Flow) {
		reqErr = obs.Request(f, "ghost", core.LevelOS)
	})
	run(t, k, a)
	if reqErr == nil {
		t.Error("request for unknown component accepted")
	}
}

func TestFigure5InterfaceListing(t *testing.T) {
	// Reproduce the paper's Figure 5 for component IDCT_1 exactly: the two
	// observation interfaces plus _fetchIdct1 (provided) and idctReorder
	// (required), in that order.
	a, _, _ := newSMPApp(t, "mjpeg")
	idct := a.MustNewComponent("IDCT_1", func(ctx *core.Ctx) {}).
		MustAddProvided("_fetchIdct1", 0).
		MustAddRequired("idctReorder")

	ifaces := idct.InterfaceList()
	want := []struct{ name, typ string }{
		{"introspection", "provided"},
		{"_fetchIdct1", "provided"},
		{"introspection", "required"},
		{"idctReorder", "required"},
	}
	if len(ifaces) != len(want) {
		t.Fatalf("interfaces = %d, want %d", len(ifaces), len(want))
	}
	for i, w := range want {
		if ifaces[i].Name != w.name || ifaces[i].Type != w.typ {
			t.Errorf("iface[%d] = %s/%s, want %s/%s", i, ifaces[i].Name, ifaces[i].Type, w.name, w.typ)
		}
	}
	listing := core.FormatInterfaces("IDCT_1", ifaces)
	for _, line := range []string{
		"Interfaces component [IDCT_1]",
		"[Interface]",
		"_fetchIdct1",
		"idctReorder",
	} {
		if !strings.Contains(listing, line) {
			t.Errorf("listing missing %q:\n%s", line, listing)
		}
	}
}

func TestEventSinkReceivesLifecycleAndComm(t *testing.T) {
	a, k, _ := newSMPApp(t, "ev")
	var events []core.Event
	a.SetEventSink(sinkFunc(func(e core.Event) { events = append(events, e) }))
	prod := a.MustNewComponent("p", func(ctx *core.Ctx) {
		ctx.Compute(10_000)
		ctx.Send("out", 1, 64)
	}).MustAddRequired("out")
	cons := a.MustNewComponent("c", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 0)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	counts := map[core.EventKind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	if counts[core.EvStart] != 2 || counts[core.EvStop] != 2 {
		t.Errorf("lifecycle events = %d starts, %d stops", counts[core.EvStart], counts[core.EvStop])
	}
	if counts[core.EvSend] != 1 || counts[core.EvReceive] != 1 {
		t.Errorf("comm events = %d sends, %d receives", counts[core.EvSend], counts[core.EvReceive])
	}
	if counts[core.EvCompute] != 1 {
		t.Errorf("compute events = %d", counts[core.EvCompute])
	}
}

type sinkFunc func(core.Event)

func (f sinkFunc) Emit(e core.Event) { f(e) }

func TestPlacementHonored(t *testing.T) {
	a, k, b := newSMPApp(t, "place")
	c := a.MustNewComponent("pinned", func(ctx *core.Ctx) {}).Place(5)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	if got := b.Core(c).ID; got != 5 {
		t.Errorf("placed on core %d, want 5", got)
	}
}

func TestOSViewMemoryAccounting(t *testing.T) {
	a, k, _ := newSMPApp(t, "mem")
	c := a.MustNewComponent("c", func(ctx *core.Ctx) {}).
		MustAddProvided("in", 100*1024).
		MustAddProvided("in2", 50*1024)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	rep := c.Snapshot(core.LevelOS)
	want := linux.DefaultStackSize + 150*1024
	if rep.OS.MemBytes != want {
		t.Errorf("MemBytes = %d, want %d (stack + 150 kB interfaces)", rep.OS.MemBytes, want)
	}
}

func TestDefaultMailboxBytesMatchesPaperCalibration(t *testing.T) {
	a, k, _ := newSMPApp(t, "calib")
	c := a.MustNewComponent("idct", func(ctx *core.Ctx) {}).MustAddProvided("in", 0)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	rep := c.Snapshot(core.LevelOS)
	// 8392 kB stack + 2458 kB mailbox = 10850 kB: the paper's IDCT row.
	if got := rep.OS.MemBytes / 1024; got != 10850 {
		t.Errorf("IDCT-shaped component memory = %d kB, want 10850 kB", got)
	}
}

func TestSnapshotLevels(t *testing.T) {
	a, _, _ := newSMPApp(t, "lv")
	c := a.MustNewComponent("c", func(ctx *core.Ctx) {})
	if r := c.Snapshot(core.LevelOS); r.OS == nil || r.Middleware != nil || r.App != nil {
		t.Error("LevelOS sections wrong")
	}
	if r := c.Snapshot(core.LevelMiddleware); r.OS != nil || r.Middleware == nil {
		t.Error("LevelMiddleware sections wrong")
	}
	if r := c.Snapshot(core.LevelApplication); r.App == nil || r.OS != nil {
		t.Error("LevelApplication sections wrong")
	}
	if r := c.Snapshot(core.LevelAll); r.OS == nil || r.Middleware == nil || r.App == nil {
		t.Error("LevelAll sections wrong")
	}
}

func TestStateStrings(t *testing.T) {
	if core.StateCreated.String() != "created" ||
		core.StateStarted.String() != "started" ||
		core.StateDone.String() != "done" {
		t.Error("state strings wrong")
	}
	for l, want := range map[core.ObsLevel]string{
		core.LevelOS: "os", core.LevelMiddleware: "middleware",
		core.LevelApplication: "application", core.LevelAll: "all",
	} {
		if l.String() != want {
			t.Errorf("level %d string = %q", int(l), l.String())
		}
	}
}

func TestExecutionTimesObserved(t *testing.T) {
	a, k, _ := newSMPApp(t, "times")
	c := a.MustNewComponent("worker", func(ctx *core.Ctx) {
		ctx.Compute(2_200_000 * 10) // 10 ms at 2.2 GHz
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	rep := c.Snapshot(core.LevelOS)
	if rep.OS.ExecTimeUS < 9_900 || rep.OS.ExecTimeUS > 10_100 {
		t.Errorf("exec time = %dµs, want ~10000", rep.OS.ExecTimeUS)
	}
	if rep.OS.Running {
		t.Error("component reported running after completion")
	}
}

func TestMessageFromIsSenderName(t *testing.T) {
	a, k, _ := newSMPApp(t, "from")
	var from string
	prod := a.MustNewComponent("alice", func(ctx *core.Ctx) {
		ctx.Send("out", "hi", 16)
	}).MustAddRequired("out")
	cons := a.MustNewComponent("bob", func(ctx *core.Ctx) {
		m, ok := ctx.Receive("in")
		if ok {
			from = m.From
		}
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 0)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	if from != "alice" {
		t.Errorf("From = %q, want alice", from)
	}
}

func TestCtxNowUSMonotonic(t *testing.T) {
	a, k, _ := newSMPApp(t, "now")
	a.MustNewComponent("c", func(ctx *core.Ctx) {
		t0 := ctx.NowUS()
		ctx.Compute(2_200_000) // 1 ms
		t1 := ctx.NowUS()
		if t1 < t0+900 || t1 > t0+1100 {
			t.Errorf("NowUS delta = %d, want ~1000", t1-t0)
		}
		ctx.SleepUS(500)
		if ctx.NowUS() < t1+400 {
			t.Error("SleepUS did not advance platform time")
		}
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
}

func TestFormatMWReportContents(t *testing.T) {
	a, k, _ := newSMPApp(t, "fmt")
	prod := a.MustNewComponent("p", func(ctx *core.Ctx) {
		for i := 0; i < 3; i++ {
			ctx.Send("out", nil, 512)
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("c", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 0)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, k, a)
	out := core.FormatMWReport("p", prod.Snapshot(core.LevelMiddleware).Middleware)
	for _, want := range []string{"Middleware report [p]", "send out", "ops=3", "bytes=1536"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestMailboxDepthVisibleInListing(t *testing.T) {
	a, k, _ := newSMPApp(t, "depth")
	prod := a.MustNewComponent("p", func(ctx *core.Ctx) {
		for i := 0; i < 5; i++ {
			ctx.Send("out", nil, 100)
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("c", func(ctx *core.Ctx) {
		ctx.SleepUS(50_000) // let messages pile up
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 1<<20)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	var midDepth int
	k.At(20*sim.Millisecond, func() {
		for _, i := range cons.InterfaceList() {
			if i.Name == "in" {
				midDepth = i.Depth
			}
		}
	})
	run(t, k, a)
	if midDepth != 5 {
		t.Errorf("mid-run depth = %d, want 5 (all buffered)", midDepth)
	}
	for _, i := range cons.InterfaceList() {
		if i.Name == "in" && i.Depth != 0 {
			t.Errorf("final depth = %d, want 0", i.Depth)
		}
	}
}
