package ctl_test

import (
	"fmt"
	"strings"
	"testing"

	"embera/internal/core"
	"embera/internal/ctl"
	"embera/internal/monitor"
	"embera/internal/platform"
)

func depthPolicy(hold, cooldown int) ctl.Policy {
	return ctl.Policy{
		Name: "hot-worker", Component: "worker",
		Metric: ctl.MetricDepthHigh, Op: ">", Threshold: 5,
		HoldWindows: hold, CooldownWindows: cooldown,
		Action: ctl.Action{
			Type: ctl.ActMigrate,
			From: "disp", Required: "out", To: "spare", Provided: "in",
		},
	}
}

func win(comp string, depthHigh int, endUS int64) monitor.WindowRecord {
	return monitor.WindowRecord{Component: comp, DepthHigh: depthHigh, EndUS: endUS}
}

func TestPolicyValidation(t *testing.T) {
	good := depthPolicy(2, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	bad := []ctl.Policy{
		{},
		{Name: "x"},
		{Name: "x", Component: "c", Metric: "nope", Op: ">", Action: ctl.Action{Type: ctl.ActPause}},
		{Name: "x", Component: "c", Metric: ctl.MetricSendRate, Op: "!=", Action: ctl.Action{Type: ctl.ActPause}},
		{Name: "x", Component: "c", Metric: ctl.MetricSendRate, Op: ">", HoldWindows: -1, Action: ctl.Action{Type: ctl.ActPause}},
		{Name: "x", Component: "c", Metric: ctl.MetricSendRate, Op: ">", Action: ctl.Action{Type: "warp"}},
		{Name: "x", Component: "c", Metric: ctl.MetricSendRate, Op: ">", Action: ctl.Action{Type: ctl.ActMigrate}},
		{Name: "x", Component: "c", Metric: ctl.MetricSendRate, Op: ">", Action: ctl.Action{Type: ctl.ActTerminate}},
		{Name: "x", Component: "c", Metric: ctl.MetricSendRate, Op: ">", Action: ctl.Action{Type: ctl.ActSetPeriod, Level: "application"}},
		{Name: "x", Component: "c", Metric: ctl.MetricSendRate, Op: ">", Action: ctl.Action{Type: ctl.ActSetWindow, WindowUS: -5}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted: %+v", i, p)
		}
	}
	c := ctl.NewController()
	if err := c.SetPolicies([]ctl.Policy{good, good}); err == nil {
		t.Error("duplicate policy names accepted")
	}
	if err := c.SetPolicies([]ctl.Policy{good}); err != nil {
		t.Fatal(err)
	}
	if got := c.Policies(); len(got) != 1 || got[0].Name != "hot-worker" {
		t.Fatalf("installed policies = %+v", got)
	}
}

// TestSetPoliciesCap: a set of MaxPolicies installs, one more is rejected
// and leaves the installed set in place.
func TestSetPoliciesCap(t *testing.T) {
	set := func(n int) []ctl.Policy {
		ps := make([]ctl.Policy, n)
		for i := range ps {
			ps[i] = depthPolicy(2, 2)
			ps[i].Name = fmt.Sprintf("p%d", i)
		}
		return ps
	}
	c := ctl.NewController()
	if err := c.SetPolicies(set(ctl.MaxPolicies)); err != nil {
		t.Fatalf("a set of exactly the cap rejected: %v", err)
	}
	if err := c.SetPolicies(set(ctl.MaxPolicies + 1)); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("cap+1 policies: %v, want a cap error", err)
	}
	if got := c.Policies(); len(got) != ctl.MaxPolicies {
		t.Fatalf("rejected set replaced the installed one: %d policies", len(got))
	}
}

func TestControllerHoldAndCooldown(t *testing.T) {
	c := ctl.NewController()
	if err := c.SetPolicies([]ctl.Policy{depthPolicy(2, 2)}); err != nil {
		t.Fatal(err)
	}
	// Window 1 matches: streak 1, no firing yet (hold 2).
	if fs := c.Observe(win("worker", 9, 1000)); len(fs) != 0 {
		t.Fatalf("fired before hold satisfied: %+v", fs)
	}
	// A miss resets the streak.
	if fs := c.Observe(win("worker", 1, 2000)); len(fs) != 0 {
		t.Fatal("fired on a miss")
	}
	// Two consecutive matches arm and fire.
	c.Observe(win("worker", 9, 3000))
	fs := c.Observe(win("worker", 8, 4000))
	if len(fs) != 1 {
		t.Fatalf("firings = %+v, want exactly 1", fs)
	}
	f := fs[0]
	if f.Value != 8 || f.WindowEndUS != 4000 || f.Policy.Action.Type != ctl.ActMigrate {
		t.Fatalf("firing = %+v", f)
	}
	// Cooldown: the next two matching windows are suppressed...
	if fs := c.Observe(win("worker", 9, 5000)); len(fs) != 0 {
		t.Fatal("fired during cooldown")
	}
	if fs := c.Observe(win("worker", 9, 6000)); len(fs) != 0 {
		t.Fatal("fired during cooldown")
	}
	// ...and other components never count against this rule.
	if fs := c.Observe(win("other", 99, 6500)); len(fs) != 0 {
		t.Fatal("fired for a foreign component")
	}
	// Cooldown over: two fresh matches fire again.
	c.Observe(win("worker", 9, 7000))
	if fs := c.Observe(win("worker", 9, 8000)); len(fs) != 1 {
		t.Fatalf("post-cooldown firings = %+v, want 1", fs)
	}
	fired, suppressed, execErrs := c.Counters()
	if fired != 2 || suppressed != 2 || execErrs != 0 {
		t.Fatalf("counters = %d/%d/%d, want 2 fired, 2 suppressed, 0 errors", fired, suppressed, execErrs)
	}
	c.NoteError("hot-worker")
	st := c.Status()
	if len(st) != 1 || st[0].Fired != 2 || st[0].Suppressed != 2 || st[0].ExecErrors != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st[0].LastFiredUS != 8000 {
		t.Fatalf("last fired = %d, want 8000", st[0].LastFiredUS)
	}
}

func TestScheduleDeterminismAndEdges(t *testing.T) {
	edges := []ctl.Edge{
		{From: "a", Required: "out", To: "b", Provided: "in"},
		{From: "b", Required: "out", To: "c", Provided: "in"},
	}
	s1 := ctl.NewSchedule(42, edges, 6)
	s2 := ctl.NewSchedule(42, edges, 6)
	if len(s1.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(s1.Points))
	}
	for i := range s1.Points {
		if s1.Points[i] != s2.Points[i] {
			t.Fatalf("schedule not deterministic at point %d: %+v vs %+v", i, s1.Points[i], s2.Points[i])
		}
		if s1.Points[i].DelayUS <= 0 {
			t.Fatalf("non-positive delay at point %d", i)
		}
	}
	if s3 := ctl.NewSchedule(43, edges, 6); len(s3.Points) == len(s1.Points) {
		same := true
		for i := range s1.Points {
			if s1.Points[i] != s3.Points[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced the same schedule")
		}
	}
	if s := ctl.NewSchedule(1, nil, 6); len(s.Points) != 0 {
		t.Fatal("schedule over no edges has points")
	}
}

// TestAppEdgesSkipsExternal: edges with an external endpoint (cluster
// coordinator view) must not be offered to the scheduler.
func TestAppEdgesSkipsExternal(t *testing.T) {
	_, a := platform.MustGet("smp").New("edges")
	body := func(ctx *core.Ctx) {}
	p1 := a.MustNewComponent("p1", body).MustAddRequired("out")
	p2 := a.MustNewComponent("p2", body).MustAddRequired("out")
	s1 := a.MustNewComponent("s1", body).MustAddProvided("in", 0)
	s2 := a.MustNewComponent("s2", body).MustAddProvided("in", 0)
	a.MustConnect(p1, "out", s1, "in")
	a.MustConnect(p2, "out", s2, "in")
	if got := len(ctl.AppEdges(a)); got != 2 {
		t.Fatalf("edges = %d, want 2", got)
	}
	s2.SetExternal(true)
	edges := ctl.AppEdges(a)
	if len(edges) != 1 || edges[0].From != "p1" {
		t.Fatalf("external endpoint not filtered: %+v", edges)
	}
	p1.SetExternal(true)
	if got := len(ctl.AppEdges(a)); got != 0 {
		t.Fatalf("edges = %d, want 0 with both endpoints external", got)
	}
}

// TestAttachMigrationsPreservesDelivery runs a seeded schedule of
// same-target migrate/reconnect points against a live pipeline: every
// point must apply (or legally race termination), and not a single message
// may be lost or duplicated.
func TestAttachMigrationsPreservesDelivery(t *testing.T) {
	m, a := platform.MustGet("smp").New("fuzz-sched")
	const messages = 400
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < messages; i++ {
			ctx.Compute(50_000)
			if !ctx.Send("out", i, 128) {
				return
			}
		}
	}).MustAddRequired("out")
	got := 0
	sink := a.MustNewComponent("sink", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
			got++
		}
	}).MustAddProvided("in", 1<<20)
	a.MustConnect(prod, "out", sink, "in")
	sched := ctl.ScheduleFor(a, 8)
	if len(sched.Points) != 8 {
		t.Fatalf("schedule points = %d, want 8", len(sched.Points))
	}
	res := ctl.AttachMigrations(a, sched)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(60_000_000); err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("schedule failed: %v", err)
	}
	if res.Applied()+res.Skipped() != 8 {
		t.Fatalf("applied %d + skipped %d != 8 points", res.Applied(), res.Skipped())
	}
	if got != messages {
		t.Fatalf("messages delivered = %d, want %d", got, messages)
	}
	if !a.Done() {
		t.Fatal("application did not quiesce under the schedule")
	}
}

// TestAttachMigrationsEmptySchedule: no edges (or no points) must attach
// no driver at all — a cluster coordinator cell is a pure control.
func TestAttachMigrationsEmptySchedule(t *testing.T) {
	m, a := platform.MustGet("smp").New("fuzz-empty")
	a.MustNewComponent("solo", func(ctx *core.Ctx) { ctx.Compute(1000) })
	sched := ctl.ScheduleFor(a, 8)
	if len(sched.Points) != 0 {
		t.Fatalf("edgeless app got %d points", len(sched.Points))
	}
	res := ctl.AttachMigrations(a, sched)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if res.Err() != nil || res.Applied() != 0 {
		t.Fatalf("empty schedule reported work: err=%v applied=%d", res.Err(), res.Applied())
	}
}

// TestScheduleForStableAcrossRuns: the canonical schedule is a pure
// function of the app name and assembly, so a deterministic platform's
// repeat run derives the identical injection points.
func TestScheduleForStableAcrossRuns(t *testing.T) {
	build := func() (*core.App, ctl.Schedule) {
		_, a := platform.MustGet("smp").New("stable-app")
		body := func(ctx *core.Ctx) {}
		p := a.MustNewComponent("p", body).MustAddRequired("out")
		s := a.MustNewComponent("s", body).MustAddProvided("in", 0)
		a.MustConnect(p, "out", s, "in")
		return a, ctl.ScheduleFor(a, 5)
	}
	_, s1 := build()
	_, s2 := build()
	if len(s1.Points) != 5 || len(s2.Points) != 5 {
		t.Fatalf("points = %d/%d, want 5/5", len(s1.Points), len(s2.Points))
	}
	for i := range s1.Points {
		if s1.Points[i] != s2.Points[i] {
			t.Fatalf("schedule differs at %d: %+v vs %+v", i, s1.Points[i], s2.Points[i])
		}
	}
	if !strings.Contains(s1.Points[0].Edge.From, "p") {
		t.Fatalf("unexpected edge: %+v", s1.Points[0])
	}
}
